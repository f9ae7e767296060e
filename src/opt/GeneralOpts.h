//===- opt/GeneralOpts.h - Step 2 driver --------------------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Driver for the pipeline's "general optimizations" (Figure 5, step 2):
/// local constant folding / copy propagation, extension PRE, and dead code
/// elimination, iterated to a small fixpoint.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_OPT_GENERALOPTS_H
#define SXE_OPT_GENERALOPTS_H

namespace sxe {

class AnalysisCache;

/// Runs the step-2 optimizations over \p A's function for \p A's target.
/// Returns the total number of rewrites/removals performed. Every
/// constituent pass shares \p A, so analyses rebuild only when the IR
/// actually moved.
unsigned runGeneralOpts(AnalysisCache &A);

} // namespace sxe

#endif // SXE_OPT_GENERALOPTS_H
