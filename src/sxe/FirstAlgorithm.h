//===- sxe/FirstAlgorithm.h - Backward-dataflow elimination ------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The authors' *first* algorithm (Section 1), measured as "first
/// algorithm (bwd flow)": after gen-def conversion, a backward dataflow
/// analysis computes, at every point, the set of registers whose canonical
/// upper bits may still be demanded by a following instruction. An
/// extension whose register is not demanded immediately after it is
/// removed.
///
/// The paper lists four limitations of this algorithm that the new one
/// fixes — most importantly, an array index use *demands* extension here
/// (no Theorem 1-4 reasoning), so loop subscripts keep their extends.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SXE_FIRSTALGORITHM_H
#define SXE_SXE_FIRSTALGORITHM_H

namespace sxe {

class AnalysisCache;

/// Runs the backward-dataflow elimination over \p A's function on
/// \p A's target, with \p A's CFG. Returns the number of extensions
/// removed.
unsigned runFirstAlgorithm(AnalysisCache &A);

} // namespace sxe

#endif // SXE_SXE_FIRSTALGORITHM_H
