//===- opt/DeadCodeElim.h - Liveness-based dead code removal -----*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward-liveness dead code elimination over the non-SSA IR:
/// a pure definition whose register is not live after it is removed.
/// Part of the pipeline's "general optimizations" (Figure 5, step 2).
/// Note that a redundant `r = sext32 r` is NOT dead as long as r is used —
/// removing those is the job of the paper's elimination algorithm.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_OPT_DEADCODEELIM_H
#define SXE_OPT_DEADCODEELIM_H

namespace sxe {

class AnalysisCache;

/// Removes dead pure definitions from \p A's function until a fixpoint.
/// Returns the number of instructions removed. \p A supplies the CFG
/// (removal preserves the block graph, so sweeps after the first hit it).
unsigned runDeadCodeElim(AnalysisCache &A);

} // namespace sxe

#endif // SXE_OPT_DEADCODEELIM_H
