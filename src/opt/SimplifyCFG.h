//===- opt/SimplifyCFG.h - Conservative CFG cleanup ---------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conservative control-flow cleanup, part of the pipeline's "general
/// optimizations": thread trivial jump chains (a block containing only
/// `jmp T`), merge a block into its unique jump successor when that
/// successor has no other predecessors, and drop unreachable blocks.
/// Structured builders (workloads/KernelBuilder.h) produce many empty
/// join blocks; cleaning them up shortens analysis chains and makes the
/// block-frequency tiers of order determination crisper.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_OPT_SIMPLIFYCFG_H
#define SXE_OPT_SIMPLIFYCFG_H

namespace sxe {

class AnalysisCache;

/// Simplifies the CFG of \p A's function. Returns the number of blocks
/// removed. The cleanup rounds reuse \p A's CFG, rebuilding only when a
/// round actually erased or merged blocks.
unsigned runSimplifyCFG(AnalysisCache &A);

} // namespace sxe

#endif // SXE_OPT_SIMPLIFYCFG_H
