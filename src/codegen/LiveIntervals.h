//===- codegen/LiveIntervals.h - Live intervals over machine IR --*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-scan prerequisites over the machine IR, following the shape of
/// dreavm's register_allocation_pass: instructions are numbered in layout
/// order, block-level liveness runs to a fixpoint, and every virtual
/// register gets one conservative [Start, End] hull interval (holes are not
/// modeled — exactly the Poletto/Sarkar formulation the allocator wants).
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_LIVEINTERVALS_H
#define SXE_CODEGEN_LIVEINTERVALS_H

#include "codegen/MachineIR.h"
#include "support/DenseBitset.h"

#include <vector>

namespace sxe {

/// Per-block live-in/live-out sets: LiveIn[block id] holds
/// vreg - FirstVirtReg for each vreg live on entry to the block.
struct BlockLiveness {
  std::vector<DenseBitset> LiveIn;
  std::vector<DenseBitset> LiveOut;
};

/// Assigns layout-order positions to every instruction (MInst::Pos), in
/// steps of two so spill code conceptually fits between positions. Returns
/// one past the last assigned position.
uint32_t numberMachineInsts(MFunction &MF);

/// Backward block-level liveness to a fixpoint. The one machine liveness:
/// lowering's zero-initialization and the live intervals both read it.
BlockLiveness computeBlockLiveness(const MFunction &MF);

/// One virtual register's conservative live range.
struct LiveInterval {
  uint32_t VReg = MNoReg;
  /// First position where the vreg is live: odd, just ahead of the
  /// block's first instruction, when the value is live into that block.
  uint32_t Start = 0;
  uint32_t End = 0;   ///< Last position where the vreg is live (inclusive).
  /// True when a call instruction lies strictly inside (Start, End): the
  /// value must survive the call, so only callee-saved registers qualify.
  bool CrossesCall = false;

  // Register-allocator output.
  uint32_t PhysReg = MNoReg; ///< Assigned physical register, if any.
  uint32_t Slot = MNoReg;    ///< Assigned spill slot when spilled.

  bool spilled() const { return Slot != MNoReg; }
  bool overlaps(const LiveInterval &Other) const {
    return Start <= Other.End && Other.Start <= End;
  }
};

/// Numbers \p MF and builds one interval per live virtual register, sorted
/// by ascending Start position.
std::vector<LiveInterval> computeLiveIntervals(MFunction &MF);

} // namespace sxe

#endif // SXE_CODEGEN_LIVEINTERVALS_H
