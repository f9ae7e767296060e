//===- codegen/RegAlloc.h - Linear-scan register allocation ------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-scan register allocation over the live intervals of
/// codegen/LiveIntervals.h, following dreavm's register_allocation_pass:
/// intervals are visited in ascending start order, expired actives free
/// their registers, and when no register is available the interval with the
/// furthest end point is spilled to a frame slot.
///
/// Register conventions (see docs/CODEGEN.md):
///
///   RAX, RDX     reserved spill-rewrite scratches
///   RCX          reserved emitter scratch (shift counts, setcc, FP masks,
///                array indices)
///   RSP, RBP     frame
///   R15          native context pointer
///   RBX R12-R14  allocatable, callee-saved (survive calls)
///   RSI RDI      allocatable, caller-saved
///   R8-R11       allocatable, caller-saved
///
/// Intervals that cross a call may only take callee-saved registers — the
/// emitted code never saves registers around calls, so everything else must
/// either end before the call or live in a spill slot. Inline array
/// accesses are not calls: they clobber only RAX/RCX/RDX.
///
/// After assignment the rewriter replaces every vreg: ordinary instructions
/// get SpillLoad/SpillStore fixups through the scratch registers; call
/// pseudos and array accesses keep spilled operands as slot references,
/// which the emitter stages straight from the frame.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_REGALLOC_H
#define SXE_CODEGEN_REGALLOC_H

#include "codegen/LiveIntervals.h"
#include "codegen/MachineIR.h"

#include <cstdint>
#include <vector>

namespace sxe {

/// Allocation knobs. The pool caps exist so tests can force spills with a
/// handful of live values (k+1 values on k registers) instead of needing
/// eleven simultaneously live ranges.
struct RegAllocOptions {
  /// How many of {RBX, R12, R13, R14} to use (0..4).
  uint32_t MaxCalleeSaved = 4;
  /// How many of {RSI, RDI, R8, R9, R10, R11} to use (0..6).
  uint32_t MaxCallerSaved = 6;
};

/// Outcome of one allocateRegisters() run.
struct RegAllocResult {
  uint32_t NumSpillSlots = 0;
  uint32_t NumSpilledIntervals = 0;
  uint32_t NumSpillLoads = 0;  ///< SpillLoad fixups inserted.
  uint32_t NumSpillStores = 0; ///< SpillStore fixups inserted.
  /// Final intervals with PhysReg/Slot assignments, for the verifier and
  /// the tests (sorted by ascending start).
  std::vector<LiveInterval> Intervals;
};

/// Runs linear scan on \p MF and rewrites its instructions in place to use
/// physical registers, spill code, and slot references. Sets
/// MF.NumSpillSlots.
RegAllocResult allocateRegisters(MFunction &MF,
                                 const RegAllocOptions &Opts = {});

} // namespace sxe

#endif // SXE_CODEGEN_REGALLOC_H
