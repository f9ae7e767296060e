//===- codegen/MachineVerifier.h - Post-RA machine IR checks -----*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural checks on allocated machine IR, run before emission (and
/// directly by tests/codegen_test.cpp):
///
///  - every block is non-empty and ends in exactly one terminator;
///  - no operand is an unallocated virtual register;
///  - slot references appear only on call pseudos and inline array
///    accesses (the emitter stages them from the frame) and lie inside the
///    function's spill area;
///  - reserved registers (RAX/RCX/RDX/RSP/RBP/R15) never appear as
///    allocated operands outside the rewriter's own spill fixups;
///  - no two live intervals assigned to the same physical register overlap.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_MACHINEVERIFIER_H
#define SXE_CODEGEN_MACHINEVERIFIER_H

#include "codegen/LiveIntervals.h"
#include "codegen/MachineIR.h"

#include <string>
#include <vector>

namespace sxe {

/// Verifies allocated \p MF; \p Intervals, when provided, additionally gets
/// the overlap check. Returns an empty string on success, otherwise a
/// description of the first problem found.
std::string verifyMachineFunction(const MFunction &MF,
                                  const std::vector<LiveInterval> *Intervals =
                                      nullptr);

} // namespace sxe

#endif // SXE_CODEGEN_MACHINEVERIFIER_H
