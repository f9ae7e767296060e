//===- codegen/Lowering.h - IR to machine IR lowering ------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers optimized sxe IR to the two-address machine IR of
/// codegen/MachineIR.h. The mapping is deliberately transparent:
///
///  - IR virtual register R becomes machine vreg FirstVirtReg + R, so a
///    machine-IR dump lines up with the IR dump it came from;
///  - every explicit conversion the middle end left behind becomes a real
///    movsx/movzx/movl instruction (this is what makes eliminated
///    conversions *measurably* cheaper);
///  - W32 arithmetic selects the 32-bit instruction forms, whose implicit
///    zero extension reproduces the interpreter's x86-64 Machine-mode
///    masking rule exactly;
///  - array length, load and store become the inline ArrLen/ArrLoad/
///    ArrStore machine ops, which the emitter expands into the
///    interpreter's null, bounds and wild-address checks followed by a
///    scaled-index access;
///  - division, floating-point compares, D2I, array allocation and traps
///    lower to runtime-helper call pseudos; the C implementations
///    (codegen/NativeEngine.cpp) evaluate through ir/Semantics.h and trap
///    where the interpreter traps;
///  - any vreg live into the entry block that is not a parameter gets an
///    explicit zero initialization, matching the interpreter's JVM-like
///    zeroed locals.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_LOWERING_H
#define SXE_CODEGEN_LOWERING_H

#include "codegen/MachineIR.h"

#include <cstdint>
#include <memory>

namespace sxe {

/// Counters from one lowerModule() run (surfaced through PassStats and the
/// codegen metrics).
struct LoweringStats {
  uint64_t Functions = 0;
  uint64_t Blocks = 0;
  uint64_t MachineInsts = 0;
  uint64_t HelperCalls = 0;  ///< Div/new-array/FP/trap call pseudos.
  uint64_t Conversions = 0;  ///< movsx/movzx/movl emitted.
  uint64_t ZeroInits = 0;    ///< Entry-block zeroing of live-in locals.
};

/// Lowers every function of \p M. The module must verify; the lowering
/// asserts structural invariants it relies on (terminated blocks, operand
/// counts).
std::unique_ptr<MModule> lowerModule(const Module &M,
                                     LoweringStats *Stats = nullptr);

} // namespace sxe

#endif // SXE_CODEGEN_LOWERING_H
