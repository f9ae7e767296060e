//===- interp/Interpreter.h - IR interpreter ---------------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes sxe IR with faithful 64-bit register semantics:
///
///  - every register holds 64 bits; a W32 arithmetic operation performs the
///    full 64-bit register operation, so its destination's upper 32 bits
///    are whatever the hardware would produce (IA64 behaviour);
///  - Sext8/16/32 replicate the sign bit, and each execution increments the
///    dynamic counters behind Tables 1 and 2 of the paper;
///  - array accesses bounds-check the *lower 32 bits* of the index with an
///    unsigned 32-bit compare (Section 3), then address memory with the
///    *full* register. If the two disagree, the interpreter reports a
///    WildAddress trap — a detected miscompile, impossible when the
///    elimination theorems are applied correctly;
///  - W32 division implements Java semantics (sign-extended int32 result,
///    MIN/-1 wraps) on the bits the target's divide reads: the lower
///    halves on x86-64, the full registers elsewhere. Unextended inputs
///    give a defined, wrong value there, which differential tests detect.
///
/// The pure integer operations, compares and d2i evaluate through
/// ir/Semantics.h, the definition the constant folder and the native
/// runtime helpers share.
///
/// The interpreter also accumulates a cycle estimate (target/CostModel.h)
/// and, when requested, branch profiles for order determination.
///
/// The constructor decodes the module once into a flat instruction array:
/// operand registers, immediates, successor slots, cycle costs and the
/// semantics mode's write-back rule are resolved there, so run() dispatches
/// over dense slots and never reads the linked IR. Every run() reuses that
/// decoded program; the module must not change while the Interpreter
/// lives.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_INTERP_INTERPRETER_H
#define SXE_INTERP_INTERPRETER_H

#include "analysis/ProfileInfo.h"
#include "ir/Module.h"
#include "target/TargetInfo.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sxe {

/// Why execution stopped early.
enum class TrapKind : uint8_t {
  None,              ///< Normal completion.
  NullArray,         ///< Access through a null array reference.
  BoundsCheck,       ///< ArrayIndexOutOfBoundsException.
  NegativeArraySize, ///< NegativeArraySizeException.
  AllocationLimit,   ///< Array longer than the configured maximum.
  DivByZero,         ///< ArithmeticException.
  ExplicitTrap,      ///< A `trap` instruction executed.
  WildAddress,       ///< Detected miscompile: full index != checked index.
  StackOverflow,     ///< Call depth limit exceeded.
  StepLimit,         ///< MaxSteps exhausted.
};

/// Returns a printable name for \p Kind.
const char *trapKindName(TrapKind Kind);

/// Outcome and statistics of one execution.
struct ExecResult {
  TrapKind Trap = TrapKind::None;
  uint64_t ReturnValue = 0; ///< Raw 64-bit register value (doubles: bits).
  uint64_t ExecutedInstructions = 0;
  uint64_t ExecutedSext8 = 0;
  uint64_t ExecutedSext16 = 0;
  uint64_t ExecutedSext32 = 0;
  uint64_t ExecutedZext8 = 0;
  uint64_t ExecutedZext16 = 0;
  uint64_t ExecutedZext32 = 0;
  uint64_t ExecutedTrunc32 = 0;
  uint64_t ExecutedDummies = 0; ///< just_extended reached execution (bug).
  uint64_t Cycles = 0;
  std::string TrapMessage;

  uint64_t totalExecutedSext() const {
    return ExecutedSext8 + ExecutedSext16 + ExecutedSext32;
  }

  /// Dynamic count of every explicit conversion — the generalized quantity
  /// diff-test clause 4 compares against the baseline pipeline.
  uint64_t totalExecutedConversions() const {
    return totalExecutedSext() + ExecutedZext8 + ExecutedZext16 +
           ExecutedZext32 + ExecutedTrunc32;
  }
  bool ok() const { return Trap == TrapKind::None; }
};

/// Which semantics the machine executes.
enum class ExecSemantics : uint8_t {
  /// Faithful 64-bit register behaviour: W32 results have unspecified
  /// upper halves until an extension canonicalizes them. This is what
  /// JIT-compiled code does; correctness depends on the extends the
  /// optimizer left in place.
  Machine,
  /// Java bytecode semantics: every definition is canonicalized to its
  /// register's width immediately. This models the VM's bytecode
  /// interpreter — the profiling tier of the paper's mixed-mode VM — and
  /// doubles as the differential-testing oracle.
  Java,
};

/// Limits of one run in either engine (codegen/NativeEngine.h too): call
/// frames, beyond which a call traps StackOverflow, and array elements,
/// beyond which a workload bug aborts the process.
constexpr unsigned MaxCallDepth = 1024;
constexpr uint64_t MaxHeapElements = 1ULL << 28;

/// Execution configuration.
struct InterpOptions {
  const TargetInfo *Target = &TargetInfo::ia64();
  ExecSemantics Semantics = ExecSemantics::Machine;
  uint64_t MaxSteps = 4ULL << 30;
  uint32_t MaxArrayLen = 0x7FFFFFFF; ///< Must match the compiler's setting.
  ProfileInfo *Profile = nullptr; ///< Non-null: record branch outcomes.
};

/// The module as the interpreter executes it (Interpreter.cpp).
struct DecodedProgram;

/// Executes a function of \p M. The module must verify (the constructor
/// aborts otherwise); dummy extends are tolerated and counted, because
/// mid-pipeline IR is also executable for differential testing.
class Interpreter {
public:
  explicit Interpreter(const Module &M, InterpOptions Options = {});
  ~Interpreter();

  /// Runs \p FuncName with raw 64-bit argument values (sub-register integer
  /// arguments must be passed sign-extended, as the ABI requires).
  ExecResult run(const std::string &FuncName,
                 const std::vector<uint64_t> &Args = {});

private:
  const Module &M;
  InterpOptions Options;
  std::unique_ptr<const DecodedProgram> Code;
};

} // namespace sxe

#endif // SXE_INTERP_INTERPRETER_H
