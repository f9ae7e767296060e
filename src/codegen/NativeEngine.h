//===- codegen/NativeEngine.h - Native x86-64 execution engine ---*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native execution engine: compiles a verified module through the full
/// backend (lowering -> linear-scan allocation -> machine verifier ->
/// x86-64 emission into a W^X CodeBuffer) and runs entry points behind the
/// same ExecResult interface the interpreter exposes, so the differential
/// tester can hold native execution to interpreter parity.
///
/// Semantics are the interpreter's Machine mode on the x86_64 target,
/// which the hardware now enforces for free: 32-bit instruction forms
/// implicitly zero-extend and movsx/movzx cost real instructions. Array
/// length, load and store run inline: the emitted code performs the
/// interpreter's null, bounds and wild-address checks in its order and
/// then indexes the element with a scaled-index address, so the index
/// register the sign-extension optimizer left behind is the one the
/// hardware uses. The other operations with observable trap behaviour
/// (array allocation, division, explicit traps), plus d2i and fcmp, go
/// through C runtime helpers; the arithmetic ones evaluate through
/// ir/Semantics.h, as the interpreter does. Either way a trap longjmps
/// out through rt_trap or the helper.
///
/// Native execution is gated twice: hostSupported() requires an x86-64
/// POSIX host, and compile() can still fail at mmap or mprotect time
/// (W^X-hostile environments) with the reason in its Error out-param.
/// The workload runner and the differential oracle treat that second
/// failure as an error, never as a skipped run.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_CODEGEN_NATIVEENGINE_H
#define SXE_CODEGEN_NATIVEENGINE_H

#include "codegen/Lowering.h"
#include "codegen/RegAlloc.h"
#include "interp/Interpreter.h"

#include <memory>
#include <string>
#include <vector>

namespace sxe {

/// Compilation and execution limits; the execution limits mirror
/// InterpOptions so differential runs configure both engines identically.
struct NativeOptions {
  uint64_t MaxSteps = 4ULL << 30;
  uint32_t MaxArrayLen = 0x7FFFFFFF;
  RegAllocOptions RegAlloc;
};

/// What one compile produced (test/bench introspection).
struct NativeCompileInfo {
  LoweringStats Lowering;
  uint32_t SpillSlots = 0;
  uint32_t SpilledIntervals = 0;
  uint32_t SpillLoads = 0;
  uint32_t SpillStores = 0;
  size_t CodeBytes = 0;
  uint64_t CompileNanos = 0;
};

/// A module compiled to executable x86-64 code.
class NativeModule {
public:
  ~NativeModule();
  NativeModule(const NativeModule &) = delete;
  NativeModule &operator=(const NativeModule &) = delete;

  /// True when this process can execute emitted x86-64 code at all
  /// (x86-64 POSIX host with mmap).
  static bool hostSupported();

  /// Compiles \p M (which must verify, like the interpreter requires).
  /// Returns null on hosts or environments where native execution is
  /// impossible; \p Error receives the reason.
  static std::unique_ptr<NativeModule> compile(const Module &M,
                                               const NativeOptions &Opts = {},
                                               std::string *Error = nullptr);

  /// Runs \p FuncName with raw 64-bit arguments, interpreter-style.
  /// ExecutedInstructions reports the fuel consumed (IR instructions
  /// entered, charged per block); the per-conversion counters stay zero —
  /// conversions are real instructions now, not countable events.
  ExecResult run(const std::string &FuncName,
                 const std::vector<uint64_t> &Args = {});

  const NativeCompileInfo &info() const;
  /// The allocated machine IR (tests print and inspect it).
  const MModule &machineModule() const;

private:
  NativeModule();
  struct Impl;
  std::unique_ptr<Impl> P;
};

} // namespace sxe

#endif // SXE_CODEGEN_NATIVEENGINE_H
