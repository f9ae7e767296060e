//===- fuzz/DiffTest.h - Semantic-oracle differential harness ----*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing oracle contract, as a library shared by
/// tools/sxe-difftest, the random-program property test, and the corpus
/// replay test. Given a pristine module, the harness executes it once
/// under Java bytecode semantics (the unoptimized-interpreter oracle) and
/// then, for every configured target x pipeline variant, optimizes a
/// clone and executes it under machine semantics through the workload
/// runner's per-variant job (workloads/Runner.h), requiring:
///
///   1. the post-pipeline module verifies with no dummy extensions left,
///   2. trap kind and checksum match the oracle exactly,
///   3. the wild-address detector never fires (a detected miscompile),
///   4. the full algorithm never executes more conversions (sign/zero
///      extensions and truncations) than the baseline on the same target
///      (conversion-census no-regression).
///
/// Any violation is reported as a DiffFailure carrying the variant,
/// target, and a human-readable detail string; the caller (which knows
/// the generator seed) prints the reproduction line.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_FUZZ_DIFFTEST_H
#define SXE_FUZZ_DIFFTEST_H

#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "sxe/Pipeline.h"
#include "target/TargetInfo.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace sxe {

/// Which oracle-contract clause a differential run violated.
enum class DiffStatus : uint8_t {
  Ok,
  OracleStepLimit,     ///< The oracle itself hit MaxSteps (generator issue).
  VerifyFailed,        ///< Pristine or post-pipeline verification failed.
  TrapMismatch,        ///< Optimized trap kind differs from the oracle.
  ChecksumMismatch,    ///< Optimized return value differs from the oracle.
  WildAddress,         ///< The wild-address miscompile detector fired.
  ExtensionRegression, ///< "all" executed more extensions than baseline.
  NativeMismatch,      ///< Native x86-64 execution disagrees with the
                       ///< machine-semantics interpreter.
};

/// Returns a printable name for \p Status.
const char *diffStatusName(DiffStatus Status);

/// One violated check: which clause, under which configuration.
struct DiffFailure {
  DiffStatus Status = DiffStatus::Ok;
  Variant V = Variant::All;
  const TargetInfo *Target = nullptr; ///< Null for pristine-stage failures.
  std::string Detail;

  /// "checksum mismatch [new algorithm (all), ppc64]: ..." for logs.
  std::string describe() const;
};

/// Harness configuration. Every run executes `main` under all twelve
/// variants on each of Targets (empty: ia64, ppc64, generic64, x86_64).
struct DiffConfig {
  std::vector<const TargetInfo *> Targets;
  uint64_t MaxSteps = 1u << 22;
  /// Also execute every x86_64-target pipeline result through the native
  /// code generator (codegen/NativeEngine.h) and require trap/checksum
  /// parity with the machine-semantics interpreter. Inert on hosts that
  /// cannot execute emitted x86-64 code (NativeModule::hostSupported());
  /// on a capable host a native compile failure is a NativeMismatch.
  /// Native runs that hit the (block-granular) fuel limit are skipped
  /// rather than compared.
  bool NativeEngine = false;
  /// Test-only hook, applied to the optimized clone after the pipeline and
  /// before verification/execution. sxe-difftest's hidden --inject-bug
  /// flag uses it to prove the harness catches (and the reducer shrinks)
  /// a real miscompile; it must never be set in checked-in test configs.
  std::function<void(Module &, Variant, const TargetInfo &)>
      PostPipelineMutator;
};

/// Outcome of one differential run.
struct DiffResult {
  std::optional<DiffFailure> Failure; ///< First violated check, if any.
  TrapKind OracleTrap = TrapKind::None;
  uint64_t OracleChecksum = 0;
  unsigned PipelinesRun = 0;
  unsigned NativeRuns = 0; ///< Native executions compared (NativeEngine).

  bool ok() const { return !Failure.has_value(); }
};

/// Runs the full differential check over \p Pristine. The module is not
/// modified; every pipeline run operates on a clone.
DiffResult runDifferentialTest(const Module &Pristine,
                               const DiffConfig &Config = DiffConfig());

} // namespace sxe

#endif // SXE_FUZZ_DIFFTEST_H
