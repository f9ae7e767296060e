//===- workloads/Runner.h - Variant sweep harness -----------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload under every pipeline variant, mirroring the paper's
/// measurement setup:
///
///  1. build the pristine 32-bit-form module;
///  2. execute it once under Java (bytecode-interpreter) semantics to
///     collect the oracle checksum and the branch profile — the paper's
///     mixed-mode VM does exactly this in its interpreter tier;
///  3. per variant: clone, compile with the variant's configuration
///     (profile supplied to order determination), execute under machine
///     semantics, and record the dynamic counts of remaining sign
///     extensions (Tables 1/2), estimated cycles (Figures 13/14), the
///     pipeline's per-pass counters, and checksum agreement.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_WORKLOADS_RUNNER_H
#define SXE_WORKLOADS_RUNNER_H

#include "interp/Interpreter.h"
#include "pm/PassStats.h"
#include "sxe/Pipeline.h"
#include "target/StaticCounts.h"
#include "workloads/Workload.h"

#include <string>
#include <vector>

namespace sxe {

/// Sweep configuration.
struct RunnerOptions {
  const TargetInfo *Target = &TargetInfo::ia64();
  uint32_t MaxArrayLen = 0x7FFFFFFF;
  bool UseProfile = true;
  /// Also compile each variant's output with the baseline x86-64 code
  /// generator and execute it natively, recording hardware wall time.
  /// Requires Target == x86_64 and a capable host; silently inert
  /// otherwise (rows report NativeExecuted = false).
  bool Native = false;
  WorkloadParams Params;
  std::vector<Variant> Variants =
      std::vector<Variant>(AllVariants, AllVariants + NumVariants);
};

/// Measurements for one (workload, variant) cell.
struct VariantRow {
  Variant V = Variant::Baseline;
  uint64_t DynamicSext32 = 0; ///< Tables 1/2 cell (32-bit sign extensions).
  uint64_t DynamicSextAll = 0; ///< All executed conversions (sext/zext/trunc).
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t StaticSext = 0; ///< Static conversion census after the pipeline.
  uint64_t Checksum = 0;
  bool ChecksumOK = false;
  TrapKind Trap = TrapKind::None;
  /// Named per-pass counters of the variant's pipeline run.
  PassStats Stats;
  /// Wall-clock nanoseconds of the machine-semantics interpreter run.
  uint64_t InterpWallNanos = 0;
  /// Native x86-64 execution (RunnerOptions::Native on a capable host).
  bool NativeExecuted = false;
  uint64_t NativeWallNanos = 0;    ///< Hardware wall time of the native run.
  uint64_t NativeCompileNanos = 0; ///< Lowering + regalloc + emission time.
  bool NativeChecksumOK = false;   ///< Native result matched the oracle.
};

/// All rows of one workload column.
struct WorkloadReport {
  std::string Name;
  std::string Suite;
  uint64_t OracleChecksum = 0;
  std::vector<VariantRow> Rows;

  /// Row for \p V, or null.
  const VariantRow *row(Variant V) const {
    for (const VariantRow &R : Rows)
      if (R.V == V)
        return &R;
    return nullptr;
  }
};

/// Runs \p W under every configured variant.
WorkloadReport runWorkload(const Workload &W, const RunnerOptions &Options);

} // namespace sxe

#endif // SXE_WORKLOADS_RUNNER_H
