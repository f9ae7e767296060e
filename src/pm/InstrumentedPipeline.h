//===- pm/InstrumentedPipeline.h - Figure 5 as a pass stack ------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the pass sequence for any PipelineConfig (the twelve Table 1/2
/// variants and every ablation) and runs it through the instrumented
/// PassManager. Every pipeline run goes through here: the workload
/// runner, the benches, the compile service, `sxetool
/// --stats/--stats-json/--verify-each/--dump-after-each` and the
/// golden-file tests.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_PM_INSTRUMENTEDPIPELINE_H
#define SXE_PM_INSTRUMENTEDPIPELINE_H

#include "obs/Remarks.h"
#include "pm/PassManager.h"
#include "pm/PassStats.h"
#include "sxe/Pipeline.h"

#include <string>
#include <vector>

namespace sxe {

/// Everything one instrumented pipeline run produces.
struct InstrumentedPipelineResult {
  /// Named per-pass counters.
  PassStats Stats;
  /// Structured optimization remarks, in emission order (empty unless
  /// PassManagerOptions::CollectRemarks was set).
  RemarkCollector Remarks;
  /// Per-pass wall/CPU timers, in execution order.
  std::vector<PassTiming> Timings;
  /// Module snapshots after each pass (when requested).
  std::vector<PassSnapshot> Snapshots;
  /// UD/DU chain-creation share of the elimination pass (Table 3 column).
  uint64_t ChainCreationNanos = 0;
  /// False when verify-each caught a broken pass.
  bool Ok = true;
  std::string FailedPass;
  std::vector<std::string> Problems;
};

/// Appends the pass sequence Figure 5 prescribes for \p Config to \p PM:
/// conversion and general optimizations in GenPolicy order, then the
/// configured step-3 engine (dummy insertion, insertion, order
/// determination, elimination for UD/DU; the backward-dataflow pass for
/// the first algorithm; nothing for baseline/gen-use).
void buildPipelinePasses(PassManager &PM, const PipelineConfig &Config);

/// Runs the \p Config pipeline over \p M under the instrumented manager.
InstrumentedPipelineResult
runInstrumentedPipeline(Module &M, const PipelineConfig &Config,
                        const PassManagerOptions &Options = {});

} // namespace sxe

#endif // SXE_PM_INSTRUMENTEDPIPELINE_H
