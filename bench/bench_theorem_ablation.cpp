//===- bench/bench_theorem_ablation.cpp - Which mechanism earns what -----------===//
//
// Ablation of the design choices DESIGN.md section 8 calls out, measured
// as dynamic remaining-extension counts under "new algorithm (all)" with
// one ingredient disabled at a time:
//
//   - full        : everything on (the Table 1/2 configuration)
//   - no dummies  : without just_extended markers after array accesses
//   - no guards   : without branch-guard value-range refinement
//   - no induct.  : without the inductive add/sub/mul extendedness rule
//   - no array    : without Theorems 1-4 entirely
//
// plus the per-theorem discharge counts observed during the full run
// (which of Section 3's arguments actually fired).
//
//===----------------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "ir/Cloner.h"
#include "interp/Interpreter.h"
#include "pm/InstrumentedPipeline.h"

using namespace sxe;
using namespace sxe::bench;

namespace {

/// The elimination pass's Section 3 discharge counters, in report order.
const char *const DischargeCounters[] = {"subscript_extended",
                                         "theorem1_fired", "theorem2_fired",
                                         "theorem3_fired", "theorem4_fired"};

struct AblatedRun {
  uint64_t DynamicSext32 = 0;
  PassStats Stats;
};

AblatedRun runAblated(const Workload &W, const WorkloadParams &Params,
                      void (*Tweak)(PipelineConfig &)) {
  std::unique_ptr<Module> M = W.Build(Params);
  PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
  Tweak(Config);
  AblatedRun Run;
  Run.Stats = runInstrumentedPipeline(*M, Config).Stats;
  Interpreter Interp(*M, InterpOptions{});
  ExecResult R = Interp.run("main");
  Run.DynamicSext32 = R.Trap == TrapKind::None ? R.ExecutedSext32 : ~0ull;
  return Run;
}

} // namespace

int main(int argc, char **argv) {
  BenchContext Ctx = parseBenchArgs("theorem_ablation", argc, argv);
  WorkloadParams Params;
  Params.Scale = Ctx.scale();

  std::printf("Ablation: dynamic 32-bit extensions under 'new algorithm "
              "(all)' with one ingredient disabled (scale=%u)\n",
              Params.Scale);
  std::printf("%s | %s | %s | %s | %s | %s\n",
              padRight("program", 14).c_str(), padLeft("full", 10).c_str(),
              padLeft("no dummies", 11).c_str(),
              padLeft("no guards", 10).c_str(),
              padLeft("no induct.", 11).c_str(),
              padLeft("no array", 10).c_str());

  JsonWriter J;
  beginBenchReport(J, Ctx);
  J.key("results");
  J.beginArray();

  for (const Workload &W : allWorkloads()) {
    std::fprintf(stderr, "  %s...\n", W.Name);
    AblatedRun Full =
        runAblated(W, Params, [](PipelineConfig &) {});
    AblatedRun NoDummies = runAblated(
        W, Params, [](PipelineConfig &C) { C.EnableDummies = false; });
    AblatedRun NoGuards = runAblated(
        W, Params, [](PipelineConfig &C) { C.EnableGuardRanges = false; });
    AblatedRun NoInductive = runAblated(W, Params, [](PipelineConfig &C) {
      C.EnableInductiveArith = false;
    });
    AblatedRun NoArray = runAblated(W, Params, [](PipelineConfig &C) {
      C.EnableArrayTheorems = false;
    });

    std::printf(
        "%s | %s | %s | %s | %s | %s\n", padRight(W.Name, 14).c_str(),
        padLeft(formatWithCommas(Full.DynamicSext32), 10).c_str(),
        padLeft(formatWithCommas(NoDummies.DynamicSext32), 11).c_str(),
        padLeft(formatWithCommas(NoGuards.DynamicSext32), 10).c_str(),
        padLeft(formatWithCommas(NoInductive.DynamicSext32), 11).c_str(),
        padLeft(formatWithCommas(NoArray.DynamicSext32), 10).c_str());

    J.beginObject();
    J.keyValue("workload", W.Name);
    J.keyValue("full", Full.DynamicSext32);
    J.keyValue("no_dummies", NoDummies.DynamicSext32);
    J.keyValue("no_guards", NoGuards.DynamicSext32);
    J.keyValue("no_inductive", NoInductive.DynamicSext32);
    J.keyValue("no_array_theorems", NoArray.DynamicSext32);
    J.key("full_counters");
    J.beginObject();
    for (const char *Name : DischargeCounters)
      J.keyValue(Name, Full.Stats.value("elimination", Name));
    J.endObject();
    J.endObject();
  }
  J.endArray();
  finishBenchReport(J, Ctx);

  std::printf("\nSection 3 discharge breakdown during the full runs "
              "(static counts per compilation):\n");
  std::printf("%s | %s | %s | %s | %s | %s\n",
              padRight("program", 14).c_str(),
              padLeft("extended", 9).c_str(), padLeft("thm 1", 6).c_str(),
              padLeft("thm 2", 6).c_str(), padLeft("thm 3", 6).c_str(),
              padLeft("thm 4", 6).c_str());
  for (const Workload &W : allWorkloads()) {
    AblatedRun Full = runAblated(W, Params, [](PipelineConfig &) {});
    std::printf("%s", padRight(W.Name, 14).c_str());
    for (const char *Name : DischargeCounters)
      std::printf(" | %*llu", Name == DischargeCounters[0] ? 9 : 6,
                  static_cast<unsigned long long>(
                      Full.Stats.value("elimination", Name)));
    std::printf("\n");
  }
  return 0;
}
