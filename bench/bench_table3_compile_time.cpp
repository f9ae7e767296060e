//===- bench/bench_table3_compile_time.cpp - Table 3 ---------------------------===//
//
// Regenerates Table 3 of the paper: the breakdown of compilation time
// into "sign extension optimizations (all)", "UD/DU chain creation", and
// "others". Each workload is compiled repeatedly with the full
// configuration; the pass-manager's per-pass timers (pm/PassManager.h)
// supply the breakdown, and a second table shows where the time goes
// pass by pass — the detail Table 3 aggregates away.
//
// The paper's totals include the whole JIT (parsing, other optimizations,
// code generation); ours cover the pipeline this repository implements
// (conversion + general optimizations as "others"), so the sign-extension
// share is an upper bound on the paper's 0.11%-of-everything figure —
// the shape to check is: the sxe phases are a small slice, and UD/DU
// chain creation costs a multiple of them.
//
//===----------------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "ir/Cloner.h"
#include "pm/InstrumentedPipeline.h"
#include "support/Format.h"
#include "workloads/Workload.h"
#include "sxe/Pipeline.h"

#include <cstdio>
#include <map>
#include <vector>

using namespace sxe;
using namespace sxe::bench;

namespace {

/// Wall/CPU time one pass accumulated over all rounds of one workload.
struct PassBucket {
  Pass::Group Group = Pass::Group::SignExt;
  uint64_t WallNanos = 0;
  uint64_t CpuNanos = 0;
  uint64_t Runs = 0;
};

/// Pass buckets in execution order (stable across rounds: the pipeline
/// for a fixed config always builds the same pass sequence).
struct WorkloadTiming {
  std::string Name;
  std::vector<std::string> PassOrder;
  std::map<std::string, PassBucket> Passes;
  uint64_t SxeNanos = 0;   ///< Table 3 "sign ext opts" bucket.
  uint64_t ChainNanos = 0; ///< Table 3 "UD/DU chains+ranges" bucket.
  uint64_t TotalNanos = 0;
};

} // namespace

int main(int argc, char **argv) {
  BenchContext Ctx = parseBenchArgs("table3_compile_time", argc, argv);
  const unsigned Repeats = Ctx.repeats(40);

  std::printf("Table 3. Breakdown of compilation time "
              "(%u compilations per program, full configuration)\n",
              Repeats);
  std::printf("%s | %s | %s | %s | %s\n", padRight("program", 14).c_str(),
              padLeft("sign ext opts", 14).c_str(),
              padLeft("chains+ranges", 13).c_str(),
              padLeft("others", 8).c_str(),
              padLeft("total ms", 9).c_str());

  double SxeShareSum = 0.0, ChainShareSum = 0.0, OtherShareSum = 0.0;
  unsigned Count = 0;
  std::vector<WorkloadTiming> Timings;

  WorkloadParams Params;
  Params.Scale = Ctx.Smoke ? 1 : Params.Scale;
  for (const Workload &W : allWorkloads()) {
    std::unique_ptr<Module> Pristine = W.Build(Params);

    WorkloadTiming T;
    T.Name = W.Name;
    for (unsigned Round = 0; Round < Repeats; ++Round) {
      auto Clone = cloneModule(*Pristine);
      PipelineConfig Config = PipelineConfig::forVariant(Variant::All);
      InstrumentedPipelineResult Result =
          runInstrumentedPipeline(*Clone, Config);
      for (const PassTiming &PT : Result.Timings) {
        if (!T.Passes.count(PT.Name))
          T.PassOrder.push_back(PT.Name);
        PassBucket &B = T.Passes[PT.Name];
        B.Group = PT.Group;
        B.WallNanos += PT.WallNanos;
        B.CpuNanos += PT.CpuNanos;
        B.Runs += PT.Runs;
      }
      T.ChainNanos += Result.ChainCreationNanos;
    }
    for (const auto &[PassName, B] : T.Passes) {
      T.TotalNanos += B.WallNanos;
      if (B.Group == Pass::Group::SignExt)
        T.SxeNanos += B.WallNanos;
    }
    // Chain creation runs inside the elimination pass's timer; carve it
    // out so the two Table 3 columns do not overlap.
    T.SxeNanos = T.SxeNanos > T.ChainNanos ? T.SxeNanos - T.ChainNanos : 0;
    if (T.TotalNanos == 0)
      T.TotalNanos = 1;
    double SxeShare = 100.0 * T.SxeNanos / T.TotalNanos;
    double ChainShare = 100.0 * T.ChainNanos / T.TotalNanos;
    double OtherShare = 100.0 - SxeShare - ChainShare;
    SxeShareSum += SxeShare;
    ChainShareSum += ChainShare;
    OtherShareSum += OtherShare;
    ++Count;
    Timings.push_back(std::move(T));

    const WorkloadTiming &Done = Timings.back();
    std::printf("%s | %s | %s | %s | %s\n", padRight(W.Name, 14).c_str(),
                padLeft(formatFixed(SxeShare, 2) + "%", 14).c_str(),
                padLeft(formatFixed(ChainShare, 2) + "%", 13).c_str(),
                padLeft(formatFixed(OtherShare, 2) + "%", 8).c_str(),
                padLeft(formatFixed(Done.TotalNanos * 1e-6, 2), 9).c_str());
  }

  std::printf("%s | %s | %s | %s |\n", padRight("average", 14).c_str(),
              padLeft(formatFixed(SxeShareSum / Count, 2) + "%", 14).c_str(),
              padLeft(formatFixed(ChainShareSum / Count, 2) + "%", 13)
                  .c_str(),
              padLeft(formatFixed(OtherShareSum / Count, 2) + "%", 8)
                  .c_str());
  std::printf("(paper: 0.11%% sign extension opts, 2.92%% UD/DU chains, "
              "96.97%% others — of the *whole* JIT)\n");
  std::printf("This pipeline has no parser/register allocator/encoder, so "
              "the denominator is far smaller than the paper's; the shape "
              "to compare is the sign-extension share RELATIVE to the "
              "shared analysis bucket: paper 0.11/2.92 = %.2f, ours "
              "%.2f/%.2f = %.2f.\n",
              0.11 / 2.92, SxeShareSum / Count, ChainShareSum / Count,
              (SxeShareSum / Count) / (ChainShareSum / Count));

  // The per-pass detail behind the three buckets above, straight from
  // the pass-manager timers.
  std::printf("\nPer-pass wall time (ms over all %u compilations)\n",
              Repeats);
  std::printf("%s", padRight("program", 14).c_str());
  if (!Timings.empty())
    for (const std::string &PassName : Timings.front().PassOrder)
      std::printf(" | %s", padLeft(PassName, 19).c_str());
  std::printf("\n");
  for (const WorkloadTiming &T : Timings) {
    std::printf("%s", padRight(T.Name, 14).c_str());
    for (const std::string &PassName : T.PassOrder) {
      const PassBucket &B = T.Passes.at(PassName);
      std::printf(" | %s",
                  padLeft(formatFixed(B.WallNanos * 1e-6, 3), 19).c_str());
    }
    std::printf("\n");
  }

  JsonWriter J;
  beginBenchReport(J, Ctx);
  J.keyValue("repeats", Repeats);
  J.key("results");
  J.beginArray();
  for (const WorkloadTiming &T : Timings) {
    J.beginObject();
    J.keyValue("workload", T.Name);
    J.keyValue("sxe_opt_ns", T.SxeNanos);
    J.keyValue("chain_creation_ns", T.ChainNanos);
    J.keyValue("total_ns", T.TotalNanos);
    J.key("passes");
    J.beginArray();
    for (const std::string &PassName : T.PassOrder) {
      const PassBucket &B = T.Passes.at(PassName);
      J.beginObject();
      J.keyValue("name", PassName);
      J.keyValue("group", B.Group == Pass::Group::Conversion ? "conversion"
                          : B.Group == Pass::Group::GeneralOpts
                              ? "general-opts"
                              : "sign-ext");
      J.keyValue("runs", B.Runs);
      J.keyValue("wall_ns", B.WallNanos);
      J.keyValue("cpu_ns", B.CpuNanos);
      J.endObject();
    }
    J.endArray();
    J.endObject();
  }
  J.endArray();
  finishBenchReport(J, Ctx);
  return 0;
}
