//===- bench/BenchUtil.h - Shared table rendering for benches -----*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the table-reproduction binaries: run a suite of
/// workloads under all variants and render paper-style tables (dynamic
/// counts with percentages of baseline, Figure 11/12 percentage series,
/// Figure 13/14 speedups).
///
//===----------------------------------------------------------------------===//

#ifndef SXE_BENCH_BENCHUTIL_H
#define SXE_BENCH_BENCHUTIL_H

#include "support/Format.h"
#include "support/Json.h"
#include "workloads/Runner.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace sxe {
namespace bench {

/// Scale factor from the SXE_SCALE environment variable (default 1).
inline unsigned envScale() {
  const char *Raw = std::getenv("SXE_SCALE");
  if (!Raw)
    return 1;
  long Value = std::strtol(Raw, nullptr, 10);
  return Value >= 1 ? static_cast<unsigned>(Value) : 1;
}

/// Shared command-line state for the table/figure binaries.
///
/// `--smoke` runs a 1-iteration / scale-1 sweep (for CI) and enables the
/// JSON report at `BENCH_<name>.json` unless `--json=FILE` names another
/// destination. `--json=FILE` alone enables the report at full scale.
struct BenchContext {
  std::string Name;
  bool Smoke = false;
  bool Native = false;  ///< `--native`: execute through the x86-64 backend.
  std::string JsonPath; ///< Empty = no JSON report.

  unsigned scale() const { return Smoke ? 1 : envScale(); }
  unsigned repeats(unsigned Full) const { return Smoke ? 1 : Full; }
};

inline BenchContext parseBenchArgs(const char *Name, int argc, char **argv) {
  BenchContext Ctx;
  Ctx.Name = Name;
  for (int Index = 1; Index < argc; ++Index) {
    std::string Arg = argv[Index];
    if (Arg == "--smoke")
      Ctx.Smoke = true;
    else if (Arg == "--native")
      Ctx.Native = true;
    else if (Arg.rfind("--json=", 0) == 0)
      Ctx.JsonPath = Arg.substr(7);
    else
      std::fprintf(stderr,
                   "%s: unknown option '%s' (supported: --smoke, --native, "
                   "--json=FILE)\n",
                   Name, Arg.c_str());
  }
  if (Ctx.Smoke && Ctx.JsonPath.empty())
    Ctx.JsonPath = std::string("BENCH_") + Name + ".json";
  return Ctx;
}

/// Starts the `sxe.bench-report.v1` JSON document shared by all benches:
/// the caller fills a bench-specific "results" member and then calls
/// finishBenchReport.
inline void beginBenchReport(JsonWriter &J, const BenchContext &Ctx) {
  J.beginObject();
  J.keyValue("schema", "sxe.bench-report.v1");
  J.keyValue("bench", Ctx.Name);
  J.keyValue("smoke", Ctx.Smoke);
  J.keyValue("scale", Ctx.scale());
}

/// Closes the report and writes it to the context's JSON path (if any).
inline void finishBenchReport(JsonWriter &J, const BenchContext &Ctx) {
  J.endObject();
  if (Ctx.JsonPath.empty())
    return;
  if (writeTextFile(Ctx.JsonPath, J.str()))
    std::fprintf(stderr, "wrote %s\n", Ctx.JsonPath.c_str());
  else
    std::fprintf(stderr, "cannot write %s\n", Ctx.JsonPath.c_str());
}

/// Emits one (workload, variant) measurement row.
inline void emitVariantRowJson(JsonWriter &J, const VariantRow &Row) {
  J.beginObject();
  J.keyValue("variant", variantName(Row.V));
  J.keyValue("dynamic_sext32", Row.DynamicSext32);
  J.keyValue("dynamic_sext_all", Row.DynamicSextAll);
  J.keyValue("cycles", Row.Cycles);
  J.keyValue("instructions", Row.Instructions);
  J.keyValue("static_sext", Row.StaticSext);
  J.keyValue("checksum_ok", Row.ChecksumOK);
  J.key("counters");
  J.beginObject();
  for (const StatEntry &E : Row.Stats.entries())
    J.keyValue(E.Pass + "/" + E.Name, E.Value);
  J.endObject();
  J.keyValue("interp_wall_ns", Row.InterpWallNanos);
  if (Row.NativeExecuted) {
    J.key("native");
    J.beginObject();
    J.keyValue("wall_ns", Row.NativeWallNanos);
    J.keyValue("compile_ns", Row.NativeCompileNanos);
    J.keyValue("checksum_ok", Row.NativeChecksumOK);
    J.endObject();
  }
  J.endObject();
}

/// Emits the full suite sweep as `"results": [...]` — one object per
/// workload with its per-variant rows. Used by the Table 1/2 and Figure
/// 13/14 binaries.
inline void emitSuiteResultsJson(JsonWriter &J,
                                 const std::vector<WorkloadReport> &Reports) {
  J.key("results");
  J.beginArray();
  for (const WorkloadReport &Report : Reports) {
    J.beginObject();
    J.keyValue("workload", Report.Name);
    J.keyValue("suite", Report.Suite);
    J.key("variants");
    J.beginArray();
    for (const VariantRow &Row : Report.Rows)
      emitVariantRowJson(J, Row);
    J.endArray();
    J.endObject();
  }
  J.endArray();
}

/// Runs every workload of \p Suite under all variants with \p Options.
inline std::vector<WorkloadReport>
runSuite(const std::vector<Workload> &Suite, const RunnerOptions &Options) {
  std::vector<WorkloadReport> Reports;
  for (const Workload &W : Suite) {
    std::fprintf(stderr, "  compiling + running %-14s (%zu variants)...\n",
                 W.Name, Options.Variants.size());
    Reports.push_back(runWorkload(W, Options));
  }
  return Reports;
}

/// Runs every workload of \p Suite under all variants at \p Scale.
inline std::vector<WorkloadReport>
runSuite(const std::vector<Workload> &Suite, unsigned Scale) {
  RunnerOptions Options;
  Options.Params.Scale = Scale;
  return runSuite(Suite, Options);
}

/// Runner options for a `--native` sweep: x86-64 target model so the
/// interpreter's machine semantics match the code the backend emits.
inline RunnerOptions nativeRunnerOptions(unsigned Scale) {
  RunnerOptions Options;
  Options.Target = &TargetInfo::x86_64();
  Options.Native = true;
  Options.Params.Scale = Scale;
  return Options;
}

inline std::vector<WorkloadReport>
runSuite(const std::vector<Workload> &Suite) {
  return runSuite(Suite, envScale());
}

/// Percentage of baseline for one cell.
inline double percentOfBaseline(const WorkloadReport &Report,
                                const VariantRow &Row) {
  const VariantRow *Baseline = Report.row(Variant::Baseline);
  if (!Baseline || Baseline->DynamicSext32 == 0)
    return 100.0;
  return 100.0 * static_cast<double>(Row.DynamicSext32) /
         static_cast<double>(Baseline->DynamicSext32);
}

/// Renders the Table 1/2 dynamic-count table for \p Reports.
inline void printCountTable(const char *Title,
                            const std::vector<WorkloadReport> &Reports) {
  std::printf("\n%s\n", Title);
  std::printf("%s", padRight("variant", 28).c_str());
  for (const WorkloadReport &Report : Reports)
    std::printf(" | %s", padLeft(Report.Name, 22).c_str());
  std::printf(" | %s\n", padLeft("average", 9).c_str());

  for (unsigned VIndex = 0; VIndex < NumVariants; ++VIndex) {
    Variant V = AllVariants[VIndex];
    std::printf("%s", padRight(variantName(V), 28).c_str());
    double PercentSum = 0.0;
    for (const WorkloadReport &Report : Reports) {
      const VariantRow *Row = Report.row(V);
      double Percent = percentOfBaseline(Report, *Row);
      PercentSum += Percent;
      std::string Cell = formatWithCommas(Row->DynamicSext32) + " (" +
                         formatFixed(Percent, 2) + "%)";
      if (!Row->ChecksumOK)
        Cell += " !";
      std::printf(" | %s", padLeft(Cell, 22).c_str());
    }
    std::printf(" | %s\n",
                padLeft(formatFixed(PercentSum / Reports.size(), 2) + "%", 9)
                    .c_str());
  }
  std::printf("('!' marks a checksum mismatch; none should appear)\n");
}

/// Renders the Figure 11/12 percentage series (one line per variant).
inline void printPercentSeries(const char *Title,
                               const std::vector<WorkloadReport> &Reports) {
  std::printf("\n%s (percent of baseline, per benchmark)\n", Title);
  std::printf("%s", padRight("variant", 28).c_str());
  for (const WorkloadReport &Report : Reports)
    std::printf(" %s", padLeft(Report.Name, 12).c_str());
  std::printf("\n");
  for (unsigned VIndex = 0; VIndex < NumVariants; ++VIndex) {
    Variant V = AllVariants[VIndex];
    std::printf("%s", padRight(variantName(V), 28).c_str());
    for (const WorkloadReport &Report : Reports) {
      double Percent = percentOfBaseline(Report, *Report.row(V));
      std::printf(" %s", padLeft(formatFixed(Percent, 2), 12).c_str());
    }
    std::printf("\n");
  }
}

/// Renders the Figure 13/14 performance-improvement chart (cycle model).
inline void printSpeedupTable(const char *Title,
                              const std::vector<WorkloadReport> &Reports) {
  static const Variant Shown[] = {Variant::FirstAlgorithm, Variant::BasicUdDu,
                                  Variant::Array, Variant::All};
  std::printf("\n%s (estimated %% performance improvement over baseline)\n",
              Title);
  std::printf("%s", padRight("variant", 28).c_str());
  for (const WorkloadReport &Report : Reports)
    std::printf(" %s", padLeft(Report.Name, 12).c_str());
  std::printf("\n");
  for (Variant V : Shown) {
    std::printf("%s", padRight(variantName(V), 28).c_str());
    for (const WorkloadReport &Report : Reports) {
      const VariantRow *Baseline = Report.row(Variant::Baseline);
      const VariantRow *Row = Report.row(V);
      double Improvement =
          Row->Cycles == 0
              ? 0.0
              : (static_cast<double>(Baseline->Cycles) /
                     static_cast<double>(Row->Cycles) -
                 1.0) *
                    100.0;
      std::printf(" %s", padLeft(formatFixed(Improvement, 2), 12).c_str());
    }
    std::printf("\n");
  }
}

/// Renders the Figure 13/14 chart from hardware wall clock: percentage
/// improvement of each variant's native run over the baseline variant's
/// native run, plus the native-over-interpreter speedup of the full
/// pipeline (the "execution speed is hardware-real" row).
inline void printHardwareSpeedupTable(const char *Title,
                                      const std::vector<WorkloadReport> &Reports) {
  static const Variant Shown[] = {Variant::FirstAlgorithm, Variant::BasicUdDu,
                                  Variant::Array, Variant::All};
  std::printf("\n%s (measured %% improvement over baseline, native x86-64)\n",
              Title);
  std::printf("%s", padRight("variant", 28).c_str());
  for (const WorkloadReport &Report : Reports)
    std::printf(" %s", padLeft(Report.Name, 12).c_str());
  std::printf("\n");
  for (Variant V : Shown) {
    std::printf("%s", padRight(variantName(V), 28).c_str());
    for (const WorkloadReport &Report : Reports) {
      const VariantRow *Baseline = Report.row(Variant::Baseline);
      const VariantRow *Row = Report.row(V);
      double Improvement =
          (Row->NativeExecuted && Baseline->NativeExecuted &&
           Row->NativeWallNanos > 0)
              ? (static_cast<double>(Baseline->NativeWallNanos) /
                     static_cast<double>(Row->NativeWallNanos) -
                 1.0) *
                    100.0
              : 0.0;
      std::printf(" %s", padLeft(formatFixed(Improvement, 2), 12).c_str());
    }
    std::printf("\n");
  }
  std::printf("%s", padRight("native-vs-interp (all)", 28).c_str());
  for (const WorkloadReport &Report : Reports) {
    const VariantRow *Row = Report.row(Variant::All);
    double Speedup = (Row->NativeExecuted && Row->NativeWallNanos > 0)
                         ? static_cast<double>(Row->InterpWallNanos) /
                               static_cast<double>(Row->NativeWallNanos)
                         : 0.0;
    std::printf(" %s",
                padLeft(formatFixed(Speedup, 2) + "x", 12).c_str());
  }
  std::printf("\n");
}

} // namespace bench
} // namespace sxe

#endif // SXE_BENCH_BENCHUTIL_H
