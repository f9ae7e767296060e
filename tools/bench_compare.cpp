//===- tools/bench_compare.cpp - Bench regression gate ------------------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
// Compares two sxe.bench-report.v1 files (a committed baseline and a fresh
// run) and fails when compile time regressed:
//
//   bench_compare BASELINE.json CURRENT.json [--threshold=0.10]
//
// The gate is on the aggregate of each timed metric across workloads —
// total middle-end wall time, UD/DU chain creation, and the
// sign-extension-optimization column — because per-workload times on
// shared CI runners are too noisy to gate individually; the per-workload
// ratios are still printed for diagnosis. Exit status: 0 when every
// aggregate stays within (1 + threshold) of the baseline, 1 on
// regression, 2 on usage or schema errors.
//
//===---------------------------------------------------------------------------===//

#include "support/Json.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace sxe;

namespace {

struct WorkloadTimes {
  double TotalNs = 0;
  double ChainNs = 0;
  double SxeNs = 0;
  /// Request-latency percentiles (serve-daemon reports only; 0 = absent).
  double P50Ns = 0;
  double P99Ns = 0;
  /// Execution-speed family (bench_exec reports only; 0 = absent).
  double ExecInterpNs = 0;
  double ExecNativeNs = 0;
};

/// One parsed report: workload name -> times, in file order.
struct Report {
  std::vector<std::string> Order;
  std::map<std::string, WorkloadTimes> Times;
};

bool loadReport(const char *Path, Report &Out, std::string &Error) {
  std::string Text;
  if (!readTextFile(Path, Text)) {
    Error = std::string("cannot open ") + Path;
    return false;
  }

  JsonValue V;
  if (!parseJson(Text, V, Error))
    return false;
  if (V.stringField("schema") != "sxe.bench-report.v1") {
    Error = std::string(Path) + ": not an sxe.bench-report.v1 file";
    return false;
  }
  // Two report shapes share the sxe.bench-report.v1 envelope: the table
  // benches carry per-workload `results`, the compile service carries
  // per-job-count `runs` (gated on wall time only).
  if (const JsonValue *Results = V.find("results");
      Results && Results->isArray()) {
    for (const JsonValue &R : Results->array()) {
      std::string Name = R.stringField("workload");
      WorkloadTimes T;
      if (const JsonValue *F = R.find("total_ns"))
        T.TotalNs = F->numberValue();
      if (const JsonValue *F = R.find("chain_creation_ns"))
        T.ChainNs = F->numberValue();
      if (const JsonValue *F = R.find("sxe_opt_ns"))
        T.SxeNs = F->numberValue();
      if (const JsonValue *F = R.find("exec_interp_ns"))
        T.ExecInterpNs = F->numberValue();
      if (const JsonValue *F = R.find("exec_native_ns"))
        T.ExecNativeNs = F->numberValue();
      Out.Order.push_back(Name);
      Out.Times[Name] = T;
    }
  } else if (const JsonValue *Runs = V.find("runs");
             Runs && Runs->isArray()) {
    for (const JsonValue &R : Runs->array()) {
      std::string Name = "jobs=";
      if (const JsonValue *J = R.find("jobs"))
        Name += std::to_string(static_cast<long>(J->numberValue()));
      WorkloadTimes T;
      if (const JsonValue *F = R.find("wall_ns"))
        T.TotalNs = F->numberValue();
      if (const JsonValue *F = R.find("p50_ns"))
        T.P50Ns = F->numberValue();
      if (const JsonValue *F = R.find("p99_ns"))
        T.P99Ns = F->numberValue();
      Out.Order.push_back(Name);
      Out.Times[Name] = T;
    }
  } else {
    Error = std::string(Path) + ": missing results/runs array";
    return false;
  }
  if (Out.Order.empty()) {
    Error = std::string(Path) + ": empty results array";
    return false;
  }
  return true;
}

double ratioOf(double Current, double Baseline) {
  return Baseline > 0 ? Current / Baseline : 1.0;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *BaselinePath = nullptr;
  const char *CurrentPath = nullptr;
  double Threshold = 0.10;

  for (int Index = 1; Index < Argc; ++Index) {
    const char *Arg = Argv[Index];
    if (std::strncmp(Arg, "--threshold=", 12) == 0) {
      Threshold = std::atof(Arg + 12);
      if (Threshold <= 0) {
        std::fprintf(stderr, "bench_compare: bad threshold '%s'\n", Arg);
        return 2;
      }
    } else if (!BaselinePath) {
      BaselinePath = Arg;
    } else if (!CurrentPath) {
      CurrentPath = Arg;
    } else {
      std::fprintf(stderr, "usage: bench_compare BASELINE.json CURRENT.json"
                           " [--threshold=0.10]\n");
      return 2;
    }
  }
  if (!BaselinePath || !CurrentPath) {
    std::fprintf(stderr, "usage: bench_compare BASELINE.json CURRENT.json"
                         " [--threshold=0.10]\n");
    return 2;
  }

  Report Baseline, Current;
  std::string Error;
  if (!loadReport(BaselinePath, Baseline, Error) ||
      !loadReport(CurrentPath, Current, Error)) {
    std::fprintf(stderr, "bench_compare: %s\n", Error.c_str());
    return 2;
  }

  // Per-workload detail over the common set (a changed workload list is
  // reported but does not fail the gate; the aggregates below only sum
  // workloads present in both files so they stay comparable).
  std::printf("%-16s %10s %10s %10s\n", "workload", "total", "chains",
              "sxe-opt");
  WorkloadTimes BaseSum, CurSum;
  unsigned Common = 0;
  for (const std::string &Name : Baseline.Order) {
    auto It = Current.Times.find(Name);
    if (It == Current.Times.end()) {
      std::printf("%-16s (missing from current run)\n", Name.c_str());
      continue;
    }
    const WorkloadTimes &B = Baseline.Times[Name];
    const WorkloadTimes &C = It->second;
    std::printf("%-16s %9.2fx %9.2fx %9.2fx\n", Name.c_str(),
                ratioOf(C.TotalNs, B.TotalNs), ratioOf(C.ChainNs, B.ChainNs),
                ratioOf(C.SxeNs, B.SxeNs));
    BaseSum.TotalNs += B.TotalNs;
    BaseSum.ChainNs += B.ChainNs;
    BaseSum.SxeNs += B.SxeNs;
    BaseSum.P50Ns += B.P50Ns;
    BaseSum.P99Ns += B.P99Ns;
    CurSum.TotalNs += C.TotalNs;
    CurSum.ChainNs += C.ChainNs;
    CurSum.SxeNs += C.SxeNs;
    CurSum.P50Ns += C.P50Ns;
    CurSum.P99Ns += C.P99Ns;
    // Gate the exec family only over workloads both runs executed
    // natively (a host without the backend reports interp times only).
    BaseSum.ExecInterpNs += B.ExecInterpNs;
    CurSum.ExecInterpNs += C.ExecInterpNs;
    if (B.ExecNativeNs > 0 && C.ExecNativeNs > 0) {
      BaseSum.ExecNativeNs += B.ExecNativeNs;
      CurSum.ExecNativeNs += C.ExecNativeNs;
    }
    ++Common;
  }
  for (const std::string &Name : Current.Order)
    if (!Baseline.Times.count(Name))
      std::printf("%-16s (new workload, not gated)\n", Name.c_str());
  if (Common == 0) {
    std::fprintf(stderr, "bench_compare: no common workloads\n");
    return 2;
  }

  struct GatedMetric {
    const char *Name;
    double Base;
    double Cur;
  } Metrics[] = {
      {"total middle-end", BaseSum.TotalNs, CurSum.TotalNs},
      {"chain creation", BaseSum.ChainNs, CurSum.ChainNs},
      {"sxe optimization", BaseSum.SxeNs, CurSum.SxeNs},
      // Serve-daemon request-latency percentiles (summed across client
      // levels); present only in serve reports, skipped elsewhere.
      {"latency p50", BaseSum.P50Ns, CurSum.P50Ns},
      {"latency p99", BaseSum.P99Ns, CurSum.P99Ns},
      // Execution-speed family (bench_exec reports only): interpreter
      // dispatch speed and native code quality, each gated on aggregate
      // wall time.
      {"interp execution", BaseSum.ExecInterpNs, CurSum.ExecInterpNs},
      {"native execution", BaseSum.ExecNativeNs, CurSum.ExecNativeNs},
  };

  int Status = 0;
  std::printf("\naggregates over %u workloads (gate: <= %.0f%% slower)\n",
              Common, Threshold * 100.0);
  for (const GatedMetric &M : Metrics) {
    if (M.Base == 0 && M.Cur == 0)
      continue; // Metric absent from this report shape.
    double Ratio = ratioOf(M.Cur, M.Base);
    bool Regressed = Ratio > 1.0 + Threshold;
    std::printf("  %-18s %10.3f ms -> %10.3f ms  (%.2fx)%s\n", M.Name,
                M.Base / 1e6, M.Cur / 1e6, Ratio,
                Regressed ? "  REGRESSION" : "");
    if (Regressed)
      Status = 1;
  }
  if (Status != 0)
    std::fprintf(stderr,
                 "bench_compare: compile-time regression beyond %.0f%%\n",
                 Threshold * 100.0);
  return Status;
}
