//===- bench/bench_compile_service.cpp - Compile service throughput -------------===//
//
// Measures the jit/ compile service the way a VM would feel it:
//
//   1. modules/second over a generated corpus (all 17 paper workloads,
//      replicated with unique marker functions so every module is a
//      distinct cache key) at 1, 2, 4, and 8 worker threads;
//   2. the code cache: a second pass over the same corpus, reporting the
//      hit rate and verifying byte-identical artifacts;
//   3. determinism: every parallel run's output is compared against the
//      serial (jobs=0) reference compile, byte for byte.
//
// `--daemon` switches to the serve-daemon warm-cache benchmark (plus a
// printed warm-hit split: ping RTT, codec halves, round trip) and
// `--overhead[-gate=PCT]` to an A/B measurement of what request-scoped
// tracing + the event log cost the warm serve path (CI gates at 5%).
//
// Emits `sxe.bench-report.v1` JSON like the table/figure benches
// (`--smoke` writes BENCH_compile_service.json for CI). Thread scaling
// requires hardware parallelism: on a single-core host the 8-worker run
// degenerates to ~1x, which the report records honestly.
//
//===------------------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "jit/CompileService.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "support/Json.h"
#include "support/Timer.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace sxe;
using namespace sxe::bench;

namespace {

struct CorpusModule {
  std::string Name;
  std::string Source;
};

/// Builds Replicas distinct variants of every registered workload. Each
/// replica appends a `uniq_<r>` marker function so its structural hash —
/// and therefore its cache key — is unique.
std::vector<CorpusModule> buildCorpus(unsigned Replicas) {
  std::vector<CorpusModule> Corpus;
  WorkloadParams Params;
  for (const Workload &W : allWorkloads()) {
    for (unsigned R = 0; R < Replicas; ++R) {
      std::unique_ptr<Module> M = W.Build(Params);
      Function *Marker =
          M->createFunction("uniq_" + std::to_string(R), Type::I32);
      IRBuilder B(Marker);
      B.startBlock("entry");
      B.ret(B.constI32(static_cast<int32_t>(R)));
      CorpusModule C;
      C.Name = std::string(W.Name) + "#" + std::to_string(R);
      C.Source = printModule(*M);
      Corpus.push_back(std::move(C));
    }
  }
  return Corpus;
}

/// One measured sweep of the corpus through a service.
struct SweepResult {
  uint64_t WallNanos = 0;
  double ModulesPerSec = 0.0;
  bool Identical = true; ///< vs the reference outputs (when provided).
  unsigned Failures = 0;
  uint64_t TotalEliminated = 0;
};

SweepResult
sweepCorpus(CompileService &Service, const std::vector<CorpusModule> &Corpus,
            const std::map<std::string, std::string> *Reference) {
  SweepResult Out;
  Timer Elapsed;
  Elapsed.start();
  std::vector<std::future<CompileResult>> Futures;
  Futures.reserve(Corpus.size());
  for (const CorpusModule &C : Corpus) {
    CompileRequest Request;
    Request.Name = C.Name;
    Request.Source = C.Source;
    Request.Config = PipelineConfig::forVariant(Variant::All);
    Request.Hotness = static_cast<double>(C.Source.size());
    Futures.push_back(Service.enqueue(std::move(Request)));
  }
  for (auto &Future : Futures) {
    CompileResult Result = Future.get();
    if (!Result.Ok) {
      ++Out.Failures;
      std::fprintf(stderr, "  %s FAILED: %s\n", Result.Name.c_str(),
                   Result.Error.c_str());
      continue;
    }
    Out.TotalEliminated += Result.Code->Stats.total("sext_eliminated");
    if (Reference) {
      auto It = Reference->find(Result.Name);
      if (It == Reference->end() || It->second != Result.Code->IRText)
        Out.Identical = false;
    }
  }
  Elapsed.stop();
  Out.WallNanos = Elapsed.elapsedNanos();
  Out.ModulesPerSec = Out.WallNanos
                          ? static_cast<double>(Corpus.size()) * 1e9 /
                                static_cast<double>(Out.WallNanos)
                          : 0.0;
  return Out;
}

/// Sorted-percentile helper for the daemon latency curve.
uint64_t percentileNanos(std::vector<uint64_t> &Sorted, unsigned Percent) {
  if (Sorted.empty())
    return 0;
  size_t Rank = (Sorted.size() * Percent) / 100;
  if (Rank >= Sorted.size())
    Rank = Sorted.size() - 1;
  return Sorted[Rank];
}

/// One warm-cache sweep through the daemon at \p Clients concurrent
/// connections, \p TotalRequests requests in all.
struct DaemonRun {
  unsigned Clients = 0;
  uint64_t Requests = 0;
  uint64_t WallNanos = 0;
  double RequestsPerSec = 0.0;
  uint64_t P50Nanos = 0;
  uint64_t P90Nanos = 0;
  uint64_t P99Nanos = 0;
  unsigned Failures = 0;
};

DaemonRun sweepDaemon(const std::string &SocketPath,
                      const std::vector<CorpusModule> &Corpus,
                      unsigned Clients, uint64_t TotalRequests) {
  DaemonRun Out;
  Out.Clients = Clients;
  Out.Requests = TotalRequests;
  std::vector<std::vector<uint64_t>> Latencies(Clients);
  std::vector<unsigned> Failures(Clients, 0);
  Timer Elapsed;
  Elapsed.start();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      ServeClient Client;
      std::string Error;
      if (!Client.connectTo(SocketPath, Error, /*RetryMillis=*/2000)) {
        ++Failures[C];
        return;
      }
      for (uint64_t I = C; I < TotalRequests; I += Clients) {
        const CorpusModule &M = Corpus[I % Corpus.size()];
        ServeRequest Request;
        Request.Name = M.Name;
        Request.Source = M.Source;
        Request.WantIR = false; // Warm-loop throughput: stats-only replies.
        auto Begin = std::chrono::steady_clock::now();
        ServeReply Reply;
        if (!Client.compile(Request, Reply, Error) || !Reply.Ok) {
          ++Failures[C];
          continue;
        }
        auto End = std::chrono::steady_clock::now();
        Latencies[C].push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(End - Begin)
                .count()));
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  Elapsed.stop();
  Out.WallNanos = Elapsed.elapsedNanos();
  Out.RequestsPerSec =
      Out.WallNanos ? static_cast<double>(TotalRequests) * 1e9 /
                          static_cast<double>(Out.WallNanos)
                    : 0.0;
  std::vector<uint64_t> All;
  for (const auto &PerClient : Latencies)
    All.insert(All.end(), PerClient.begin(), PerClient.end());
  std::sort(All.begin(), All.end());
  Out.P50Nanos = percentileNanos(All, 50);
  Out.P90Nanos = percentileNanos(All, 90);
  Out.P99Nanos = percentileNanos(All, 99);
  for (unsigned F : Failures)
    Out.Failures += F;
  return Out;
}

/// Prints where one warm hit's round trip goes (median µs over \p Rounds
/// passes of the corpus on one connection): the bare Ping round trip, the
/// compile round trip, and each codec half timed on its own over the
/// request sent and the reply received. Requests are stats-only, like the
/// warm loops. Stdout only: the JSON report keeps its gated shape.
void printWarmHitSplit(const std::string &SocketPath,
                       const std::vector<CorpusModule> &Corpus,
                       unsigned Rounds) {
  ServeClient Client;
  std::string Error;
  if (!Client.connectTo(SocketPath, Error, /*RetryMillis=*/2000))
    return;
  enum { Ping, RoundTrip, RequestEncode, RequestDecode, ReplyEncode,
         ReplyDecode, NumLayers };
  std::vector<uint64_t> Nanos[NumLayers];
  uint64_t SourceBytes = 0, ReplyBytes = 0;
  auto Time = [&Nanos](int Layer, auto &&Body) {
    uint64_t Start = wallNowNanos();
    Body();
    Nanos[Layer].push_back(wallNowNanos() - Start);
  };
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    for (const CorpusModule &M : Corpus) {
      ServeRequest Request;
      Request.Name = M.Name;
      Request.Source = M.Source;
      Request.WantIR = false;
      ServeReply Reply;
      Time(Ping, [&] { Client.ping(Error); });
      Time(RoundTrip, [&] { Client.compile(Request, Reply, Error); });
      std::string Payload, ReplyPayload;
      ServeRequest DecodedRequest;
      ServeReply DecodedReply;
      Time(RequestEncode, [&] { Payload = encodeServeRequest(Request); });
      Time(RequestDecode,
           [&] { decodeServeRequest(Payload, DecodedRequest, Error); });
      Time(ReplyEncode, [&] { ReplyPayload = encodeServeReply(Reply); });
      Time(ReplyDecode,
           [&] { decodeServeReply(ReplyPayload, DecodedReply, Error); });
      SourceBytes += M.Source.size();
      ReplyBytes += ReplyPayload.size();
    }
  }
  auto Median = [&Nanos](int Layer) {
    std::sort(Nanos[Layer].begin(), Nanos[Layer].end());
    return static_cast<double>(percentileNanos(Nanos[Layer], 50)) / 1e3;
  };
  uint64_t Samples = Nanos[Ping].size();
  std::printf("warm-hit split, median us over %llu hits (%llu-byte source, "
              "%llu-byte reply on average): ping %.1f, round trip %.1f, "
              "request encode %.1f / decode %.1f, reply encode %.1f / "
              "decode %.1f\n",
              static_cast<unsigned long long>(Samples),
              static_cast<unsigned long long>(SourceBytes / Samples),
              static_cast<unsigned long long>(ReplyBytes / Samples),
              Median(Ping), Median(RoundTrip), Median(RequestEncode),
              Median(RequestDecode), Median(ReplyEncode), Median(ReplyDecode));
}

/// `--daemon`: starts an in-process ServeDaemon on a temp socket with a
/// temp persistent-cache dir, warms the corpus through one connection,
/// then measures warm-cache request throughput and the latency curve at
/// 1/2/4/8 concurrent client connections — ~10^5 requests in all at full
/// scale. Reports `runs` keyed by `jobs` (client count) so bench_compare
/// gates wall time, p50, and p99 against BENCH_baseline_serve.json.
int runDaemonBench(const BenchContext &Ctx) {
  std::vector<CorpusModule> Corpus = buildCorpus(/*Replicas=*/2);

  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("sxe-serve-bench-" + std::to_string(::getpid()));
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string SocketPath = (Dir / "serve.sock").string();

  ServeDaemonOptions Options;
  Options.SocketPath = SocketPath;
  Options.Jobs = 8;
  Options.Admission.MaxQueueDepth = 4096;
  Options.MemoryCache.MaxEntries = 4096;
  Options.CacheDir = (Dir / "cache").string();
  ServeDaemon Daemon(Options);
  std::string Error;
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "daemon bench: %s\n", Error.c_str());
    return 1;
  }

  // Warm every corpus module through one connection so the measured
  // sweeps run entirely against the hot cache tiers.
  {
    ServeClient Client;
    if (!Client.connectTo(SocketPath, Error, /*RetryMillis=*/2000)) {
      std::fprintf(stderr, "daemon bench: %s\n", Error.c_str());
      return 1;
    }
    for (const CorpusModule &M : Corpus) {
      ServeRequest Request;
      Request.Name = M.Name;
      Request.Source = M.Source;
      ServeReply Reply;
      if (!Client.compile(Request, Reply, Error) || !Reply.Ok) {
        std::fprintf(stderr, "daemon bench: warm %s failed: %s\n",
                     M.Name.c_str(),
                     Reply.Error.empty() ? Error.c_str()
                                         : Reply.Error.c_str());
        return 1;
      }
    }
  }

  // 4 x 25000 = 10^5 warm requests at full scale; a few hundred in smoke.
  const unsigned ClientCounts[] = {1, 2, 4, 8};
  uint64_t PerLevel = Ctx.Smoke ? 400 : 25000 * Ctx.scale();
  std::vector<DaemonRun> Runs;
  std::printf("\nserve daemon warm-cache throughput (%zu corpus modules, "
              "%llu requests/level)\n",
              Corpus.size(), static_cast<unsigned long long>(PerLevel));
  std::printf("%-8s %14s %12s %10s %10s %10s\n", "clients", "requests/s",
              "wall ms", "p50 us", "p90 us", "p99 us");
  for (unsigned Clients : ClientCounts) {
    DaemonRun Run = sweepDaemon(SocketPath, Corpus, Clients, PerLevel);
    std::printf("%-8u %14.1f %12.1f %10.1f %10.1f %10.1f\n", Run.Clients,
                Run.RequestsPerSec, Run.WallNanos / 1e6, Run.P50Nanos / 1e3,
                Run.P90Nanos / 1e3, Run.P99Nanos / 1e3);
    Runs.push_back(Run);
  }
  printWarmHitSplit(SocketPath, Corpus, Ctx.Smoke ? 2 : 100);

  // Per request, not per probe: a source request that misses probes the
  // memory tier twice (source key, then structural key).
  CompileServiceStats Stats = Daemon.service().stats();
  double HitRate = Stats.Submitted
                       ? 100.0 * static_cast<double>(Stats.CacheHits) /
                             static_cast<double>(Stats.Submitted)
                       : 0.0;
  std::printf("cache: %.2f%% memory hits, %llu compiles, %llu persistent "
              "insertions\n",
              HitRate, static_cast<unsigned long long>(Stats.Compiled),
              static_cast<unsigned long long>(
                  Daemon.persistent() ? Daemon.persistent()->stats().Insertions
                                      : 0));
  Daemon.stop();

  unsigned Failures = 0;
  for (const DaemonRun &Run : Runs)
    Failures += Run.Failures;

  if (!Ctx.JsonPath.empty()) {
    JsonWriter J;
    beginBenchReport(J, Ctx);
    J.keyValue("corpus_modules", static_cast<uint64_t>(Corpus.size()));
    J.keyValue("requests_per_level", PerLevel);
    J.key("runs");
    J.beginArray();
    for (const DaemonRun &Run : Runs) {
      J.beginObject();
      J.keyValue("jobs", static_cast<uint64_t>(Run.Clients));
      J.keyValue("requests", Run.Requests);
      J.keyValue("wall_ns", Run.WallNanos);
      J.keyValue("requests_per_sec", Run.RequestsPerSec);
      J.keyValue("p50_ns", Run.P50Nanos);
      J.keyValue("p90_ns", Run.P90Nanos);
      J.keyValue("p99_ns", Run.P99Nanos);
      J.keyValue("failures", static_cast<uint64_t>(Run.Failures));
      J.endObject();
    }
    J.endArray();
    J.keyValue("memory_hit_rate_percent", HitRate);
    finishBenchReport(J, Ctx);
  }

  std::filesystem::remove_all(Dir, EC);
  if (Failures) {
    std::fprintf(stderr, "daemon bench: %u failed requests\n", Failures);
    return 1;
  }
  return HitRate >= 90.0 ? 0 : 1;
}

/// `--overhead`: measures what request-scoped tracing + the event log
/// cost the warm serve path. Two daemons on separate sockets — one with
/// observability on (the default), one with --no-trace semantics — serve
/// the same warm corpus in alternating rounds; each config keeps its best
/// round (max requests/s damps scheduler noise). The traced daemon's
/// trace/events/metrics artifacts are written next to the JSON report so
/// CI can feed them to sxe-obs and sxetool --validate-obs. With
/// \p GatePercent > 0 the bench fails when the throughput delta exceeds
/// the gate (CI pins 5%).
int runOverheadBench(const BenchContext &Ctx, double GatePercent) {
  std::vector<CorpusModule> Corpus = buildCorpus(/*Replicas=*/2);

  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("sxe-obs-bench-" + std::to_string(::getpid()));
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);

  std::string Stem = Ctx.JsonPath;
  if (Stem.size() > 5 && Stem.rfind(".json") == Stem.size() - 5)
    Stem.resize(Stem.size() - 5);

  auto makeDaemon = [&](bool Tracing) {
    ServeDaemonOptions Options;
    Options.SocketPath =
        (Dir / (Tracing ? "traced.sock" : "plain.sock")).string();
    Options.Jobs = 4;
    Options.Admission.MaxQueueDepth = 4096;
    Options.MemoryCache.MaxEntries = 4096;
    Options.Tracing = Tracing;
    if (Tracing && !Stem.empty()) {
      Options.TraceFile = Stem + ".trace.json";
      Options.EventsFile = Stem + ".events.jsonl";
    }
    return Options;
  };

  ServeDaemon Traced(makeDaemon(true));
  ServeDaemon Plain(makeDaemon(false));
  std::string Error;
  if (!Traced.start(Error) || !Plain.start(Error)) {
    std::fprintf(stderr, "overhead bench: %s\n", Error.c_str());
    return 1;
  }

  auto warm = [&](ServeDaemon &Daemon) {
    ServeClient Client;
    if (!Client.connectTo(Daemon.socketPath(), Error, /*RetryMillis=*/2000))
      return false;
    for (const CorpusModule &M : Corpus) {
      ServeRequest Request;
      Request.Name = M.Name;
      Request.Source = M.Source;
      ServeReply Reply;
      if (!Client.compile(Request, Reply, Error) || !Reply.Ok)
        return false;
    }
    return true;
  };
  if (!warm(Traced) || !warm(Plain)) {
    std::fprintf(stderr, "overhead bench: warmup failed: %s\n",
                 Error.c_str());
    return 1;
  }

  // Alternate configs per round so drift (thermal, noisy neighbours)
  // hits both sides equally; keep each side's best round.
  const unsigned Clients = 4;
  // Warm hits are served at enqueue without a parse, so a smoke round
  // needs ~4000 requests to last long enough (~150 ms) that scheduler
  // noise stays well under the gate.
  const unsigned Rounds = Ctx.Smoke ? 3 : 5;
  uint64_t PerRound = Ctx.Smoke ? 4000 : 20000 * Ctx.scale();
  DaemonRun BestOn, BestOff;
  unsigned Failures = 0;
  std::printf("\ntracing overhead (%zu corpus modules, %u clients, "
              "%u rounds x %llu requests)\n",
              Corpus.size(), Clients, Rounds,
              static_cast<unsigned long long>(PerRound));
  std::printf("%-8s %-8s %14s %12s %10s\n", "round", "tracing", "requests/s",
              "wall ms", "p99 us");
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    for (bool Tracing : {true, false}) {
      ServeDaemon &Daemon = Tracing ? Traced : Plain;
      DaemonRun Run =
          sweepDaemon(Daemon.socketPath(), Corpus, Clients, PerRound);
      Failures += Run.Failures;
      DaemonRun &Best = Tracing ? BestOn : BestOff;
      if (Run.RequestsPerSec > Best.RequestsPerSec)
        Best = Run;
      std::printf("%-8u %-8s %14.1f %12.1f %10.1f\n", Round,
                  Tracing ? "on" : "off", Run.RequestsPerSec,
                  Run.WallNanos / 1e6, Run.P99Nanos / 1e3);
    }
  }

  double OverheadPercent =
      BestOff.RequestsPerSec > 0.0
          ? 100.0 * (BestOff.RequestsPerSec - BestOn.RequestsPerSec) /
                BestOff.RequestsPerSec
          : 0.0;
  std::printf("best on=%.1f req/s, best off=%.1f req/s, overhead=%.2f%%",
              BestOn.RequestsPerSec, BestOff.RequestsPerSec,
              OverheadPercent);
  if (GatePercent > 0.0)
    std::printf(" (gate %.1f%%)", GatePercent);
  std::printf("\n");

  Traced.stop(); // Writes the trace/events artifacts next to the report.
  Plain.stop();
  if (!Stem.empty() &&
      !writeTextFile(Stem + ".metrics.json",
                     Traced.metricsRegistry().toJson()))
    std::fprintf(stderr, "overhead bench: cannot write %s.metrics.json\n",
                 Stem.c_str());

  if (!Ctx.JsonPath.empty()) {
    JsonWriter J;
    beginBenchReport(J, Ctx);
    J.keyValue("corpus_modules", static_cast<uint64_t>(Corpus.size()));
    J.keyValue("clients", static_cast<uint64_t>(Clients));
    J.keyValue("rounds", static_cast<uint64_t>(Rounds));
    J.keyValue("requests_per_round", PerRound);
    J.key("tracing_on");
    J.beginObject();
    J.keyValue("requests_per_sec", BestOn.RequestsPerSec);
    J.keyValue("p50_ns", BestOn.P50Nanos);
    J.keyValue("p99_ns", BestOn.P99Nanos);
    J.endObject();
    J.key("tracing_off");
    J.beginObject();
    J.keyValue("requests_per_sec", BestOff.RequestsPerSec);
    J.keyValue("p50_ns", BestOff.P50Nanos);
    J.keyValue("p99_ns", BestOff.P99Nanos);
    J.endObject();
    J.keyValue("overhead_percent", OverheadPercent);
    J.keyValue("gate_percent", GatePercent);
    J.keyValue("failures", static_cast<uint64_t>(Failures));
    finishBenchReport(J, Ctx);
  }

  std::filesystem::remove_all(Dir, EC);
  if (Failures) {
    std::fprintf(stderr, "overhead bench: %u failed requests\n", Failures);
    return 1;
  }
  if (GatePercent > 0.0 && OverheadPercent > GatePercent) {
    std::fprintf(stderr,
                 "overhead bench: tracing costs %.2f%% throughput, gate is "
                 "%.1f%%\n",
                 OverheadPercent, GatePercent);
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  // `--daemon` switches to the serve-daemon benchmark and `--overhead` to
  // the tracing-cost A/B measurement; the remaining arguments keep
  // BenchUtil's meaning (--smoke, --json=FILE).
  bool DaemonMode = false;
  bool OverheadMode = false;
  double OverheadGate = 0.0;
  std::vector<char *> Filtered;
  Filtered.push_back(argv[0]);
  for (int Index = 1; Index < argc; ++Index) {
    std::string Arg = argv[Index];
    if (Arg == "--daemon")
      DaemonMode = true;
    else if (Arg == "--overhead")
      OverheadMode = true;
    else if (Arg.rfind("--overhead-gate=", 0) == 0) {
      OverheadMode = true;
      OverheadGate = std::atof(Arg.c_str() + 16);
    } else
      Filtered.push_back(argv[Index]);
  }
  if (OverheadMode) {
    BenchContext Ctx =
        parseBenchArgs("serve_tracing_overhead",
                       static_cast<int>(Filtered.size()), Filtered.data());
    return runOverheadBench(Ctx, OverheadGate);
  }
  if (DaemonMode) {
    BenchContext Ctx =
        parseBenchArgs("serve_daemon", static_cast<int>(Filtered.size()),
                       Filtered.data());
    return runDaemonBench(Ctx);
  }

  BenchContext Ctx = parseBenchArgs("compile_service", argc, argv);
  unsigned Replicas = Ctx.Smoke ? 2 : 2 + 2 * Ctx.scale();

  std::fprintf(stderr, "generating corpus (%u replicas x 17 workloads)...\n",
               Replicas);
  std::vector<CorpusModule> Corpus = buildCorpus(Replicas);

  // Serial reference: jobs=0 (inline deterministic mode), no cache.
  std::fprintf(stderr, "reference compile (serial, no cache)...\n");
  std::map<std::string, std::string> Reference;
  {
    CompileServiceOptions Options;
    Options.Jobs = 0;
    CompileService Service(Options);
    for (const CorpusModule &C : Corpus) {
      CompileRequest Request;
      Request.Name = C.Name;
      Request.Source = C.Source;
      Request.Config = PipelineConfig::forVariant(Variant::All);
      CompileResult Result = Service.enqueue(std::move(Request)).get();
      if (Result.Ok)
        Reference.emplace(Result.Name, Result.Code->IRText);
    }
  }

  const unsigned JobCounts[] = {1, 2, 4, 8};
  std::vector<std::pair<unsigned, SweepResult>> Runs;
  for (unsigned Jobs : JobCounts) {
    CodeCache Cache; // Fresh per run: every module misses once.
    CompileServiceOptions Options;
    Options.Jobs = Jobs;
    Options.Cache = &Cache;
    CompileService Service(Options);
    SweepResult Result = sweepCorpus(Service, Corpus, &Reference);
    std::fprintf(stderr,
                 "  jobs=%u: %7.1f modules/s (%6.1f ms, identical=%s)\n",
                 Jobs, Result.ModulesPerSec,
                 Result.WallNanos / 1e6, Result.Identical ? "yes" : "NO");
    Runs.emplace_back(Jobs, Result);
  }
  double Speedup8v1 =
      Runs.front().second.WallNanos
          ? static_cast<double>(Runs.front().second.WallNanos) /
                static_cast<double>(Runs.back().second.WallNanos)
          : 0.0;

  // Cache pass: warm the cache with one full sweep, then resweep and
  // measure the hit rate plus artifact identity. This 8-worker service is
  // also the observed one: its trace timeline and metrics registry are
  // written next to the JSON report (the CI bench-smoke artifact).
  CodeCache Cache;
  TraceCollector Trace;
  MetricsRegistry Metrics;
  CompileServiceOptions Options;
  Options.Jobs = 8;
  Options.Cache = &Cache;
  Options.Trace = &Trace;
  Options.Metrics = &Metrics;
  CompileService Service(Options);
  sweepCorpus(Service, Corpus, nullptr);
  CodeCacheStats Before = Cache.stats();
  SweepResult Second = sweepCorpus(Service, Corpus, &Reference);
  CodeCacheStats After = Cache.stats();
  uint64_t PassHits = After.Hits - Before.Hits;
  uint64_t PassMisses = After.Misses - Before.Misses;
  double HitRate = (PassHits + PassMisses)
                       ? 100.0 * static_cast<double>(PassHits) /
                             static_cast<double>(PassHits + PassMisses)
                       : 0.0;

  std::printf("\ncompile service throughput (%zu modules, %u hw threads)\n",
              Corpus.size(), std::thread::hardware_concurrency());
  std::printf("%-8s %14s %12s %10s\n", "jobs", "modules/s", "wall ms",
              "identical");
  for (const auto &Run : Runs)
    std::printf("%-8u %14.1f %12.1f %10s\n", Run.first,
                Run.second.ModulesPerSec, Run.second.WallNanos / 1e6,
                Run.second.Identical ? "yes" : "NO");
  std::printf("speedup 8 vs 1 workers: %.2fx\n", Speedup8v1);
  std::printf("second pass over warm cache: %.1f%% hits (%llu/%llu), "
              "identical=%s, %.1f modules/s\n",
              HitRate, static_cast<unsigned long long>(PassHits),
              static_cast<unsigned long long>(PassHits + PassMisses),
              Second.Identical ? "yes" : "NO", Second.ModulesPerSec);

  if (!Ctx.JsonPath.empty()) {
    JsonWriter J;
    beginBenchReport(J, Ctx);
    J.keyValue("corpus_modules", static_cast<uint64_t>(Corpus.size()));
    J.keyValue("hw_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
    J.key("runs");
    J.beginArray();
    for (const auto &Run : Runs) {
      J.beginObject();
      J.keyValue("jobs", static_cast<uint64_t>(Run.first));
      J.keyValue("wall_ns", Run.second.WallNanos);
      J.keyValue("modules_per_sec", Run.second.ModulesPerSec);
      J.keyValue("identical_to_serial", Run.second.Identical);
      J.keyValue("failures", static_cast<uint64_t>(Run.second.Failures));
      J.endObject();
    }
    J.endArray();
    J.keyValue("speedup_8_vs_1", Speedup8v1);
    J.key("second_pass");
    J.beginObject();
    J.keyValue("hit_rate_percent", HitRate);
    J.keyValue("hits", PassHits);
    J.keyValue("lookups", PassHits + PassMisses);
    J.keyValue("identical_to_serial", Second.Identical);
    J.keyValue("modules_per_sec", Second.ModulesPerSec);
    J.endObject();
    J.keyValue("trace_thread_tracks",
               static_cast<uint64_t>(Trace.threadTracks()));
    finishBenchReport(J, Ctx);

    // Side artifacts of the observed 8-worker service, next to the JSON
    // report: BENCH_*.trace.json (Chrome trace) and BENCH_*.prom
    // (Prometheus text with the compile-latency histogram).
    std::string Stem = Ctx.JsonPath;
    if (Stem.size() > 5 && Stem.rfind(".json") == Stem.size() - 5)
      Stem.resize(Stem.size() - 5);
    if (!writeTextFile(Stem + ".trace.json", Trace.toJson()) ||
        !writeTextFile(Stem + ".prom", Metrics.toPrometheus()))
      std::fprintf(stderr, "cannot write observability artifacts for %s\n",
                   Ctx.JsonPath.c_str());
    else
      std::fprintf(stderr, "wrote %s.trace.json and %s.prom\n", Stem.c_str(),
                   Stem.c_str());
  }

  bool Ok = Second.Identical && HitRate >= 90.0;
  for (const auto &Run : Runs)
    Ok = Ok && Run.second.Identical && Run.second.Failures == 0;
  return Ok ? 0 : 1;
}
