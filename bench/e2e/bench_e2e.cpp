//===- bench/e2e/bench_e2e.cpp - End-to-end benchmark -------------------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
// The repository benchmark. It drives the product path a JIT would use:
//
//   source text -> ServeDaemon (unix socket) -> CompileService (parse, hash,
//   memory and persistent cache tiers, Figure 5 pipeline) -> reply ->
//   codegen -> native run, checked against the Java-semantics oracle.
//
//   bench_e2e --workload W --seed N --seconds S --trace 0|1
//             [--smoke] [--work-dir DIR]
//
// Workloads (closed loop: each caller waits for its reply):
//
//   serve_warm   17 kernels x 4 seeded `uniq_<r>` markers, compiled in
//                set-up; then 2 connections request them with WantIR=false.
//                Every reply must be a memory-tier hit.
//   serve_cold   a distinct module per request on 1 connection; every reply
//                is a fresh compile, and the client parses it, compiles it
//                natively and runs main() once.
//   native_exec  17 kernels at Scale=8, variants baseline and all, compiled
//                through the daemon in set-up; then rounds that run every
//                kernel x variant once, in seeded order.
//
// `--trace 0` measures the end-to-end metrics. `--trace 1` is a separate
// run: it alternates untraced and traced segments of the timed loop (client
// spans, daemon trace and event files), then replays the request stream
// in-process on one thread through each layer's public functions and
// reports the per-layer metrics. The last line of stdout is one JSON object
// with the keys correct, attempted, failed and metrics; exit status 1 means
// an operation failed, 2 a usage or set-up error.
//
//===----------------------------------------------------------------------------===//

#include "codegen/CodeBuffer.h"
#include "codegen/Emitter.h"
#include "codegen/Lowering.h"
#include "codegen/MachineVerifier.h"
#include "codegen/NativeEngine.h"
#include "codegen/RegAlloc.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "jit/CodeCache.h"
#include "jit/PersistentCache.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "parser/Parser.h"
#include "pm/InstrumentedPipeline.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "support/IRHash.h"
#include "support/Json.h"
#include "support/RNG.h"
#include "support/Timer.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace sxe;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// A few hundred milliseconds per loop, one set-up, Scale=1: checks that
  /// every metric is produced, not what it measures.
  bool Smoke = false;
  /// Sockets, caches and trace files go under here.
  std::string WorkDir = "bench_e2e-work";
};

bool parseOptions(int Argc, char **Argv, Options &Out) {
  for (int Index = 1; Index < Argc; ++Index) {
    std::string Arg = Argv[Index];
    std::string Value;
    size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Value = Arg.substr(Eq + 1);
      Arg.resize(Eq);
    } else if (Arg != "--smoke") {
      if (Index + 1 >= Argc) {
        std::fprintf(stderr, "bench_e2e: %s needs a value\n", Arg.c_str());
        return false;
      }
      Value = Argv[++Index];
    }
    if (Arg == "--workload") {
      Out.Workload = Value;
    } else if (Arg == "--seed") {
      Out.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--seconds") {
      Out.Seconds = std::strtod(Value.c_str(), nullptr);
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1") {
        std::fprintf(stderr, "bench_e2e: --trace takes 0 or 1\n");
        return false;
      }
      Out.Trace = Value == "1";
    } else if (Arg == "--work-dir") {
      Out.WorkDir = Value;
    } else if (Arg == "--smoke") {
      Out.Smoke = true;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown option '%s'\n", Arg.c_str());
      return false;
    }
  }
  if (Out.Workload != "serve_warm" && Out.Workload != "serve_cold" &&
      Out.Workload != "native_exec") {
    std::fprintf(stderr, "usage: bench_e2e --workload serve_warm|serve_cold|"
                         "native_exec [--seed N] [--seconds S] [--trace 0|1] "
                         "[--smoke] [--work-dir DIR]\n");
    return false;
  }
  if (!(Out.Seconds > 0.0) || Out.Seconds > 600.0) {
    std::fprintf(stderr, "bench_e2e: --seconds must be in (0, 600]\n");
    return false;
  }
  if (Out.Smoke)
    Out.Seconds = std::min(Out.Seconds, 0.3);
  return true;
}

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

/// Linear-interpolation quantile (Python's statistics.quantiles "inclusive").
double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double microsBetween(uint64_t StartNs, uint64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) / 1e3;
}

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Shortest round-trip decimal form: every digit the measurement has.
std::string formatNumber(double Value) {
  char Buf[64];
  auto Result = std::to_chars(Buf, Buf + sizeof(Buf), Value);
  return std::string(Buf, Result.ptr);
}

double peakRssMiB() {
  rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Counts attempted and failed operations. A failure is a transport error,
/// a typed error reply, a wrong tier, an InputIRHash mismatch, or a native
/// result that differs from the oracle.
class Ledger {
public:
  void attempt() { Attempted.fetch_add(1, std::memory_order_relaxed); }

  void fail(const std::string &Why) {
    uint64_t Count = Failed.fetch_add(1, std::memory_order_relaxed) + 1;
    if (Count <= 10) {
      std::lock_guard<std::mutex> Lock(PrintMu);
      std::fprintf(stderr, "bench_e2e: FAILED %s\n", Why.c_str());
    }
  }

  uint64_t attempted() const {
    return Attempted.load(std::memory_order_relaxed);
  }
  uint64_t failed() const { return Failed.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  std::mutex PrintMu;
};

//===----------------------------------------------------------------------===//
// Corpus and oracle
//===----------------------------------------------------------------------===//

struct Kernel {
  std::string Slug;    ///< "numeric_sort", "fp_emu", ...
  std::string Source;  ///< Pristine module text at the workload's scale.
  uint64_t Oracle = 0; ///< Java-semantics checksum of main().
};

std::string slugOf(const std::string &Name) {
  std::string Slug;
  for (char C : Name) {
    if (std::isalnum(static_cast<unsigned char>(C)))
      Slug += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    else if (!Slug.empty() && Slug.back() != '_')
      Slug += '_';
  }
  while (!Slug.empty() && Slug.back() == '_')
    Slug.pop_back();
  return Slug;
}

std::vector<Kernel> buildKernels(unsigned Scale) {
  WorkloadParams Params;
  Params.Scale = Scale;
  std::vector<Kernel> Kernels;
  for (const Workload &W : allWorkloads()) {
    std::unique_ptr<Module> M = W.Build(Params);
    InterpOptions Java;
    Java.Target = &TargetInfo::x86_64();
    Java.Semantics = ExecSemantics::Java;
    ExecResult R = Interpreter(*M, Java).run("main");
    if (!R.ok())
      throw std::runtime_error(std::string("oracle run of ") + W.Name +
                               " trapped: " + R.TrapMessage);
    Kernels.push_back({slugOf(W.Name), printModule(*M), R.ReturnValue});
  }
  return Kernels;
}

/// `func @uniq_<Id>() -> i32` returning Id. Appended to a kernel's text it
/// makes the module a distinct cache key without changing main().
std::string markerText(uint64_t Id) {
  Module Scratch("marker");
  Function *F = Scratch.createFunction("uniq_" + std::to_string(Id), Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  B.ret(B.constI32(static_cast<int32_t>(Id)));
  return "\n" + printFunction(*F);
}

void shuffle(std::vector<size_t> &Order, RNG &Rng) {
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
}

std::vector<size_t> iota(size_t N) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t{0});
  return Order;
}

const char *variantLabel(Variant V) {
  return V == Variant::All ? "all" : "baseline";
}

/// Runs main() of compiled \p Code and compares it with \p Oracle.
std::string runProblem(NativeModule &Code, uint64_t Oracle) {
  ExecResult R = Code.run("main");
  if (!R.ok())
    return std::string("native trap: ") + R.TrapMessage;
  if (R.ReturnValue != Oracle)
    return "native checksum " + std::to_string(R.ReturnValue) +
           " != oracle " + std::to_string(Oracle);
  return "";
}

/// Parses \p IRText, compiles it natively, runs main() once and compares the
/// result with \p Oracle. Returns the failure reason, or "" on success.
std::string nativeProblem(const std::string &IRText, uint64_t Oracle) {
  ParseResult Parsed = parseModule(IRText);
  if (!Parsed.ok())
    return "reply IR does not parse: " + Parsed.Error;
  std::string Error;
  // Parsed.M outlives Code: machine functions name their IR functions.
  std::unique_ptr<NativeModule> Code =
      NativeModule::compile(*Parsed.M, {}, &Error);
  if (!Code)
    return "native compile: " + Error;
  return runProblem(*Code, Oracle);
}

//===----------------------------------------------------------------------===//
// The daemon under test
//===----------------------------------------------------------------------===//

/// A ServeDaemon on a fresh directory: Jobs=2 and the persistent tier on;
/// every other option keeps the deployed default (tracing, remarks, ...).
class DaemonUnderTest {
public:
  DaemonUnderTest(const fs::path &Dir, const fs::path &TraceDir) : Dir(Dir) {
    fs::create_directories(Dir);
    ServeDaemonOptions Opts;
    Opts.SocketPath = (Dir / "serve.sock").string();
    Opts.Jobs = 2;
    Opts.CacheDir = (Dir / "cache").string();
    if (!TraceDir.empty()) {
      Opts.TraceFile = (TraceDir / "daemon.trace.json").string();
      Opts.EventsFile = (TraceDir / "daemon.events.jsonl").string();
    }
    Daemon = std::make_unique<ServeDaemon>(Opts);
    std::string Error;
    if (!Daemon->start(Error))
      throw std::runtime_error("daemon start: " + Error);
  }

  ~DaemonUnderTest() { stop(); }

  DaemonUnderTest(const DaemonUnderTest &) = delete;
  DaemonUnderTest &operator=(const DaemonUnderTest &) = delete;

  /// Drains the daemon (writing its trace and events files) and removes
  /// its socket and cache directory.
  void stop() {
    if (!Daemon)
      return;
    Daemon->stop();
    Daemon.reset();
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  std::unique_ptr<ServeClient> connect() const {
    auto Client = std::make_unique<ServeClient>();
    std::string Error;
    if (!Client->connectTo(Daemon->socketPath(), Error, /*RetryMillis=*/2000))
      throw std::runtime_error("connect: " + Error);
    return Client;
  }

  ServeDaemon &daemon() { return *Daemon; }

private:
  fs::path Dir;
  std::unique_ptr<ServeDaemon> Daemon;
};

ServeRequest compileRequest(std::string Name, std::string Source, Variant V,
                            bool WantIR) {
  ServeRequest Request;
  Request.Name = std::move(Name);
  Request.Source = std::move(Source);
  Request.Target = "x86_64";
  Request.Variant = variantLabel(V);
  Request.WantIR = WantIR;
  return Request;
}

/// Checks one compile round trip; \p Hash 0 skips the InputIRHash check.
std::string replyProblem(bool Sent, const std::string &Error,
                         const ServeReply &Reply, ServeTier Tier,
                         uint64_t Hash) {
  if (!Sent)
    return "transport: " + Error;
  if (!Reply.Ok)
    return std::string("error reply (") +
           serveErrorKindName(Reply.ErrorKind) + "): " + Reply.Error;
  if (Reply.Tier != Tier)
    return std::string("tier ") + serveTierName(Reply.Tier) + ", expected " +
           serveTierName(Tier);
  if (Hash && Reply.InputIRHash != Hash)
    return "InputIRHash differs from the set-up hash";
  return "";
}

//===----------------------------------------------------------------------===//
// Workload state
//===----------------------------------------------------------------------===//

/// One serve request as the replay needs it: what was sent, and the
/// daemon-side timings its reply carried.
struct ServedRequest {
  size_t Kernel = 0;
  Variant V = Variant::All;
  bool HasMarker = false;
  uint64_t Marker = 0;
  bool WantIR = false;
  uint64_t TraceId = 0;
  double RttUs = 0.0;    ///< The compile() round trip alone.
  double WorkerUs = 0.0; ///< ServeReply::WallNanos.
  double QueueUs = 0.0;  ///< ServeReply::QueueWaitNanos.
};

std::string sourceOf(const std::vector<Kernel> &Kernels,
                     const ServedRequest &Request) {
  const std::string &Text = Kernels[Request.Kernel].Source;
  return Request.HasMarker ? Text + markerText(Request.Marker) : Text;
}

std::string nameOf(const std::vector<Kernel> &Kernels,
                   const ServedRequest &Request) {
  std::string Name = Kernels[Request.Kernel].Slug;
  if (Request.HasMarker)
    Name += "#" + std::to_string(Request.Marker);
  return Name;
}

ServedRequest servedFrom(ServedRequest Request, const ServeReply &Reply,
                         uint64_t StartNs, uint64_t EndNs) {
  Request.TraceId = Reply.TraceId;
  Request.RttUs = microsBetween(StartNs, EndNs);
  Request.WorkerUs = static_cast<double>(Reply.WallNanos) / 1e3;
  Request.QueueUs = static_cast<double>(Reply.QueueWaitNanos) / 1e3;
  return Request;
}

/// A natively compiled kernel variant (native_exec). The module outlives
/// the code: machine functions name their IR functions.
struct NativeEntry {
  size_t Kernel = 0;
  Variant V = Variant::All;
  std::unique_ptr<Module> M;
  std::unique_ptr<NativeModule> Code;
};

/// Everything set-up produces; the timed loops only read it (serve_cold
/// also advances NextCold so every pass sends fresh modules).
struct Setup {
  std::vector<Kernel> Kernels;
  std::unique_ptr<DaemonUnderTest> Daemon;
  /// Requests set-up sent, replayed ahead of the timed stream.
  std::vector<ServedRequest> Log;
  // serve_warm: the warmed modules, their requests and set-up hashes.
  std::vector<ServedRequest> Warm;
  std::vector<ServeRequest> WarmRequests;
  std::vector<uint64_t> WarmHashes;
  // serve_cold: marker ids are MarkerBase + NextCold++.
  uint64_t MarkerBase = 0;
  uint64_t NextCold = 0;
  // native_exec.
  std::vector<NativeEntry> Natives;
};

uint64_t hashOfSource(const std::string &Source) {
  ParseResult Parsed = parseModule(Source);
  if (!Parsed.ok())
    throw std::runtime_error("corpus module does not parse: " + Parsed.Error);
  return hashModule(*Parsed.M);
}

/// Sends one set-up compile, which must come back freshly compiled with
/// \p Hash, and logs it for the replay.
ServeReply compileInSetUp(Setup &S, ServeClient &Client,
                          const ServeRequest &Wire,
                          const ServedRequest &Request, uint64_t Hash) {
  ServeReply Reply;
  std::string Error;
  uint64_t Start = wallNowNanos();
  bool Sent = Client.compile(Wire, Reply, Error);
  uint64_t End = wallNowNanos();
  std::string Problem =
      replyProblem(Sent, Error, Reply, ServeTier::Compiled, Hash);
  if (!Problem.empty())
    throw std::runtime_error("set-up compile of " + Wire.Name + ": " +
                             Problem);
  S.Log.push_back(servedFrom(Request, Reply, Start, End));
  return Reply;
}

void setUpServeWarm(Setup &S, const Options &O) {
  S.Kernels = buildKernels(1);
  RNG Rng(O.Seed);
  std::vector<uint64_t> Markers;
  for (unsigned R = 0; R < 4; ++R)
    Markers.push_back(Rng.nextBelow(1u << 30));
  for (size_t K = 0; K < S.Kernels.size(); ++K)
    for (uint64_t Marker : Markers) {
      ServedRequest Request;
      Request.Kernel = K;
      Request.HasMarker = true;
      Request.Marker = Marker;
      S.Warm.push_back(Request);
    }
  std::vector<size_t> Order = iota(S.Warm.size());
  shuffle(Order, Rng);

  std::unique_ptr<ServeClient> Client = S.Daemon->connect();
  S.WarmRequests.resize(S.Warm.size());
  S.WarmHashes.resize(S.Warm.size());
  for (size_t Index : Order) {
    ServedRequest Request = S.Warm[Index];
    std::string Source = sourceOf(S.Kernels, Request);
    S.WarmHashes[Index] = hashOfSource(Source);
    Request.WantIR = true;
    ServeRequest Wire = compileRequest(nameOf(S.Kernels, Request), Source,
                                       Variant::All, /*WantIR=*/true);
    ServeReply Reply =
        compileInSetUp(S, *Client, Wire, Request, S.WarmHashes[Index]);
    std::string Problem =
        nativeProblem(Reply.IRText, S.Kernels[Request.Kernel].Oracle);
    if (!Problem.empty())
      throw std::runtime_error("warm-up " + Wire.Name + ": " + Problem);
    Wire.WantIR = false;
    S.WarmRequests[Index] = std::move(Wire);
  }
}

void setUpServeCold(Setup &S, const Options &O) {
  S.Kernels = buildKernels(1);
  RNG Rng(O.Seed);
  S.MarkerBase = Rng.nextBelow(1u << 30);
}

void setUpNativeExec(Setup &S, const Options &O) {
  S.Kernels = buildKernels(O.Smoke ? 1 : 8);
  std::unique_ptr<ServeClient> Client = S.Daemon->connect();
  for (size_t K = 0; K < S.Kernels.size(); ++K) {
    uint64_t Hash = hashOfSource(S.Kernels[K].Source);
    for (Variant V : {Variant::Baseline, Variant::All}) {
      ServedRequest Request;
      Request.Kernel = K;
      Request.V = V;
      Request.WantIR = true;
      ServeRequest Wire =
          compileRequest(S.Kernels[K].Slug + "." + variantLabel(V),
                         S.Kernels[K].Source, V, /*WantIR=*/true);
      ServeReply Reply = compileInSetUp(S, *Client, Wire, Request, Hash);

      NativeEntry Entry;
      Entry.Kernel = K;
      Entry.V = V;
      ParseResult Parsed = parseModule(Reply.IRText);
      if (!Parsed.ok())
        throw std::runtime_error("reply IR of " + Wire.Name +
                                 " does not parse: " + Parsed.Error);
      Entry.M = std::move(Parsed.M);
      std::string Error;
      Entry.Code = NativeModule::compile(*Entry.M, {}, &Error);
      if (!Entry.Code)
        throw std::runtime_error("native compile of " + Wire.Name + ": " +
                                 Error);
      S.Natives.push_back(std::move(Entry));
    }
  }
}

std::unique_ptr<Setup> setUp(const Options &O, const fs::path &Dir,
                             const fs::path &TraceDir) {
  auto S = std::make_unique<Setup>();
  S->Daemon = std::make_unique<DaemonUnderTest>(Dir, TraceDir);
  if (O.Workload == "serve_warm")
    setUpServeWarm(*S, O);
  else if (O.Workload == "serve_cold")
    setUpServeCold(*S, O);
  else
    setUpNativeExec(*S, O);
  return S;
}

//===----------------------------------------------------------------------===//
// Timed loops
//===----------------------------------------------------------------------===//

/// Reads peak RSS once the loop has completed a fixed number of operations.
/// The daemon retains every request's events and spans, so RSS read at the
/// end of a time-bound loop would grow with throughput.
class RssProbe {
public:
  explicit RssProbe(uint64_t AtOps) : AtOps(AtOps) {}

  void onOp() {
    if (Done.fetch_add(1, std::memory_order_relaxed) + 1 == AtOps)
      Sampled.store(peakRssMiB(), std::memory_order_relaxed);
  }

  /// The sample, or the current peak when the loop stopped short of AtOps.
  double value() const {
    double Value = Sampled.load(std::memory_order_relaxed);
    return Value > 0.0 ? Value : peakRssMiB();
  }

private:
  uint64_t AtOps;
  std::atomic<uint64_t> Done{0};
  std::atomic<double> Sampled{0.0};
};

struct LoopConfig {
  double Seconds = 0.0;
  /// Client-side spans (traced segments only); null when untraced.
  TraceCollector *ClientTrace = nullptr;
  /// Distinguishes the seeded orders of successive loops in one run.
  uint64_t Pass = 0;
  RssProbe *Rss = nullptr;
};

struct LoopResult {
  uint64_t Ok = 0; ///< Operations that completed with a correct result.
  double WallSeconds = 0.0;
  std::vector<double> LatencyUs;
  /// The serve requests sent (traced segments only), for the replay.
  std::vector<ServedRequest> Served;
  /// native_exec: run times per NativeEntry.
  std::vector<std::vector<double>> EntryUs;

  double opsPerSecond() const {
    return WallSeconds > 0.0 ? static_cast<double>(Ok) / WallSeconds : 0.0;
  }
};

/// Records one correct operation.
void completed(LoopResult &R, const LoopConfig &C, uint64_t Begin,
               uint64_t End) {
  ++R.Ok;
  R.LatencyUs.push_back(microsBetween(Begin, End));
  if (C.Rss)
    C.Rss->onOp();
}

void addClientSpan(TraceCollector *Trace, const char *Name, uint64_t Start,
                   uint64_t End, uint64_t TraceId) {
  if (!Trace)
    return;
  std::vector<std::pair<std::string, std::string>> Args;
  if (TraceId)
    Args.emplace_back("trace_id", traceIdHex(TraceId));
  Trace->addSpan(Name, "bench", Start, End, std::move(Args));
}

uint64_t deadlineAfter(double Seconds) {
  return wallNowNanos() + static_cast<uint64_t>(Seconds * 1e9);
}

LoopResult serveWarmLoop(Setup &S, const Options &O, Ledger &L,
                         const LoopConfig &C) {
  const unsigned Clients = 2;
  std::vector<std::unique_ptr<ServeClient>> Conns;
  for (unsigned T = 0; T < Clients; ++T) {
    Conns.push_back(S.Daemon->connect());
    Conns.back()->setTrace(C.ClientTrace);
  }
  std::vector<LoopResult> Per(Clients);
  uint64_t Start = wallNowNanos();
  uint64_t Deadline = deadlineAfter(C.Seconds);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Clients; ++T)
    Threads.emplace_back([&, T] {
      RNG Rng(O.Seed * 1000 + C.Pass * 10 + T + 1);
      LoopResult &R = Per[T];
      std::vector<size_t> Order = iota(S.WarmRequests.size());
      size_t Pos = Order.size();
      while (wallNowNanos() < Deadline) {
        if (Pos == Order.size()) {
          shuffle(Order, Rng);
          Pos = 0;
        }
        size_t Index = Order[Pos++];
        L.attempt();
        ServeReply Reply;
        std::string Error;
        uint64_t Begin = wallNowNanos();
        bool Sent = Conns[T]->compile(S.WarmRequests[Index], Reply, Error);
        uint64_t End = wallNowNanos();
        std::string Problem = replyProblem(Sent, Error, Reply,
                                           ServeTier::Memory,
                                           S.WarmHashes[Index]);
        if (!Problem.empty()) {
          L.fail(S.WarmRequests[Index].Name + ": " + Problem);
          continue;
        }
        completed(R, C, Begin, End);
        if (C.ClientTrace) {
          addClientSpan(C.ClientTrace, "op", Begin, End, Reply.TraceId);
          R.Served.push_back(servedFrom(S.Warm[Index], Reply, Begin, End));
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  LoopResult Out;
  Out.WallSeconds = static_cast<double>(wallNowNanos() - Start) / 1e9;
  for (LoopResult &R : Per) {
    Out.Ok += R.Ok;
    Out.LatencyUs.insert(Out.LatencyUs.end(), R.LatencyUs.begin(),
                         R.LatencyUs.end());
    Out.Served.insert(Out.Served.end(), R.Served.begin(), R.Served.end());
  }
  return Out;
}

LoopResult serveColdLoop(Setup &S, const Options &O, Ledger &L,
                         const LoopConfig &C) {
  std::unique_ptr<ServeClient> Client = S.Daemon->connect();
  Client->setTrace(C.ClientTrace);
  RNG Rng(O.Seed * 1000 + C.Pass * 10 + 1);
  std::vector<size_t> Order = iota(S.Kernels.size());
  size_t Pos = Order.size();
  LoopResult R;
  // InputIRHash is checked after the loop, so the client's own parse of
  // each module stays out of the timed wall.
  std::vector<std::pair<ServedRequest, uint64_t>> HashChecks;
  uint64_t Start = wallNowNanos();
  uint64_t Deadline = deadlineAfter(C.Seconds);
  while (wallNowNanos() < Deadline) {
    if (Pos == Order.size()) {
      shuffle(Order, Rng);
      Pos = 0;
    }
    ServedRequest Request;
    Request.Kernel = Order[Pos++];
    Request.HasMarker = true;
    Request.Marker = S.MarkerBase + S.NextCold++;
    Request.WantIR = true;
    ServeRequest Wire = compileRequest(nameOf(S.Kernels, Request),
                                       sourceOf(S.Kernels, Request),
                                       Variant::All, /*WantIR=*/true);
    L.attempt();
    ServeReply Reply;
    std::string Error;
    uint64_t Begin = wallNowNanos();
    bool Sent = Client->compile(Wire, Reply, Error);
    uint64_t Replied = wallNowNanos();
    std::string Problem =
        replyProblem(Sent, Error, Reply, ServeTier::Compiled, /*Hash=*/0);
    if (Problem.empty())
      Problem = nativeProblem(Reply.IRText, S.Kernels[Request.Kernel].Oracle);
    uint64_t End = wallNowNanos();
    if (!Problem.empty()) {
      L.fail(Wire.Name + ": " + Problem);
      continue;
    }
    completed(R, C, Begin, End);
    HashChecks.emplace_back(Request, Reply.InputIRHash);
    if (C.ClientTrace) {
      addClientSpan(C.ClientTrace, "op", Begin, End, Reply.TraceId);
      R.Served.push_back(servedFrom(Request, Reply, Begin, Replied));
    }
  }
  R.WallSeconds = static_cast<double>(wallNowNanos() - Start) / 1e9;

  for (const auto &[Request, Hash] : HashChecks)
    if (hashOfSource(sourceOf(S.Kernels, Request)) != Hash)
      L.fail(nameOf(S.Kernels, Request) +
             ": InputIRHash differs from the module's hash");
  return R;
}

LoopResult nativeExecLoop(Setup &S, const Options &O, Ledger &L,
                          const LoopConfig &C) {
  RNG Rng(O.Seed * 1000 + C.Pass * 10 + 1);
  std::vector<size_t> Order = iota(S.Natives.size());
  LoopResult R;
  R.EntryUs.resize(S.Natives.size());
  uint64_t Start = wallNowNanos();
  uint64_t Deadline = deadlineAfter(C.Seconds);
  // Whole rounds only, so every run measures the same kernel x variant mix.
  do {
    shuffle(Order, Rng);
    for (size_t Index : Order) {
      NativeEntry &Entry = S.Natives[Index];
      L.attempt();
      uint64_t Begin = wallNowNanos();
      ExecResult Run = Entry.Code->run("main");
      uint64_t End = wallNowNanos();
      const Kernel &K = S.Kernels[Entry.Kernel];
      if (!Run.ok() || Run.ReturnValue != K.Oracle) {
        L.fail(K.Slug + "." + variantLabel(Entry.V) +
               ": native result differs from the oracle");
        continue;
      }
      completed(R, C, Begin, End);
      R.EntryUs[Index].push_back(microsBetween(Begin, End));
      addClientSpan(C.ClientTrace, "exec.run", Begin, End, /*TraceId=*/0);
    }
  } while (wallNowNanos() < Deadline);
  R.WallSeconds = static_cast<double>(wallNowNanos() - Start) / 1e9;
  return R;
}

LoopResult timedLoop(Setup &S, const Options &O, Ledger &L,
                     const LoopConfig &C) {
  if (O.Workload == "serve_warm")
    return serveWarmLoop(S, O, L, C);
  if (O.Workload == "serve_cold")
    return serveColdLoop(S, O, L, C);
  return nativeExecLoop(S, O, L, C);
}

/// native_exec's view of the paper's claim, printed for the reader: the
/// geomean over kernels of the median run time of `all`, and of the
/// per-kernel all/baseline ratio.
void printExecSummary(const Setup &S, const LoopResult &R) {
  std::vector<double> All, Ratio;
  for (size_t K = 0; K < S.Kernels.size(); ++K) {
    double Median[2] = {0.0, 0.0};
    for (size_t Index = 0; Index < S.Natives.size(); ++Index)
      if (S.Natives[Index].Kernel == K && !R.EntryUs[Index].empty())
        Median[S.Natives[Index].V == Variant::All] = median(R.EntryUs[Index]);
    if (Median[0] > 0.0 && Median[1] > 0.0) {
      All.push_back(Median[1]);
      Ratio.push_back(Median[1] / Median[0]);
    }
  }
  std::fprintf(stderr,
               "native_exec: geomean median run of `all` %.3f ms, "
               "geomean all/baseline %.4f over %zu kernels\n",
               geomean(All) / 1e3, geomean(Ratio), All.size());
}

//===----------------------------------------------------------------------===//
// In-process replay (traced run)
//===----------------------------------------------------------------------===//

/// The passes variant `all` runs, in pipeline order (pm.<pass>_us).
const char *const AllVariantPasses[] = {
    "conversion64", "general-opts",        "dummy-insertion",
    "insertion",    "order-determination", "elimination"};

/// Replays a request stream on one thread through each layer's public
/// functions, in the order the daemon and the client call them. Every call
/// is one span in an in-memory TraceCollector and one sample of its layer.
class Replay {
public:
  Replay(const std::vector<Kernel> &Kernels, const fs::path &CacheDir,
         Ledger &L)
      : Kernels(Kernels), PCache(PersistentCacheOptions{CacheDir.string()}),
        L(L) {}

  void request(const ServedRequest &Item);
  /// Compiles kernel \p K under \p V in-process and measures the generated
  /// code: interpreter conversion counts and median native run time.
  void probe(size_t K, Variant V);
  void report(std::vector<Metric> &Out) const;
  const TraceCollector &spans() const { return Spans; }

private:
  /// One layer call: a span plus a sample of its duration.
  class Timed {
  public:
    Timed(Replay &R, const char *Layer)
        : R(R), Layer(Layer), Start(wallNowNanos()) {}
    ~Timed() { R.record(Layer, Start, wallNowNanos()); }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    Replay &R;
    const char *Layer;
    uint64_t Start;
  };

  void record(const std::string &Layer, uint64_t Start, uint64_t End) {
    Samples[Layer].push_back(microsBetween(Start, End));
    std::vector<std::pair<std::string, std::string>> Args;
    if (TraceId)
      Args.emplace_back("trace_id", traceIdHex(TraceId));
    Spans.addSpan(Layer, "replay", Start, End, std::move(Args));
  }
  double last(const std::string &Layer) const {
    return Samples.at(Layer).back();
  }
  void clientSide(const std::string &IRText, size_t K);
  void codegenStages(const Module &M);

  const std::vector<Kernel> &Kernels;
  CodeCache Cache;
  PersistentCache PCache;
  Ledger &L;
  TraceCollector Spans;
  uint64_t TraceId = 0;
  std::map<std::string, std::vector<double>> Samples;
  /// Per replayed request: the worker-side layers summed, and the
  /// ServeReply::WallNanos the daemon reported for it.
  std::vector<double> WorkerSum, WorkerReported;
  // Probe results.
  std::vector<double> ExecAllUs, ExecBaselineUs, NsPerInst;
  uint64_t DynConv[2] = {0, 0}; ///< Indexed by V == Variant::All.
  NativeCompileInfo CodegenAll;
};

void Replay::request(const ServedRequest &Item) {
  TraceId = Item.TraceId;
  std::string Source = sourceOf(Kernels, Item);
  PipelineConfig Config =
      PipelineConfig::forVariant(Item.V, TargetInfo::x86_64());

  ParseResult Parsed;
  {
    Timed T(*this, "parser.parse");
    Parsed = parseModule(Source);
  }
  if (!Parsed.ok()) {
    L.fail("replay: source does not parse");
    return;
  }
  Samples["parser.bytes_per_us"].push_back(
      static_cast<double>(Source.size()) / last("parser.parse"));
  uint64_t Hash = 0;
  std::string Key;
  {
    Timed T(*this, "support.hash");
    Hash = hashModule(*Parsed.M);
    Key = codeCacheKey(Hash, Config);
  }
  std::shared_ptr<const CompiledCode> Code;
  {
    Timed T(*this, "jit.cache_lookup");
    Code = Cache.lookup(Key);
  }
  double Worker =
      last("parser.parse") + last("support.hash") + last("jit.cache_lookup");
  ServeTier Tier = ServeTier::Memory;
  if (!Code) {
    {
      Timed T(*this, "jit.pcache_lookup");
      Code = PCache.lookup(Key);
    }
    Worker += last("jit.pcache_lookup");
    Tier = ServeTier::Persistent;
  }
  if (!Code) {
    PassManagerOptions PMOpts;
    PMOpts.CollectRemarks = true; // As the daemon deploys it.
    InstrumentedPipelineResult Run;
    {
      Timed T(*this, "pm.pipeline");
      Run = runInstrumentedPipeline(*Parsed.M, Config, PMOpts);
    }
    Worker += last("pm.pipeline");
    if (!Run.Ok) {
      L.fail("replay: pipeline failed in " + Run.FailedPass);
      return;
    }
    std::map<std::string, double> PassUs;
    for (const PassTiming &Timing : Run.Timings)
      PassUs[Timing.Name] += static_cast<double>(Timing.WallNanos) / 1e3;
    for (const auto &[Name, Us] : PassUs)
      Samples["pm." + Name].push_back(Us);
    Samples["pm.chain_creation"].push_back(
        static_cast<double>(Run.ChainCreationNanos) / 1e3);
    Samples["pm.remarks"].push_back(static_cast<double>(Run.Remarks.size()));

    auto Fresh = std::make_shared<CompiledCode>();
    {
      Timed T(*this, "ir.print");
      Fresh->IRText = printModule(*Parsed.M);
    }
    Fresh->Stats = std::move(Run.Stats);
    Fresh->Remarks = Run.Remarks.take();
    Fresh->InputIRHash = Hash;
    Cache.insert(Key, Fresh);
    {
      Timed T(*this, "jit.pcache_insert");
      PCache.insert(Key, *Fresh);
    }
    Samples["jit.pcache_entry_bytes"].push_back(
        static_cast<double>(encodePersistentEntry(Key, *Fresh).size()));
    Code = Fresh;
    Tier = ServeTier::Compiled;
  }
  WorkerSum.push_back(Worker);
  WorkerReported.push_back(Item.WorkerUs);

  // The reply as ServeDaemon::serveCompile builds it, then both codec
  // halves.
  ServeReply Reply;
  Reply.Ok = true;
  Reply.Tier = Tier;
  Reply.InputIRHash = Code->InputIRHash;
  if (Item.WantIR)
    Reply.IRText = Code->IRText;
  for (const StatEntry &Entry : Code->Stats.entries())
    Reply.Stats.push_back(Entry);
  Reply.TraceId = Item.TraceId;
  std::string Payload;
  {
    Timed T(*this, "serve.encode");
    Payload = encodeServeReply(Reply);
  }
  Samples["serve.reply_bytes"].push_back(static_cast<double>(Payload.size()));
  ServeReply Decoded;
  std::string Error;
  bool DecodedOk = false;
  {
    Timed T(*this, "serve.decode");
    DecodedOk = decodeServeReply(Payload, Decoded, Error);
  }
  if (!DecodedOk) {
    L.fail("replay: reply does not decode: " + Error);
    return;
  }
  if (Item.WantIR)
    clientSide(Decoded.IRText, Item.Kernel);
}

void Replay::codegenStages(const Module &M) {
  std::unique_ptr<MModule> MIR;
  {
    Timed T(*this, "codegen.lower");
    MIR = lowerModule(M);
  }
  std::vector<RegAllocResult> Allocations;
  {
    Timed T(*this, "codegen.regalloc");
    for (auto &MF : MIR->Functions)
      Allocations.push_back(allocateRegisters(*MF));
  }
  std::string Problem;
  {
    Timed T(*this, "codegen.mverify");
    for (size_t Index = 0; Index < MIR->Functions.size() && Problem.empty();
         ++Index)
      Problem = verifyMachineFunction(*MIR->Functions[Index],
                                      &Allocations[Index].Intervals);
  }
  if (!Problem.empty()) {
    L.fail("replay: machine verifier: " + Problem);
    return;
  }
  // Emission only encodes helper addresses as imm64 operands, so a zero
  // table emits code of the real size; this buffer is never run.
  EmittedModule Emitted;
  {
    Timed T(*this, "codegen.emit");
    Emitted = emitModule(*MIR, HelperTable{});
  }
  {
    Timed T(*this, "codegen.wx");
    CodeBuffer Buffer;
    if (!Buffer.allocate(Emitted.Code.size())) {
      L.fail("replay: cannot map a code buffer");
      return;
    }
    std::memcpy(Buffer.data(), Emitted.Code.data(), Emitted.Code.size());
    if (!Buffer.makeExecutable())
      L.fail("replay: cannot make a code buffer executable");
  }
}

void Replay::clientSide(const std::string &IRText, size_t K) {
  ParseResult Parsed;
  {
    Timed T(*this, "parser.reparse");
    Parsed = parseModule(IRText);
  }
  if (!Parsed.ok()) {
    L.fail("replay: reply IR does not parse");
    return;
  }
  codegenStages(*Parsed.M);
  std::unique_ptr<NativeModule> Code;
  std::string Error;
  {
    Timed T(*this, "codegen.compile");
    Code = NativeModule::compile(*Parsed.M, {}, &Error);
  }
  if (!Code) {
    L.fail("replay: native compile: " + Error);
    return;
  }
  std::string Problem;
  {
    Timed T(*this, "exec.cold_run");
    Problem = runProblem(*Code, Kernels[K].Oracle);
  }
  if (!Problem.empty())
    L.fail("replay: " + Kernels[K].Slug + ": " + Problem);
}

void Replay::probe(size_t K, Variant V) {
  const Kernel &Kern = Kernels[K];
  ParseResult Parsed = parseModule(Kern.Source);
  InstrumentedPipelineResult Run = runInstrumentedPipeline(
      *Parsed.M, PipelineConfig::forVariant(V, TargetInfo::x86_64()));
  if (!Run.Ok) {
    L.fail("probe: pipeline failed on " + Kern.Slug);
    return;
  }
  const bool IsAll = V == Variant::All;

  InterpOptions Machine;
  Machine.Target = &TargetInfo::x86_64();
  Machine.Semantics = ExecSemantics::Machine;
  uint64_t Start = wallNowNanos();
  ExecResult Counted = Interpreter(*Parsed.M, Machine).run("main");
  uint64_t End = wallNowNanos();
  if (!Counted.ok() || Counted.ReturnValue != Kern.Oracle)
    L.fail("probe: interpreter result of " + Kern.Slug + " differs");
  DynConv[IsAll] += Counted.totalExecutedConversions();
  if (Counted.ExecutedInstructions)
    NsPerInst.push_back(static_cast<double>(End - Start) /
                        static_cast<double>(Counted.ExecutedInstructions));

  std::string Error;
  std::unique_ptr<NativeModule> Code =
      NativeModule::compile(*Parsed.M, {}, &Error);
  if (!Code) {
    L.fail("probe: native compile of " + Kern.Slug + ": " + Error);
    return;
  }
  if (IsAll) {
    const NativeCompileInfo &Info = Code->info();
    CodegenAll.Lowering.MachineInsts += Info.Lowering.MachineInsts;
    CodegenAll.Lowering.HelperCalls += Info.Lowering.HelperCalls;
    CodegenAll.Lowering.Conversions += Info.Lowering.Conversions;
    CodegenAll.SpilledIntervals += Info.SpilledIntervals;
    CodegenAll.SpillLoads += Info.SpillLoads;
    CodegenAll.SpillStores += Info.SpillStores;
    CodegenAll.CodeBytes += Info.CodeBytes;
  }
  std::vector<double> RunsUs;
  for (unsigned Rep = 0; Rep < 5; ++Rep) {
    uint64_t Begin = wallNowNanos();
    std::string Problem = runProblem(*Code, Kern.Oracle);
    uint64_t Finish = wallNowNanos();
    if (!Problem.empty()) {
      L.fail("probe: " + Kern.Slug + ": " + Problem);
      return;
    }
    RunsUs.push_back(microsBetween(Begin, Finish));
  }
  (IsAll ? ExecAllUs : ExecBaselineUs).push_back(median(RunsUs));
}

void Replay::report(std::vector<Metric> &Out) const {
  auto medianOf = [&](const std::string &Layer) {
    auto It = Samples.find(Layer);
    return It == Samples.end() ? 0.0 : median(It->second);
  };
  auto timeLayer = [&](const std::string &Layer) {
    Out.push_back({Layer + "_us", medianOf(Layer), "us"});
  };
  for (const char *Layer : {"serve.encode", "serve.decode"})
    timeLayer(Layer);
  Out.push_back({"serve.reply_bytes", medianOf("serve.reply_bytes"), "bytes"});
  for (const char *Layer :
       {"jit.cache_lookup", "jit.pcache_lookup", "jit.pcache_insert"})
    timeLayer(Layer);
  Out.push_back({"jit.pcache_entry_bytes", medianOf("jit.pcache_entry_bytes"),
                 "bytes"});
  timeLayer("parser.parse");
  timeLayer("parser.reparse");
  Out.push_back(
      {"parser.bytes_per_us", medianOf("parser.bytes_per_us"), "bytes/us"});
  timeLayer("support.hash");
  timeLayer("ir.print");
  timeLayer("pm.pipeline");
  timeLayer("pm.chain_creation");
  for (const char *Pass : AllVariantPasses)
    timeLayer(std::string("pm.") + Pass);
  Out.push_back({"pm.remarks", medianOf("pm.remarks"), "count"});
  for (const char *Layer :
       {"codegen.lower", "codegen.regalloc", "codegen.mverify", "codegen.emit",
        "codegen.wx", "codegen.compile"})
    timeLayer(Layer);
  auto count = [&](const char *Name, uint64_t Value) {
    Out.push_back({Name, static_cast<double>(Value), "count"});
  };
  count("codegen.machine_insts", CodegenAll.Lowering.MachineInsts);
  count("codegen.helper_calls", CodegenAll.Lowering.HelperCalls);
  count("codegen.conversions", CodegenAll.Lowering.Conversions);
  count("codegen.spilled_intervals", CodegenAll.SpilledIntervals);
  count("codegen.spill_ops", CodegenAll.SpillLoads + CodegenAll.SpillStores);
  Out.push_back({"codegen.code_bytes",
                 static_cast<double>(CodegenAll.CodeBytes), "bytes"});
  timeLayer("exec.cold_run");
  Out.push_back({"exec.all_us", geomean(ExecAllUs), "us"});
  Out.push_back({"exec.baseline_us", geomean(ExecBaselineUs), "us"});
  std::vector<double> Ratios;
  for (size_t K = 0; K < ExecAllUs.size() && K < ExecBaselineUs.size(); ++K)
    Ratios.push_back(ExecAllUs[K] / ExecBaselineUs[K]);
  Out.push_back({"exec.ratio_all_baseline", geomean(Ratios), "ratio"});
  count("interp.dyn_conv_all", DynConv[1]);
  count("interp.dyn_conv_baseline", DynConv[0]);
  Out.push_back({"interp.ns_per_inst", median(NsPerInst), "ns"});
  double Attributed = median(WorkerSum), Reported = median(WorkerReported);
  Out.push_back({"trace.unattributed_pct",
                 Reported > 0.0 ? (1.0 - Attributed / Reported) * 100.0 : 0.0,
                 "pct"});
}

//===----------------------------------------------------------------------===//
// Runs
//===----------------------------------------------------------------------===//

void writeArtifact(const fs::path &Path, const std::string &Text) {
  if (!writeTextFile(Path.string(), Text))
    throw std::runtime_error("cannot write " + Path.string());
}

/// The whole last line of stdout.
std::string resultLine(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Metrics) {
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t Index = 0; Index < Metrics.size(); ++Index) {
    const Metric &M = Metrics[Index];
    Line += (Index ? ", " : "") + JsonWriter::quote(M.Name) +
            ": {\"value\": " + formatNumber(M.Value) +
            ", \"unit\": " + JsonWriter::quote(M.Unit) + "}";
  }
  return Line + "}}";
}

/// The median, over consecutive 1,000-operation chunks, of each chunk's
/// 99th percentile (10 samples beyond it per chunk). A slow spell of the
/// host that covers a minority of the chunks does not move it; on
/// native_exec the whole-run p99 sits in the slowest kernel's tail and
/// jumps with any such spell.
double chunkedP99(const std::vector<double> &LatencyUs) {
  const size_t Chunk = 1000;
  if (LatencyUs.size() < Chunk)
    return quantile(LatencyUs, 0.99);
  std::vector<double> PerChunk;
  for (size_t Start = 0; Start + Chunk <= LatencyUs.size(); Start += Chunk)
    PerChunk.push_back(
        quantile({LatencyUs.begin() + Start, LatencyUs.begin() + Start + Chunk},
                 0.99));
  return median(PerChunk);
}

std::vector<Metric> endToEndMetrics(const std::vector<double> &SetupSeconds,
                                    const LoopResult &R, double PeakRssMiB) {
  std::vector<Metric> Out;
  Out.push_back({"setup_s", median(SetupSeconds), "s"});
  Out.push_back({"ops_per_s", R.opsPerSecond(), "1/s"});
  Out.push_back({"p50_us", quantile(R.LatencyUs, 0.50), "us"});
  Out.push_back({"p99_us", chunkedP99(R.LatencyUs), "us"});
  Out.push_back({"peak_rss_mb", PeakRssMiB, "MiB"});
  return Out;
}

/// Serve-layer numbers the replies themselves carry, over every request of
/// the set-up and traced streams.
void replyMetrics(const std::vector<ServedRequest> &Requests,
                  std::vector<Metric> &Out) {
  std::vector<double> Transport, Queue, Worker;
  for (const ServedRequest &R : Requests) {
    Transport.push_back(R.RttUs - R.WorkerUs - R.QueueUs);
    Queue.push_back(R.QueueUs);
    Worker.push_back(R.WorkerUs);
  }
  Out.push_back({"serve.transport_us", median(Transport), "us"});
  Out.push_back({"jit.queue_wait_p50_us", quantile(Queue, 0.50), "us"});
  Out.push_back({"jit.queue_wait_p99_us", quantile(Queue, 0.99), "us"});
  Out.push_back({"jit.worker_us", median(Worker), "us"});
}

std::vector<Metric> tracedRun(Setup &S, const Options &O, Ledger &L,
                              const fs::path &RunDir,
                              const fs::path &TraceDir) {
  // Untraced and traced segments alternate, so drift in machine speed
  // during the run does not land on one side of the overhead.
  TraceCollector ClientTrace;
  LoopResult Plain, Traced;
  for (uint64_t Segment = 0; Segment < 4; ++Segment) {
    bool IsTraced = Segment % 2 == 1;
    LoopResult Part =
        timedLoop(S, O, L,
                  {O.Seconds / 2, IsTraced ? &ClientTrace : nullptr, Segment});
    std::fprintf(stderr, "segment %llu (%s): %.1f ops/s\n",
                 static_cast<unsigned long long>(Segment),
                 IsTraced ? "traced" : "untraced", Part.opsPerSecond());
    LoopResult &Into = IsTraced ? Traced : Plain;
    Into.Ok += Part.Ok;
    Into.WallSeconds += Part.WallSeconds;
    Into.Served.insert(Into.Served.end(), Part.Served.begin(),
                       Part.Served.end());
  }
  double Headline = Plain.opsPerSecond();
  double OverheadPct =
      Headline > 0.0
          ? (Headline - Traced.opsPerSecond()) / Headline * 100.0
          : 0.0;

  size_t EventsRetained = S.Daemon->daemon().eventLog().size();
  size_t SpansRetained = S.Daemon->daemon().traceCollector().size();
  S.Daemon->stop(); // Writes daemon.trace.json and daemon.events.jsonl.
  writeArtifact(TraceDir / "client.trace.json", ClientTrace.toJson());

  std::vector<ServedRequest> Stream = S.Log;
  Stream.insert(Stream.end(), Traced.Served.begin(), Traced.Served.end());
  Replay R(S.Kernels, RunDir / "replay-cache", L);
  size_t Replayed = 0;
  uint64_t Deadline = deadlineAfter(O.Seconds);
  for (const ServedRequest &Item : Stream) {
    if (Replayed >= S.Log.size() && wallNowNanos() >= Deadline)
      break;
    R.request(Item);
    ++Replayed;
  }
  for (size_t K = 0; K < S.Kernels.size(); ++K)
    for (Variant V : {Variant::Baseline, Variant::All})
      R.probe(K, V);
  writeArtifact(TraceDir / "replay.trace.json", R.spans().toJson());
  std::fprintf(stderr,
               "traced run: %zu requests sent, %zu replayed; untraced %.1f "
               "ops/s, traced %.1f ops/s\n",
               Stream.size(), Replayed, Headline, Traced.opsPerSecond());

  std::vector<Metric> Out;
  replyMetrics(Stream, Out);
  R.report(Out);
  Out.push_back(
      {"obs.events_retained", static_cast<double>(EventsRetained), "count"});
  Out.push_back(
      {"obs.spans_retained", static_cast<double>(SpansRetained), "count"});
  Out.push_back({"trace.overhead_pct", OverheadPct, "pct"});
  return Out;
}

/// Removes the per-run scratch directory (sockets, caches) on every exit
/// path.
struct RemoveOnExit {
  fs::path Dir;
  ~RemoveOnExit() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
};

int run(const Options &O) {
  fs::path Work = O.WorkDir;
  fs::path RunDir = Work / ("run-" + std::to_string(::getpid()));
  RemoveOnExit Cleanup{RunDir};
  fs::path TraceDir;
  if (O.Trace) {
    // One directory per workload, replaced by each traced run: the files
    // of a long serve_warm run take over 100 MB.
    TraceDir = Work / "trace" / O.Workload;
    std::error_code EC;
    fs::remove_all(TraceDir, EC);
    fs::create_directories(TraceDir);
  }

  Ledger L;
  // Set-up is repeated and its median reported, so work moved into set-up
  // shows; the last set-up is the one measured.
  const unsigned SetupRuns = O.Trace || O.Smoke ? 1 : 5;
  std::vector<double> SetupSeconds;
  std::unique_ptr<Setup> S;
  for (unsigned Rep = 0; Rep < SetupRuns; ++Rep) {
    S.reset();
    uint64_t Start = wallNowNanos();
    S = setUp(O, RunDir / ("daemon" + std::to_string(Rep)), TraceDir);
    SetupSeconds.push_back(static_cast<double>(wallNowNanos() - Start) / 1e9);
  }

  // Counted from the start of the warm-up; both counts are reached in well
  // under 10 s even on a slow machine.
  RssProbe Rss(O.Workload == "serve_warm" ? 20000 : 1000);
  // Untimed warm-up: the first second after set-up runs measurably slower
  // (fresh connections and handler threads, cold caches).
  timedLoop(*S, O, L, {std::min(1.0, O.Seconds / 10), nullptr, 99, &Rss});

  std::vector<Metric> Metrics;
  if (O.Trace) {
    Metrics = tracedRun(*S, O, L, RunDir, TraceDir);
  } else {
    LoopResult R = timedLoop(*S, O, L, {O.Seconds, nullptr, 0, &Rss});
    Metrics = endToEndMetrics(SetupSeconds, R, Rss.value());
    std::fprintf(stderr,
                 "%s: %llu ops in %.2f s (p99: median over chunks of "
                 "1000 of %zu samples)\n",
                 O.Workload.c_str(), static_cast<unsigned long long>(R.Ok),
                 R.WallSeconds, R.LatencyUs.size());
    if (O.Workload == "native_exec")
      printExecSummary(*S, R);
  }
  S.reset();

  for (const Metric &M : Metrics)
    std::fprintf(stderr, "  %-28s %16.4f %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
  bool Correct = L.failed() == 0;
  std::string Line = resultLine(Correct, L.attempted(), L.failed(), Metrics);
  if (O.Trace)
    writeArtifact(TraceDir / "layers.json", Line + "\n");
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  // A peer closing its socket must surface as a transport error, not kill
  // the process.
  std::signal(SIGPIPE, SIG_IGN);
  Options O;
  if (!parseOptions(argc, argv, O))
    return 2;
  try {
    return run(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "bench_e2e: %s\n", E.what());
    return 2;
  }
}
