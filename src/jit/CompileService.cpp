//===- jit/CompileService.cpp - Multi-threaded compile service ----------------===//

#include "jit/CompileService.h"

#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "obs/TraceContext.h"
#include "parser/Parser.h"
#include "pm/InstrumentedPipeline.h"
#include "support/IRHash.h"

#include <optional>

using namespace sxe;

/// Span/event argument list for one request: module name plus the trace
/// ids when the request is traced, so offline tools can join worker
/// spans back to the originating request.
static std::vector<std::pair<std::string, std::string>>
traceArgs(const CompileRequest &Request,
          std::initializer_list<std::pair<std::string, std::string>> Extra =
              {}) {
  std::vector<std::pair<std::string, std::string>> Args;
  Args.emplace_back("module", Request.Name);
  if (Request.TraceId)
    Args.emplace_back("trace_id", traceIdHex(Request.TraceId));
  if (Request.RequestId)
    Args.emplace_back("request_id", std::to_string(Request.RequestId));
  for (const auto &Pair : Extra)
    Args.push_back(Pair);
  return Args;
}

static TraceContext requestContext(const CompileRequest &Request) {
  TraceContext Ctx;
  Ctx.TraceId = Request.TraceId;
  Ctx.RequestId = Request.RequestId;
  return Ctx;
}

static std::future<CompileResult> readyFuture(CompileResult Result) {
  std::promise<CompileResult> Promise;
  Promise.set_value(std::move(Result));
  return Promise.get_future();
}

namespace {

/// Everything settling a request does per outcome, in CompileOutcome
/// order: the outcome's name (a cache_tier event's tier field), the
/// counter it moves, the stats() field that reads that counter back, and
/// the lifecycle event it logs, if any.
struct OutcomeRow {
  const char *Name;
  const char *Metric;
  const char *Help;
  uint64_t CompileServiceStats::*Stat;
  std::optional<ObsEventKind> Event;
};

const char *const FailuresHelp =
    "Modules that did not parse or verify, and verify-each failures";

const OutcomeRow OutcomeRows[NumCompileOutcomes] = {
    {"compiled", "sxe_compiles_total", "Pipeline runs completed",
     &CompileServiceStats::Compiled, ObsEventKind::CacheTier},
    {"memory", "sxe_cache_hits_total", "Requests served from the code cache",
     &CompileServiceStats::CacheHits, ObsEventKind::CacheTier},
    {"persistent", "sxe_persistent_hits_total",
     "Requests served from the persistent on-disk cache",
     &CompileServiceStats::PersistentHits, ObsEventKind::CacheTier},
    {"invalid", "sxe_compile_failures_total", FailuresHelp,
     &CompileServiceStats::Failed, std::nullopt},
    {"pipeline_failed", "sxe_compile_failures_total", FailuresHelp,
     &CompileServiceStats::Failed, std::nullopt},
    {"deadline_missed", "sxe_deadline_misses_total",
     "Requests whose deadline expired before a worker reached them",
     &CompileServiceStats::DeadlineMisses, ObsEventKind::DeadlineExpire},
    {"rejected", "sxe_rejects_total",
     "Requests refused without compiling (shutdown or load shedding)",
     &CompileServiceStats::Rejected, std::nullopt},
};

} // namespace

const char *sxe::compileOutcomeName(CompileOutcome Outcome) {
  return OutcomeRows[static_cast<size_t>(Outcome)].Name;
}

CompileService::CompileService(CompileServiceOptions Opts)
    : Options(std::move(Opts)) {
  if (!Options.Metrics)
    OwnMetrics = std::make_unique<MetricsRegistry>();
  MetricsRegistry &Reg = Options.Metrics ? *Options.Metrics : *OwnMetrics;
  Metrics.Submitted = &Reg.counter("sxe_compile_submitted_total",
                                   "Compile requests submitted");
  for (size_t Index = 0; Index < NumCompileOutcomes; ++Index)
    Metrics.Outcomes[Index] =
        &Reg.counter(OutcomeRows[Index].Metric, OutcomeRows[Index].Help);
  Metrics.QueueDepth =
      &Reg.gauge("sxe_queue_depth", "Compile requests currently queued");
  Metrics.CompileLatency = &Reg.histogram(
      "sxe_compile_latency_seconds", "Wall time of one pipeline run");
  Metrics.QueueWait = &Reg.histogram(
      "sxe_queue_wait_seconds", "Time a request spent queued before a "
                                "worker picked it up");
  Workers.reserve(Options.Jobs);
  for (unsigned Index = 0; Index < Options.Jobs; ++Index)
    Workers.emplace_back([this, Index] { workerLoop(Index); });
}

CompileService::~CompileService() { shutdown(); }

void CompileService::workerLoop(unsigned WorkerIndex) {
  if (Options.Trace)
    Options.Trace->nameThread("worker-" + std::to_string(WorkerIndex));
  while (std::unique_ptr<QueuedCompile> Job = Queue.pop()) {
    uint64_t PopNanos = wallNowNanos();
    Metrics.QueueDepth->set(static_cast<int64_t>(Queue.size()));
    if (Job->EnqueueNanos && PopNanos > Job->EnqueueNanos) {
      if (Options.Trace)
        Options.Trace->addSpan("queue-wait", "service", Job->EnqueueNanos,
                               PopNanos, traceArgs(Job->Request));
      Metrics.QueueWait->observe(
          static_cast<double>(PopNanos - Job->EnqueueNanos) * 1e-9,
          Job->Request.TraceId);
    }
    CompileResult Result = compileOne(Job->Request, Job->SourceKey);
    if (Job->EnqueueNanos && PopNanos > Job->EnqueueNanos)
      Result.QueueWaitNanos = PopNanos - Job->EnqueueNanos;
    Job->Promise.set_value(std::move(Result));
  }
}

void CompileService::traceProbe(const char *Name,
                                const CompileRequest &Request, uint64_t Start,
                                bool Hit) {
  if (Options.Trace)
    Options.Trace->addSpan(
        Name, "service", Start, wallNowNanos(),
        traceArgs(Request, {{"hit", Hit ? "true" : "false"}}));
}

CompileResult CompileService::settle(const CompileRequest &Request,
                                     CompileOutcome Outcome,
                                     uint64_t StartNanos,
                                     std::shared_ptr<const CompiledCode> Code,
                                     std::string Error) {
  CompileResult Result;
  Result.Name = Request.Name;
  Result.Outcome = Outcome;
  Result.Code = std::move(Code);
  Result.Error = std::move(Error);
  if (StartNanos)
    Result.WallNanos = wallNowNanos() - StartNanos;
  const OutcomeRow &Row = OutcomeRows[static_cast<size_t>(Outcome)];
  Metrics.Outcomes[static_cast<size_t>(Outcome)]->inc();
  if (Options.Events && Row.Event)
    Options.Events->log(*Row.Event, requestContext(Request), Request.Name,
                        {*Row.Event == ObsEventKind::CacheTier
                             ? EventField("tier", Row.Name)
                             : EventField()},
                        static_cast<uint8_t>(Outcome));
  return Result;
}

CompileResult CompileService::compileOne(CompileRequest &Request,
                                         const std::string &SourceKey) {
  // Deadline backstop: queue wait already ate the whole budget, so even
  // a cache hit could not be delivered in time. Shed the work.
  if (Request.DeadlineNanos && wallNowNanos() > Request.DeadlineNanos)
    return settle(Request, CompileOutcome::DeadlineMissed, 0, nullptr,
                  "deadline expired before compilation started");

  uint64_t StartNanos = wallNowNanos();

  std::unique_ptr<Module> M = std::move(Request.M);
  if (!M) {
    ParseResult Parsed = parseModule(Request.Source);
    if (!Parsed.ok())
      return settle(Request, CompileOutcome::Invalid, StartNanos, nullptr,
                    "parse error: " + Parsed.Error);
    M = std::move(Parsed.M);
  }
  // The trust boundary: a module that does not verify is never hashed,
  // compiled or cached, so no tier can hand it on.
  std::vector<std::string> Problems;
  if (!verifyModule(*M, Problems))
    return settle(Request, CompileOutcome::Invalid, StartNanos, nullptr,
                  "invalid module: " + Problems.front());

  // Every artifact served for a source request is also remembered under
  // its source key, so the next identical source hits at enqueue.
  auto AliasSource = [&](const std::shared_ptr<const CompiledCode> &Code) {
    if (!SourceKey.empty())
      Options.Cache->insert(SourceKey, Code);
  };

  uint64_t InputHash = hashModule(*M);
  std::string Key = codeCacheKey(InputHash, Request.Config);
  if (Options.Cache) {
    uint64_t ProbeStart = wallNowNanos();
    std::shared_ptr<const CompiledCode> Hit = Options.Cache->lookup(Key);
    traceProbe("cache-probe", Request, ProbeStart, Hit != nullptr);
    if (Hit) {
      AliasSource(Hit);
      return settle(Request, CompileOutcome::MemoryHit, StartNanos,
                    std::move(Hit));
    }
  }

  // Tier 2: the persistent on-disk store. A hit is promoted into the
  // in-memory cache so the next probe for this key stays off disk.
  if (Options.Persistent) {
    uint64_t ProbeStart = wallNowNanos();
    std::shared_ptr<const CompiledCode> Hit = Options.Persistent->lookup(Key);
    traceProbe("pcache-probe", Request, ProbeStart, Hit != nullptr);
    if (Hit) {
      if (Options.Cache)
        Options.Cache->insert(Key, Hit);
      AliasSource(Hit);
      return settle(Request, CompileOutcome::PersistentHit, StartNanos,
                    std::move(Hit));
    }
  }

  PassManagerOptions PMOpts = Options.PM;
  if (Options.Trace)
    PMOpts.Trace = Options.Trace;

  uint64_t CompileStart = wallNowNanos();
  InstrumentedPipelineResult Run =
      runInstrumentedPipeline(*M, Request.Config, PMOpts);
  uint64_t CompileEnd = wallNowNanos();
  if (Options.Trace)
    Options.Trace->addSpan("compile", "service", CompileStart, CompileEnd,
                           traceArgs(Request));
  Metrics.CompileLatency->observe(
      static_cast<double>(CompileEnd - CompileStart) * 1e-9, Request.TraceId);

  if (!Run.Ok)
    return settle(Request, CompileOutcome::PipelineFailed, StartNanos, nullptr,
                  "pass '" + Run.FailedPass + "' broke the module" +
                      (Run.Problems.empty() ? ""
                                            : ": " + Run.Problems.front()));

  auto Code = std::make_shared<CompiledCode>();
  Code->IRText = printModule(*M);
  Code->Stats = std::move(Run.Stats);
  Code->Remarks = Run.Remarks.take();
  Code->InputIRHash = InputHash;
  // Settled before the write-through, so the cost leaves out the disk.
  CompileResult Result =
      settle(Request, CompileOutcome::Compiled, StartNanos, Code);

  if (Options.Cache)
    Options.Cache->insert(Key, Code);
  AliasSource(Code);
  if (Options.Persistent)
    Options.Persistent->insert(Key, *Code);
  return Result;
}

std::future<CompileResult> CompileService::enqueue(CompileRequest Request) {
  Metrics.Submitted->inc();
  if (ShutDown.load(std::memory_order_acquire))
    return readyFuture(settle(Request, CompileOutcome::Rejected, 0, nullptr,
                              "compile service is shut down"));

  // Tier 0: the source key. A byte-identical source seen before is
  // served right here, on the caller's thread, before any parse or
  // structural hash.
  std::string SourceKey;
  if (Options.Cache && !Request.M) {
    uint64_t ProbeStart = wallNowNanos();
    SourceKey = codeCacheSourceKey(Request.Source, Request.Config);
    if (std::shared_ptr<const CompiledCode> Hit =
            Options.Cache->lookup(SourceKey)) {
      traceProbe("cache-probe", Request, ProbeStart, /*Hit=*/true);
      return readyFuture(settle(Request, CompileOutcome::MemoryHit,
                                ProbeStart, std::move(Hit)));
    }
  }

  if (Options.Jobs == 0) {
    // Deterministic inline mode: serve on the caller's thread, in
    // submission order.
    return readyFuture(compileOne(Request, SourceKey));
  }

  auto Job = std::make_unique<QueuedCompile>();
  Job->Request = std::move(Request);
  Job->SourceKey = std::move(SourceKey);
  std::future<CompileResult> Future = Job->Promise.get_future();
  Job->EnqueueNanos = wallNowNanos();
  if (Queue.push(Job)) {
    Metrics.QueueDepth->set(static_cast<int64_t>(Queue.size()));
  } else {
    // The queue is closed (shutdown raced this enqueue): refuse politely
    // instead of leaving the future forever unready.
    Job->Promise.set_value(settle(Job->Request, CompileOutcome::Rejected,
                                  0, nullptr,
                                  "compile service is shut down"));
  }
  return Future;
}

void CompileService::countRejected() {
  Metrics.Outcomes[static_cast<size_t>(CompileOutcome::Rejected)]->inc();
}

void CompileService::shutdown() {
  if (ShutDown.exchange(true, std::memory_order_acq_rel))
    return;
  Queue.close();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();
}

CompileServiceStats CompileService::stats() const {
  CompileServiceStats Copy;
  Copy.Submitted = Metrics.Submitted->value();
  // Invalid and PipelineFailed share one counter, so the second row
  // re-reads the value the first wrote.
  for (size_t Index = 0; Index < NumCompileOutcomes; ++Index)
    Copy.*OutcomeRows[Index].Stat = Metrics.Outcomes[Index]->value();
  return Copy;
}
