//===- jit/CompileService.cpp - Multi-threaded compile service ----------------===//

#include "jit/CompileService.h"

#include "ir/IRPrinter.h"
#include "obs/TraceContext.h"
#include "parser/Parser.h"
#include "pm/InstrumentedPipeline.h"
#include "support/IRHash.h"

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

static void bump(std::atomic<uint64_t> &Counter) {
  Counter.fetch_add(1, std::memory_order_relaxed);
}

static std::future<CompileResult> readyFuture(CompileResult Result) {
  std::promise<CompileResult> Promise;
  Promise.set_value(std::move(Result));
  return Promise.get_future();
}

CompileService::CompileService(CompileServiceOptions Opts)
    : Options(std::move(Opts)) {
  if (MetricsRegistry *Reg = Options.Metrics) {
    Metrics.Compiles =
        &Reg->counter("sxe_compiles_total", "Pipeline runs completed");
    Metrics.CacheHits = &Reg->counter("sxe_cache_hits_total",
                                      "Requests served from the code cache");
    Metrics.PersistentHits =
        &Reg->counter("sxe_persistent_hits_total",
                      "Requests served from the persistent on-disk cache");
    Metrics.Failures = &Reg->counter("sxe_compile_failures_total",
                                     "Parse or verify-each failures");
    Metrics.Rejects = &Reg->counter(
        "sxe_rejects_total",
        "Requests refused without compiling (shutdown or load shedding)");
    Metrics.DeadlineMisses = &Reg->counter(
        "sxe_deadline_misses_total",
        "Requests whose deadline expired before a worker reached them");
    Metrics.QueueDepth =
        &Reg->gauge("sxe_queue_depth", "Compile requests currently queued");
    Metrics.CompileLatency = &Reg->histogram(
        "sxe_compile_latency_seconds", "Wall time of one pipeline run");
    Metrics.QueueWait = &Reg->histogram(
        "sxe_queue_wait_seconds", "Time a request spent queued before a "
                                  "worker picked it up");
  }
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
    if (Metrics.QueueDepth)
      Metrics.QueueDepth->set(static_cast<int64_t>(Queue.size()));
    if (Job->EnqueueNanos && PopNanos > Job->EnqueueNanos) {
      if (Options.Trace)
        Options.Trace->addSpan("queue-wait", "service", Job->EnqueueNanos,
                               PopNanos, traceArgs(Job->Request));
      if (Metrics.QueueWait)
        Metrics.QueueWait->observe(
            static_cast<double>(PopNanos - Job->EnqueueNanos) * 1e-9,
            Job->Request.TraceId);
    }
    CompileResult Result = compileOne(Job->Request, Job->SourceKey);
    if (Job->EnqueueNanos && PopNanos > Job->EnqueueNanos)
      Result.QueueWaitNanos = PopNanos - Job->EnqueueNanos;
    finish(*Job, std::move(Result));
  }
}

void CompileService::finish(QueuedCompile &Job, CompileResult Result) {
  Job.Promise.set_value(std::move(Result));
  {
    std::lock_guard<std::mutex> Lock(PendingMu);
    --Pending;
  }
  AllDone.notify_all();
}

CompileResult CompileService::memoryHit(const CompileRequest &Request,
                                        uint64_t ProbeStart,
                                        std::shared_ptr<const CompiledCode> Code,
                                        Timer &Cost) {
  if (Options.Trace)
    Options.Trace->addSpan("cache-probe", "service", ProbeStart,
                           wallNowNanos(),
                           traceArgs(Request, {{"hit", "true"}}));
  Cost.stop();
  CompileResult Result;
  Result.Name = Request.Name;
  Result.Ok = true;
  Result.CacheHit = true;
  Result.Code = std::move(Code);
  Result.WallNanos = Cost.elapsedNanos();
  Result.CpuNanos = Cost.elapsedCpuNanos();
  if (Metrics.CacheHits)
    Metrics.CacheHits->inc();
  if (Options.Events)
    Options.Events->log(ObsEventKind::CacheTier, requestContext(Request),
                        Request.Name, {{"tier", "memory"}}, /*Aux=*/1);
  bump(Counters.CacheHits);
  return Result;
}

CompileResult CompileService::compileOne(CompileRequest &Request,
                                         const std::string &SourceKey) {
  CompileResult Result;
  Result.Name = Request.Name;

  // Deadline backstop: queue wait already ate the whole budget, so even
  // a cache hit could not be delivered in time. Shed the work.
  if (Request.DeadlineNanos && wallNowNanos() > Request.DeadlineNanos) {
    Result.DeadlineMiss = true;
    Result.Error = "deadline expired before compilation started";
    if (Metrics.DeadlineMisses)
      Metrics.DeadlineMisses->inc();
    if (Options.Events)
      Options.Events->log(ObsEventKind::DeadlineExpire,
                          requestContext(Request), Request.Name);
    bump(Counters.DeadlineMisses);
    return Result;
  }

  Timer Cost;
  Cost.start();

  std::unique_ptr<Module> M = std::move(Request.M);
  if (!M) {
    ParseResult Parsed = parseModule(Request.Source);
    if (!Parsed.ok()) {
      Cost.stop();
      Result.Error = "parse error: " + Parsed.Error;
      Result.WallNanos = Cost.elapsedNanos();
      Result.CpuNanos = Cost.elapsedCpuNanos();
      bump(Counters.Failed);
      return Result;
    }
    M = std::move(Parsed.M);
  }

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
    if (std::shared_ptr<const CompiledCode> Hit = Options.Cache->lookup(Key)) {
      AliasSource(Hit);
      return memoryHit(Request, ProbeStart, std::move(Hit), Cost);
    }
    if (Options.Trace)
      Options.Trace->addSpan("cache-probe", "service", ProbeStart,
                             wallNowNanos(),
                             traceArgs(Request, {{"hit", "false"}}));
  }

  // Tier 2: the persistent on-disk store. A hit is promoted into the
  // in-memory cache so the next probe for this key stays off disk.
  if (Options.Persistent) {
    uint64_t ProbeStart = wallNowNanos();
    std::shared_ptr<const CompiledCode> Hit = Options.Persistent->lookup(Key);
    if (Options.Trace)
      Options.Trace->addSpan("pcache-probe", "service", ProbeStart,
                             wallNowNanos(),
                             traceArgs(Request,
                                       {{"hit", Hit ? "true" : "false"}}));
    if (Hit) {
      if (Options.Cache)
        Options.Cache->insert(Key, Hit);
      AliasSource(Hit);
      Cost.stop();
      Result.Ok = true;
      Result.PersistentHit = true;
      Result.Code = std::move(Hit);
      Result.WallNanos = Cost.elapsedNanos();
      Result.CpuNanos = Cost.elapsedCpuNanos();
      if (Metrics.PersistentHits)
        Metrics.PersistentHits->inc();
      if (Options.Events)
        Options.Events->log(ObsEventKind::CacheTier, requestContext(Request),
                            Request.Name, {{"tier", "persistent"}},
                            /*Aux=*/2);
      bump(Counters.PersistentHits);
      return Result;
    }
  }

  PassManagerOptions PMOpts = Options.PM;
  if (Options.Trace)
    PMOpts.Trace = Options.Trace;
  if (Options.CollectRemarks)
    PMOpts.CollectRemarks = true;

  uint64_t CompileStart = wallNowNanos();
  InstrumentedPipelineResult Run =
      runInstrumentedPipeline(*M, Request.Config, PMOpts);
  uint64_t CompileEnd = wallNowNanos();
  if (Options.Trace)
    Options.Trace->addSpan("compile", "service", CompileStart, CompileEnd,
                           traceArgs(Request));
  if (Metrics.CompileLatency)
    Metrics.CompileLatency->observe(
        static_cast<double>(CompileEnd - CompileStart) * 1e-9,
        Request.TraceId);
  Cost.stop();
  Result.WallNanos = Cost.elapsedNanos();
  Result.CpuNanos = Cost.elapsedCpuNanos();

  if (!Run.Ok) {
    Result.Error = "pass '" + Run.FailedPass + "' broke the module";
    if (!Run.Problems.empty())
      Result.Error += ": " + Run.Problems.front();
    if (Metrics.Failures)
      Metrics.Failures->inc();
    bump(Counters.Failed);
    return Result;
  }

  auto Code = std::make_shared<CompiledCode>();
  Code->IRText = printModule(*M);
  Code->Stats = std::move(Run.Stats);
  Code->Remarks = Run.Remarks.take();
  Code->InputIRHash = InputHash;

  if (Options.Cache)
    Options.Cache->insert(Key, Code);
  AliasSource(Code);
  if (Options.Persistent)
    Options.Persistent->insert(Key, *Code);

  Result.Ok = true;
  Result.Code = std::move(Code);
  if (Metrics.Compiles)
    Metrics.Compiles->inc();
  if (Options.Events)
    Options.Events->log(ObsEventKind::CacheTier, requestContext(Request),
                        Request.Name, {{"tier", "compiled"}}, /*Aux=*/0);

  bump(Counters.Compiled);
  // Per-thread stats merged on completion (pm/PassStats.h).
  std::lock_guard<std::mutex> Lock(StatsMu);
  Aggregate.merge(Result.Code->Stats);
  return Result;
}

std::future<CompileResult> CompileService::enqueue(CompileRequest Request) {
  bump(Counters.Submitted);
  if (ShutDown.load(std::memory_order_acquire))
    return readyFuture(refuse(Request));

  // Tier 0: the source key. A byte-identical source seen before is
  // served right here, on the caller's thread, before any parse or
  // structural hash.
  std::string SourceKey;
  if (Options.Cache && !Request.M) {
    Timer Cost;
    Cost.start();
    uint64_t ProbeStart = wallNowNanos();
    SourceKey = codeCacheSourceKey(Request.Source, Request.Config);
    if (std::shared_ptr<const CompiledCode> Hit =
            Options.Cache->lookup(SourceKey))
      return readyFuture(memoryHit(Request, ProbeStart, std::move(Hit), Cost));
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
  {
    std::lock_guard<std::mutex> Lock(PendingMu);
    ++Pending;
  }
  Job->EnqueueNanos = wallNowNanos();
  if (Queue.push(Job)) {
    if (Metrics.QueueDepth)
      Metrics.QueueDepth->set(static_cast<int64_t>(Queue.size()));
  } else {
    // The queue is closed (shutdown raced this enqueue): refuse politely
    // instead of leaving the future forever unready.
    finish(*Job, refuse(Job->Request));
  }
  return Future;
}

CompileResult CompileService::refuse(const CompileRequest &Request) {
  // Accounted, so shed work is visible in stats and sxe_rejects_total.
  countRejected();
  CompileResult Refused;
  Refused.Name = Request.Name;
  Refused.Rejected = true;
  Refused.Error = "compile service is shut down";
  return Refused;
}

void CompileService::countRejected() {
  if (Metrics.Rejects)
    Metrics.Rejects->inc();
  bump(Counters.Rejected);
}

void CompileService::drain() {
  std::unique_lock<std::mutex> Lock(PendingMu);
  AllDone.wait(Lock, [this] { return Pending == 0; });
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
  Copy.Submitted = Counters.Submitted.load(std::memory_order_relaxed);
  Copy.Compiled = Counters.Compiled.load(std::memory_order_relaxed);
  Copy.CacheHits = Counters.CacheHits.load(std::memory_order_relaxed);
  Copy.PersistentHits =
      Counters.PersistentHits.load(std::memory_order_relaxed);
  Copy.Failed = Counters.Failed.load(std::memory_order_relaxed);
  Copy.Rejected = Counters.Rejected.load(std::memory_order_relaxed);
  Copy.DeadlineMisses =
      Counters.DeadlineMisses.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    Copy.Aggregate.merge(Aggregate);
  }
  // Surface the service and cache counters in the pass-stats vocabulary
  // so `sxe.pass-stats.v1` consumers see them as pseudo-passes.
  Copy.Aggregate.counter("compile-service", "submitted") = Copy.Submitted;
  Copy.Aggregate.counter("compile-service", "compiled") = Copy.Compiled;
  Copy.Aggregate.counter("compile-service", "cache_hits") = Copy.CacheHits;
  Copy.Aggregate.counter("compile-service", "persistent_hits") =
      Copy.PersistentHits;
  Copy.Aggregate.counter("compile-service", "failed") = Copy.Failed;
  Copy.Aggregate.counter("compile-service", "rejected") = Copy.Rejected;
  Copy.Aggregate.counter("compile-service", "deadline_misses") =
      Copy.DeadlineMisses;
  if (Options.Cache) {
    CodeCacheStats CacheStats = Options.Cache->stats();
    Copy.Aggregate.counter("code-cache", "hits") = CacheStats.Hits;
    Copy.Aggregate.counter("code-cache", "misses") = CacheStats.Misses;
    Copy.Aggregate.counter("code-cache", "insertions") =
        CacheStats.Insertions;
    Copy.Aggregate.counter("code-cache", "evictions") = CacheStats.Evictions;
    Copy.Aggregate.counter("code-cache", "entries") = CacheStats.Entries;
  }
  if (Options.Persistent) {
    PersistentCacheStats PStats = Options.Persistent->stats();
    Copy.Aggregate.counter("persistent-cache", "hits") = PStats.Hits;
    Copy.Aggregate.counter("persistent-cache", "misses") = PStats.Misses;
    Copy.Aggregate.counter("persistent-cache", "insertions") =
        PStats.Insertions;
    Copy.Aggregate.counter("persistent-cache", "evictions") =
        PStats.Evictions;
    Copy.Aggregate.counter("persistent-cache", "corrupt_dropped") =
        PStats.CorruptDropped;
    Copy.Aggregate.counter("persistent-cache", "entries") = PStats.Entries;
    Copy.Aggregate.counter("persistent-cache", "bytes") = PStats.Bytes;
  }
  return Copy;
}
