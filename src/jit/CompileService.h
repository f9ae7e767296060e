//===- jit/CompileService.h - Multi-threaded compile service -----*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent, cache-fronted front end over runInstrumentedPipeline:
/// a hotness-ordered CompileQueue feeding N worker threads, each running
/// the full Figure 5 pipeline over its own module with its own PassStats
/// registry (no shared mutable state on the compile path), fronted by an
/// optional content-addressed CodeCache.
///
///   enqueue(request) -> std::future<CompileResult>
///
/// A source request is first probed on the caller's thread under its
/// source key (codeCacheSourceKey): a hit fulfils the future before
/// enqueue returns, with no queue hop, no parse and no structural hash.
/// A miss is queued as usual, and whatever artifact the worker then
/// produces (fresh compile, structural memory hit, or persistent hit) is
/// aliased under the source key so the next identical source hits.
///
/// Every module, parsed or handed in, is verified before it is hashed:
/// one that fails is settled as Invalid and reaches neither cache tier.
///
/// Workers park on a condition variable when idle and drain the queue on
/// shutdown (graceful: every accepted request's future is fulfilled).
/// With Jobs = 0 the service runs in deterministic inline mode — enqueue
/// compiles synchronously on the caller's thread — which is the reference
/// schedule the parallel-determinism tests compare against.
///
/// Every request ends in exactly one CompileOutcome, settled in one
/// place: settle() reads the request's wall-clock cost, moves the outcome's
/// one counter and logs its lifecycle event (docs/JIT.md has the table).
///
/// Every counter has one home. A run's PassStats travel in its
/// CompiledCode artifact. The service counters live only in the metrics
/// registry (the caller's, or one the service owns), updated with relaxed
/// atomics, so neither a cache hit nor a compile takes a service stats
/// lock; stats() reads them back. Cache counters live in each cache's
/// own stats().
///
//===----------------------------------------------------------------------===//

#ifndef SXE_JIT_COMPILESERVICE_H
#define SXE_JIT_COMPILESERVICE_H

#include "jit/CodeCache.h"
#include "jit/CompileQueue.h"
#include "jit/CompileTask.h"
#include "jit/PersistentCache.h"
#include "obs/EventLog.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pm/PassManager.h"
#include "support/Timer.h"

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

namespace sxe {

struct CompileServiceOptions {
  /// Worker threads. 0 = deterministic inline mode: enqueue() compiles on
  /// the calling thread before returning (futures are ready immediately).
  unsigned Jobs = 1;
  /// Optional shared artifact cache (not owned; must outlive the
  /// service). Null disables caching.
  CodeCache *Cache = nullptr;
  /// Optional persistent on-disk tier under the in-memory cache (not
  /// owned; must outlive the service). Probed after an in-memory miss; a
  /// hit is promoted into Cache, a fresh compile is written through to
  /// both tiers. Null disables the tier.
  PersistentCache *Persistent = nullptr;
  /// Instrumentation options threaded into every pipeline run. Snapshot
  /// capture/dump directories are shared across workers; leave them off
  /// for concurrent batches.
  PassManagerOptions PM;
  /// Optional trace collector (not owned; thread-safe). Workers label
  /// their tracks "worker-N" and emit queue-wait / cache-probe / compile
  /// spans per request; a source-key hit emits only its cache-probe span,
  /// on the enqueuing thread's track. The collector is also threaded into
  /// every pipeline run for per-pass spans.
  TraceCollector *Trace = nullptr;
  /// Optional metrics registry (not owned) for the service's sxe_*
  /// instruments (docs/OBSERVABILITY.md lists them). Traced requests stamp
  /// their trace id as the latency histograms' bucket exemplars. Null: the
  /// service registers them in a registry it owns.
  MetricsRegistry *Metrics = nullptr;
  /// Optional structured event log (not owned; thread-safe). The service
  /// emits deadline_expire and cache_tier lifecycle events carrying each
  /// request's TraceContext.
  EventLog *Events = nullptr;
};

/// Service-wide counter snapshot.
struct CompileServiceStats {
  uint64_t Submitted = 0;
  uint64_t Compiled = 0;  ///< Pipeline actually ran.
  uint64_t CacheHits = 0; ///< Served from the in-memory code cache.
  uint64_t PersistentHits = 0; ///< Served from the on-disk tier.
  /// Invalid modules (did not parse or verify) and verify-each failures.
  uint64_t Failed = 0;
  /// Requests refused without compiling: enqueue after shutdown(), plus
  /// serve-layer load shedding reported through countRejected().
  uint64_t Rejected = 0;
  /// Requests whose deadline had passed before a worker reached them.
  uint64_t DeadlineMisses = 0;
};

/// A multi-threaded compilation server over the instrumented pipeline.
class CompileService {
public:
  explicit CompileService(CompileServiceOptions Options = {});

  /// Drains the queue and joins the workers (graceful shutdown).
  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Submits \p Request; the future carries the result. In inline mode,
  /// and for a source request that hits the source-key probe, the result
  /// is ready before this returns. After shutdown() the future holds a
  /// Rejected result without being queued or probed.
  std::future<CompileResult> enqueue(CompileRequest Request);

  /// Stops accepting work, finishes what is queued, joins the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// The service counters, read back from the metrics registry. Per-run
  /// pass counters travel in each result's CompiledCode::Stats.
  CompileServiceStats stats() const;

  /// Accounts one refused request (Rejected counter + sxe_rejects_total).
  /// The serve layer's admission control calls this for every load-shed
  /// rejection so shutdown refusals and overload refusals share one
  /// ledger; enqueue-after-shutdown calls it internally.
  void countRejected();

  /// The cache handed in at construction (may be null).
  CodeCache *cache() const { return Options.Cache; }

  /// The persistent tier handed in at construction (may be null).
  PersistentCache *persistent() const { return Options.Persistent; }

private:
  void workerLoop(unsigned WorkerIndex);
  /// Serves \p Request on the current thread: parse, verify, structural
  /// probe, persistent tier, pipeline. A non-empty \p SourceKey is
  /// aliased to the artifact produced.
  CompileResult compileOne(CompileRequest &Request,
                           const std::string &SourceKey);
  /// Ends \p Request as \p Outcome, the one exit of every request: sets
  /// the result's wall time to now minus \p StartNanos (0 for a request
  /// that was never served, which costs nothing), moves the outcome's
  /// counter, logs its lifecycle event, and fills the result.
  CompileResult settle(const CompileRequest &Request, CompileOutcome Outcome,
                       uint64_t StartNanos,
                       std::shared_ptr<const CompiledCode> Code = nullptr,
                       std::string Error = {});
  /// Emits a \p Name probe span from \p Start to now, tagged with \p Hit.
  void traceProbe(const char *Name, const CompileRequest &Request,
                  uint64_t Start, bool Hit);

  /// Resolved metric handles, registered once at construction so the
  /// compile path never takes the registry mutex. They are the service's
  /// only counters.
  struct MetricHandles {
    Counter *Submitted = nullptr;
    /// Per CompileOutcome, the counter it moves (Invalid and
    /// PipelineFailed share sxe_compile_failures_total).
    Counter *Outcomes[NumCompileOutcomes] = {};
    Gauge *QueueDepth = nullptr;
    Histogram *CompileLatency = nullptr;
    Histogram *QueueWait = nullptr;
  };

  CompileServiceOptions Options;
  /// The registry the handles live in when Options.Metrics is null.
  std::unique_ptr<MetricsRegistry> OwnMetrics;
  MetricHandles Metrics;
  CompileQueue Queue;
  std::vector<std::thread> Workers;

  std::atomic<bool> ShutDown{false};
};

} // namespace sxe

#endif // SXE_JIT_COMPILESERVICE_H
