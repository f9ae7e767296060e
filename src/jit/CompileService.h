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
/// Workers park on a condition variable when idle and drain the queue on
/// shutdown (graceful: every accepted request's future is fulfilled).
/// With Jobs = 0 the service runs in deterministic inline mode — enqueue
/// compiles synchronously on the caller's thread — which is the reference
/// schedule the parallel-determinism tests compare against.
///
/// Per-run PassStats are merged into a service-wide aggregate under a
/// lock after each compile (per-thread stats merged on completion; see
/// pm/PassStats.h). The scalar service counters live only in the metrics
/// registry (the caller's, or one the service owns), updated with relaxed
/// atomics, so a cache hit takes no service lock; stats() reads them
/// back. Cache/service counters are also reported through the
/// `sxe.pass-stats.v1` vocabulary under the pseudo-pass names
/// `compile-service` and `code-cache`.
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
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
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
  /// Optional metrics registry (not owned). The service feeds
  /// sxe_compile_submitted_total, sxe_compiles_total,
  /// sxe_cache_hits_total, sxe_persistent_hits_total,
  /// sxe_compile_failures_total, sxe_rejects_total,
  /// sxe_deadline_misses_total, sxe_queue_depth,
  /// sxe_compile_latency_seconds, sxe_queue_wait_seconds. Traced requests
  /// additionally stamp their trace id as the latency histograms' bucket
  /// exemplars. Null: the service registers them in a registry it owns.
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
  uint64_t Failed = 0;    ///< Parse or verify-each failures.
  /// Requests refused without compiling: enqueue after shutdown(), plus
  /// serve-layer load shedding reported through countRejected().
  uint64_t Rejected = 0;
  /// Requests whose deadline had passed before a worker reached them.
  uint64_t DeadlineMisses = 0;
  /// Sum of per-run PassStats across every compiled request.
  PassStats Aggregate;
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
  /// Rejected, Ok=false result without being queued or probed.
  std::future<CompileResult> enqueue(CompileRequest Request);

  /// Blocks until every request enqueued so far has completed.
  void drain();

  /// Stops accepting work, finishes what is queued, joins the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Copy of the service counters and the merged per-pass aggregate.
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

  unsigned jobs() const { return Options.Jobs; }

private:
  void workerLoop(unsigned WorkerIndex);
  /// Serves \p Request on the current thread: parse, structural probe,
  /// persistent tier, pipeline. A non-empty \p SourceKey is aliased to
  /// the artifact produced.
  CompileResult compileOne(CompileRequest &Request,
                           const std::string &SourceKey);
  /// The memory-tier hit path shared by the source probe and the
  /// structural probe: emits the hit's cache-probe span (from
  /// \p ProbeStart) and cache_tier(memory) event, counts the hit, and
  /// stops \p Cost into the result's wall and CPU times.
  CompileResult memoryHit(const CompileRequest &Request, uint64_t ProbeStart,
                          std::shared_ptr<const CompiledCode> Code,
                          Timer &Cost);
  /// Counts and builds the refusal of a request that arrived after
  /// shutdown().
  CompileResult refuse(const CompileRequest &Request);
  void finish(QueuedCompile &Job, CompileResult Result);

  /// Resolved metric handles, registered once at construction so the
  /// compile path never takes the registry mutex. They are the service's
  /// only counters.
  struct MetricHandles {
    Counter *Submitted = nullptr;
    Counter *Compiles = nullptr;
    Counter *CacheHits = nullptr;
    Counter *PersistentHits = nullptr;
    Counter *Failures = nullptr;
    Counter *Rejects = nullptr;
    Counter *DeadlineMisses = nullptr;
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

  /// Guards Aggregate only.
  mutable std::mutex StatsMu;
  PassStats Aggregate;

  std::mutex PendingMu;
  std::condition_variable AllDone;
  uint64_t Pending = 0;
  std::atomic<bool> ShutDown{false};
};

} // namespace sxe

#endif // SXE_JIT_COMPILESERVICE_H
