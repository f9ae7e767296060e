//===- jit/CompileTask.h - Compile service job vocabulary --------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of work the compile service moves around: a CompileRequest
/// (what to compile, under which pipeline configuration, how hot), the
/// CompileResult a worker produces, and the CompiledCode artifact the
/// code cache stores. Requests carry either a ready-made Module or `.sxir`
/// source text; source is parsed on the worker thread, so a batch load
/// parallelizes parsing too — unless its source key already hits the code
/// cache at enqueue, in which case it is never parsed at all.
///
/// Hotness echoes the paper's order determination: the queue serves the
/// hottest pending job first, so under a backlog the methods the profile
/// says matter most are compiled first (Section 2.2's execute-hottest-
/// first, lifted from extensions to whole compile jobs).
///
//===----------------------------------------------------------------------===//

#ifndef SXE_JIT_COMPILETASK_H
#define SXE_JIT_COMPILETASK_H

#include "ir/Module.h"
#include "obs/Remarks.h"
#include "pm/PassStats.h"
#include "sxe/Pipeline.h"

#include <cstdint>
#include <memory>
#include <string>

namespace sxe {

/// One compilation job submitted to the CompileService.
struct CompileRequest {
  /// Display label for reports (file name, workload name, ...).
  std::string Name;
  /// The module to compile; may be null when Source is set instead.
  std::unique_ptr<Module> M;
  /// `.sxir` text, parsed on the worker when M is null.
  std::string Source;
  /// Pipeline configuration; Target and Profile pointees must outlive the
  /// request's completion.
  PipelineConfig Config;
  /// Queue priority: higher compiles first. Ties serve in submission
  /// order, so equal-hotness batches stay FIFO-deterministic.
  double Hotness = 0.0;
  /// Absolute wall-clock deadline (wallNowNanos() epoch); 0 = none.
  /// A request whose deadline has already passed when a worker picks it
  /// up fails with DeadlineMiss instead of compiling — the backstop of
  /// the serve-layer admission control: work that can no longer be
  /// delivered in time is shed, not burned. A source-key hit at enqueue
  /// never waits for a worker, so the deadline does not apply to it.
  uint64_t DeadlineNanos = 0;
  /// Distributed trace id of the originating request (0 = untraced).
  /// Stamped onto every span and lifecycle event this job produces, and
  /// recorded as the latency-histogram exemplar.
  uint64_t TraceId = 0;
  /// Daemon-assigned request sequence number (0 = not from the serve
  /// path).
  uint64_t RequestId = 0;
};

/// The cacheable artifact of one successful compilation: everything a
/// cache hit must reproduce byte-for-byte.
struct CompiledCode {
  /// Optimized module in textual `.sxir` form.
  std::string IRText;
  /// Per-pass named counters of the producing run.
  PassStats Stats;
  /// Structured optimization remarks of the producing run (empty unless
  /// the service collected remarks). Stored in the artifact so a cache
  /// hit replays the identical remark stream.
  std::vector<Remark> Remarks;
  /// Structural hash of the *input* module (the cache key's content half).
  uint64_t InputIRHash = 0;
};

/// Outcome of one request.
struct CompileResult {
  std::string Name;
  bool Ok = false;
  std::string Error; ///< Parse/verify/pipeline failure description.
  /// True when the artifact came from the in-memory code cache without
  /// running the pipeline.
  bool CacheHit = false;
  /// True when the artifact was loaded from the persistent on-disk tier
  /// (jit/PersistentCache.h) after an in-memory miss.
  bool PersistentHit = false;
  /// True when the request's DeadlineNanos had passed before serving
  /// started; no compile ran.
  bool DeadlineMiss = false;
  /// True when the request was refused without compiling (enqueue after
  /// shutdown, or serve-layer load shedding).
  bool Rejected = false;
  /// The artifact (shared with the cache); null when !Ok.
  std::shared_ptr<const CompiledCode> Code;
  /// Cost of serving the request (cache probe + compile), on the worker
  /// or, for a source-key hit, on the enqueuing thread.
  uint64_t WallNanos = 0;
  /// Thread-CPU cost on the serving thread.
  uint64_t CpuNanos = 0;
  /// Time the request spent queued before a worker picked it up (0 in
  /// inline mode and for a source-key hit). The serve layer feeds these
  /// into its queue-wait p99 window for admission control.
  uint64_t QueueWaitNanos = 0;
};

} // namespace sxe

#endif // SXE_JIT_COMPILETASK_H
