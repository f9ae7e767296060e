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
#include "pm/PassStats.h"
#include "support/Json.h"
#include "sxe/Pipeline.h"

#include <atomic>
#include <cstddef>
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
  /// up ends as DeadlineMissed instead of compiling — the backstop of
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

/// An encoding derived from one artifact, kept with it so a repeated hit
/// does not redo it: built at most once, by whoever asks first, and
/// freed with the artifact. The serve daemon keeps an ok reply's `stats`
/// member here. A copy or an assignment starts empty, since what it holds
/// describes the artifact it was built from.
class EncodingMemo {
public:
  EncodingMemo() = default;
  EncodingMemo(const EncodingMemo &) {}
  EncodingMemo &operator=(const EncodingMemo &) {
    clear();
    return *this;
  }
  ~EncodingMemo() { clear(); }

  /// The kept text, built by \p Build() if no call has built it yet.
  /// Threads that race to build it first each call \p Build, and all of
  /// them get the one that was published.
  template <typename BuildFn>
  const std::string &get(BuildFn &&Build) const {
    if (const std::string *Text = Kept.load(std::memory_order_acquire))
      return *Text;
    auto Fresh = std::make_unique<const std::string>(Build());
    const std::string *Published = nullptr;
    if (Kept.compare_exchange_strong(Published, Fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      return *Fresh.release();
    return *Published;
  }

private:
  void clear() { delete Kept.exchange(nullptr, std::memory_order_acq_rel); }

  mutable std::atomic<const std::string *> Kept = nullptr;
};

/// The cacheable artifact of one successful compilation: everything a
/// cache hit must reproduce byte-for-byte.
struct CompiledCode {
  /// Optimized module in textual `.sxir` form.
  std::string IRText;
  /// Per-pass named counters of the producing run.
  PassStats Stats;
  /// The producing run's remarks as one sxe.remarks.v1 JSONL stream,
  /// rendered once by RemarkCollector::take(): the header line, then one
  /// line per remark (the header alone unless the service collected
  /// remarks). A reply splices these bytes, the persistent tier stores
  /// them and a batch concatenates them; nothing parses them back.
  std::string Remarks;
  /// Structural hash of the *input* module (the cache key's content half).
  uint64_t InputIRHash = 0;
  /// Stats encoded as a serve reply's `stats` member, built on the first
  /// hit (see encodeServeReply in serve/Protocol.h).
  EncodingMemo EncodedStats;
};

/// \p Stats as the `stats` member of a top-level object (JsonWriter::
/// membersOf cuts it out for splicing); an empty object when there are
/// none. The one encoder of an artifact's stats: a serve reply and a
/// persistent-cache entry both carry these bytes.
inline std::string encodeStatsMember(const std::vector<StatEntry> &Stats) {
  JsonWriter J;
  J.reserve(96 * Stats.size() + 16);
  J.beginObject();
  if (!Stats.empty()) {
    J.key("stats");
    J.beginArray();
    for (const StatEntry &Entry : Stats) {
      J.beginObject();
      J.keyValue("pass", Entry.Pass);
      J.keyValue("name", Entry.Name);
      J.keyValue("value", Entry.Value);
      J.endObject();
    }
    J.endArray();
  }
  J.endObject();
  return J.take();
}

/// How one request ended. The three serving tiers come first, so a
/// cache_tier event's flight-record aux byte (the outcome) reads 0/1/2.
enum class CompileOutcome : uint8_t {
  Compiled,       ///< The pipeline ran.
  MemoryHit,      ///< Served from the in-memory code cache.
  PersistentHit,  ///< Loaded from the persistent on-disk tier
                  ///< (jit/PersistentCache.h) after an in-memory miss.
  Invalid,        ///< The module did not parse or verify.
  PipelineFailed, ///< Verify-each caught a pass breaking the module.
  DeadlineMissed, ///< DeadlineNanos passed before serving started.
  Rejected,       ///< Refused without compiling (enqueue after shutdown).
};

/// Number of CompileOutcome enumerators.
inline constexpr size_t NumCompileOutcomes = 7;

/// The outcome's lower-case name: "compiled", "memory" and "persistent"
/// (a cache_tier event's tier field), then "invalid", "pipeline_failed",
/// "deadline_missed" and "rejected".
const char *compileOutcomeName(CompileOutcome Outcome);

/// Outcome of one request.
struct CompileResult {
  std::string Name;
  /// A result no service has settled reads as refused.
  CompileOutcome Outcome = CompileOutcome::Rejected;
  std::string Error; ///< Why the request was not served; empty when ok().
  /// The artifact (shared with the cache); null exactly when !ok().
  std::shared_ptr<const CompiledCode> Code;
  /// Wall-clock cost of serving the request (cache probe + compile), on
  /// the worker or, for a source-key hit, on the enqueuing thread.
  uint64_t WallNanos = 0;
  /// Time the request spent queued before a worker picked it up (0 in
  /// inline mode and for a source-key hit). The serve layer feeds these
  /// into its queue-wait p99 window for admission control.
  uint64_t QueueWaitNanos = 0;

  /// True when one of the three tiers served an artifact.
  bool ok() const { return Outcome <= CompileOutcome::PersistentHit; }
};

} // namespace sxe

#endif // SXE_JIT_COMPILETASK_H
