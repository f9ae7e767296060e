//===- obs/Trace.h - Chrome-trace-event span collection ----------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-aware duration-span tracing in the Chrome trace-event (and
/// Perfetto-compatible) JSON format, modeled on the timelines production
/// JITs ship (HotSpot's LogCompilation, LLVM's -ftime-trace). Every pass
/// executed by the PassManager and every compile-service stage (queue
/// wait, cache probe, pipeline) records a complete "X" event, so an
/// 8-worker `sxetool --batch` renders as a real multi-track timeline in
/// chrome://tracing or https://ui.perfetto.dev.
///
/// Concurrency model: spans are finalized with one short mutex-protected
/// append — tracing sits on the per-compile path (a handful of spans per
/// module), not the per-instruction path, so a lock beats the complexity
/// of per-thread buffers here. Thread tracks are dense integers assigned
/// in first-event order, with optional human labels via nameThread().
///
/// Output is byte-deterministic modulo timestamps and thread scheduling:
/// the exporter sorts events by (track, start, name) and timestamps are
/// the only varying bytes.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_OBS_TRACE_H
#define SXE_OBS_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sxe {

/// Schema tag embedded in the exported document's otherData block.
inline constexpr const char *kTraceSchema = "sxe.trace.v1";

/// One completed duration span ("ph":"X").
struct TraceEvent {
  std::string Name;
  std::string Category;
  uint64_t StartNanos = 0; ///< Relative to the collector's epoch.
  uint64_t DurNanos = 0;
  uint32_t Tid = 0;
  /// Extra "args" rendered into the event (string values only; numbers
  /// are formatted by the producer).
  std::vector<std::pair<std::string, std::string>> Args;
};

/// Collects duration spans from any number of threads and renders the
/// Chrome trace-event JSON document.
class TraceCollector {
public:
  TraceCollector();

  TraceCollector(const TraceCollector &) = delete;
  TraceCollector &operator=(const TraceCollector &) = delete;

  /// Registers a complete span. \p StartNanos / \p EndNanos are
  /// wallNowNanos() readings; the calling thread's track is used.
  void addSpan(std::string Name, std::string Category, uint64_t StartNanos,
               uint64_t EndNanos,
               std::vector<std::pair<std::string, std::string>> Args = {});

  /// Labels the calling thread's track (emitted as a thread_name
  /// metadata event, e.g. "worker-3").
  void nameThread(const std::string &Label);

  /// Number of events recorded so far.
  size_t size() const;

  /// Number of distinct thread tracks that recorded at least one event.
  size_t threadTracks() const;

  /// Renders the full document:
  ///   {"displayTimeUnit":"ms","otherData":{"schema":"sxe.trace.v1"},
  ///    "traceEvents":[...]}
  /// Events are sorted by (tid, start, name); timestamps are microseconds
  /// with nanosecond precision.
  std::string toJson() const;

private:
  uint32_t currentTidLocked();

  mutable std::mutex Mu;
  /// wallNowNanos() at construction; spans are stored relative to it.
  uint64_t EpochNanos;
  std::vector<TraceEvent> Events;
  /// Dense track id per OS thread, in first-event order.
  std::vector<std::pair<uint64_t, uint32_t>> ThreadIds;
  std::vector<std::pair<uint32_t, std::string>> ThreadNames;
};

} // namespace sxe

#endif // SXE_OBS_TRACE_H
