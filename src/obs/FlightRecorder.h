//===- obs/FlightRecorder.h - Crash-safe in-memory event ring ----*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size, lock-free ring of the most recent request-lifecycle
/// events inside the serve daemon, built to be readable from the last
/// place observability normally reaches: a fatal-signal handler. When the
/// daemon takes a SIGSEGV under load, the handler dumps the ring to disk
/// and the post-mortem shows exactly which requests were in flight and
/// what the daemon last did for each (the black-box "flight recorder" of
/// avionics, applied to a compile server).
///
/// Discipline the signal path imposes, and this type honors end to end:
///
///   - record() is wait-free: one relaxed fetch_add picks a slot, plain
///     stores fill it, a release store of the sequence number commits it.
///     No locks, no allocation — safe from any thread at any time.
///   - Records are fixed-size PODs. Names are truncated into an inline
///     buffer and sanitized to JSON-safe ASCII *at record time*, so the
///     dump path never needs escaping and even a torn (mid-write) record
///     cannot produce an unparseable line.
///   - dumpTo(fd) uses only write(2) and stack formatting (no printf, no
///     malloc, no locale) — async-signal-safe by construction. The
///     in-process Dump frame and the tests use the same code path via a
///     pipe/file descriptor.
///
/// The dump is a JSONL document (schema `sxe.flight.v1`): a header line,
/// then one record per line in ring order; each record carries its
/// sequence number so consumers (tools/sxe-obs) re-sort into true order.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_OBS_FLIGHTRECORDER_H
#define SXE_OBS_FLIGHTRECORDER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace sxe {

/// Schema tag of the dump's header line.
inline constexpr const char *kFlightSchema = "sxe.flight.v1";

/// Event vocabulary shared with the structured event log (obs/EventLog.h):
/// the flight recorder is the crash-safe shadow of the same lifecycle
/// stream.
enum class ObsEventKind : uint8_t {
  DaemonStart,    ///< Daemon came up.
  Admit,          ///< Request passed admission control.
  Shed,           ///< Request load-shed at the door (overload).
  DeadlineExpire, ///< Deadline expired before a worker reached it.
  CacheTier,      ///< Tier outcome: compiled / memory / persistent.
  Reply,          ///< Reply delivered to the client.
  Drain,          ///< Graceful drain completed.
  Dump,           ///< Flight-recorder dump was requested.
};

const char *obsEventKindName(ObsEventKind Kind);

/// One fixed-size ring slot. Plain data; Seq is the commit marker
/// (sequence + 1, so 0 always means "never written").
struct FlightRecord {
  std::atomic<uint64_t> Seq{0};
  uint64_t Nanos = 0;
  uint64_t TraceId = 0;
  uint64_t RequestId = 0;
  uint8_t Kind = 0;
  /// Kind-specific detail: a compile outcome or a reply error kind
  /// (docs/OBSERVABILITY.md has the table).
  uint8_t Aux = 0;
  /// Module name, truncated, sanitized to [ -~] minus '"' and '\' at
  /// record time so the dump path never escapes.
  char Name[30] = {};
};

class FlightRecorder {
public:
  /// \p Capacity is rounded up to at least 8 slots.
  explicit FlightRecorder(size_t Capacity = 2048);

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// Records one event. Wait-free, allocation-free, async-signal-safe.
  /// \p Name may be null; it is truncated to the slot's inline buffer.
  void record(ObsEventKind Kind, uint64_t Nanos, uint64_t TraceId,
              uint64_t RequestId, const char *Name, uint8_t Aux = 0) noexcept;

  size_t capacity() const { return Cap; }

  /// Total events ever recorded (>= capacity() means the ring wrapped).
  uint64_t recorded() const {
    return NextSeq.load(std::memory_order_relaxed);
  }

  /// Writes the JSONL dump to \p Fd using only write(2) and stack
  /// buffers. Async-signal-safe; returns false when a write fails.
  /// Records are emitted in ring order — consumers sort by "seq".
  bool dumpTo(int Fd) const noexcept;

  /// Convenience for the Dump frame and tests: the same dump as a string
  /// (not signal-safe; allocates).
  std::string dumpToString() const;

private:
  size_t Cap;
  std::unique_ptr<FlightRecord[]> Ring;
  std::atomic<uint64_t> NextSeq{0};
};

/// Installs a fatal-signal handler (SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
/// SIGILL) that dumps \p Recorder to \p Path, then restores the default
/// disposition and re-raises so the process still dies with the original
/// signal (core dumps and exit status are preserved). \p Path is copied
/// into static storage; at most one recorder/path pair is active per
/// process — a second call replaces the first.
void installFlightDumpOnFatalSignals(FlightRecorder *Recorder,
                                     const std::string &Path);

} // namespace sxe

#endif // SXE_OBS_FLIGHTRECORDER_H
