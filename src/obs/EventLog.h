//===- obs/EventLog.h - Structured request-lifecycle event log ---*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve path's structured event log (`sxe.events.v1`): one JSONL
/// record per request-lifecycle event — admit, shed, deadline-expire,
/// cache-tier outcome, reply, drain — each carrying the request's
/// TraceContext ids, so a shed or a deadline miss is attributable after
/// the fact ("which request, from which client, why") instead of being
/// one anonymous tick on a counter.
///
/// Events accumulate in memory under a short mutex (the serve path emits
/// a handful per request; same cost model as obs/Trace.h) and export as
/// JSONL: a header line `{"schema": "sxe.events.v1"}`, then one record
/// per line in append order:
///
///   {"ts_ns": ..., "event": "admit", "trace_id": "00c0ffee...",
///    "request_id": 17, "name": "loop.sxir", "deadline_ms": "250"}
///
/// Every append is written into a FlightRecorder (the crash-safe,
/// fixed-size ring of this stream), so one call site feeds both the
/// post-mortem ring and, when the log retains records, the complete log.
/// A log that does not retain (the daemon's --no-trace) keeps only the
/// ring write: size() stays 0 and toJsonl() holds just the header.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_OBS_EVENTLOG_H
#define SXE_OBS_EVENTLOG_H

#include "obs/FlightRecorder.h"
#include "obs/TraceContext.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sxe {

/// Schema tag of the JSONL export's header line.
inline constexpr const char *kEventsSchema = "sxe.events.v1";

/// One structured lifecycle event.
struct ObsEvent {
  uint64_t Nanos = 0; ///< wallNowNanos() at emission.
  ObsEventKind Kind = ObsEventKind::Admit;
  TraceContext Ctx;
  std::string Name; ///< Module / request display name.
  /// Kind-specific detail rendered verbatim into the record (string
  /// values; producers format numbers).
  std::vector<std::pair<std::string, std::string>> Fields;
};

/// Thread-safe append-only event collector with JSONL export.
class EventLog {
public:
  /// \p Ring receives every event as a fixed-size flight record (not
  /// owned; must outlive the log). \p Retain keeps the full records for
  /// snapshot() and toJsonl() as well.
  EventLog(FlightRecorder &Ring, bool Retain) : Ring(Ring), Retain(Retain) {}

  EventLog(const EventLog &) = delete;
  EventLog &operator=(const EventLog &) = delete;

  /// Records one event stamped with the current wall clock. \p Aux is the
  /// flight-record detail byte (tier, shed cause, ...); the full string
  /// fields only exist in this log, and only when it retains records.
  void log(ObsEventKind Kind, TraceContext Ctx, const std::string &Name,
           std::vector<std::pair<std::string, std::string>> Fields = {},
           uint8_t Aux = 0);

  size_t size() const;

  /// Copy of the events recorded so far, in append order.
  std::vector<ObsEvent> snapshot() const;

  /// Renders the full JSONL document (header line + one record per
  /// line).
  std::string toJsonl() const;

private:
  mutable std::mutex Mu;
  std::vector<ObsEvent> Events;
  FlightRecorder &Ring;
  const bool Retain;
};

} // namespace sxe

#endif // SXE_OBS_EVENTLOG_H
