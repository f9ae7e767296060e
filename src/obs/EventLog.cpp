//===- obs/EventLog.cpp - Structured request-lifecycle event log --------------===//

#include "obs/EventLog.h"

#include "support/Json.h"
#include "support/Timer.h"

using namespace sxe;

void EventLog::log(ObsEventKind Kind, TraceContext Ctx,
                   const std::string &Name,
                   std::initializer_list<EventField> Fields, uint8_t Aux) {
  uint64_t Nanos = wallNowNanos();
  Ring.record(Kind, Nanos, Ctx.TraceId, Ctx.RequestId, Name.c_str(), Aux);
  if (!Retain)
    return;
  ObsEvent Event{Nanos, Kind, Ctx, Name, {}};
  for (const EventField &Field : Fields)
    if (Field.Key)
      Event.Fields.emplace_back(Field.Key, Field.IsNumber
                                               ? std::to_string(Field.Number)
                                               : std::string(Field.Text));
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back(std::move(Event));
}

size_t EventLog::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.size();
}

std::vector<ObsEvent> EventLog::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events;
}

std::string EventLog::toJsonl() const {
  std::vector<ObsEvent> Copy = snapshot();
  std::string Out = "{\"schema\": \"";
  Out += kEventsSchema;
  Out += "\"}\n";
  for (const ObsEvent &Event : Copy) {
    // One single-line record per event; JsonWriter pretty-prints, so the
    // line is assembled in place from quoted pieces (same approach as the
    // remark stream).
    Out += "{\"ts_ns\": ";
    Out += std::to_string(Event.Nanos);
    Out += ", \"event\": ";
    JsonWriter::appendQuoted(Out, obsEventKindName(Event.Kind));
    if (Event.Ctx.TraceId) {
      Out += ", \"trace_id\": \"";
      Out += traceIdHex(Event.Ctx.TraceId);
      Out += '"';
    }
    if (Event.Ctx.RequestId) {
      Out += ", \"request_id\": ";
      Out += std::to_string(Event.Ctx.RequestId);
    }
    if (!Event.Name.empty()) {
      Out += ", \"name\": ";
      JsonWriter::appendQuoted(Out, Event.Name);
    }
    for (const auto &[Key, Value] : Event.Fields) {
      Out += ", ";
      JsonWriter::appendQuoted(Out, Key);
      Out += ": ";
      JsonWriter::appendQuoted(Out, Value);
    }
    Out += "}\n";
  }
  return Out;
}
