//===- obs/Trace.cpp - Chrome-trace-event span collection ---------------------===//

#include "obs/Trace.h"

#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

using namespace sxe;

TraceCollector::TraceCollector() : EpochNanos(wallNowNanos()) {}

uint32_t TraceCollector::currentTidLocked() {
  uint64_t Key =
      std::hash<std::thread::id>()(std::this_thread::get_id());
  for (const auto &[ThreadKey, Tid] : ThreadIds)
    if (ThreadKey == Key)
      return Tid;
  uint32_t Tid = static_cast<uint32_t>(ThreadIds.size());
  ThreadIds.emplace_back(Key, Tid);
  return Tid;
}

void TraceCollector::addSpan(
    std::string Name, std::string Category, uint64_t StartNanos,
    uint64_t EndNanos,
    std::vector<std::pair<std::string, std::string>> Args) {
  TraceEvent Event;
  Event.Name = std::move(Name);
  Event.Category = std::move(Category);
  Event.StartNanos = StartNanos > EpochNanos ? StartNanos - EpochNanos : 0;
  Event.DurNanos = EndNanos > StartNanos ? EndNanos - StartNanos : 0;
  Event.Args = std::move(Args);

  std::lock_guard<std::mutex> Lock(Mu);
  Event.Tid = currentTidLocked();
  Events.push_back(std::move(Event));
}

void TraceCollector::nameThread(const std::string &Label) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint32_t Tid = currentTidLocked();
  for (auto &[NamedTid, Name] : ThreadNames)
    if (NamedTid == Tid) {
      Name = Label;
      return;
    }
  ThreadNames.emplace_back(Tid, Label);
}

size_t TraceCollector::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.size();
}

size_t TraceCollector::threadTracks() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return ThreadIds.size();
}

/// Microseconds with nanosecond precision, the unit chrome://tracing and
/// Perfetto expect in "ts"/"dur".
static std::string micros(uint64_t Nanos) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%llu.%03u",
                static_cast<unsigned long long>(Nanos / 1000),
                static_cast<unsigned>(Nanos % 1000));
  return Buffer;
}

std::string TraceCollector::toJson() const {
  std::vector<TraceEvent> Sorted;
  std::vector<std::pair<uint32_t, std::string>> Names;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Sorted = Events;
    Names = ThreadNames;
  }
  std::sort(Sorted.begin(), Sorted.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.StartNanos != B.StartNanos)
                return A.StartNanos < B.StartNanos;
              return A.Name < B.Name;
            });
  std::sort(Names.begin(), Names.end());

  // JsonWriter pretty-prints every container; the "ts"/"dur" fractions are
  // appended as raw tokens through a small local emitter instead so the
  // numbers keep their nanosecond digits without scientific notation.
  std::string Out = "{\n  \"displayTimeUnit\": \"ms\",\n"
                    "  \"otherData\": {\"schema\": \"";
  Out += kTraceSchema;
  Out += "\"},\n  \"traceEvents\": [\n";
  bool First = true;
  for (const auto &[Tid, Label] : Names) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": ";
    Out += std::to_string(Tid);
    Out += ", \"args\": {\"name\": ";
    JsonWriter::appendQuoted(Out, Label);
    Out += "}}";
  }
  for (const TraceEvent &Event : Sorted) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += "    {\"name\": ";
    JsonWriter::appendQuoted(Out, Event.Name);
    Out += ", \"cat\": ";
    JsonWriter::appendQuoted(Out, Event.Category);
    Out += ", \"ph\": \"X\", \"pid\": 1, \"tid\": ";
    Out += std::to_string(Event.Tid);
    Out += ", \"ts\": ";
    Out += micros(Event.StartNanos);
    Out += ", \"dur\": ";
    Out += micros(Event.DurNanos);
    if (!Event.Args.empty()) {
      Out += ", \"args\": {";
      for (size_t Index = 0; Index < Event.Args.size(); ++Index) {
        if (Index)
          Out += ", ";
        JsonWriter::appendQuoted(Out, Event.Args[Index].first);
        Out += ": ";
        JsonWriter::appendQuoted(Out, Event.Args[Index].second);
      }
      Out += "}";
    }
    Out += "}";
  }
  Out += "\n  ]\n}\n";
  return Out;
}
