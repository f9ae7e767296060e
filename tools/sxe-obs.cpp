//===- tools/sxe-obs.cpp - Offline observability analyzer ----------------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
// Joins the serve path's observability artifacts into one per-request
// view:
//
//   sxe-obs --events=FILE [--trace=FILE]... [--metrics=FILE]
//           [--remarks=FILE] [--timelines=N] [--check=PCT]
//
//   --events    sxe.events.v1 JSONL written by `sxe-served --events-file=`
//   --trace     sxe.trace.v1 documents (repeatable: the daemon's plus any
//               `sxe-client --trace=` captures); spans join by trace_id
//   --metrics   sxe.metrics.v1 JSON; histogram exemplar trace ids are
//               resolved against the request table
//   --remarks   sxe.remarks.v1 JSONL; records join by module name
//
// Output: a request table (one line per request: ids, module, status,
// tier, stage latencies), up to --timelines full span timelines, a
// p50/p90/p99 stage breakdown (queue wait vs cache probes vs compile vs
// end-to-end serve), the tier mix, and the exemplar join table.
//
// --check=PCT is the CI gate: exit 1 unless at least PCT percent of the
// requests seen in the event log joined at least one trace span. Spans
// in different trace files have different collector epochs, so timeline
// offsets are per-source; the trace id is the cross-source join key.
//
// Exit status: 0 ok, 1 failed --check, 2 usage or unreadable/invalid
// input.
//
//===----------------------------------------------------------------------------===//

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

using namespace sxe;

namespace {

struct SpanRec {
  std::string Name;
  std::string Category;
  std::string Source; ///< Trace-file alias ("trace0", ...).
  std::string Track;  ///< thread_name label, or "tid-N".
  double StartUs = 0;
  double DurUs = 0;
};

struct EventRec {
  uint64_t Nanos = 0;
  std::string Kind;
  std::string Detail; ///< Flattened extra fields ("tier=memory ...").
};

struct RequestRec {
  std::string TraceHex;
  uint64_t RequestId = 0;
  std::string Name;
  std::string Status; ///< "ok" or the typed error kind; "" = no reply seen.
  std::string Tier;
  std::vector<EventRec> Events;
  std::vector<SpanRec> Spans;
  size_t RemarkCount = 0;
};

struct StageSamples {
  std::vector<double> QueueWaitMs;
  std::vector<double> CacheProbeMs;
  std::vector<double> CompileMs;
  std::vector<double> ServeMs;
  std::vector<double> ClientMs;
};

void usage() {
  std::fprintf(stderr,
               "usage: sxe-obs --events=FILE [--trace=FILE]...\n"
               "               [--metrics=FILE] [--remarks=FILE]\n"
               "               [--timelines=N] [--check=PCT]\n");
}

double percentile(std::vector<double> Sorted, double Pct) {
  if (Sorted.empty())
    return 0;
  std::sort(Sorted.begin(), Sorted.end());
  double Rank = Pct / 100.0 * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = Lo + 1 < Sorted.size() ? Lo + 1 : Lo;
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

uint64_t asUint(const JsonValue &Doc, const char *Name) {
  const JsonValue *Field = Doc.find(Name);
  if (!Field || !Field->isNumber())
    return 0;
  double Value = Field->numberValue();
  return Value > 0 ? static_cast<uint64_t>(Value) : 0;
}

/// Splits \p Text into lines (dropping empty ones).
std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    if (End > Pos)
      Lines.push_back(Text.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  return Lines;
}

} // namespace

int main(int argc, char **argv) {
  std::string EventsFile;
  std::vector<std::string> TraceFiles;
  std::string MetricsFile;
  std::string RemarksFile;
  size_t MaxTimelines = 5;
  double CheckPct = -1;

  for (int Index = 1; Index < argc; ++Index) {
    std::string Arg = argv[Index];
    if (Arg.rfind("--events=", 0) == 0)
      EventsFile = Arg.substr(9);
    else if (Arg.rfind("--trace=", 0) == 0)
      TraceFiles.push_back(Arg.substr(8));
    else if (Arg.rfind("--metrics=", 0) == 0)
      MetricsFile = Arg.substr(10);
    else if (Arg.rfind("--remarks=", 0) == 0)
      RemarksFile = Arg.substr(10);
    else if (Arg.rfind("--timelines=", 0) == 0)
      MaxTimelines =
          static_cast<size_t>(std::strtoull(Arg.c_str() + 12, nullptr, 10));
    else if (Arg.rfind("--check=", 0) == 0)
      CheckPct = std::atof(Arg.c_str() + 8);
    else {
      std::fprintf(stderr, "sxe-obs: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (EventsFile.empty()) {
    usage();
    return 2;
  }

  // ---- Event log: the request table's backbone. -------------------------
  std::map<std::string, RequestRec> Requests; // keyed by trace id hex
  std::vector<EventRec> GlobalEvents;         // daemon_start / drain / dump
  {
    std::string Text;
    if (!readTextFile(EventsFile, Text)) {
      std::fprintf(stderr, "sxe-obs: cannot read %s\n", EventsFile.c_str());
      return 2;
    }
    std::vector<std::string> Lines = splitLines(Text);
    for (size_t Index = 0; Index < Lines.size(); ++Index) {
      JsonValue Doc;
      std::string Error;
      if (!parseJson(Lines[Index], Doc, Error)) {
        std::fprintf(stderr, "sxe-obs: %s:%zu: %s\n", EventsFile.c_str(),
                     Index + 1, Error.c_str());
        return 2;
      }
      if (Index == 0 && Doc.find("schema")) {
        std::string Schema = Doc.stringField("schema");
        if (Schema != "sxe.events.v1") {
          std::fprintf(stderr, "sxe-obs: %s: unexpected schema '%s'\n",
                       EventsFile.c_str(), Schema.c_str());
          return 2;
        }
        continue;
      }
      EventRec Event;
      Event.Nanos = asUint(Doc, "ts_ns");
      Event.Kind = Doc.stringField("event");
      for (const auto &[Key, Value] : Doc.members()) {
        if (Key == "ts_ns" || Key == "event" || Key == "trace_id" ||
            Key == "request_id" || Key == "name")
          continue;
        if (Value.isString())
          Event.Detail +=
              (Event.Detail.empty() ? "" : " ") + Key + "=" +
              Value.stringValue();
      }
      std::string TraceHex = Doc.stringField("trace_id");
      if (TraceHex.empty()) {
        GlobalEvents.push_back(std::move(Event));
        continue;
      }
      RequestRec &Request = Requests[TraceHex];
      Request.TraceHex = TraceHex;
      if (uint64_t Id = asUint(Doc, "request_id"))
        Request.RequestId = Id;
      std::string Name = Doc.stringField("name");
      if (!Name.empty())
        Request.Name = Name;
      if (Event.Kind == "reply") {
        Request.Status = Doc.stringField("status");
        std::string Tier = Doc.stringField("tier");
        if (!Tier.empty())
          Request.Tier = Tier;
      } else if (Event.Kind == "cache_tier") {
        Request.Tier = Doc.stringField("tier");
      }
      Request.Events.push_back(std::move(Event));
    }
  }

  // ---- Traces: spans join the table by their trace_id arg. --------------
  StageSamples Stages;
  size_t TotalSpans = 0, JoinedSpans = 0;
  for (size_t FileIndex = 0; FileIndex < TraceFiles.size(); ++FileIndex) {
    const std::string &Path = TraceFiles[FileIndex];
    std::string Text;
    if (!readTextFile(Path, Text)) {
      std::fprintf(stderr, "sxe-obs: cannot read %s\n", Path.c_str());
      return 2;
    }
    JsonValue Doc;
    std::string Error;
    if (!parseJson(Text, Doc, Error)) {
      std::fprintf(stderr, "sxe-obs: %s: %s\n", Path.c_str(), Error.c_str());
      return 2;
    }
    const JsonValue *Spans = Doc.find("traceEvents");
    if (!Spans || !Spans->isArray()) {
      std::fprintf(stderr, "sxe-obs: %s: no traceEvents array\n",
                   Path.c_str());
      return 2;
    }
    std::string Source = "trace" + std::to_string(FileIndex);
    std::map<uint64_t, std::string> TrackNames;
    for (const JsonValue &Span : Spans->array()) {
      if (Span.stringField("ph") == "M" &&
          Span.stringField("name") == "thread_name") {
        if (const JsonValue *Args = Span.find("args"))
          TrackNames[asUint(Span, "tid")] = Args->stringField("name");
      }
    }
    for (const JsonValue &Span : Spans->array()) {
      if (Span.stringField("ph") != "X")
        continue;
      ++TotalSpans;
      const JsonValue *Args = Span.find("args");
      std::string TraceHex = Args ? Args->stringField("trace_id") : "";
      if (TraceHex.empty())
        continue;
      auto It = Requests.find(TraceHex);
      if (It == Requests.end())
        continue;
      ++JoinedSpans;
      SpanRec Rec;
      Rec.Name = Span.stringField("name");
      Rec.Category = Span.stringField("cat");
      Rec.Source = Source;
      uint64_t Tid = asUint(Span, "tid");
      auto NameIt = TrackNames.find(Tid);
      Rec.Track = NameIt != TrackNames.end()
                      ? NameIt->second
                      : "tid-" + std::to_string(Tid);
      if (const JsonValue *Ts = Span.find("ts"))
        Rec.StartUs = Ts->numberValue();
      if (const JsonValue *Dur = Span.find("dur"))
        Rec.DurUs = Dur->numberValue();
      double Ms = Rec.DurUs / 1000.0;
      if (Rec.Name == "queue-wait")
        Stages.QueueWaitMs.push_back(Ms);
      else if (Rec.Name == "cache-probe" || Rec.Name == "pcache-probe")
        Stages.CacheProbeMs.push_back(Ms);
      else if (Rec.Name == "compile")
        Stages.CompileMs.push_back(Ms);
      else if (Rec.Name == "serve-request")
        Stages.ServeMs.push_back(Ms);
      else if (Rec.Name == "request")
        Stages.ClientMs.push_back(Ms);
      It->second.Spans.push_back(std::move(Rec));
    }
  }

  // ---- Remarks: joined per module name. ---------------------------------
  if (!RemarksFile.empty()) {
    std::string Text;
    if (!readTextFile(RemarksFile, Text)) {
      std::fprintf(stderr, "sxe-obs: cannot read %s\n", RemarksFile.c_str());
      return 2;
    }
    std::map<std::string, size_t> PerModule;
    for (const std::string &Line : splitLines(Text)) {
      JsonValue Doc;
      std::string Error;
      if (!parseJson(Line, Doc, Error))
        continue; // Tolerate trailing partial lines in remark streams.
      std::string Module = Doc.stringField("module");
      if (Module.empty())
        Module = Doc.stringField("name");
      if (!Module.empty())
        ++PerModule[Module];
    }
    for (auto &[Hex, Request] : Requests) {
      auto It = PerModule.find(Request.Name);
      if (It != PerModule.end())
        Request.RemarkCount = It->second;
    }
  }

  // ---- Request table. ---------------------------------------------------
  std::vector<const RequestRec *> Ordered;
  for (const auto &[Hex, Request] : Requests)
    Ordered.push_back(&Request);
  std::sort(Ordered.begin(), Ordered.end(),
            [](const RequestRec *A, const RequestRec *B) {
              if (A->RequestId != B->RequestId)
                return A->RequestId < B->RequestId;
              return A->TraceHex < B->TraceHex;
            });

  size_t Joined = 0;
  for (const RequestRec *Request : Ordered)
    if (!Request->Spans.empty())
      ++Joined;

  std::printf("sxe-obs: %zu requests, %zu with trace spans; %zu/%zu spans "
              "joined across %zu trace file(s)\n",
              Ordered.size(), Joined, JoinedSpans, TotalSpans,
              TraceFiles.size());
  for (const EventRec &Event : GlobalEvents)
    std::printf("  [daemon] %-12s %s\n", Event.Kind.c_str(),
                Event.Detail.c_str());

  std::printf("\n%-6s %-18s %-20s %-10s %-10s %6s %8s\n", "req", "trace",
              "module", "status", "tier", "spans", "remarks");
  for (const RequestRec *Request : Ordered)
    std::printf("%-6llu %-18s %-20s %-10s %-10s %6zu %8zu\n",
                static_cast<unsigned long long>(Request->RequestId),
                Request->TraceHex.c_str(), Request->Name.c_str(),
                Request->Status.empty() ? "-" : Request->Status.c_str(),
                Request->Tier.empty() ? "-" : Request->Tier.c_str(),
                Request->Spans.size(), Request->RemarkCount);

  // ---- Per-request timelines (offsets are per trace source). ------------
  size_t Printed = 0;
  for (const RequestRec *Request : Ordered) {
    if (Printed >= MaxTimelines)
      break;
    if (Request->Spans.empty() && Request->Events.empty())
      continue;
    ++Printed;
    std::printf("\nrequest %llu  trace=%s  module=%s  status=%s  tier=%s\n",
                static_cast<unsigned long long>(Request->RequestId),
                Request->TraceHex.c_str(), Request->Name.c_str(),
                Request->Status.empty() ? "-" : Request->Status.c_str(),
                Request->Tier.empty() ? "-" : Request->Tier.c_str());
    uint64_t FirstNs = 0;
    for (const EventRec &Event : Request->Events)
      if (Event.Nanos && (!FirstNs || Event.Nanos < FirstNs))
        FirstNs = Event.Nanos;
    for (const EventRec &Event : Request->Events)
      std::printf("  event +%9.3fms  %-16s %s\n",
                  Event.Nanos >= FirstNs
                      ? static_cast<double>(Event.Nanos - FirstNs) / 1e6
                      : 0.0,
                  Event.Kind.c_str(), Event.Detail.c_str());
    std::map<std::string, double> SourceEpochUs;
    for (const SpanRec &Span : Request->Spans) {
      auto It = SourceEpochUs.find(Span.Source);
      if (It == SourceEpochUs.end() || Span.StartUs < It->second)
        SourceEpochUs[Span.Source] = Span.StartUs;
    }
    std::vector<const SpanRec *> Spans;
    for (const SpanRec &Span : Request->Spans)
      Spans.push_back(&Span);
    std::sort(Spans.begin(), Spans.end(),
              [&](const SpanRec *A, const SpanRec *B) {
                double RelA = A->StartUs - SourceEpochUs[A->Source];
                double RelB = B->StartUs - SourceEpochUs[B->Source];
                return RelA < RelB;
              });
    for (const SpanRec *Span : Spans)
      std::printf("  span  +%9.3fms %9.3fms  %-14s [%s] (%s:%s)\n",
                  (Span->StartUs - SourceEpochUs[Span->Source]) / 1000.0,
                  Span->DurUs / 1000.0, Span->Name.c_str(),
                  Span->Category.c_str(), Span->Source.c_str(),
                  Span->Track.c_str());
  }
  if (Ordered.size() > Printed && MaxTimelines)
    std::printf("\n(%zu more request timelines; raise --timelines=N)\n",
                Ordered.size() - Printed);

  // ---- Stage percentile breakdown. --------------------------------------
  auto PrintStage = [](const char *Label, const std::vector<double> &Ms) {
    std::printf("  %-14s %6zu %9.3f %9.3f %9.3f\n", Label, Ms.size(),
                percentile(Ms, 50), percentile(Ms, 90), percentile(Ms, 99));
  };
  std::printf("\nstage latency breakdown (ms):\n");
  std::printf("  %-14s %6s %9s %9s %9s\n", "stage", "count", "p50", "p90",
              "p99");
  PrintStage("queue-wait", Stages.QueueWaitMs);
  PrintStage("cache-probe", Stages.CacheProbeMs);
  PrintStage("compile", Stages.CompileMs);
  PrintStage("serve-request", Stages.ServeMs);
  if (!Stages.ClientMs.empty())
    PrintStage("client-rtt", Stages.ClientMs);

  std::map<std::string, size_t> TierCounts;
  for (const RequestRec *Request : Ordered)
    if (!Request->Tier.empty())
      ++TierCounts[Request->Tier];
  std::printf("tier mix:");
  for (const auto &[Tier, Count] : TierCounts)
    std::printf(" %s=%zu", Tier.c_str(), Count);
  std::printf("\n");

  // ---- Metrics exemplars join back to the request table. ----------------
  if (!MetricsFile.empty()) {
    std::string Text;
    if (!readTextFile(MetricsFile, Text)) {
      std::fprintf(stderr, "sxe-obs: cannot read %s\n", MetricsFile.c_str());
      return 2;
    }
    JsonValue Doc;
    std::string Error;
    if (!parseJson(Text, Doc, Error)) {
      std::fprintf(stderr, "sxe-obs: %s: %s\n", MetricsFile.c_str(),
                   Error.c_str());
      return 2;
    }
    std::printf("\nhistogram exemplars:\n");
    if (const JsonValue *Histograms = Doc.find("histograms")) {
      for (const auto &[Name, Histogram] : Histograms->members()) {
        auto PrintExemplar = [&](const std::string &Bound,
                                 const std::string &Hex) {
          auto It = Requests.find(Hex);
          std::printf("  %-28s le=%-8s %s -> %s\n", Name.c_str(),
                      Bound.c_str(), Hex.c_str(),
                      It == Requests.end()
                          ? "(unknown request)"
                          : (It->second.Name + " req " +
                             std::to_string(It->second.RequestId))
                                .c_str());
        };
        if (const JsonValue *Buckets = Histogram.find("buckets"))
          for (const JsonValue &Bucket : Buckets->array()) {
            std::string Hex = Bucket.stringField("exemplar_trace_id");
            if (Hex.empty())
              continue;
            char Bound[32];
            std::snprintf(Bound, sizeof(Bound), "%g",
                          Bucket.find("le") ? Bucket.find("le")->numberValue()
                                            : 0.0);
            PrintExemplar(Bound, Hex);
          }
        std::string InfHex = Histogram.stringField("inf_exemplar_trace_id");
        if (!InfHex.empty())
          PrintExemplar("+Inf", InfHex);
      }
    }
  }

  // ---- CI gate. ---------------------------------------------------------
  if (CheckPct >= 0) {
    double Coverage = Ordered.empty()
                          ? 0.0
                          : 100.0 * static_cast<double>(Joined) /
                                static_cast<double>(Ordered.size());
    std::printf("\njoin coverage: %.2f%% (%zu/%zu requests joined; gate "
                "%.2f%%)\n",
                Coverage, Joined, Ordered.size(), CheckPct);
    if (Ordered.empty() || Coverage < CheckPct) {
      std::fprintf(stderr, "sxe-obs: join coverage below --check=%.2f\n",
                   CheckPct);
      return 1;
    }
  }
  return 0;
}
