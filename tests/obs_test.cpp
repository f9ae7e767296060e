//===- tests/obs_test.cpp - Tracing, metrics, remarks ---------------------------===//
//
// Locks the src/obs/ contracts:
//
//   - Histogram bucket boundaries: an observation equal to a bound lands
//     in that bound's bucket (Prometheus `le` semantics), above the last
//     bound in the overflow bucket;
//   - MetricsRegistry is safe under concurrent observation and merges
//     per-thread registries like PassStats (counters/histograms add,
//     gauges max) — the TSan CI job runs this suite;
//   - TraceCollector's export is well-formed JSON (parsed back with
//     support/Json), carries the sxe.trace.v1 schema tag, and an
//     8-worker compile-service batch produces at least two thread
//     tracks;
//   - the remark stream of a parallel (jobs=8) compile-service batch is
//     byte-identical to the serial (jobs=0) reference, including on
//     cache hits (remarks live in the cached artifact);
//   - the Prometheus exposition carries the compile-latency histogram
//     with cumulative buckets, +Inf, _sum, and _count;
//   - trace identity: minted ids are non-zero/distinct and the 16-digit
//     hex wire form round-trips;
//   - the structured event log exports schema-tagged, parseable
//     sxe.events.v1 JSONL and mirrors every append into the flight
//     recorder;
//   - the flight recorder: the ring wraps keeping exactly the most recent
//     capacity() records, hostile names are sanitized at record time, and
//     a real SIGSEGV (forked child) leaves a parseable sxe.flight.v1 dump
//     while the child still dies with the original signal;
//   - histogram latency exemplars surface in the JSON export only, and
//     registerBuildInfoMetrics exposes sxe_build_info / sxe_uptime_seconds
//     in both export formats.
//
//===-----------------------------------------------------------------------------===//

#include "jit/CompileService.h"
#include "obs/EventLog.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "parser/Parser.h"
#include "obs/Remarks.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "pm/InstrumentedPipeline.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <csignal>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

using namespace sxe;

namespace {

std::string loadCorpusSource(const std::string &Name) {
  std::string Path =
      std::string(SXE_SOURCE_DIR) + "/tests/corpus/" + Name + ".sxir";
  std::ifstream In(Path);
  EXPECT_TRUE(static_cast<bool>(In)) << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

const char *const CorpusNames[] = {"generated_small", "generated_medium",
                                   "generated_large"};

/// Runs the pinned corpus through a service and returns the remark
/// streams concatenated in submission order.
std::string batchRemarks(unsigned Jobs, CodeCache *Cache) {
  CompileServiceOptions Options;
  Options.Jobs = Jobs;
  Options.Cache = Cache;
  Options.PM.CollectRemarks = true;
  CompileService Service(Options);
  std::vector<std::future<CompileResult>> Futures;
  for (const char *Name : CorpusNames) {
    CompileRequest Request;
    Request.Name = Name;
    Request.Source = loadCorpusSource(Name);
    Request.Config = PipelineConfig::forVariant(Variant::All);
    Request.Hotness = static_cast<double>(Request.Source.size());
    Futures.push_back(Service.enqueue(std::move(Request)));
  }
  std::vector<Remark> All;
  for (auto &Future : Futures) {
    CompileResult Result = Future.get();
    EXPECT_TRUE(Result.Ok) << Result.Error;
    if (Result.Ok)
      All.insert(All.end(), Result.Code->Remarks.begin(),
                 Result.Code->Remarks.end());
  }
  return remarksToJsonl(All);
}

// --- Histograms ---------------------------------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram H({1.0, 2.0, 4.0});
  H.observe(0.5);  // <= 1.0
  H.observe(1.0);  // == bound: still bucket 0 (le semantics)
  H.observe(1.5);  // <= 2.0
  H.observe(4.0);  // == last bound
  H.observe(99.0); // overflow
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.bucketCount(3), 1u); // +Inf
  EXPECT_EQ(H.count(), 5u);
  EXPECT_NEAR(H.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 99.0, 1e-6);
}

TEST(Histogram, DefaultLatencyBoundsAreAscending) {
  std::vector<double> Bounds = defaultLatencyBucketBounds();
  ASSERT_GE(Bounds.size(), 4u);
  for (size_t I = 1; I < Bounds.size(); ++I)
    EXPECT_LT(Bounds[I - 1], Bounds[I]);
}

TEST(Metrics, CountersAndGauges) {
  MetricsRegistry Reg;
  Counter &C = Reg.counter("sxe_events_total", "events");
  C.inc();
  C.inc(4);
  EXPECT_EQ(C.value(), 5u);
  // Re-registration returns the same instrument.
  EXPECT_EQ(&Reg.counter("sxe_events_total"), &C);

  Gauge &G = Reg.gauge("sxe_depth", "depth");
  G.set(7);
  G.add(-2);
  EXPECT_EQ(G.value(), 5);
}

TEST(Metrics, ConcurrentObservationAndMerge) {
  // Hot path under contention (the TSan job watches this), then the
  // per-thread-registry merge pattern on top.
  MetricsRegistry Shared;
  Counter &C = Shared.counter("sxe_ops_total");
  Histogram &H = Shared.histogram("sxe_op_seconds", "", {0.5, 1.0});
  constexpr unsigned Threads = 8, PerThread = 1000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&C, &H, T] {
      for (unsigned I = 0; I < PerThread; ++I) {
        C.inc();
        H.observe(T % 2 ? 0.25 : 2.0);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(C.value(), uint64_t(Threads) * PerThread);
  EXPECT_EQ(H.count(), uint64_t(Threads) * PerThread);
  EXPECT_EQ(H.bucketCount(0), uint64_t(Threads) / 2 * PerThread);
  EXPECT_EQ(H.bucketCount(2), uint64_t(Threads) / 2 * PerThread);

  MetricsRegistry PerThreadReg;
  PerThreadReg.counter("sxe_ops_total").inc(10);
  PerThreadReg.gauge("sxe_peak").set(3);
  PerThreadReg.histogram("sxe_op_seconds", "", {0.5, 1.0}).observe(0.1);
  Shared.gauge("sxe_peak").set(9);
  Shared.merge(PerThreadReg);
  EXPECT_EQ(Shared.counter("sxe_ops_total").value(),
            uint64_t(Threads) * PerThread + 10);
  EXPECT_EQ(Shared.gauge("sxe_peak").value(), 9); // max, not sum
  EXPECT_EQ(Shared.histogram("sxe_op_seconds").count(),
            uint64_t(Threads) * PerThread + 1);
}

TEST(Metrics, JsonExportParsesBackWithSchema) {
  MetricsRegistry Reg;
  Reg.counter("sxe_compiles_total", "runs").inc(3);
  Reg.gauge("sxe_queue_depth").set(2);
  Reg.histogram("sxe_compile_latency_seconds", "latency", {0.1, 1.0})
      .observe(0.05);
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Reg.toJson(), Doc, Error)) << Error;
  EXPECT_EQ(Doc.stringField("schema"), kMetricsSchema);
  const JsonValue *Counters = Doc.find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_TRUE(Counters->isObject());
  const JsonValue *Compiles = Counters->find("sxe_compiles_total");
  ASSERT_NE(Compiles, nullptr);
  EXPECT_EQ(Compiles->numberValue(), 3.0);
  const JsonValue *Hists = Doc.find("histograms");
  ASSERT_NE(Hists, nullptr);
  const JsonValue *Latency = Hists->find("sxe_compile_latency_seconds");
  ASSERT_NE(Latency, nullptr);
  const JsonValue *Buckets = Latency->find("buckets");
  ASSERT_NE(Buckets, nullptr);
  ASSERT_TRUE(Buckets->isArray());
  EXPECT_EQ(Buckets->array().size(), 2u);
}

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry Reg;
  Reg.counter("sxe_compiles_total", "Pipeline runs").inc(2);
  Histogram &H =
      Reg.histogram("sxe_compile_latency_seconds", "latency", {0.1, 1.0});
  H.observe(0.05);
  H.observe(0.5);
  H.observe(30.0);
  std::string Text = Reg.toPrometheus();
  EXPECT_NE(Text.find("# HELP sxe_compiles_total Pipeline runs"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE sxe_compiles_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("sxe_compiles_total 2"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE sxe_compile_latency_seconds histogram"),
            std::string::npos);
  // Buckets are cumulative.
  EXPECT_NE(Text.find("sxe_compile_latency_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("sxe_compile_latency_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(Text.find("sxe_compile_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(Text.find("sxe_compile_latency_seconds_count 3"),
            std::string::npos);
  EXPECT_NE(Text.find("sxe_compile_latency_seconds_sum"), std::string::npos);
}

// --- Traces -------------------------------------------------------------------

TEST(Trace, ExportIsWellFormedAndSchemaTagged) {
  TraceCollector Trace;
  {
    TraceSpan Span(&Trace, "compile", "service");
    Span.arg("module", "m \"quoted\"\n");
  }
  uint64_t Now = wallNowNanos();
  Trace.addSpan("pass", "pass", Now, Now + 1500);
  Trace.nameThread("main");
  EXPECT_EQ(Trace.size(), 2u);
  EXPECT_EQ(Trace.threadTracks(), 1u);

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Trace.toJson(), Doc, Error)) << Error;
  const JsonValue *Other = Doc.find("otherData");
  ASSERT_NE(Other, nullptr);
  EXPECT_EQ(Other->stringField("schema"), kTraceSchema);
  const JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  // 2 "X" spans + 1 thread_name metadata event.
  ASSERT_EQ(Events->array().size(), 3u);
  unsigned Complete = 0, Meta = 0;
  for (const JsonValue &E : Events->array()) {
    if (E.stringField("ph") == "X")
      ++Complete;
    if (E.stringField("ph") == "M")
      ++Meta;
  }
  EXPECT_EQ(Complete, 2u);
  EXPECT_EQ(Meta, 1u);
}

TEST(Trace, NullCollectorSpanIsDisabled) {
  TraceSpan Span(nullptr, "noop", "service");
  Span.arg("ignored", "x"); // Must not crash.
}

TEST(Trace, PipelineRunEmitsOnePassSpanPerPass) {
  ParseResult Parsed = parseModule(loadCorpusSource("generated_small"));
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  TraceCollector Trace;
  PassManagerOptions Options;
  Options.Trace = &Trace;
  InstrumentedPipelineResult Result = runInstrumentedPipeline(
      *Parsed.M, PipelineConfig::forVariant(Variant::All), Options);
  ASSERT_TRUE(Result.Ok);
  EXPECT_EQ(Trace.size(), Result.Timings.size());
}

TEST(Trace, EightWorkerBatchHasMultipleThreadTracks) {
  TraceCollector Trace;
  MetricsRegistry Metrics;
  CompileServiceOptions Options;
  Options.Jobs = 8;
  Options.Trace = &Trace;
  Options.Metrics = &Metrics;
  CompileService Service(Options);
  std::vector<std::future<CompileResult>> Futures;
  // Enough jobs that at least two workers get one even under unlucky
  // scheduling: each worker blocks in a full pipeline run per job.
  for (unsigned Round = 0; Round < 8; ++Round)
    for (const char *Name : CorpusNames) {
      CompileRequest Request;
      Request.Name = std::string(Name) + "#" + std::to_string(Round);
      Request.Source = loadCorpusSource(Name);
      Request.Config = PipelineConfig::forVariant(Variant::All);
      Futures.push_back(Service.enqueue(std::move(Request)));
    }
  for (auto &Future : Futures)
    EXPECT_TRUE(Future.get().Ok);
  Service.shutdown();

  EXPECT_GE(Trace.threadTracks(), 2u);
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Trace.toJson(), Doc, Error)) << Error;
  EXPECT_EQ(Metrics.counter("sxe_compiles_total").value(), 24u);
  EXPECT_EQ(Metrics.histogram("sxe_compile_latency_seconds").count(), 24u);
}

// --- Remarks ------------------------------------------------------------------

TEST(Remarks, SerializationOmitsDefaultsAndEscapes) {
  Remark R;
  R.Pass = "elimination";
  R.Function = "f\"1\"";
  R.InstId = 7;
  R.Op = "sext32";
  R.Decision = RemarkDecision::Eliminated;
  R.Analysis = RemarkAnalysis::Use;
  std::string Line = remarkToJsonLine(R);
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Line, Doc, Error)) << Error;
  EXPECT_EQ(Doc.stringField("function"), "f\"1\"");
  EXPECT_EQ(Doc.stringField("decision"), "eliminated");
  EXPECT_EQ(Doc.stringField("analysis"), "use");
  EXPECT_EQ(Doc.find("count"), nullptr);    // Count == 1 omitted.
  EXPECT_EQ(Doc.find("theorem1"), nullptr); // zero omitted
  std::string Header = remarksHeaderLine();
  ASSERT_TRUE(parseJson(Header, Doc, Error)) << Error;
  EXPECT_EQ(Doc.stringField("schema"), kRemarksSchema);
}

TEST(Remarks, ParallelBatchMatchesSerialByteForByte) {
  std::string Serial = batchRemarks(/*Jobs=*/0, /*Cache=*/nullptr);
  std::string Parallel = batchRemarks(/*Jobs=*/8, /*Cache=*/nullptr);
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Parallel);
}

TEST(Remarks, CacheHitReplaysIdenticalRemarks) {
  CodeCache Cache;
  std::string Cold = batchRemarks(/*Jobs=*/2, &Cache);
  std::string Warm = batchRemarks(/*Jobs=*/2, &Cache);
  EXPECT_EQ(Cold, Warm);
  EXPECT_GT(Cache.stats().Hits, 0u);
}

TEST(Remarks, EliminationRemarksMatchStatsCounters) {
  ParseResult Parsed = parseModule(loadCorpusSource("generated_medium"));
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  PassManagerOptions Options;
  Options.CollectRemarks = true;
  InstrumentedPipelineResult Result = runInstrumentedPipeline(
      *Parsed.M, PipelineConfig::forVariant(Variant::All), Options);
  ASSERT_TRUE(Result.Ok);

  uint64_t Eliminated = 0, Retained = 0, T1 = 0, T2 = 0, T3 = 0, T4 = 0;
  for (const Remark &R : Result.Remarks.remarks()) {
    if (R.Pass != "elimination")
      continue;
    if (R.Decision == RemarkDecision::Eliminated)
      Eliminated += R.Count;
    if (R.Decision == RemarkDecision::Retained)
      Retained += R.Count;
    T1 += R.Theorem1;
    T2 += R.Theorem2;
    T3 += R.Theorem3;
    T4 += R.Theorem4;
  }
  const PassStats &Stats = Result.Stats;
  EXPECT_EQ(Eliminated, Stats.value("elimination", "sext_eliminated"));
  EXPECT_EQ(Eliminated + Retained, Stats.value("elimination", "analyzed"));
  EXPECT_EQ(T1, Stats.value("elimination", "theorem1_fired"));
  EXPECT_EQ(T2, Stats.value("elimination", "theorem2_fired"));
  EXPECT_EQ(T3, Stats.value("elimination", "theorem3_fired"));
  EXPECT_EQ(T4, Stats.value("elimination", "theorem4_fired"));
}

// --- Trace identity -----------------------------------------------------------

TEST(TraceContext, MintedIdsAreNonZeroAndDistinct) {
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    uint64_t Id = mintTraceId();
    EXPECT_NE(Id, 0u);
    Seen.insert(Id);
  }
  EXPECT_EQ(Seen.size(), 1000u);
}

TEST(TraceContext, HexFormRoundTrips) {
  uint64_t Id = 0x00c0ffee12345678ull;
  std::string Hex = traceIdHex(Id);
  EXPECT_EQ(Hex.size(), 16u);
  EXPECT_EQ(Hex, "00c0ffee12345678");
  uint64_t Back = 0;
  ASSERT_TRUE(parseTraceIdHex(Hex, Back));
  EXPECT_EQ(Back, Id);
  // Short forms parse; garbage does not and leaves Out untouched.
  ASSERT_TRUE(parseTraceIdHex("ff", Back));
  EXPECT_EQ(Back, 0xffu);
  uint64_t Untouched = 42;
  EXPECT_FALSE(parseTraceIdHex("", Untouched));
  EXPECT_FALSE(parseTraceIdHex("12g4", Untouched));
  EXPECT_EQ(Untouched, 42u);
}

// --- Event log ----------------------------------------------------------------

TEST(EventLog, JsonlExportIsSchemaTaggedAndParseable) {
  FlightRecorder Flight;
  EventLog Log(Flight, /*Retain=*/true);
  TraceContext Ctx;
  Ctx.TraceId = 0xabcdef0011223344ull;
  Ctx.RequestId = 7;
  Log.log(ObsEventKind::Admit, Ctx, "loop.sxir", {{"deadline_ms", "250"}});
  Log.log(ObsEventKind::CacheTier, Ctx, "loop.sxir", {{"tier", "memory"}},
          /*Aux=*/1);
  ASSERT_EQ(Log.size(), 2u);

  std::string Jsonl = Log.toJsonl();
  std::vector<std::string> Lines;
  std::istringstream In(Jsonl);
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 3u); // Header + two records.

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Lines[0], Doc, Error)) << Error;
  EXPECT_EQ(Doc.stringField("schema"), kEventsSchema);
  ASSERT_TRUE(parseJson(Lines[1], Doc, Error)) << Error;
  EXPECT_EQ(Doc.stringField("event"), "admit");
  EXPECT_EQ(Doc.stringField("trace_id"), "abcdef0011223344");
  EXPECT_EQ(Doc.stringField("name"), "loop.sxir");
  EXPECT_EQ(Doc.stringField("deadline_ms"), "250");
  ASSERT_TRUE(parseJson(Lines[2], Doc, Error)) << Error;
  EXPECT_EQ(Doc.stringField("event"), "cache_tier");
  EXPECT_EQ(Doc.stringField("tier"), "memory");
}

TEST(EventLog, MirrorsEveryAppendIntoFlightRecorder) {
  FlightRecorder Flight(8);
  EventLog Log(Flight, /*Retain=*/true);
  TraceContext Ctx;
  Ctx.TraceId = mintTraceId();
  Ctx.RequestId = 1;
  Log.log(ObsEventKind::Admit, Ctx, "m.sxir");
  Log.log(ObsEventKind::Reply, Ctx, "m.sxir", {}, /*Aux=*/0);
  EXPECT_EQ(Flight.recorded(), 2u);
  std::string Dump = Flight.dumpToString();
  EXPECT_NE(Dump.find("\"admit\""), std::string::npos);
  EXPECT_NE(Dump.find("\"reply\""), std::string::npos);
  EXPECT_NE(Dump.find(traceIdHex(Ctx.TraceId)), std::string::npos);
}

TEST(EventLog, WithoutRetainOnlyTheRingRecords) {
  FlightRecorder Flight(8);
  EventLog Log(Flight, /*Retain=*/false);
  TraceContext Ctx;
  Ctx.TraceId = mintTraceId();
  Ctx.RequestId = 1;
  Log.log(ObsEventKind::Admit, Ctx, "m.sxir", {{"deadline_ms", "250"}});
  Log.log(ObsEventKind::Reply, Ctx, "m.sxir", {{"status", "ok"}});
  EXPECT_EQ(Flight.recorded(), 2u);
  EXPECT_NE(Flight.dumpToString().find("\"reply\""), std::string::npos);
  EXPECT_EQ(Log.size(), 0u);
  EXPECT_EQ(Log.toJsonl(),
            std::string("{\"schema\": \"") + kEventsSchema + "\"}\n");
}

// --- Flight recorder ----------------------------------------------------------

TEST(FlightRecorder, RingWrapsKeepingTheMostRecentRecords) {
  FlightRecorder Flight(8);
  EXPECT_EQ(Flight.capacity(), 8u);
  for (uint64_t I = 0; I < 20; ++I)
    Flight.record(ObsEventKind::Admit, /*Nanos=*/I, /*TraceId=*/I + 1,
                  /*RequestId=*/I, ("m" + std::to_string(I)).c_str());
  EXPECT_EQ(Flight.recorded(), 20u);

  std::string Dump = Flight.dumpToString();
  std::vector<std::string> Lines;
  std::istringstream In(Dump);
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 9u); // Header + one line per live slot.

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Lines[0], Doc, Error)) << Error;
  EXPECT_EQ(Doc.stringField("schema"), kFlightSchema);

  // The 8 surviving records are exactly the most recent ones (seq 12..19).
  std::set<uint64_t> Seqs;
  for (size_t I = 1; I < Lines.size(); ++I) {
    ASSERT_TRUE(parseJson(Lines[I], Doc, Error)) << Lines[I];
    const JsonValue *Seq = Doc.find("seq");
    ASSERT_NE(Seq, nullptr);
    Seqs.insert(static_cast<uint64_t>(Seq->numberValue()));
  }
  ASSERT_EQ(Seqs.size(), 8u);
  EXPECT_EQ(*Seqs.begin(), 12u);
  EXPECT_EQ(*Seqs.rbegin(), 19u);
}

TEST(FlightRecorder, HostileNamesAreSanitizedAtRecordTime) {
  FlightRecorder Flight(8);
  Flight.record(ObsEventKind::Admit, 1, 1, 1, "evil\"name\\with\nctrl");
  std::string Dump = Flight.dumpToString();
  std::istringstream In(Dump);
  JsonValue Doc;
  std::string Error;
  for (std::string Line; std::getline(In, Line);) {
    if (!Line.empty()) {
      ASSERT_TRUE(parseJson(Line, Doc, Error)) << Line << ": " << Error;
    }
  }
}

TEST(FlightRecorder, FatalSignalHandlerWritesParseableDump) {
  std::string Path = testing::TempDir() + "sxe_flight_sigsegv.jsonl";
  ::unlink(Path.c_str());

  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Child: arm the handler, record traffic, then crash for real.
    FlightRecorder Flight(16);
    installFlightDumpOnFatalSignals(&Flight, Path);
    TraceContext Ctx;
    Ctx.TraceId = 0x1122334455667788ull;
    Ctx.RequestId = 3;
    Flight.record(ObsEventKind::DaemonStart, 1, 0, 0, "sock");
    Flight.record(ObsEventKind::Admit, 2, Ctx.TraceId, Ctx.RequestId,
                  "crash.sxir");
    ::raise(SIGSEGV);
    ::_exit(0); // Unreachable; the handler re-raises with SIG_DFL.
  }

  int WaitStatus = 0;
  ASSERT_EQ(::waitpid(Child, &WaitStatus, 0), Child);
  // The handler re-raises, so the child still dies with the signal.
  ASSERT_TRUE(WIFSIGNALED(WaitStatus));
  EXPECT_EQ(WTERMSIG(WaitStatus), SIGSEGV);

  std::ifstream In(Path);
  ASSERT_TRUE(static_cast<bool>(In)) << Path;
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 3u); // Header + two records.

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Lines[0], Doc, Error)) << Error;
  EXPECT_EQ(Doc.stringField("schema"), kFlightSchema);
  ASSERT_TRUE(parseJson(Lines[2], Doc, Error)) << Error;
  EXPECT_EQ(Doc.stringField("event"), "admit");
  EXPECT_EQ(Doc.stringField("trace_id"), "1122334455667788");
  EXPECT_EQ(Doc.stringField("name"), "crash.sxir");
  ::unlink(Path.c_str());
}

// --- Exemplars and build identity ---------------------------------------------

TEST(Metrics, HistogramExemplarsAppearInJsonButNotPrometheus) {
  MetricsRegistry Reg;
  Histogram &H =
      Reg.histogram("sxe_compile_latency_seconds", "latency", {0.001, 0.01});
  uint64_t Id = 0xfeedface01020304ull;
  H.observe(0.0005, Id);   // Bucket 0 exemplar.
  H.observe(0.005);        // No exemplar for bucket 1.
  H.observe(99.0, Id + 1); // Overflow-bucket exemplar.
  EXPECT_EQ(H.exemplarTraceId(0), Id);
  EXPECT_EQ(H.exemplarTraceId(1), 0u);
  EXPECT_EQ(H.exemplarTraceId(2), Id + 1);

  std::string Json = Reg.toJson();
  EXPECT_NE(Json.find("\"exemplar_trace_id\": \"feedface01020304\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"inf_exemplar_trace_id\": \"feedface01020305\""),
            std::string::npos);
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Json, Doc, Error)) << Error;

  // The text exposition stays plain Prometheus: no exemplars.
  std::string Prom = Reg.toPrometheus();
  EXPECT_EQ(Prom.find("feedface"), std::string::npos);
  EXPECT_NE(Prom.find("sxe_compile_latency_seconds_bucket"),
            std::string::npos);
}

TEST(Metrics, BuildInfoAndUptimeExportInBothFormats) {
  MetricsRegistry Reg;
  Gauge &Uptime = registerBuildInfoMetrics(Reg);
  Uptime.set(42);

  ASSERT_NE(buildVersion(), nullptr);
  ASSERT_NE(buildGitSha(), nullptr);
  ASSERT_NE(buildTargetLabel(), nullptr);
  EXPECT_GT(std::string(buildVersion()).size(), 0u);

  std::string Prom = Reg.toPrometheus();
  std::string InfoSeries = std::string("sxe_build_info{version=\"") +
                           buildVersion() + "\",git_sha=\"" + buildGitSha() +
                           "\",target=\"" + buildTargetLabel() + "\"} 1";
  EXPECT_NE(Prom.find(InfoSeries), std::string::npos) << Prom;
  EXPECT_NE(Prom.find("sxe_uptime_seconds 42"), std::string::npos);

  std::string Json = Reg.toJson();
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Json, Doc, Error)) << Error;
  EXPECT_EQ(Doc.stringField("schema"), kMetricsSchema);
  EXPECT_NE(Json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(Json.find("\"sxe_build_info\""), std::string::npos);
}

} // namespace
