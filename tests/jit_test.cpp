//===- tests/jit_test.cpp - Compile service, code cache, tiering ----------------===//
//
// Locks the jit/ subsystem's contracts:
//
//   - support/IRHash is structural: stable across clones and cosmetic
//     renames, different for different programs;
//   - the code-cache key separates targets, configurations, and
//     profiles — no false hits — and the sharded LRU evicts correctly;
//   - the compile service is deterministic: compiling the pinned corpus
//     with 8 workers produces byte-identical IR and identical
//     sext_eliminated counts to the serial (jobs=0) run;
//   - worker shutdown is graceful (every accepted future resolves);
//   - a repeated source is served at enqueue by its source key (no queue
//     hop, no parse), never aliases another configuration, and is
//     refused after shutdown like any other request;
//   - the tiered controller closes the interpret -> profile -> recompile
//     loop with a real interpreter profile;
//   - PassStats::merge and the Timer thread-CPU clock behave (the two
//     concurrency satellites).
//
//===-----------------------------------------------------------------------------===//

#include "codegen/NativeEngine.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "jit/CodeCache.h"
#include "jit/CompileQueue.h"
#include "jit/CompileService.h"
#include "jit/TieredController.h"
#include "parser/Parser.h"
#include "pm/InstrumentedPipeline.h"
#include "obs/TraceContext.h"
#include "support/IRHash.h"
#include "support/Json.h"
#include "support/Timer.h"
#include "tests/TestHelpers.h"

#include <chrono>
#include <fstream>
#include <set>
#include <thread>
#include <sstream>
#include <gtest/gtest.h>

using namespace sxe;

namespace {

/// A tiny two-function module with a W32 add feeding an array load (so
/// the pipeline has an extension to reason about).
std::unique_ptr<Module> buildSmallModule(const char *ModuleName = "small",
                                         int32_t Bias = 1) {
  auto M = std::make_unique<Module>(ModuleName);
  Function *F = M->createFunction("kernel", Type::I32);
  Reg A = F->addParam(Type::ArrayRef, "a");
  Reg I = F->addParam(Type::I32, "i");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg T = B.add32(I, B.constI32(Bias), "t");
  Reg V = B.arrayLoad(Type::I32, A, T, "v");
  B.ret(V);

  Function *Main = M->createFunction("main", Type::I32);
  IRBuilder MB(Main);
  MB.startBlock("entry");
  Reg Arr = MB.newArray(Type::I32, MB.constI32(64), "arr");
  Reg R = Main->newReg(Type::I32, "r");
  MB.callTo(R, F, {Arr, MB.constI32(3)});
  MB.ret(R);
  return M;
}

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

/// \p Text with every occurrence of \p From replaced by \p To.
std::string replaceAll(std::string Text, const std::string &From,
                       const std::string &To) {
  for (size_t Pos = Text.find(From); Pos != std::string::npos;
       Pos = Text.find(From, Pos + To.size()))
    Text.replace(Pos, From.size(), To);
  return Text;
}

/// A source request for \p Source under \p Config, traced as \p TraceId.
CompileRequest sourceRequest(const std::string &Source, uint64_t TraceId,
                             const PipelineConfig &Config =
                                 PipelineConfig::forVariant(Variant::All)) {
  CompileRequest Request;
  Request.Name = "src" + std::to_string(TraceId);
  Request.Source = Source;
  Request.Config = Config;
  Request.TraceId = TraceId;
  return Request;
}

/// Names of the spans in \p Trace whose args carry \p TraceId, with
/// multiplicity.
std::multiset<std::string> spansOf(const TraceCollector &Trace,
                                   uint64_t TraceId) {
  JsonValue Doc;
  std::string Error;
  EXPECT_TRUE(parseJson(Trace.toJson(), Doc, Error)) << Error;
  std::multiset<std::string> Names;
  if (const JsonValue *Events = Doc.find("traceEvents"))
    for (const JsonValue &Event : Events->array()) {
      const JsonValue *Args = Event.find("args");
      if (Event.stringField("ph") == "X" && Args &&
          Args->stringField("trace_id") == traceIdHex(TraceId))
        Names.insert(Event.stringField("name"));
    }
  return Names;
}

} // namespace

//===----------------------------------------------------------------------===//
// support/IRHash
//===----------------------------------------------------------------------===//

TEST(IRHash, StableAcrossCloneAndCosmeticNames) {
  auto M = buildSmallModule();
  uint64_t H = hashModule(*M);

  // A deep clone is structurally identical.
  auto Clone = cloneModule(*M);
  EXPECT_EQ(H, hashModule(*Clone));

  // The module name is cosmetic.
  auto Renamed = buildSmallModule("completely-different-name");
  EXPECT_EQ(H, hashModule(*Renamed));

  // A print/parse round trip loses register display names but not
  // structure.
  ParseResult Reparsed = parseModule(printModule(*M));
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.Error;
  EXPECT_EQ(H, hashModule(*Reparsed.M));
}

TEST(IRHash, SensitiveToProgramChanges) {
  auto M = buildSmallModule();
  auto Different = buildSmallModule("small", /*Bias=*/2);
  EXPECT_NE(hashModule(*M), hashModule(*Different));

  // Hash changes when a function is appended.
  auto Extended = cloneModule(*M);
  Function *Extra = Extended->createFunction("extra", Type::I32);
  IRBuilder B(Extra);
  B.startBlock("entry");
  B.ret(B.constI32(7));
  EXPECT_NE(hashModule(*M), hashModule(*Extended));
}

TEST(IRHash, FunctionHashIgnoresSiblings) {
  auto M = buildSmallModule();
  uint64_t FnHash = hashFunction(*M->findFunction("kernel"));
  auto Clone = cloneModule(*M);
  EXPECT_EQ(FnHash, hashFunction(*Clone->findFunction("kernel")));
}

//===----------------------------------------------------------------------===//
// Cache keys
//===----------------------------------------------------------------------===//

TEST(CodeCacheKey, SeparatesTargetsConfigsAndProfiles) {
  auto M = buildSmallModule();
  uint64_t H = hashModule(*M);

  PipelineConfig Ia64 = PipelineConfig::forVariant(Variant::All);
  PipelineConfig Ppc64 =
      PipelineConfig::forVariant(Variant::All, TargetInfo::ppc64());
  PipelineConfig Baseline = PipelineConfig::forVariant(Variant::Baseline);
  EXPECT_NE(codeCacheKey(H, Ia64), codeCacheKey(H, Ppc64));
  EXPECT_NE(codeCacheKey(H, Ia64), codeCacheKey(H, Baseline));

  // Same config, different module content.
  auto Different = buildSmallModule("small", /*Bias=*/5);
  EXPECT_NE(codeCacheKey(H, Ia64),
            codeCacheKey(hashModule(*Different), Ia64));

  // A profile changes the key; a *different* profile changes it again.
  ProfileInfo Profile;
  Instruction *SomeBranch = nullptr;
  for (const auto &BB : M->findFunction("kernel")->blocks())
    for (Instruction &Inst : *BB)
      if (!SomeBranch)
        SomeBranch = &Inst;
  ASSERT_NE(SomeBranch, nullptr);
  PipelineConfig WithProfile = Ia64;
  WithProfile.Profile = &Profile;
  // Empty profile fingerprints differently from "no profile"? No: an
  // empty profile hashes like the FNV basis, and that is fine as long as
  // recorded data changes the key.
  std::string EmptyKey = codeCacheKey(H, WithProfile);
  Profile.recordBranch(SomeBranch, true);
  EXPECT_NE(EmptyKey, codeCacheKey(H, WithProfile));
}

//===----------------------------------------------------------------------===//
// CodeCache
//===----------------------------------------------------------------------===//

TEST(CodeCache, LruEvictionWithinShard) {
  CodeCacheOptions Options;
  Options.MaxEntries = 2;
  Options.Shards = 1; // Single shard so capacity is exact.
  CodeCache Cache(Options);

  auto CodeOf = [](const char *Text) {
    auto Code = std::make_shared<CompiledCode>();
    Code->IRText = Text;
    return Code;
  };
  Cache.insert("k1", CodeOf("one"));
  Cache.insert("k2", CodeOf("two"));
  ASSERT_TRUE(Cache.contains("k1"));
  // Touch k1 so k2 becomes least recently used.
  EXPECT_NE(Cache.lookup("k1"), nullptr);
  Cache.insert("k3", CodeOf("three"));

  EXPECT_TRUE(Cache.contains("k1"));
  EXPECT_FALSE(Cache.contains("k2"));
  EXPECT_TRUE(Cache.contains("k3"));

  CodeCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Evictions, 1u);
  EXPECT_EQ(Stats.Insertions, 3u);
  EXPECT_EQ(Stats.Entries, 2u);
}

TEST(CodeCache, CountsHitsAndMisses) {
  CodeCache Cache;
  EXPECT_EQ(Cache.lookup("absent"), nullptr);
  auto Code = std::make_shared<CompiledCode>();
  Cache.insert("present", Code);
  EXPECT_EQ(Cache.lookup("present"), Code);
  CodeCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
}

TEST(CodeCache, NoFalseHitsAcrossTargets) {
  CodeCache Cache;
  CompileServiceOptions Options;
  Options.Jobs = 0; // Deterministic inline mode.
  Options.Cache = &Cache;
  CompileService Service(Options);

  for (const TargetInfo *Target :
       {&TargetInfo::ia64(), &TargetInfo::ppc64()}) {
    CompileRequest Request;
    Request.Name = Target->name();
    Request.M = buildSmallModule();
    Request.Config = PipelineConfig::forVariant(Variant::All, *Target);
    CompileResult Result = Service.enqueue(std::move(Request)).get();
    ASSERT_TRUE(Result.Ok) << Result.Error;
    EXPECT_FALSE(Result.CacheHit);
  }
  CodeCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_EQ(Stats.Misses, 2u);
}

TEST(CodeCache, HitOnRecompileIsByteIdentical) {
  CodeCache Cache;
  CompileServiceOptions Options;
  Options.Jobs = 0;
  Options.Cache = &Cache;
  CompileService Service(Options);

  auto Submit = [&Service] {
    CompileRequest Request;
    Request.Name = "same";
    Request.M = buildSmallModule();
    Request.Config = PipelineConfig::forVariant(Variant::All);
    return Service.enqueue(std::move(Request)).get();
  };
  CompileResult First = Submit();
  CompileResult Again = Submit();
  ASSERT_TRUE(First.Ok && Again.Ok);
  EXPECT_FALSE(First.CacheHit);
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(First.Code->IRText, Again.Code->IRText);
  EXPECT_EQ(First.Code->Stats.total("sext_eliminated"),
            Again.Code->Stats.total("sext_eliminated"));
  EXPECT_EQ(Service.stats().CacheHits, 1u);
  EXPECT_EQ(Service.stats().Compiled, 1u);
}

//===----------------------------------------------------------------------===//
// CompileQueue
//===----------------------------------------------------------------------===//

TEST(CompileQueue, ServesHottestFirstWithFifoTies) {
  CompileQueue Queue;
  auto Push = [&Queue](const char *Name, double Hotness) {
    auto Job = std::make_unique<QueuedCompile>();
    Job->Request.Name = Name;
    Job->Request.Hotness = Hotness;
    ASSERT_TRUE(Queue.push(Job));
  };
  Push("cold", 1.0);
  Push("hot", 5.0);
  Push("warm-a", 3.0);
  Push("warm-b", 3.0);

  EXPECT_EQ(Queue.pop()->Request.Name, "hot");
  EXPECT_EQ(Queue.pop()->Request.Name, "warm-a"); // FIFO among equals.
  EXPECT_EQ(Queue.pop()->Request.Name, "warm-b");
  EXPECT_EQ(Queue.pop()->Request.Name, "cold");
  EXPECT_EQ(Queue.tryPop(), nullptr);
}

TEST(CompileQueue, CloseDrainsThenReturnsNull) {
  CompileQueue Queue;
  auto Job = std::make_unique<QueuedCompile>();
  Job->Request.Name = "pending";
  ASSERT_TRUE(Queue.push(Job));
  Queue.close();

  // Push after close is refused and ownership stays with the caller.
  auto Late = std::make_unique<QueuedCompile>();
  EXPECT_FALSE(Queue.push(Late));
  EXPECT_NE(Late, nullptr);

  EXPECT_EQ(Queue.pop()->Request.Name, "pending");
  EXPECT_EQ(Queue.pop(), nullptr);
}

//===----------------------------------------------------------------------===//
// CompileService
//===----------------------------------------------------------------------===//

TEST(CompileService, ParallelRunMatchesSerialByteForByte) {
  // Serial reference: jobs=0, no cache.
  std::map<std::string, std::string> SerialIR;
  std::map<std::string, uint64_t> SerialEliminated;
  {
    CompileServiceOptions Options;
    Options.Jobs = 0;
    CompileService Service(Options);
    for (const char *Name : CorpusNames) {
      CompileRequest Request;
      Request.Name = Name;
      Request.Source = loadCorpusSource(Name);
      Request.Config = PipelineConfig::forVariant(Variant::All);
      CompileResult Result = Service.enqueue(std::move(Request)).get();
      ASSERT_TRUE(Result.Ok) << Name << ": " << Result.Error;
      SerialIR[Name] = Result.Code->IRText;
      SerialEliminated[Name] = Result.Code->Stats.total("sext_eliminated");
    }
  }

  // Parallel run: 8 workers, shared cache, every module submitted twice
  // (the second submissions exercise concurrent hit/recompile paths).
  CodeCache Cache;
  CompileServiceOptions Options;
  Options.Jobs = 8;
  Options.Cache = &Cache;
  CompileService Service(Options);
  std::vector<std::future<CompileResult>> Futures;
  for (unsigned Round = 0; Round < 2; ++Round) {
    for (const char *Name : CorpusNames) {
      CompileRequest Request;
      Request.Name = Name;
      Request.Source = loadCorpusSource(Name);
      Request.Config = PipelineConfig::forVariant(Variant::All);
      Request.Hotness = static_cast<double>(Request.Source.size());
      Futures.push_back(Service.enqueue(std::move(Request)));
    }
  }
  for (auto &Future : Futures) {
    CompileResult Result = Future.get();
    ASSERT_TRUE(Result.Ok) << Result.Name << ": " << Result.Error;
    EXPECT_EQ(Result.Code->IRText, SerialIR[Result.Name])
        << Result.Name << ": parallel IR differs from serial";
    EXPECT_EQ(Result.Code->Stats.total("sext_eliminated"),
              SerialEliminated[Result.Name])
        << Result.Name;
  }
}

TEST(CompileService, GracefulShutdownResolvesEveryFuture) {
  CompileServiceOptions Options;
  Options.Jobs = 2;
  CompileService Service(Options);
  std::vector<std::future<CompileResult>> Futures;
  for (unsigned Index = 0; Index < 16; ++Index) {
    CompileRequest Request;
    Request.Name = "job" + std::to_string(Index);
    Request.M = buildSmallModule("m", static_cast<int32_t>(Index));
    Request.Config = PipelineConfig::forVariant(Variant::All);
    Futures.push_back(Service.enqueue(std::move(Request)));
  }
  Service.shutdown(); // Queued work still drains.
  for (auto &Future : Futures)
    EXPECT_TRUE(Future.get().Ok);
  EXPECT_EQ(Service.stats().Compiled, 16u);
}

TEST(CompileService, EnqueueAfterShutdownIsRefusedNotHung) {
  CompileServiceOptions Options;
  Options.Jobs = 1;
  CompileService Service(Options);
  Service.shutdown();
  CompileRequest Request;
  Request.Name = "late";
  Request.M = buildSmallModule();
  Request.Config = PipelineConfig::forVariant(Variant::All);
  CompileResult Result = Service.enqueue(std::move(Request)).get();
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("shut down"), std::string::npos);
}

TEST(CompileService, ReportsParseFailures) {
  MetricsRegistry Metrics;
  CompileServiceOptions Options;
  Options.Jobs = 0;
  Options.Metrics = &Metrics;
  CompileService Service(Options);
  CompileRequest Request;
  Request.Name = "broken";
  Request.Source = "this is not sxir";
  Request.Config = PipelineConfig::forVariant(Variant::All);
  CompileResult Result = Service.enqueue(std::move(Request)).get();
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("parse error"), std::string::npos);
  EXPECT_EQ(Service.stats().Failed, 1u);
  EXPECT_EQ(Metrics.counter("sxe_compile_failures_total").value(), 1u);
}

TEST(CompileService, AggregateStatsSumPerRunCounters) {
  CompileServiceOptions Options;
  Options.Jobs = 0;
  CompileService Service(Options);
  uint64_t Sum = 0;
  for (int32_t Bias = 1; Bias <= 3; ++Bias) {
    CompileRequest Request;
    Request.Name = "m" + std::to_string(Bias);
    Request.M = buildSmallModule("m", Bias);
    Request.Config = PipelineConfig::forVariant(Variant::All);
    CompileResult Result = Service.enqueue(std::move(Request)).get();
    ASSERT_TRUE(Result.Ok);
    Sum += Result.Code->Stats.total("sext_eliminated");
  }
  CompileServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Aggregate.total("sext_eliminated"), Sum);
  EXPECT_EQ(Stats.Submitted, 3u);
  // Service counters surface as pseudo-passes in the pass-stats
  // vocabulary (docs/OBSERVABILITY.md).
  EXPECT_EQ(Stats.Aggregate.value("compile-service", "compiled"), 3u);
  EXPECT_EQ(Stats.Aggregate.value("compile-service", "submitted"), 3u);
}

//===----------------------------------------------------------------------===//
// Source-key probe at enqueue
//===----------------------------------------------------------------------===//

TEST(SourceKeyProbe, RepeatedSourceIsServedAtEnqueue) {
  std::string Source = loadCorpusSource("generated_small");
  for (unsigned Jobs : {0u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    CodeCache Cache;
    TraceCollector Trace;
    CompileServiceOptions Options;
    Options.Jobs = Jobs;
    Options.Cache = &Cache;
    Options.Trace = &Trace;
    CompileService Service(Options);

    CompileResult First = Service.enqueue(sourceRequest(Source, 1)).get();
    std::future<CompileResult> Future =
        Service.enqueue(sourceRequest(Source, 2));
    // No queue hop: the hit is resolved before enqueue returns.
    ASSERT_EQ(std::future_status::ready,
              Future.wait_for(std::chrono::seconds(0)));
    CompileResult Second = Future.get();

    ASSERT_TRUE(First.Ok && Second.Ok) << First.Error << Second.Error;
    EXPECT_FALSE(First.CacheHit);
    EXPECT_TRUE(Second.CacheHit);
    EXPECT_EQ(First.Code.get(), Second.Code.get());
    EXPECT_EQ(0u, Second.QueueWaitNanos);

    std::multiset<std::string> Spans = spansOf(Trace, 2);
    EXPECT_EQ(0u, Spans.count("queue-wait"));
    EXPECT_EQ(1u, Spans.count("cache-probe"));
    EXPECT_EQ(0u, Spans.count("compile"));

    CompileServiceStats Stats = Service.stats();
    EXPECT_EQ(2u, Stats.Submitted);
    EXPECT_EQ(1u, Stats.Compiled);
    EXPECT_EQ(1u, Stats.CacheHits);
    // First: source miss + structural miss; second: one source hit. The
    // structural key and the source alias are two entries.
    CodeCacheStats CacheStats = Cache.stats();
    EXPECT_EQ(1u, CacheStats.Hits);
    EXPECT_EQ(2u, CacheStats.Misses);
    EXPECT_EQ(2u, CacheStats.Entries);
  }
}

TEST(SourceKeyProbe, NeverAliasesAcrossTargetsVariantsOrProfiles) {
  std::string Source = loadCorpusSource("generated_small");
  ParseResult Parsed = parseModule(Source);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  ProfileInfo Profile;
  for (const Instruction &Inst :
       *Parsed.M->findFunction("main")->blocks().front()) {
    Profile.recordBranch(&Inst, true);
    break;
  }
  ASSERT_FALSE(Profile.empty());
  PipelineConfig Profiled = PipelineConfig::forVariant(Variant::All);
  Profiled.Profile = &Profile;
  const PipelineConfig Configs[] = {
      PipelineConfig::forVariant(Variant::All),
      PipelineConfig::forVariant(Variant::All, TargetInfo::ppc64()),
      PipelineConfig::forVariant(Variant::Baseline), Profiled};

  std::set<std::string> Keys;
  for (const PipelineConfig &Config : Configs) {
    std::string Key = codeCacheSourceKey(Source, Config);
    EXPECT_EQ(0u, Key.rfind("src:", 0)) << Key;
    Keys.insert(Key);
  }
  EXPECT_EQ(4u, Keys.size());
  // The tag keeps a source key from ever equalling a structural key.
  EXPECT_NE(codeCacheSourceKey(Source, Configs[0]),
            codeCacheKey(hashModule(*Parsed.M), Configs[0]));

  CodeCache Cache;
  CompileServiceOptions Options;
  Options.Jobs = 0;
  Options.Cache = &Cache;
  CompileService Service(Options);
  std::vector<std::shared_ptr<const CompiledCode>> Artifacts;
  uint64_t TraceId = 1;
  for (const PipelineConfig &Config : Configs) {
    CompileResult Result =
        Service.enqueue(sourceRequest(Source, TraceId++, Config)).get();
    ASSERT_TRUE(Result.Ok) << Result.Error;
    EXPECT_FALSE(Result.CacheHit) << "aliased another configuration";
    Artifacts.push_back(Result.Code);
  }
  for (size_t Index = 0; Index < 4; ++Index) {
    CompileResult Again =
        Service.enqueue(sourceRequest(Source, TraceId++, Configs[Index])).get();
    ASSERT_TRUE(Again.Ok) << Again.Error;
    EXPECT_TRUE(Again.CacheHit);
    EXPECT_EQ(Artifacts[Index].get(), Again.Code.get()) << "config " << Index;
  }
  EXPECT_EQ(4u, Service.stats().Compiled);
}

TEST(SourceKeyProbe, CosmeticVariantHitsStructurallyThenBySource) {
  std::string Source = loadCorpusSource("generated_small");
  std::string Renamed = replaceAll(Source, "%lcg.", "%rng.");
  ASSERT_NE(Source, Renamed);

  CodeCache Cache;
  CompileServiceOptions Options;
  Options.Jobs = 2;
  Options.Cache = &Cache;
  CompileService Service(Options);
  CompileResult First = Service.enqueue(sourceRequest(Source, 1)).get();
  ASSERT_TRUE(First.Ok) << First.Error;

  // Second: a source-key miss, then a structural hit on the same bytes.
  CodeCacheStats Before = Cache.stats();
  CompileResult Cosmetic = Service.enqueue(sourceRequest(Renamed, 2)).get();
  CodeCacheStats After = Cache.stats();
  ASSERT_TRUE(Cosmetic.Ok) << Cosmetic.Error;
  EXPECT_TRUE(Cosmetic.CacheHit);
  EXPECT_EQ(First.Code.get(), Cosmetic.Code.get());
  EXPECT_EQ(First.Code->IRText, Cosmetic.Code->IRText);
  EXPECT_EQ(1u, After.Misses - Before.Misses);
  EXPECT_EQ(1u, After.Hits - Before.Hits);
  EXPECT_EQ(3u, After.Entries); // Structural key plus two source aliases.

  // Third: the renamed source now hits its own alias at enqueue.
  std::future<CompileResult> Future =
      Service.enqueue(sourceRequest(Renamed, 3));
  ASSERT_EQ(std::future_status::ready,
            Future.wait_for(std::chrono::seconds(0)));
  CompileResult Third = Future.get();
  CodeCacheStats Last = Cache.stats();
  EXPECT_TRUE(Third.CacheHit);
  EXPECT_EQ(First.Code.get(), Third.Code.get());
  EXPECT_EQ(0u, Last.Misses - After.Misses);
  EXPECT_EQ(1u, Last.Hits - After.Hits);
  EXPECT_EQ(1u, Service.stats().Compiled);
}

TEST(SourceKeyProbe, CachedSourceAfterShutdownIsRefused) {
  std::string Source = loadCorpusSource("generated_small");
  for (unsigned Jobs : {0u, 1u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    CodeCache Cache;
    MetricsRegistry Metrics;
    CompileServiceOptions Options;
    Options.Jobs = Jobs;
    Options.Cache = &Cache;
    Options.Metrics = &Metrics;
    CompileService Service(Options);
    ASSERT_TRUE(Service.enqueue(sourceRequest(Source, 1)).get().Ok);
    Service.shutdown();

    CompileResult Late = Service.enqueue(sourceRequest(Source, 2)).get();
    EXPECT_FALSE(Late.Ok);
    EXPECT_TRUE(Late.Rejected);
    EXPECT_EQ(nullptr, Late.Code);
    CompileServiceStats Stats = Service.stats();
    EXPECT_EQ(1u, Stats.Rejected);
    EXPECT_EQ(0u, Stats.CacheHits);
    EXPECT_EQ(1u, Metrics.counter("sxe_rejects_total").value());
    EXPECT_EQ(0u, Metrics.counter("sxe_cache_hits_total").value());
  }
}

TEST(SourceKeyProbe, ConcurrentHitsKeepCountersExact) {
  // Hits now run on the submitting threads; the relaxed-atomic counters
  // must still add up exactly once everything has resolved.
  std::string Source = loadCorpusSource("generated_small");
  CodeCache Cache;
  CompileServiceOptions Options;
  Options.Jobs = 2;
  Options.Cache = &Cache;
  CompileService Service(Options);
  const unsigned Threads = 4, PerThread = 50;
  std::vector<std::thread> Submitters;
  std::atomic<unsigned> Bad{0};
  for (unsigned T = 0; T < Threads; ++T)
    Submitters.emplace_back([&, T] {
      for (unsigned N = 0; N < PerThread; ++N) {
        CompileResult R =
            Service.enqueue(sourceRequest(Source, 1 + T * PerThread + N))
                .get();
        if (!R.Ok || !R.Code)
          ++Bad;
      }
    });
  for (std::thread &T : Submitters)
    T.join();
  EXPECT_EQ(0u, Bad.load());
  CompileServiceStats Stats = Service.stats();
  EXPECT_EQ(Threads * PerThread, Stats.Submitted);
  EXPECT_EQ(Threads * PerThread, Stats.Compiled + Stats.CacheHits);
  EXPECT_GE(Stats.Compiled, 1u);
  EXPECT_EQ(Stats.Compiled, Stats.Aggregate.value("compile-service",
                                                   "compiled"));
}

//===----------------------------------------------------------------------===//
// TieredController
//===----------------------------------------------------------------------===//

TEST(TieredController, ClosesTheMixedModeLoop) {
  auto M = buildSmallModule();
  CodeCache Cache;
  CompileServiceOptions Options;
  Options.Jobs = 2;
  Options.Cache = &Cache;
  CompileService Service(Options);

  TieredController Controller(Service);
  TieredOutcome Outcome = Controller.run(*M);

  EXPECT_TRUE(Outcome.Warmup.ok());
  ASSERT_TRUE(Outcome.Unprofiled.Ok) << Outcome.Unprofiled.Error;
  ASSERT_TRUE(Outcome.Profiled.Ok) << Outcome.Profiled.Error;

  // Both tiers produce verifying modules.
  ParseResult Reparsed = parseModule(Outcome.Profiled.Code->IRText);
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.Error;
  EXPECT_TRUE(test::moduleVerifies(*Reparsed.M, /*AllowDummies=*/false));
}

TEST(TieredController, ExecutesRecompiledCodeNatively) {
  if (!NativeModule::hostSupported())
    GTEST_SKIP() << "host cannot execute emitted x86-64 code";

  auto M = buildSmallModule();
  CodeCache Cache;
  CompileServiceOptions SvcOptions;
  SvcOptions.Jobs = 2;
  SvcOptions.Cache = &Cache;
  CompileService Service(SvcOptions);

  TieredOptions Options;
  Options.Target = &TargetInfo::x86_64();
  TieredController Controller(Service, Options);
  TieredOutcome Outcome = Controller.run(*M);

  ASSERT_TRUE(Outcome.Profiled.Ok) << Outcome.Profiled.Error;
  ASSERT_TRUE(Outcome.NativeExecuted);
  // The natively executed tier-2 code agrees with the tier-0 warm-up.
  EXPECT_EQ(Outcome.Native.Trap, Outcome.Warmup.Trap);
  if (Outcome.Warmup.ok())
    EXPECT_EQ(Outcome.Native.ReturnValue, Outcome.Warmup.ReturnValue);
}

TEST(TieredController, ProfiledRecompileHasItsOwnCacheEntry) {
  // The diamond from examples/profile_guided: its branches actually
  // execute, so the warm-up records a non-empty profile and the tier-2
  // key must differ from tier 1's.
  auto M = std::make_unique<Module>("looped");
  Function *F = M->createFunction("main", Type::I32);
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Arr = B.newArray(Type::I32, B.constI32(128), "arr");
  Reg I = F->newReg(Type::I32, "i");
  B.copyTo(I, B.constI32(0));
  Reg Sum = F->newReg(Type::I32, "sum");
  B.copyTo(Sum, B.constI32(0));
  BasicBlock *Head = F->createBlock("head");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.jmp(Head);
  B.setBlock(Head);
  Reg InLoop = B.cmp32(CmpPred::SLT, I, B.constI32(100));
  B.br(InLoop, Body, Exit);
  B.setBlock(Body);
  Reg V = B.arrayLoad(Type::I32, Arr, I, "v");
  B.binopTo(Sum, Opcode::Add, Width::W32, Sum, V);
  B.binopTo(I, Opcode::Add, Width::W32, I, B.constI32(1));
  B.jmp(Head);
  B.setBlock(Exit);
  B.ret(Sum);

  CodeCache Cache;
  CompileServiceOptions Options;
  Options.Jobs = 0; // Inline: exact counter accounting.
  Options.Cache = &Cache;
  CompileService Service(Options);

  TieredController Controller(Service);
  TieredOutcome Outcome = Controller.run(*M);
  ASSERT_TRUE(Outcome.Warmup.ok());
  EXPECT_TRUE(Outcome.ProfileCollected);
  ASSERT_TRUE(Outcome.Unprofiled.Ok);
  ASSERT_TRUE(Outcome.Profiled.Ok);

  // Two distinct compiles, zero false cache hits between tiers.
  EXPECT_FALSE(Outcome.Profiled.CacheHit);
  EXPECT_EQ(Service.stats().Compiled, 2u);
  EXPECT_EQ(Cache.stats().Entries, 2u);

  // Re-running the same workload now hits both tiers' entries.
  TieredOutcome Again = Controller.run(*M);
  EXPECT_TRUE(Again.Unprofiled.CacheHit);
  EXPECT_TRUE(Again.Profiled.CacheHit);
  EXPECT_EQ(Again.Profiled.Code->IRText, Outcome.Profiled.Code->IRText);
}

//===----------------------------------------------------------------------===//
// Concurrency satellites: PassStats::merge, Timer thread-CPU clock
//===----------------------------------------------------------------------===//

TEST(PassStatsMerge, SumsAndPreservesFirstSeenOrder) {
  PassStats A;
  A.counter("elimination", "sext_eliminated") = 5;
  A.counter("insertion", "sext_inserted") = 2;

  PassStats B;
  B.counter("elimination", "sext_eliminated") = 7;
  B.counter("conversion64", "sext_generated") = 11;

  A.merge(B);
  EXPECT_EQ(A.value("elimination", "sext_eliminated"), 12u);
  EXPECT_EQ(A.value("insertion", "sext_inserted"), 2u);
  EXPECT_EQ(A.value("conversion64", "sext_generated"), 11u);

  // A's original registration order survives; B's new counter appends.
  ASSERT_EQ(A.entries().size(), 3u);
  EXPECT_EQ(A.entries()[0].Name, "sext_eliminated");
  EXPECT_EQ(A.entries()[1].Name, "sext_inserted");
  EXPECT_EQ(A.entries()[2].Name, "sext_generated");
}

TEST(PassStatsMerge, FlagsCombineByMaxNotAddition) {
  // Mode flags describe *how* a pass ran; merging the per-run stats of
  // N identically-configured workers must still report 1, not N.
  PassStats Merged;
  for (unsigned Run = 0; Run < 8; ++Run) {
    PassStats PerRun;
    PerRun.flag("insertion", "pde_variant") = 1;
    PerRun.flag("order-determination", "by_frequency") = 0;
    PerRun.counter("elimination", "sext_eliminated") = 3;
    Merged.merge(PerRun);
  }
  EXPECT_EQ(Merged.value("insertion", "pde_variant"), 1u);
  EXPECT_EQ(Merged.value("order-determination", "by_frequency"), 0u);
  EXPECT_EQ(Merged.value("elimination", "sext_eliminated"), 24u);

  // max also wins when the flag appears on both sides with 0 first, and
  // the flag bit itself survives the merge into a fresh registry.
  PassStats Zero, One;
  Zero.flag("insertion", "pde_variant") = 0;
  One.flag("insertion", "pde_variant") = 1;
  Zero.merge(One);
  Zero.merge(One);
  EXPECT_EQ(Zero.value("insertion", "pde_variant"), 1u);
  ASSERT_EQ(Zero.entries().size(), 1u);
  EXPECT_TRUE(Zero.entries()[0].IsFlag);
}

TEST(TimerCpu, AccumulatesThreadCpuAlongsideWall) {
  Timer T;
  volatile uint64_t Sink = 0;
  T.start();
  for (uint64_t Index = 0; Index < 2000000; ++Index)
    Sink = Sink + Index * Index;
  T.stop();
  EXPECT_GT(T.elapsedNanos(), 0u);
  EXPECT_GT(T.elapsedCpuNanos(), 0u);

  // CPU accumulates across intervals like wall time does.
  uint64_t AfterFirst = T.elapsedCpuNanos();
  T.start();
  for (uint64_t Index = 0; Index < 2000000; ++Index)
    Sink = Sink + Index * Index;
  T.stop();
  EXPECT_GT(T.elapsedCpuNanos(), AfterFirst);

  T.reset();
  EXPECT_EQ(T.elapsedNanos(), 0u);
  EXPECT_EQ(T.elapsedCpuNanos(), 0u);
}

TEST(TimerCpu, WorkerThreadChargesOnlyItsOwnCpu) {
  // A sleeping thread burns wall time but almost no CPU: the per-thread
  // clock must show cpu << wall, which the process clock would not.
  Timer T;
  std::thread Sleeper([&T] {
    T.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    T.stop();
  });
  Sleeper.join();
  EXPECT_GE(T.elapsedNanos(), 40u * 1000 * 1000);
  EXPECT_LT(T.elapsedCpuNanos(), T.elapsedNanos() / 2);
}
