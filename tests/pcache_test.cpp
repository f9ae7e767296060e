//===- tests/pcache_test.cpp - Persistent on-disk code cache --------------------===//
//
// Locks the jit/PersistentCache contracts:
//
//   - an entry document round-trips byte-identically (IR text, per-pass
//     stats, remark stream, input hash);
//   - artifacts survive the process boundary: a fresh cache instance on
//     the same directory (with and without index.json) serves them back;
//   - the compile service's tier-two probe returns byte-identical IR and
//     a byte-identical replayed remark stream, and promotes the hit into
//     the in-memory tier;
//   - truncated/corrupted/key-mismatched entries, and entries in the
//     previous sxe.pcache.v1 layout, load as a clean miss (and are
//     dropped), after which the service compiles normally;
//   - a stored count no uint64_t holds (negative, huge) reads as 0;
//   - LRU eviction enforces the byte budget;
//   - enqueue after shutdown() counts Rejected and feeds
//     sxe_rejects_total (shared ledger with serve-layer load shedding).
//
//===-----------------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "jit/CodeCache.h"
#include "jit/CompileService.h"
#include "jit/PersistentCache.h"
#include "obs/Metrics.h"
#include "obs/Remarks.h"
#include "support/IRHash.h"
#include "support/Json.h"
#include "tests/TestHelpers.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <gtest/gtest.h>

#include <unistd.h>

using namespace sxe;
namespace fs = std::filesystem;

namespace {

/// A fresh temp directory per test, removed on destruction.
struct TempDir {
  fs::path Path;
  explicit TempDir(const char *Tag) {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("sxe-pcache-test-" + std::to_string(::getpid()) + "-" + Tag +
            "-" + std::to_string(Counter++));
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// The jit_test small module: a W32 add feeding an array load, so the
/// pipeline has an extension to eliminate and remarks to emit.
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
  return M;
}

/// Compiles the small module once (inline mode, remarks on) and returns
/// the artifact plus its cache key.
std::shared_ptr<const CompiledCode> compileReference(std::string &KeyOut,
                                                     int32_t Bias = 1) {
  CompileServiceOptions Options;
  Options.Jobs = 0;
  Options.CollectRemarks = true;
  CompileService Service(Options);
  CompileRequest Request;
  Request.Name = "small";
  Request.M = buildSmallModule("small", Bias);
  Request.Config = PipelineConfig::forVariant(Variant::All);
  uint64_t Hash = hashModule(*Request.M);
  KeyOut = codeCacheKey(Hash, Request.Config);
  CompileResult Result = Service.enqueue(std::move(Request)).get();
  EXPECT_TRUE(Result.Ok) << Result.Error;
  return Result.Code;
}

/// The single object file under <dir>/objects (entry layout detail the
/// corruption tests poke at).
fs::path soleObjectFile(const std::string &Dir) {
  fs::path Objects = fs::path(Dir) / "objects";
  for (const auto &Entry : fs::directory_iterator(Objects))
    if (Entry.path().extension() == ".json")
      return Entry.path();
  ADD_FAILURE() << "no object file under " << Objects;
  return {};
}

/// Encodes \p Code in the previous entry layout, sxe.pcache.v1: the
/// current fields plus a "legacy" aggregate object, all covered by a
/// checksum that is valid for that layout.
std::string encodeV1Entry(const std::string &Key, const CompiledCode &Code) {
  const std::pair<const char *, uint64_t> Legacy[] = {
      {"extensions_generated",
       Code.Stats.value("conversion64", "sext_generated")},
      {"extensions_inserted", Code.Stats.value("insertion", "sext_inserted")},
      {"dummies_inserted", Code.Stats.value("dummy-insertion", "dummy_added")},
      {"extensions_eliminated", Code.Stats.total("sext_eliminated")},
      {"dummies_removed", Code.Stats.value("elimination", "dummy_removed")},
      {"general_opt_rewrites", Code.Stats.value("general-opts", "rewrites")},
      {"subscript_extended", 0}, {"theorem1_fired", 0}, {"theorem2_fired", 0},
      {"theorem3_fired", 0},     {"theorem4_fired", 0}, {"conversion_ns", 10},
      {"general_opts_ns", 20},   {"chain_creation_ns", 30},
      {"sxe_opt_ns", 40},        {"total_ns", 100}};

  StableHasher H;
  H.mix(Code.IRText);
  H.mix(Code.InputIRHash);
  for (const StatEntry &E : Code.Stats.entries()) {
    H.mix(E.Pass);
    H.mix(E.Name);
    H.mix(E.Value);
    H.mix(static_cast<uint64_t>(E.IsFlag));
  }
  for (const Remark &R : Code.Remarks)
    H.mix(remarkToJsonLine(R));
  for (const auto &[Name, Value] : Legacy)
    H.mix(Value);
  char Checksum[17], IrHash[17];
  std::snprintf(Checksum, sizeof(Checksum), "%016llx",
                static_cast<unsigned long long>(H.result()));
  std::snprintf(IrHash, sizeof(IrHash), "%016llx",
                static_cast<unsigned long long>(Code.InputIRHash));

  JsonWriter J;
  J.beginObject();
  J.keyValue("schema", "sxe.pcache.v1");
  J.keyValue("key", Key);
  J.keyValue("checksum", Checksum);
  J.keyValue("ir_hash", IrHash);
  J.keyValue("ir", Code.IRText);
  J.key("stats");
  J.beginArray();
  for (const StatEntry &E : Code.Stats.entries()) {
    J.beginObject();
    J.keyValue("pass", E.Pass);
    J.keyValue("name", E.Name);
    J.keyValue("value", E.Value);
    if (E.IsFlag)
      J.keyValue("flag", true);
    J.endObject();
  }
  J.endArray();
  J.key("legacy");
  J.beginObject();
  for (const auto &[Name, Value] : Legacy)
    J.keyValue(Name, Value);
  J.endObject();
  J.key("remarks");
  J.beginArray();
  for (const Remark &R : Code.Remarks) {
    std::string Line = remarkToJsonLine(R);
    if (!Line.empty() && Line.back() == '\n')
      Line.pop_back();
    J.value(Line);
  }
  J.endArray();
  J.endObject();
  return J.take();
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry encoding
//===----------------------------------------------------------------------===//

TEST(PersistentEntry, RoundTripsByteIdentically) {
  std::string Key;
  std::shared_ptr<const CompiledCode> Code = compileReference(Key);
  ASSERT_TRUE(Code);
  ASSERT_FALSE(Code->Remarks.empty()) << "fixture should produce remarks";

  std::string Text = encodePersistentEntry(Key, *Code);
  CompiledCode Loaded;
  std::string Error;
  ASSERT_TRUE(decodePersistentEntry(Text, Key, Loaded, Error)) << Error;

  EXPECT_EQ(Code->IRText, Loaded.IRText);
  EXPECT_EQ(Code->InputIRHash, Loaded.InputIRHash);
  // Per-pass stats: same registration order, names, values, flags.
  ASSERT_EQ(Code->Stats.entries().size(), Loaded.Stats.entries().size());
  auto It = Loaded.Stats.entries().begin();
  for (const StatEntry &Entry : Code->Stats.entries()) {
    EXPECT_EQ(Entry.Pass, It->Pass);
    EXPECT_EQ(Entry.Name, It->Name);
    EXPECT_EQ(Entry.Value, It->Value);
    EXPECT_EQ(Entry.IsFlag, It->IsFlag);
    ++It;
  }
  // The replayed remark stream is byte-identical.
  EXPECT_EQ(remarksToJsonl(Code->Remarks), remarksToJsonl(Loaded.Remarks));
}

TEST(PersistentEntry, RejectsKeyMismatch) {
  std::string Key;
  std::shared_ptr<const CompiledCode> Code = compileReference(Key);
  std::string Text = encodePersistentEntry(Key, *Code);
  CompiledCode Loaded;
  std::string Error;
  EXPECT_FALSE(decodePersistentEntry(Text, Key + "|other", Loaded, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(PersistentEntry, RejectsTamperedPayload) {
  std::string Key;
  std::shared_ptr<const CompiledCode> Code = compileReference(Key);
  std::string Text = encodePersistentEntry(Key, *Code);
  // Flip a byte inside the IR text payload; the checksum must catch it.
  size_t Pos = Text.find("kernel");
  ASSERT_NE(Pos, std::string::npos);
  Text[Pos] = 'x';
  CompiledCode Loaded;
  std::string Error;
  EXPECT_FALSE(decodePersistentEntry(Text, Key, Loaded, Error));
}

TEST(PersistentEntry, OutOfRangeCountsReadAsZero) {
  // A stat stored as 0 whose text is replaced by a value no uint64_t
  // holds: the checked read gives 0 again, so the checksum still matches.
  CompiledCode Code;
  Code.IRText = "func";
  Code.Stats.counter("pass", "zero") = 0;
  std::string Text = encodePersistentEntry("k", Code);
  size_t Pos = Text.find("\"value\": 0");
  ASSERT_NE(Pos, std::string::npos);
  for (const char *Stored : {"-1", "1e300", "18446744073709551616"}) {
    std::string Edited = Text;
    Edited.replace(Pos, std::strlen("\"value\": 0"),
                   std::string("\"value\": ") + Stored);
    CompiledCode Loaded;
    std::string Error;
    ASSERT_TRUE(decodePersistentEntry(Edited, "k", Loaded, Error))
        << Stored << ": " << Error;
    ASSERT_EQ(1u, Loaded.Stats.entries().size());
    EXPECT_EQ(0u, Loaded.Stats.entries().front().Value) << Stored;
  }

  // A nonzero count replaced by -1 no longer matches: a clean rejection.
  Code.Stats.counter("pass", "zero") = 5;
  Text = encodePersistentEntry("k", Code);
  Pos = Text.find("\"value\": 5");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, std::strlen("\"value\": 5"), "\"value\": -1");
  CompiledCode Loaded;
  std::string Error;
  EXPECT_FALSE(decodePersistentEntry(Text, "k", Loaded, Error));
  EXPECT_EQ("checksum mismatch", Error);
}

//===----------------------------------------------------------------------===//
// Cross-instance persistence
//===----------------------------------------------------------------------===//

TEST(PersistentCache, SurvivesInstanceBoundary) {
  TempDir Dir("instance");
  std::string Key;
  std::shared_ptr<const CompiledCode> Code = compileReference(Key);

  {
    PersistentCache Writer({Dir.str(), 64ull << 20});
    Writer.insert(Key, *Code);
    EXPECT_TRUE(Writer.contains(Key));
  } // Destructor flushes index.json.

  PersistentCache Reader({Dir.str(), 64ull << 20});
  std::shared_ptr<const CompiledCode> Loaded = Reader.lookup(Key);
  ASSERT_TRUE(Loaded);
  EXPECT_EQ(Code->IRText, Loaded->IRText);
  EXPECT_EQ(remarksToJsonl(Code->Remarks), remarksToJsonl(Loaded->Remarks));
  EXPECT_EQ(1u, Reader.stats().Hits);
}

TEST(PersistentCache, RebuildsFromObjectsWhenIndexMissing) {
  TempDir Dir("rescan");
  std::string Key;
  std::shared_ptr<const CompiledCode> Code = compileReference(Key);
  {
    PersistentCache Writer({Dir.str(), 64ull << 20});
    Writer.insert(Key, *Code);
  }
  fs::remove(fs::path(Dir.str()) / "index.json");

  PersistentCache Reader({Dir.str(), 64ull << 20});
  std::shared_ptr<const CompiledCode> Loaded = Reader.lookup(Key);
  ASSERT_TRUE(Loaded);
  EXPECT_EQ(Code->IRText, Loaded->IRText);
}

TEST(PersistentCache, FindsEntriesWrittenByAnotherInstance) {
  // Simulates two live processes sharing a directory: the reader opened
  // (and indexed) the empty store before the writer inserted.
  TempDir Dir("concurrent");
  PersistentCache Reader({Dir.str(), 64ull << 20});
  std::string Key;
  std::shared_ptr<const CompiledCode> Code = compileReference(Key);
  PersistentCache Writer({Dir.str(), 64ull << 20});
  Writer.insert(Key, *Code);

  std::shared_ptr<const CompiledCode> Loaded = Reader.lookup(Key);
  ASSERT_TRUE(Loaded);
  EXPECT_EQ(Code->IRText, Loaded->IRText);
}

//===----------------------------------------------------------------------===//
// Corruption tolerance
//===----------------------------------------------------------------------===//

TEST(PersistentCache, TruncatedEntryIsACleanMiss) {
  TempDir Dir("truncate");
  std::string Key;
  std::shared_ptr<const CompiledCode> Code = compileReference(Key);
  {
    PersistentCache Writer({Dir.str(), 64ull << 20});
    Writer.insert(Key, *Code);
  }
  // Truncate the entry file to half (a crashed writer without the atomic
  // rename, or disk damage).
  fs::path Object = soleObjectFile(Dir.str());
  std::string Text;
  {
    std::ifstream In(Object);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Text = Buffer.str();
  }
  {
    std::ofstream Out(Object, std::ios::trunc);
    Out << Text.substr(0, Text.size() / 2);
  }

  PersistentCache Reader({Dir.str(), 64ull << 20});
  EXPECT_EQ(nullptr, Reader.lookup(Key));
  PersistentCacheStats Stats = Reader.stats();
  EXPECT_EQ(1u, Stats.Misses);
  EXPECT_EQ(1u, Stats.CorruptDropped);
  // The corrupt file was dropped; a second lookup is a plain miss.
  EXPECT_EQ(nullptr, Reader.lookup(Key));
  EXPECT_FALSE(fs::exists(Object));
}

TEST(PersistentCache, CorruptEntryFallsBackToCleanCompile) {
  TempDir Dir("fallback");
  std::string Key;
  std::shared_ptr<const CompiledCode> Reference = compileReference(Key);
  PersistentCache Cache({Dir.str(), 64ull << 20});
  Cache.insert(Key, *Reference);

  // Corrupt the stored artifact in place.
  fs::path Object = soleObjectFile(Dir.str());
  {
    std::ofstream Out(Object, std::ios::trunc);
    Out << "{\"schema\":\"" << kPCacheEntrySchema
        << "\",\"key\":\"garbage\"";
  }

  // A service over the corrupted tier compiles cleanly: same IR as the
  // reference, persistent hit NOT reported.
  CodeCache Memory;
  CompileServiceOptions Options;
  Options.Jobs = 0;
  Options.Cache = &Memory;
  Options.Persistent = &Cache;
  Options.CollectRemarks = true;
  CompileService Service(Options);
  CompileRequest Request;
  Request.Name = "small";
  Request.M = buildSmallModule();
  Request.Config = PipelineConfig::forVariant(Variant::All);
  CompileResult Result = Service.enqueue(std::move(Request)).get();
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_FALSE(Result.PersistentHit);
  EXPECT_EQ(Reference->IRText, Result.Code->IRText);
  EXPECT_GE(Cache.stats().CorruptDropped, 1u);
}

TEST(PersistentCache, PreviousSchemaEntryIsACleanMiss) {
  TempDir Dir("v1");
  std::string Key;
  std::shared_ptr<const CompiledCode> Reference = compileReference(Key);
  {
    PersistentCache Writer({Dir.str(), 64ull << 20});
    Writer.insert(Key, *Reference);
  }
  // Overwrite the entry with the same artifact in the v1 layout, as a
  // cache directory left behind by an older build would hold it.
  fs::path Object = soleObjectFile(Dir.str());
  ASSERT_TRUE(writeTextFile(Object.string(), encodeV1Entry(Key, *Reference)));

  PersistentCache Cache({Dir.str(), 64ull << 20});
  EXPECT_EQ(nullptr, Cache.lookup(Key));
  EXPECT_EQ(1u, Cache.stats().Misses);
  EXPECT_EQ(1u, Cache.stats().CorruptDropped);
  EXPECT_FALSE(fs::exists(Object));

  // A service over that tier recompiles and writes a current entry back.
  CodeCache Memory;
  CompileServiceOptions Options;
  Options.Jobs = 0;
  Options.Cache = &Memory;
  Options.Persistent = &Cache;
  Options.CollectRemarks = true;
  CompileService Service(Options);
  CompileRequest Request;
  Request.Name = "small";
  Request.M = buildSmallModule();
  Request.Config = PipelineConfig::forVariant(Variant::All);
  CompileResult Result = Service.enqueue(std::move(Request)).get();
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_FALSE(Result.PersistentHit);
  EXPECT_EQ(Reference->IRText, Result.Code->IRText);

  std::shared_ptr<const CompiledCode> Reloaded = Cache.lookup(Key);
  ASSERT_TRUE(Reloaded);
  EXPECT_EQ(Reference->IRText, Reloaded->IRText);
  EXPECT_EQ(1u, Cache.stats().Hits);
  EXPECT_EQ(1u, Cache.stats().CorruptDropped);
}

//===----------------------------------------------------------------------===//
// Service tier-two integration
//===----------------------------------------------------------------------===//

TEST(PersistentCache, ServiceServesPersistentHitByteIdentically) {
  TempDir Dir("service");
  std::string Key;
  std::shared_ptr<const CompiledCode> Reference = compileReference(Key);

  // First service compiles and writes through to disk.
  {
    PersistentCache Disk({Dir.str(), 64ull << 20});
    CodeCache Memory;
    CompileServiceOptions Options;
    Options.Jobs = 0;
    Options.Cache = &Memory;
    Options.Persistent = &Disk;
    Options.CollectRemarks = true;
    CompileService Service(Options);
    CompileRequest Request;
    Request.Name = "small";
    Request.M = buildSmallModule();
    Request.Config = PipelineConfig::forVariant(Variant::All);
    CompileResult Result = Service.enqueue(std::move(Request)).get();
    ASSERT_TRUE(Result.Ok) << Result.Error;
    EXPECT_FALSE(Result.CacheHit);
    EXPECT_FALSE(Result.PersistentHit);
    EXPECT_EQ(1u, Disk.stats().Insertions);
  }

  // Second service (fresh memory cache, fresh PersistentCache instance —
  // the restart) serves from disk without compiling.
  PersistentCache Disk({Dir.str(), 64ull << 20});
  CodeCache Memory;
  MetricsRegistry Metrics;
  CompileServiceOptions Options;
  Options.Jobs = 0;
  Options.Cache = &Memory;
  Options.Persistent = &Disk;
  Options.Metrics = &Metrics;
  Options.CollectRemarks = true;
  CompileService Service(Options);
  CompileRequest Request;
  Request.Name = "small";
  Request.M = buildSmallModule();
  Request.Config = PipelineConfig::forVariant(Variant::All);
  CompileResult Result = Service.enqueue(std::move(Request)).get();
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(Result.PersistentHit);
  EXPECT_FALSE(Result.CacheHit);
  EXPECT_EQ(Reference->IRText, Result.Code->IRText);
  EXPECT_EQ(remarksToJsonl(Reference->Remarks),
            remarksToJsonl(Result.Code->Remarks));

  CompileServiceStats Stats = Service.stats();
  EXPECT_EQ(1u, Stats.PersistentHits);
  EXPECT_EQ(0u, Stats.Compiled);
  // The hit was promoted into the in-memory tier: a re-enqueue hits there.
  EXPECT_TRUE(Memory.contains(Key));
  CompileRequest Again;
  Again.Name = "small";
  Again.M = buildSmallModule();
  Again.Config = PipelineConfig::forVariant(Variant::All);
  CompileResult Second = Service.enqueue(std::move(Again)).get();
  ASSERT_TRUE(Second.Ok);
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_FALSE(Second.PersistentHit);
  // And the metric matched the counter.
  EXPECT_EQ(1u, Metrics.counter("sxe_persistent_hits_total").value());
}

//===----------------------------------------------------------------------===//
// Eviction
//===----------------------------------------------------------------------===//

TEST(PersistentCache, EvictsLeastRecentlyUsedOverByteBudget) {
  TempDir Dir("evict");
  // Three distinct artifacts (different Bias -> different key + IR).
  std::string Keys[3];
  std::shared_ptr<const CompiledCode> Codes[3];
  for (int I = 0; I < 3; ++I)
    Codes[I] = compileReference(Keys[I], /*Bias=*/I + 1);
  ASSERT_NE(Keys[0], Keys[1]);
  ASSERT_NE(Keys[1], Keys[2]);

  uint64_t EntryBytes = encodePersistentEntry(Keys[0], *Codes[0]).size();
  // Budget for about two entries.
  PersistentCache Cache({Dir.str(), EntryBytes * 2 + EntryBytes / 2});
  Cache.insert(Keys[0], *Codes[0]);
  Cache.insert(Keys[1], *Codes[1]);
  // Touch [0] so [1] becomes the LRU entry.
  EXPECT_TRUE(Cache.lookup(Keys[0]) != nullptr);
  Cache.insert(Keys[2], *Codes[2]);

  PersistentCacheStats Stats = Cache.stats();
  EXPECT_GE(Stats.Evictions, 1u);
  EXPECT_LE(Stats.Bytes, EntryBytes * 2 + EntryBytes / 2);
  EXPECT_TRUE(Cache.contains(Keys[0]));
  EXPECT_FALSE(Cache.contains(Keys[1]));
  EXPECT_TRUE(Cache.contains(Keys[2]));
}

//===----------------------------------------------------------------------===//
// Rejected accounting (shared ledger with serve-layer load shedding)
//===----------------------------------------------------------------------===//

TEST(CompileServiceRejects, EnqueueAfterShutdownCountsRejected) {
  MetricsRegistry Metrics;
  CompileServiceOptions Options;
  Options.Jobs = 1;
  Options.Metrics = &Metrics;
  CompileService Service(Options);
  Service.shutdown();

  CompileRequest Request;
  Request.Name = "late";
  Request.M = buildSmallModule();
  Request.Config = PipelineConfig::forVariant(Variant::All);
  CompileResult Result = Service.enqueue(std::move(Request)).get();
  EXPECT_FALSE(Result.Ok);
  EXPECT_TRUE(Result.Rejected);

  CompileServiceStats Stats = Service.stats();
  EXPECT_EQ(1u, Stats.Rejected);
  EXPECT_EQ(1u, Metrics.counter("sxe_rejects_total").value());

  // The serve layer's load shedding shares the same ledger.
  Service.countRejected();
  EXPECT_EQ(2u, Service.stats().Rejected);
  EXPECT_EQ(2u, Metrics.counter("sxe_rejects_total").value());

  // The pseudo-pass counter mirrors it.
  EXPECT_EQ(2u, Service.stats().Aggregate.value("compile-service",
                                                "rejected"));
}
