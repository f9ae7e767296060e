//===- jit/PersistentCache.cpp - On-disk content-addressed cache --------------===//

#include "jit/PersistentCache.h"

#include "obs/Remarks.h"
#include "support/IRHash.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <vector>

using namespace sxe;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Entry serialization
//===----------------------------------------------------------------------===//

namespace {

std::string hex16(uint64_t Value) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Value));
  return Buf;
}

/// Canonical artifact digest: FNV-1a over every field a hit must
/// reproduce. Recomputed from the decoded artifact on load, so any bit
/// rot in the stored payload — not just truncation — reads as corrupt.
uint64_t checksumCompiledCode(const CompiledCode &Code) {
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
  return H.result();
}

} // namespace

std::string sxe::encodePersistentEntry(const std::string &Key,
                                       const CompiledCode &Code) {
  JsonWriter J;
  J.beginObject();
  J.keyValue("schema", kPCacheEntrySchema);
  J.keyValue("key", Key);
  J.keyValue("checksum", hex16(checksumCompiledCode(Code)));
  J.keyValue("ir_hash", hex16(Code.InputIRHash));
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
  // Remarks as their canonical JSONL lines (minus the newline), so the
  // replayed stream is byte-identical to the producing run's.
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

bool sxe::decodePersistentEntry(const std::string &Text,
                                const std::string &Key, CompiledCode &Out,
                                std::string &Error) {
  JsonValue V;
  if (!parseJson(Text, V, Error))
    return false;
  if (V.stringField("schema") != kPCacheEntrySchema) {
    Error = "not an " + std::string(kPCacheEntrySchema) + " entry";
    return false;
  }
  if (V.stringField("key") != Key) {
    Error = "entry stores a different key (filename collision)";
    return false;
  }
  if (const JsonValue *Ir = V.find("ir"); !Ir || !Ir->isString()) {
    Error = "missing ir text";
    return false;
  }
  Out = CompiledCode();
  Out.IRText = V.takeStringField("ir");
  Out.InputIRHash =
      std::strtoull(V.stringField("ir_hash").c_str(), nullptr, 16);

  const JsonValue *Stats = V.find("stats");
  if (!Stats || !Stats->isArray()) {
    Error = "missing stats array";
    return false;
  }
  for (const JsonValue &E : Stats->array()) {
    std::string Pass = E.stringField("pass");
    std::string Name = E.stringField("name");
    uint64_t Value = E.uint64Field("value");
    const JsonValue *Flag = E.find("flag");
    if (Flag && Flag->isBool() && Flag->boolValue())
      Out.Stats.flag(Pass, Name) = Value;
    else
      Out.Stats.counter(Pass, Name) = Value;
  }

  const JsonValue *Remarks = V.find("remarks");
  if (!Remarks || !Remarks->isArray()) {
    Error = "missing remarks array";
    return false;
  }
  for (const JsonValue &Line : Remarks->array()) {
    Remark R;
    if (!Line.isString() ||
        !remarkFromJsonLine(Line.stringValue(), R, Error)) {
      Error = "bad remark line: " + Error;
      return false;
    }
    Out.Remarks.push_back(std::move(R));
  }

  uint64_t Stored =
      std::strtoull(V.stringField("checksum").c_str(), nullptr, 16);
  if (Stored != checksumCompiledCode(Out)) {
    Error = "checksum mismatch";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Store
//===----------------------------------------------------------------------===//

namespace {

bool readFileText(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

/// Write-to-temp + rename(2) publication; the only way entry files are
/// ever produced.
bool writeFileAtomic(const std::string &Path, const std::string &Text) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
    if (!Out)
      return false;
  }
  std::error_code Ec;
  fs::rename(Tmp, Path, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return false;
  }
  return true;
}

std::string fileNameForKey(const std::string &Key) {
  StableHasher H;
  H.mix(Key);
  return hex16(H.result()) + ".json";
}

} // namespace

PersistentCache::PersistentCache(PersistentCacheOptions Opts)
    : Options(std::move(Opts)) {
  if (!enabled())
    return;
  std::error_code Ec;
  fs::create_directories(fs::path(Options.Dir) / "objects", Ec);
  std::lock_guard<std::mutex> Lock(Mu);
  scanObjectsLocked();
}

std::string PersistentCache::objectPath(const std::string &File) const {
  return (fs::path(Options.Dir) / "objects" / File).string();
}

void PersistentCache::scanObjectsLocked() {
  struct Listed {
    fs::file_time_type MTime;
    std::string File;
    uint64_t Bytes;
  };
  std::vector<Listed> Found;
  std::error_code Ec;
  for (const auto &Object :
       fs::directory_iterator(fs::path(Options.Dir) / "objects", Ec)) {
    if (!Object.is_regular_file(Ec) || Object.path().extension() != ".json")
      continue;
    uint64_t Bytes = Object.file_size(Ec);
    if (Ec)
      continue;
    fs::file_time_type MTime = Object.last_write_time(Ec);
    if (Ec)
      continue;
    Found.push_back({MTime, Object.path().filename().string(), Bytes});
  }
  std::sort(Found.begin(), Found.end(), [](const Listed &A, const Listed &B) {
    return std::tie(A.MTime, A.File) < std::tie(B.MTime, B.File);
  });
  for (const Listed &Item : Found)
    touchLocked(Item.File, Item.Bytes);
}

void PersistentCache::touchLocked(const std::string &File, uint64_t Bytes) {
  Entry &Item = Entries[File];
  TotalBytes = TotalBytes - Item.Bytes + Bytes;
  Item.Bytes = Bytes;
  Item.AccessTick = NextTick++;
}

void PersistentCache::dropEntryLocked(const std::string &File,
                                      bool CountEviction) {
  std::error_code Ec;
  fs::remove(objectPath(File), Ec);
  auto It = Entries.find(File);
  if (It == Entries.end())
    return;
  TotalBytes -= It->second.Bytes;
  Entries.erase(It);
  if (CountEviction)
    ++Evictions;
}

void PersistentCache::evictOverBudgetLocked() {
  while (TotalBytes > Options.MaxBytes && Entries.size() > 1) {
    auto Oldest = Entries.begin();
    for (auto It = Entries.begin(); It != Entries.end(); ++It)
      if (It->second.AccessTick < Oldest->second.AccessTick)
        Oldest = It;
    dropEntryLocked(Oldest->first, /*CountEviction=*/true);
  }
}

std::shared_ptr<const CompiledCode>
PersistentCache::lookup(const std::string &Key) {
  if (!enabled())
    return nullptr;
  std::lock_guard<std::mutex> Lock(Mu);
  // Probe the object path even when the entry is not listed: another
  // process may have written it after this one scanned the directory.
  std::string File = fileNameForKey(Key);
  std::string Path = objectPath(File);
  std::string Text;
  if (!readFileText(Path, Text)) {
    ++Misses;
    if (Entries.count(File)) // Listed, but another process removed it.
      dropEntryLocked(File, /*CountEviction=*/false);
    return nullptr;
  }
  auto Code = std::make_shared<CompiledCode>();
  std::string Error;
  if (!decodePersistentEntry(Text, Key, *Code, Error)) {
    ++Misses;
    ++CorruptDropped;
    dropEntryLocked(File, /*CountEviction=*/false);
    return nullptr;
  }
  // The mtime carries the access order across restarts.
  std::error_code Ec;
  fs::last_write_time(Path, fs::file_time_type::clock::now(), Ec);
  touchLocked(File, Text.size());
  ++Hits;
  return Code;
}

void PersistentCache::insert(const std::string &Key,
                             const CompiledCode &Code) {
  if (!enabled())
    return;
  std::string Text = encodePersistentEntry(Key, Code);
  std::lock_guard<std::mutex> Lock(Mu);
  std::string File = fileNameForKey(Key);
  if (!writeFileAtomic(objectPath(File), Text))
    return;
  touchLocked(File, Text.size());
  ++Insertions;
  evictOverBudgetLocked();
}

bool PersistentCache::contains(const std::string &Key) const {
  if (!enabled())
    return false;
  std::error_code Ec;
  return fs::exists(objectPath(fileNameForKey(Key)), Ec);
}

PersistentCacheStats PersistentCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  PersistentCacheStats Out;
  Out.Hits = Hits;
  Out.Misses = Misses;
  Out.Insertions = Insertions;
  Out.Evictions = Evictions;
  Out.CorruptDropped = CorruptDropped;
  Out.Entries = Entries.size();
  Out.Bytes = TotalBytes;
  return Out;
}
