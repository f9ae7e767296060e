//===- jit/PersistentCache.cpp - On-disk content-addressed cache --------------===//

#include "jit/PersistentCache.h"

#include "obs/Remarks.h"
#include "obs/TraceContext.h"
#include "support/IRHash.h"
#include "support/Json.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <tuple>
#include <vector>

using namespace sxe;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Entry serialization
//===----------------------------------------------------------------------===//

namespace {

/// Canonical artifact digest: FNV-1a over every field a hit must
/// reproduce, mixed as stored. Recomputed from the decoded artifact on
/// load, so any bit rot in the stored payload — not just truncation —
/// reads as corrupt.
uint64_t checksumCompiledCode(const CompiledCode &Code) {
  StableHasher H;
  H.mix(Code.IRText);
  H.mix(Code.InputIRHash);
  for (const StatEntry &E : Code.Stats.entries()) {
    H.mix(E.Pass);
    H.mix(E.Name);
    H.mix(E.Value);
  }
  H.mix(Code.Remarks);
  return H.result();
}

/// The shape every stored remark stream has: the sxe.remarks.v1 header
/// line, then newline-terminated lines that each parse as a JSON object.
/// The lines' members are not read. A missing stream reads as empty and
/// fails for want of the header.
bool checkRemarkStream(std::string_view Stream, std::string &Error) {
  std::string Header = remarksHeaderLine();
  if (Stream.substr(0, Header.size()) != Header) {
    Error = "remark stream lacks the " + std::string(kRemarksSchema) +
            " header";
    return false;
  }
  for (size_t Pos = Header.size(); Pos < Stream.size();) {
    size_t End = Stream.find('\n', Pos);
    if (End == std::string_view::npos) {
      Error = "unterminated remark line";
      return false;
    }
    JsonValue Line;
    if (!parseJson(Stream.substr(Pos, End - Pos), Line, Error)) {
      Error = "bad remark line: " + Error;
      return false;
    }
    if (!Line.isObject()) {
      Error = "remark line is not a JSON object";
      return false;
    }
    Pos = End + 1;
  }
  return true;
}

} // namespace

std::string sxe::encodePersistentEntry(const std::string &Key,
                                       const CompiledCode &Code) {
  std::string StatsMember = encodeStatsMember(Code.Stats.entries());
  JsonWriter J;
  J.reserve(Code.IRText.size() + StatsMember.size() + Code.Remarks.size() +
            Key.size() + 256);
  J.beginObject();
  J.keyValue("schema", kPCacheEntrySchema);
  J.keyValue("key", Key);
  J.keyValue("checksum", traceIdHex(checksumCompiledCode(Code)));
  J.keyValue("ir_hash", traceIdHex(Code.InputIRHash));
  J.keyValue("ir", Code.IRText);
  J.rawMembers(JsonWriter::membersOf(StatsMember));
  J.keyValue("remarks_jsonl", Code.Remarks);
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
  if (!parseTraceIdHex(V.stringField("ir_hash"), Out.InputIRHash)) {
    Error = "malformed ir_hash";
    return false;
  }
  Out.IRText = V.takeStringField("ir");
  Out.Remarks = V.takeStringField("remarks_jsonl");

  // Absent when the producing run counted nothing (encodeStatsMember).
  if (const JsonValue *Stats = V.find("stats")) {
    if (!Stats->isArray()) {
      Error = "stats is not an array";
      return false;
    }
    for (const JsonValue &E : Stats->array())
      Out.Stats.counter(E.stringField("pass"), E.stringField("name")) =
          E.uint64Field("value");
  }

  uint64_t Stored = 0;
  if (!parseTraceIdHex(V.stringField("checksum"), Stored) ||
      Stored != checksumCompiledCode(Out)) {
    Error = "checksum mismatch";
    return false;
  }
  return checkRemarkStream(Out.Remarks, Error);
}

//===----------------------------------------------------------------------===//
// Store
//===----------------------------------------------------------------------===//

namespace {

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
  return traceIdHex(H.result()) + ".json";
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
  if (!readTextFile(Path, Text)) {
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
