//===- jit/CodeCache.cpp - Content-addressed compiled-code cache --------------===//

#include "jit/CodeCache.h"

#include "analysis/ProfileInfo.h"
#include "support/IRHash.h"

#include <algorithm>
#include <cstdio>

using namespace sxe;

/// Appends the configuration half of a key: every semantically relevant
/// PipelineConfig field and the profile fingerprint.
static void appendConfigFingerprint(std::string &Key,
                                    const PipelineConfig &Config) {
  char Buf[256];
  int Length = std::snprintf(
      Buf, sizeof(Buf),
      "|%s|gen=%u;eng=%u;ins=%u;pde=%u;ord=%u;arr=%u;"
      "maxlen=%08x;dum=%u;grd=%u;ind=%u;prof=%016llx",
      Config.Target ? Config.Target->name().c_str() : "?",
      static_cast<unsigned>(Config.Gen), static_cast<unsigned>(Config.Engine),
      Config.EnableInsertion ? 1u : 0u, Config.UsePDEInsertion ? 1u : 0u,
      Config.EnableOrder ? 1u : 0u, Config.EnableArrayTheorems ? 1u : 0u,
      Config.MaxArrayLen,
      Config.EnableDummies ? 1u : 0u, Config.EnableGuardRanges ? 1u : 0u,
      Config.EnableInductiveArith ? 1u : 0u,
      static_cast<unsigned long long>(
          Config.Profile ? Config.Profile->fingerprint() : 0));
  Key.append(Buf, std::min<size_t>(Length, sizeof(Buf) - 1));
}

/// Appends \p Word as 16 lowercase hex digits.
static void appendHex64(std::string &Key, uint64_t Word) {
  static constexpr char Digits[] = "0123456789abcdef";
  for (int Shift = 60; Shift >= 0; Shift -= 4)
    Key += Digits[(Word >> Shift) & 0xF];
}

std::string sxe::codeCacheKey(uint64_t IRHash, const PipelineConfig &Config) {
  std::string Key;
  Key.reserve(160);
  appendHex64(Key, IRHash);
  appendConfigFingerprint(Key, Config);
  return Key;
}

std::string sxe::codeCacheSourceKey(std::string_view Source,
                                    const PipelineConfig &Config) {
  Hash128 Hash = hashBytes128(Source);
  std::string Key;
  Key.reserve(176);
  Key += "src:";
  appendHex64(Key, Hash.Hi);
  appendHex64(Key, Hash.Lo);
  appendConfigFingerprint(Key, Config);
  return Key;
}

CodeCache::CodeCache(CodeCacheOptions Options)
    : MaxEntries(Options.MaxEntries ? Options.MaxEntries : 1) {}

std::shared_ptr<const CompiledCode>
CodeCache::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Lru.splice(Lru.begin(), Lru, It->second.second);
  Hits.fetch_add(1, std::memory_order_relaxed);
  return It->second.first;
}

void CodeCache::insert(const std::string &Key,
                       std::shared_ptr<const CompiledCode> Code) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It != Map.end()) {
    // Concurrent workers can both miss and compile the same key; the
    // artifacts are identical (compilation is deterministic), so the
    // second insert just refreshes the entry.
    It->second.first = std::move(Code);
    Lru.splice(Lru.begin(), Lru, It->second.second);
    return;
  }
  Lru.push_front(Key);
  Map.emplace(Key, std::make_pair(std::move(Code), Lru.begin()));
  Insertions.fetch_add(1, std::memory_order_relaxed);
  while (Map.size() > MaxEntries) {
    Map.erase(Lru.back());
    Lru.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

bool CodeCache::contains(const std::string &Key) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.count(Key) != 0;
}

CodeCacheStats CodeCache::stats() const {
  CodeCacheStats Out;
  Out.Hits = Hits.load(std::memory_order_relaxed);
  Out.Misses = Misses.load(std::memory_order_relaxed);
  Out.Insertions = Insertions.load(std::memory_order_relaxed);
  Out.Evictions = Evictions.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(Mu);
  Out.Entries = Map.size();
  return Out;
}

void CodeCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
  Lru.clear();
}
