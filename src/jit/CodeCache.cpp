//===- jit/CodeCache.cpp - Content-addressed compiled-code cache --------------===//

#include "jit/CodeCache.h"

#include "analysis/ProfileInfo.h"
#include "support/IRHash.h"

#include <cstdio>
#include <functional>

using namespace sxe;

std::string sxe::codeCacheKey(uint64_t IRHash, const PipelineConfig &Config) {
  char Buf[256];
  std::snprintf(
      Buf, sizeof(Buf),
      "%016llx|%s|gen=%u;gopts=%u;eng=%u;ins=%u;pde=%u;ord=%u;arr=%u;"
      "maxlen=%08x;dum=%u;grd=%u;ind=%u;prof=%016llx",
      static_cast<unsigned long long>(IRHash),
      Config.Target ? Config.Target->name().c_str() : "?",
      static_cast<unsigned>(Config.Gen), Config.GeneralOpts ? 1u : 0u,
      static_cast<unsigned>(Config.Engine), Config.EnableInsertion ? 1u : 0u,
      Config.UsePDEInsertion ? 1u : 0u, Config.EnableOrder ? 1u : 0u,
      Config.EnableArrayTheorems ? 1u : 0u, Config.MaxArrayLen,
      Config.EnableDummies ? 1u : 0u, Config.EnableGuardRanges ? 1u : 0u,
      Config.EnableInductiveArith ? 1u : 0u,
      static_cast<unsigned long long>(
          Config.Profile ? Config.Profile->fingerprint() : 0));
  return Buf;
}

std::string sxe::codeCacheSourceKey(const std::string &Source,
                                    const PipelineConfig &Config) {
  StableHasher Hasher;
  Hasher.mix(Source);
  return "src:" + codeCacheKey(Hasher.result(), Config);
}

CodeCache::CodeCache(CodeCacheOptions Options) {
  unsigned NumShards = Options.Shards ? Options.Shards : 1;
  Shards.reserve(NumShards);
  for (unsigned Index = 0; Index < NumShards; ++Index)
    Shards.push_back(std::make_unique<Shard>());
  PerShardCapacity = Options.MaxEntries / NumShards;
  if (PerShardCapacity == 0)
    PerShardCapacity = 1;
}

CodeCache::Shard &CodeCache::shardFor(const std::string &Key) {
  return *Shards[std::hash<std::string>{}(Key) % Shards.size()];
}

const CodeCache::Shard &CodeCache::shardFor(const std::string &Key) const {
  return *Shards[std::hash<std::string>{}(Key) % Shards.size()];
}

std::shared_ptr<const CompiledCode>
CodeCache::lookup(const std::string &Key) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Key);
  if (It == S.Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second.second);
  Hits.fetch_add(1, std::memory_order_relaxed);
  return It->second.first;
}

void CodeCache::insert(const std::string &Key,
                       std::shared_ptr<const CompiledCode> Code) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Key);
  if (It != S.Map.end()) {
    // Concurrent workers can both miss and compile the same key; the
    // artifacts are identical (compilation is deterministic), so the
    // second insert just refreshes the entry.
    It->second.first = std::move(Code);
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second.second);
    return;
  }
  S.Lru.push_front(Key);
  S.Map.emplace(Key, std::make_pair(std::move(Code), S.Lru.begin()));
  Insertions.fetch_add(1, std::memory_order_relaxed);
  while (S.Map.size() > PerShardCapacity) {
    S.Map.erase(S.Lru.back());
    S.Lru.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

bool CodeCache::contains(const std::string &Key) const {
  const Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Map.count(Key) != 0;
}

CodeCacheStats CodeCache::stats() const {
  CodeCacheStats Out;
  Out.Hits = Hits.load(std::memory_order_relaxed);
  Out.Misses = Misses.load(std::memory_order_relaxed);
  Out.Insertions = Insertions.load(std::memory_order_relaxed);
  Out.Evictions = Evictions.load(std::memory_order_relaxed);
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mu);
    Out.Entries += S->Map.size();
  }
  return Out;
}

void CodeCache::clear() {
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mu);
    S->Map.clear();
    S->Lru.clear();
  }
}
