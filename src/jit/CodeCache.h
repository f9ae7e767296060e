//===- jit/CodeCache.h - Content-addressed compiled-code cache ---*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sharded, content-addressed cache of CompiledCode artifacts, the
/// analogue of a JIT's per-method code cache (cf. the per-block caches in
/// the redream/dreavm recompilers). The key is
///
///     (structural IR hash, target name, pipeline-config fingerprint)
///
/// so a byte-identical module recompiled under the same target and
/// configuration hits, while the same module compiled for another target,
/// another variant, or with a different branch profile can never alias
/// (the profile's digest is folded into the config fingerprint).
///
/// The same cache also holds *source-key* aliases (codeCacheSourceKey):
/// the identical config fingerprint over a hash of the raw `.sxir` bytes
/// instead of the structural hash, tagged `src:` so it can never equal a
/// structural key. The compile service probes it before parsing, so a
/// repeated source is served without a parse or a structural hash.
///
/// Collision contract: the key string carries only the 64-bit FNV-1a
/// hash, not the module or the source. Two different modules (or two
/// different sources) whose hashes collide under the same configuration
/// share one entry, and the second is served the first's artifact — a
/// wrong artifact, with probability about 2^-64 per pair. The source key
/// has the same strength as the structural key.
///
/// Shards each carry their own mutex and LRU list, so concurrent workers
/// only contend when they touch the same shard. Hit/miss/insert/eviction
/// counters are atomics, surfaced by the service through the
/// `sxe.pass-stats.v1` reporting as the `code-cache` pass
/// (docs/OBSERVABILITY.md, docs/JIT.md).
///
//===----------------------------------------------------------------------===//

#ifndef SXE_JIT_CODECACHE_H
#define SXE_JIT_CODECACHE_H

#include "jit/CompileTask.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace sxe {

/// Builds the canonical cache key for compiling a module whose structural
/// hash is \p IRHash under \p Config. Serializes every semantically
/// relevant config field (target, gen policy, engine, toggles, max array
/// length) plus the profile fingerprint.
std::string codeCacheKey(uint64_t IRHash, const PipelineConfig &Config);

/// Builds the alias key for compiling the `.sxir` text \p Source under
/// \p Config: `src:` followed by codeCacheKey() over a 64-bit FNV-1a hash
/// of the source bytes. Byte-identical sources share it; any difference,
/// cosmetic or not, gives another key.
std::string codeCacheSourceKey(const std::string &Source,
                               const PipelineConfig &Config);

struct CodeCacheOptions {
  /// Total capacity in artifacts; split evenly across shards and
  /// LRU-evicted per shard.
  size_t MaxEntries = 4096;
  /// Lock-striping factor.
  unsigned Shards = 8;
};

/// Point-in-time counter snapshot.
struct CodeCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
};

/// Sharded LRU cache from codeCacheKey() strings to CompiledCode.
class CodeCache {
public:
  explicit CodeCache(CodeCacheOptions Options = {});

  /// Returns the cached artifact for \p Key, or null. Counts a hit or a
  /// miss and refreshes LRU recency on hit.
  std::shared_ptr<const CompiledCode> lookup(const std::string &Key);

  /// Inserts (or replaces) \p Code under \p Key, evicting the shard's
  /// least-recently-used entries beyond capacity.
  void insert(const std::string &Key, std::shared_ptr<const CompiledCode> Code);

  /// True when \p Key is resident (no counter or LRU effects).
  bool contains(const std::string &Key) const;

  CodeCacheStats stats() const;

  /// Drops every entry (counters survive).
  void clear();

private:
  struct Shard {
    mutable std::mutex Mu;
    /// Front = most recently used.
    std::list<std::string> Lru;
    std::unordered_map<std::string,
                       std::pair<std::shared_ptr<const CompiledCode>,
                                 std::list<std::string>::iterator>>
        Map;
  };

  Shard &shardFor(const std::string &Key);
  const Shard &shardFor(const std::string &Key) const;

  std::vector<std::unique_ptr<Shard>> Shards;
  size_t PerShardCapacity;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Insertions{0};
  std::atomic<uint64_t> Evictions{0};
};

} // namespace sxe

#endif // SXE_JIT_CODECACHE_H
