//===- jit/CodeCache.h - Content-addressed compiled-code cache ---*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed cache of CompiledCode artifacts, the
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
/// the identical config fingerprint over a 128-bit hash of the raw
/// `.sxir` bytes (hashBytes128) instead of the structural hash, tagged
/// `src:` so it can never equal a structural key. The compile service
/// probes it before parsing, so a repeated source is served without a
/// parse or a structural hash.
///
/// Collision contract: a key string carries only a hash, not the module
/// or the source. Two different modules whose 64-bit FNV-1a structural
/// hashes collide under the same configuration share one entry, and the
/// second is served the first's artifact: a wrong artifact, with
/// probability about 2^-64 per pair. A source key carries all 128 bits
/// of its hash, so two different sources share an entry with probability
/// about 2^-128 per pair, and two sources of equal length that differ in
/// one 8-byte word never do. Neither key keeps a copy of what it hashes.
///
/// One mutex guards one map and one LRU list, so MaxEntries is exact. The
/// service reaches the cache from its workers and from the threads that
/// enqueue (the source-key probe): a handful of threads, each holding the
/// lock for a hash lookup and a list splice. Hit/miss/insert/eviction
/// counters are relaxed atomics, read back only by stats().
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
#include <string_view>
#include <unordered_map>

namespace sxe {

/// Builds the canonical cache key for compiling a module whose structural
/// hash is \p IRHash under \p Config. Serializes every semantically
/// relevant config field (target, gen policy, engine, toggles, max array
/// length) plus the profile fingerprint.
std::string codeCacheKey(uint64_t IRHash, const PipelineConfig &Config);

/// Builds the alias key for compiling the `.sxir` text \p Source under
/// \p Config: `src:`, the 32 hex digits of hashBytes128(Source), then the
/// configuration half of codeCacheKey(). Byte-identical sources share it;
/// any difference, cosmetic or not, gives another key.
std::string codeCacheSourceKey(std::string_view Source,
                               const PipelineConfig &Config);

struct CodeCacheOptions {
  /// Capacity in artifacts; the least recently used beyond it is evicted.
  size_t MaxEntries = 4096;
};

/// Point-in-time counter snapshot.
struct CodeCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
};

/// LRU cache from codeCacheKey() strings to CompiledCode.
class CodeCache {
public:
  explicit CodeCache(CodeCacheOptions Options = {});

  /// Returns the cached artifact for \p Key, or null. Counts a hit or a
  /// miss and refreshes LRU recency on hit.
  std::shared_ptr<const CompiledCode> lookup(const std::string &Key);

  /// Inserts (or replaces) \p Code under \p Key, evicting the
  /// least-recently-used entries beyond capacity.
  void insert(const std::string &Key, std::shared_ptr<const CompiledCode> Code);

  /// True when \p Key is resident (no counter or LRU effects).
  bool contains(const std::string &Key) const;

  CodeCacheStats stats() const;

  /// Drops every entry (counters survive).
  void clear();

private:
  const size_t MaxEntries;
  mutable std::mutex Mu;
  /// Front = most recently used.
  std::list<std::string> Lru;
  std::unordered_map<std::string,
                     std::pair<std::shared_ptr<const CompiledCode>,
                               std::list<std::string>::iterator>>
      Map;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Insertions{0};
  std::atomic<uint64_t> Evictions{0};
};

} // namespace sxe

#endif // SXE_JIT_CODECACHE_H
