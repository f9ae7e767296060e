//===- jit/PersistentCache.h - On-disk content-addressed cache ---*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second cache tier under the in-memory CodeCache: a persistent,
/// content-addressed store of CompiledCode artifacts shared across
/// processes and restarts. Keys are the same full codeCacheKey() strings
/// (structural IR hash x target x config x profile fingerprint), so a
/// cross-process hit is sound by construction — the artifact is a pure
/// function of the key, and remark replay is deterministic (PR 4).
///
/// Directory layout (docs/JIT.md):
///
///     <dir>/objects/<fnv16>.json  one sxe.pcache.v2 entry per key
///
/// The object directory is the whole store: there is no index file. At
/// construction the cache lists objects/*.json once — each entry's size
/// comes from its directory entry and its recency from mtime order (ties
/// broken by file name) — so startup opens and parses no file, and what
/// the cache counts is exactly what is on disk, after a clean exit or a
/// kill -9 alike. An index file an older build left in <dir> is ignored.
///
/// Durability discipline:
///  - every write goes to `<file>.tmp` in the same directory and is
///    published with rename(2), so readers never observe a torn entry;
///  - every entry embeds its full key and an FNV-1a checksum over the
///    artifact payload; a truncated, corrupted, mismatched, or
///    unparseable entry loads as a miss (and is dropped), never as a
///    wrong artifact and never as a failure — the caller just compiles;
///  - a lookup always probes the object path, so entries written by
///    another process after this one listed the directory are found.
///
/// Eviction is LRU by total byte budget: each insert that pushes the
/// store past MaxBytes deletes least-recently-used entry files until it
/// fits. A write and a hit both set the file's mtime to now, so the
/// access order survives any restart; in memory it is kept as monotonic
/// ticks seeded from that order.
///
/// Thread safety: all operations take one internal mutex; the service
/// probes this tier only after an in-memory miss, so the lock is off the
/// warm hot path.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_JIT_PERSISTENTCACHE_H
#define SXE_JIT_PERSISTENTCACHE_H

#include "jit/CompileTask.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sxe {

/// Schema tag of the on-disk entry documents.
inline constexpr const char *kPCacheEntrySchema = "sxe.pcache.v2";

struct PersistentCacheOptions {
  /// Root directory; created (with objects/) if absent. Empty disables
  /// every operation (lookup misses, insert is a no-op).
  std::string Dir;
  /// Total entry-file byte budget; LRU eviction keeps the store under it.
  uint64_t MaxBytes = 256ull << 20;
};

/// Point-in-time counter snapshot.
struct PersistentCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  /// Entries dropped because they failed to parse or verify (truncation,
  /// corruption, checksum or key mismatch). Always also counted as a miss.
  uint64_t CorruptDropped = 0;
  uint64_t Entries = 0;
  uint64_t Bytes = 0;
};

/// Serializes \p Code as one sxe.pcache.v2 entry document for \p Key.
std::string encodePersistentEntry(const std::string &Key,
                                  const CompiledCode &Code);

/// Parses an entry document back. Fails (with \p Error) on schema, key,
/// or checksum mismatch and on any malformed content.
bool decodePersistentEntry(const std::string &Text, const std::string &Key,
                           CompiledCode &Out, std::string &Error);

/// On-disk LRU cache from codeCacheKey() strings to CompiledCode.
class PersistentCache {
public:
  /// Lists objects/*.json (creating the directories if absent).
  explicit PersistentCache(PersistentCacheOptions Options);

  PersistentCache(const PersistentCache &) = delete;
  PersistentCache &operator=(const PersistentCache &) = delete;

  /// Loads the artifact stored for \p Key, or null on miss. A hit marks
  /// the entry most recently used (and sets its file's mtime to now); a
  /// corrupt entry is deleted and reported as a miss.
  std::shared_ptr<const CompiledCode> lookup(const std::string &Key);

  /// Persists \p Code under \p Key (atomic rename) and evicts LRU
  /// entries beyond the byte budget. Overwrites an existing entry.
  void insert(const std::string &Key, const CompiledCode &Code);

  /// True when an entry file for \p Key exists (no counters, no I/O on
  /// the artifact body).
  bool contains(const std::string &Key) const;

  PersistentCacheStats stats() const;

  const std::string &dir() const { return Options.Dir; }
  bool enabled() const { return !Options.Dir.empty(); }

private:
  struct Entry {
    uint64_t Bytes = 0;
    uint64_t AccessTick = 0;
  };

  std::string objectPath(const std::string &File) const;
  void scanObjectsLocked();
  /// Records \p File as \p Bytes long and most recently used.
  void touchLocked(const std::string &File, uint64_t Bytes);
  void evictOverBudgetLocked();
  /// The only removal path: deletes the object file and forgets its bytes.
  void dropEntryLocked(const std::string &File, bool CountEviction);

  PersistentCacheOptions Options;
  mutable std::mutex Mu;
  /// Object file name (fileNameForKey) -> bookkeeping. The artifact
  /// bytes live only on disk.
  std::map<std::string, Entry> Entries;
  uint64_t TotalBytes = 0;
  uint64_t NextTick = 1;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  uint64_t CorruptDropped = 0;
};

} // namespace sxe

#endif // SXE_JIT_PERSISTENTCACHE_H
