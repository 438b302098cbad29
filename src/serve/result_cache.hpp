/// \file
/// Version-keyed ER result cache (DESIGN.md §4.2).
///
/// A sharded, lock-striped map from (scope, kind, node-pair) to the cached
/// answer, sitting between QueryFrontEnd and the snapshot's answer path. A
/// *scope* is an opaque epoch id: every published version gets a fresh
/// one. Every publish refactors the whole stitched system G, so an entry is
/// never valid across versions — but stays valid for as long as its
/// version is pinned and resolvable.
///
/// Correctness does not depend on the scope protocol: snapshots are
/// immutable and every cacheable answer is a pure per-query function of
/// (snapshot, kind, node pair), so a resolvable scope can only ever yield
/// the bitwise-identical answer the compute path would produce. The
/// protocol only decides *warmth*; an unresolvable version (never
/// registered, or past ResultCacheOptions::version_cap) simply misses
/// through. Entries of aged-out versions are swept eagerly at publish so
/// the capacity isn't squatted by dead versions
/// (`er_cache_invalidations_total`).
///
/// Thread-safety: all methods are safe for any number of concurrent
/// callers. Point operations lock one stripe; the publish hook locks the
/// scope table and then each stripe in turn (never nested).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "serve/query_frontend.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace er {

namespace obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

/// Knobs of the ResultCache. Nothing constructs a cache implicitly — a
/// deployment opts in by building one from these knobs and attaching it
/// to its ModelStore (ModelStore::attach_cache), which then serves every
/// batch through it.
struct ResultCacheOptions {
  /// Lock stripes (rounded up to a power of two). More stripes = less
  /// contention between concurrent query chunks; each stripe owns an
  /// independent LRU list.
  std::size_t shards = 16;
  /// Whole-cache entry bound, split evenly across shards (per-shard LRU).
  /// Resident bytes are max_entries * ResultCache::kEntryBytes.
  std::size_t max_entries = std::size_t{1} << 18;
  /// How many published versions stay resolvable at once. A snapshot
  /// pinned past the cap (or never registered) misses through and
  /// recomputes — never a wrong answer (DESIGN.md §4.2).
  std::size_t version_cap = 8;
};

/// Sharded LRU answer cache. Construct from ResultCacheOptions and
/// attach to the deployment's ModelStore (which invokes on_publish);
/// QueryFrontEnd::answer picks it up from the store automatically.
///
/// Observability (DESIGN.md §6): `er_cache_{hits,misses,evictions,
/// invalidations}_total` counters, `er_cache_entries` / `er_cache_bytes`
/// gauges, and the `er_cache_hit_latency_seconds` histogram, all
/// registered at construction so the families export even before traffic.
class ResultCache {
 public:
  /// Metrics go to `registry` (null = the process-wide global registry).
  explicit ResultCache(const ResultCacheOptions& opts = {},
                       obs::MetricsRegistry* registry = nullptr);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  [[nodiscard]] const ResultCacheOptions& options() const { return opts_; }

  /// Publish hook (ModelStore calls this after every snapshot swap, and
  /// once at attach_cache for the already-current snapshot). Registers a
  /// fresh scope for `version`, ages versions past
  /// ResultCacheOptions::version_cap out of the scope table, and sweeps
  /// entries of dead scopes. Hooks of racing publishes may run in either
  /// order: a scope is only ever fresh, so the worst case is a cold cache,
  /// never a stale hit.
  void on_publish(std::uint64_t version) ER_EXCLUDES(scope_mutex_);

  /// Scope of a snapshot version; nullopt when the version was never
  /// registered or has aged out (callers then skip the cache for the
  /// batch). Resolve once per batch.
  [[nodiscard]] std::optional<std::uint64_t> scope_for(
      std::uint64_t version) const ER_EXCLUDES(scope_mutex_);

  /// Probe for a cached answer; a hit refreshes the entry's LRU position
  /// and records the hit-latency sample. Returns false on miss.
  bool lookup(std::uint64_t scope, QueryKind kind, index_t p, index_t q,
              real_t* out);

  /// Store an answer under the scope, evicting per-shard LRU tails past
  /// the capacity bound. Inserting an existing key refreshes its value
  /// (idempotent: answers are deterministic per key).
  void insert(std::uint64_t scope, QueryKind kind, index_t p, index_t q,
              real_t value);

  // Whole-cache probes (tests / introspection; the registry carries the
  // same figures as er_cache_* series).
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;
  [[nodiscard]] std::uint64_t invalidations() const;

  /// Resident-byte estimate per entry (map node + LRU node + bookkeeping);
  /// er_cache_bytes = entries * kEntryBytes.
  static constexpr std::size_t kEntryBytes = 96;

 private:
  struct Key {
    std::uint64_t scope = 0;
    std::uint32_t kind = 0;  ///< QueryKind ordinal
    index_t p = 0;
    index_t q = 0;
    bool operator==(const Key& o) const {
      return scope == o.scope && kind == o.kind && p == o.p && q == o.q;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    real_t value = 0.0;
  };
  /// One lock stripe: an LRU list (front = most recent) plus the index
  /// into it. Sized so hot shards don't false-share their mutexes.
  struct Shard {
    mutable util::Mutex mutex;
    std::list<Entry> lru ER_GUARDED_BY(mutex);
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map
        ER_GUARDED_BY(mutex);
  };

  Shard& shard_for(const Key& key);
  /// Drop every entry whose scope is not in `live` (sorted); counts into
  /// er_cache_invalidations_total.
  void sweep_dead_scopes(const std::vector<std::uint64_t>& live);

  const ResultCacheOptions opts_;
  std::size_t shard_cap_entries_ = 0;  ///< per-shard entry bound
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable util::Mutex scope_mutex_;
  /// Monotone scope id source — ids are never reused, so a swept scope
  /// can never resurrect (unlike raw artifact pointers, which the
  /// allocator may recycle).
  std::uint64_t next_scope_ ER_GUARDED_BY(scope_mutex_) = 1;
  /// (version, scope) of the most recent registrations, oldest first,
  /// bounded by ResultCacheOptions::version_cap.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> versions_
      ER_GUARDED_BY(scope_mutex_);

  obs::Counter* hits_total_;
  obs::Counter* misses_total_;
  obs::Counter* evictions_total_;
  obs::Counter* invalidations_total_;
  obs::Gauge* entries_gauge_;
  obs::Gauge* bytes_gauge_;
  obs::Histogram* hit_latency_;
};

using ResultCachePtr = std::shared_ptr<ResultCache>;

}  // namespace er
