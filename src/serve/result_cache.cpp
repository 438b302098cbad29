#include "serve/result_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace er {

namespace {

/// Smallest power of two >= v (v clamped into [1, 2^20]).
std::size_t pow2_at_least(std::size_t v) {
  v = std::max<std::size_t>(1, std::min<std::size_t>(v, std::size_t{1} << 20));
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

std::size_t ResultCache::KeyHash::operator()(const Key& k) const {
  // mix_seed is the repo's deterministic 64-bit mixer; fold every field so
  // stripes load-balance even when scopes are dense small integers.
  const std::uint64_t pq = (static_cast<std::uint64_t>(
                                static_cast<std::uint32_t>(k.p))
                            << 32) |
                           static_cast<std::uint32_t>(k.q);
  return static_cast<std::size_t>(
      mix_seed(k.scope ^ (std::uint64_t{k.kind} << 56), pq));
}

ResultCache::ResultCache(const ResultCacheOptions& opts,
                         obs::MetricsRegistry* registry)
    : opts_(opts) {
  const std::size_t nshards = pow2_at_least(opts_.shards);
  shards_.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s)
    shards_.push_back(std::make_unique<Shard>());
  // The entry bound split across stripes. At least one entry per shard so
  // a tiny bound still caches something.
  shard_cap_entries_ = std::max<std::size_t>(1, opts_.max_entries / nshards);

  obs::MetricsRegistry& reg = obs::registry_or_global(registry);
  hits_total_ = &reg.counter("er_cache_hits_total", {},
                             "Result-cache lookups answered from cache");
  misses_total_ = &reg.counter("er_cache_misses_total", {},
                               "Result-cache lookups that recomputed");
  evictions_total_ =
      &reg.counter("er_cache_evictions_total", {},
                   "Entries dropped by the per-shard LRU capacity bound");
  invalidations_total_ = &reg.counter(
      "er_cache_invalidations_total", {},
      "Entries dropped at publish (aged-out versions)");
  entries_gauge_ =
      &reg.gauge("er_cache_entries", {}, "Resident result-cache entries");
  bytes_gauge_ = &reg.gauge("er_cache_bytes", {},
                            "Estimated resident result-cache bytes");
  hit_latency_ =
      &reg.histogram("er_cache_hit_latency_seconds", {},
                     "Wall-clock latency of lookups that hit");
}

ResultCache::Shard& ResultCache::shard_for(const Key& key) {
  // shards_.size() is a power of two; reuse the key hash's top bits so the
  // stripe choice and the in-shard bucket choice stay decorrelated.
  const std::size_t h = KeyHash{}(key);
  return *shards_[(h >> 17) & (shards_.size() - 1)];
}

void ResultCache::on_publish(std::uint64_t version) {
  std::vector<std::uint64_t> live;
  {
    util::MutexLock lock(&scope_mutex_);
    // Re-registering a version replaces it (generic writers may republish
    // a version number; newest registration wins, matching the store).
    versions_.erase(std::remove_if(versions_.begin(), versions_.end(),
                                   [&](const auto& entry) {
                                     return entry.first == version;
                                   }),
                    versions_.end());
    versions_.emplace_back(version, next_scope_++);
    const std::size_t cap = std::max<std::size_t>(1, opts_.version_cap);
    if (versions_.size() > cap)
      versions_.erase(versions_.begin(),
                      versions_.begin() +
                          static_cast<std::ptrdiff_t>(versions_.size() - cap));
    for (const auto& [v, scope] : versions_) live.push_back(scope);
  }
  // Scopes are handed out in increasing order and versions_ keeps
  // registration order, so `live` is already sorted.
  sweep_dead_scopes(live);
}

std::optional<std::uint64_t> ResultCache::scope_for(
    std::uint64_t version) const {
  util::MutexLock lock(&scope_mutex_);
  for (const auto& [v, scope] : versions_)
    if (v == version) return scope;
  return std::nullopt;
}

bool ResultCache::lookup(std::uint64_t scope, QueryKind kind, index_t p,
                         index_t q, real_t* out) {
  Timer timer;
  const Key key{scope, static_cast<std::uint32_t>(kind), p, q};
  Shard& shard = shard_for(key);
  bool hit = false;
  {
    util::MutexLock lock(&shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      *out = it->second->value;
      hit = true;
    }
  }
  if (hit) {
    hits_total_->add(1);
    hit_latency_->record(timer.seconds());
    return true;
  }
  misses_total_->add(1);
  return false;
}

void ResultCache::insert(std::uint64_t scope, QueryKind kind, index_t p,
                         index_t q, real_t value) {
  const Key key{scope, static_cast<std::uint32_t>(kind), p, q};
  Shard& shard = shard_for(key);
  std::size_t evicted = 0;
  bool inserted = false;
  {
    util::MutexLock lock(&shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // Refresh: answers are deterministic per key, so the value can only
      // be the same — but racing inserts of the same key must stay benign.
      it->second->value = value;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, value});
      shard.map.emplace(key, shard.lru.begin());
      inserted = true;
      while (shard.map.size() > shard_cap_entries_) {
        shard.map.erase(shard.lru.back().key);
        shard.lru.pop_back();
        ++evicted;
      }
    }
  }
  if (evicted > 0) evictions_total_->add(evicted);
  const auto delta = static_cast<std::int64_t>(inserted ? 1 : 0) -
                     static_cast<std::int64_t>(evicted);
  if (delta != 0) {
    entries_gauge_->add(delta);
    bytes_gauge_->add(delta * static_cast<std::int64_t>(kEntryBytes));
  }
}

void ResultCache::sweep_dead_scopes(const std::vector<std::uint64_t>& live) {
  std::size_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    util::MutexLock lock(&shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (std::binary_search(live.begin(), live.end(), it->key.scope)) {
        ++it;
        continue;
      }
      shard.map.erase(it->key);
      it = shard.lru.erase(it);
      ++dropped;
    }
  }
  if (dropped > 0) {
    invalidations_total_->add(dropped);
    entries_gauge_->add(-static_cast<std::int64_t>(dropped));
    bytes_gauge_->add(-static_cast<std::int64_t>(dropped * kEntryBytes));
  }
}

std::size_t ResultCache::entries() const {
  std::size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    util::MutexLock lock(&shard_ptr->mutex);
    total += shard_ptr->map.size();
  }
  return total;
}

std::uint64_t ResultCache::hits() const { return hits_total_->value(); }
std::uint64_t ResultCache::misses() const { return misses_total_->value(); }
std::uint64_t ResultCache::evictions() const {
  return evictions_total_->value();
}
std::uint64_t ResultCache::invalidations() const {
  return invalidations_total_->value();
}

}  // namespace er
