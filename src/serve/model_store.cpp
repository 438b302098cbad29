#include "serve/model_store.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "serve/result_cache.hpp"

namespace er {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ModelStore::ModelStore(obs::MetricsRegistry* registry) {
  obs::MetricsRegistry& reg = obs::registry_or_global(registry);
  publishes_total_ = &reg.counter("er_store_publishes_total", {},
                                  "Snapshots published to the store");
  current_version_gauge_ =
      &reg.gauge("er_store_current_version", {},
                 "Version of the currently-published snapshot");
}

void ModelStore::publish(SnapshotPtr snapshot) {
  if (!snapshot)
    throw std::invalid_argument("ModelStore::publish: null snapshot");
  const auto now = std::chrono::steady_clock::now();
  const auto version = snapshot->version();
  // Swap under the lock, destroy outside it: if this publish drops the last
  // reference to the displaced snapshot, its (large) teardown must not
  // stall concurrent acquire() calls — the critical section stays a
  // pointer swap plus O(1) bookkeeping. The cache hook also runs
  // outside the lock (it sweeps every cache stripe): racing publishes may
  // then invoke hooks out of order, which at worst leaves a cache cold,
  // never yields a stale hit — see ResultCache::on_publish.
  SnapshotPtr displaced;
  std::shared_ptr<ResultCache> cache;
  {
    util::MutexLock lock(&mutex_);
    published_at_ = now;
    displaced = std::move(current_);
    current_ = snapshot;
    ++publish_count_;
    cache = cache_;
  }
  publishes_total_->add(1);
  current_version_gauge_->set(static_cast<std::int64_t>(version));
  if (cache) cache->on_publish(version);
}

void ModelStore::attach_cache(std::shared_ptr<ResultCache> cache) {
  SnapshotPtr current;
  {
    util::MutexLock lock(&mutex_);
    cache_ = cache;
    current = current_;
  }
  // Register the already-published snapshot so its version resolves.
  if (cache && current) cache->on_publish(current->version());
}

std::shared_ptr<ResultCache> ModelStore::cache() const {
  util::MutexLock lock(&mutex_);
  return cache_;
}

SnapshotPtr ModelStore::acquire() const {
  util::MutexLock lock(&mutex_);
  return current_;
}

std::uint64_t ModelStore::publish_count() const {
  util::MutexLock lock(&mutex_);
  return publish_count_;
}

bool ModelStore::has_published() const {
  // Pure convenience name over the optional probe (one lock, in there).
  return current_version().has_value();
}

std::optional<std::uint64_t> ModelStore::current_version() const {
  util::MutexLock lock(&mutex_);
  if (!current_) return std::nullopt;
  return current_->version();
}

std::optional<double> ModelStore::current_age_seconds() const {
  util::MutexLock lock(&mutex_);
  if (!current_) return std::nullopt;
  return seconds_since(published_at_);
}

}  // namespace er
