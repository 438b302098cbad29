#include "serve/async_updater.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace er {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

AsyncUpdater::AsyncUpdater(UpdateFn apply)
    : AsyncUpdater(std::move(apply), Options{}) {}

AsyncUpdater::AsyncUpdater(UpdateFn apply, Options options)
    : apply_(std::move(apply)), options_(options) {
  if (!apply_)
    throw std::invalid_argument("AsyncUpdater: null update function");
  obs::MetricsRegistry& reg = obs::registry_or_global(options_.registry);
  submitted_ = &reg.counter("er_updater_mods_submitted_total", {},
                            "Modifications accepted by submit()");
  applied_ = &reg.counter("er_updater_mods_applied_total", {},
                          "Modifications folded into finished updates");
  batches_ = &reg.counter("er_updater_batches_total", {},
                          "Worker update+publish cycles");
  coalesced_ =
      &reg.counter("er_updater_mods_coalesced_total", {},
                   "Modifications merged into an already-pending batch");
  failed_ = &reg.counter("er_updater_mods_failed_total", {},
                         "Modifications lost to a batch whose update threw");
  blocked_submits_ =
      &reg.counter("er_updater_blocked_submits_total", {},
                   "submit() calls that waited at the staleness bound");
  rejected_ =
      &reg.counter("er_updater_mods_rejected_total", {},
                   "Modifications turned away by fail_fast at the bound");
  staleness_mods_ =
      &reg.gauge("er_updater_staleness_mods", {},
                 "Accepted-but-unpublished modifications right now");
  staleness_high_water_ =
      &reg.gauge("er_updater_staleness_mods_high_water", {},
                 "Largest staleness ever observed at a submit");
  publish_latency_hist_ = &reg.histogram(
      "er_updater_publish_latency_seconds", {},
      "Submit-to-publish latency of the oldest modification per batch");
  blocked_wait_hist_ =
      &reg.histogram("er_updater_blocked_wait_seconds", {},
                     "Per-blocked-submit wait at the staleness bound");
  worker_ = std::thread([this] { worker_loop(); });
}

AsyncUpdater::~AsyncUpdater() {
  try {
    drain();
  } catch (...) {
    // drain() rethrows a latched worker error; the destructor only needs
    // the join, which drain() completed before throwing.
  }
}

bool AsyncUpdater::submit(ConductanceNetwork network,
                          std::vector<index_t> dirty_blocks) {
  std::sort(dirty_blocks.begin(), dirty_blocks.end());
  dirty_blocks.erase(std::unique(dirty_blocks.begin(), dirty_blocks.end()),
                     dirty_blocks.end());
  util::UniqueLock lock(&mutex_);
  if (error_) std::rethrow_exception(error_);
  if (stop_)
    throw std::logic_error("AsyncUpdater::submit: updater was drained");
  // Back-pressure: accepting this modification must not leave more than
  // max_staleness_mods accepted-but-unpublished (the store would trail the
  // edit stream beyond the bound). Fail fast or wait for the worker —
  // cv_idle_ is notified at every batch completion — depending on policy.
  if (options_.max_staleness_mods > 0 &&
      unpublished_mods_ + 1 > options_.max_staleness_mods) {
    if (options_.fail_fast) {
      rejected_->add(1);
      return false;
    }
    blocked_submits_->add(1);
    const auto t0 = std::chrono::steady_clock::now();
    // Explicit wait loop so the guarded reads sit in this annotated scope
    // (a cv wait predicate lambda is analyzed lock-less).
    while (error_ == nullptr && !stop_ &&
           unpublished_mods_ + 1 > options_.max_staleness_mods)
      cv_idle_.wait(lock.native());
    blocked_wait_hist_->record(seconds_since(t0));
    if (error_) std::rethrow_exception(error_);
    if (stop_)
      throw std::logic_error("AsyncUpdater::submit: updater was drained");
  }
  submitted_->add(1);
  ++unpublished_mods_;
  staleness_mods_->set(static_cast<std::int64_t>(unpublished_mods_));
  staleness_high_water_->max_with(static_cast<std::int64_t>(unpublished_mods_));
  if (pending_) {
    // Coalesce: the newer network is the more recent cumulative state, so
    // it replaces the pending one; the dirty sets union; the latency
    // anchor stays the oldest merged modification.
    pending_->network = std::move(network);
    std::vector<index_t> merged;
    merged.reserve(pending_->dirty_blocks.size() + dirty_blocks.size());
    std::set_union(pending_->dirty_blocks.begin(),
                   pending_->dirty_blocks.end(), dirty_blocks.begin(),
                   dirty_blocks.end(), std::back_inserter(merged));
    pending_->dirty_blocks = std::move(merged);
    ++pending_->mods;
    coalesced_->add(1);
  } else {
    pending_.emplace();
    pending_->network = std::move(network);
    pending_->dirty_blocks = std::move(dirty_blocks);
    pending_->oldest = std::chrono::steady_clock::now();
    pending_->mods = 1;
  }
  cv_worker_.notify_one();
  return true;
}

void AsyncUpdater::flush() {
  util::UniqueLock lock(&mutex_);
  // flush implies resume: the predicate clears paused_ on every
  // evaluation — including the initial one on an idle updater and every
  // wake (pause() notifies cv_idle_ precisely so this re-evaluation
  // happens) — so a racing pause can neither strand the pending batch nor
  // leave the updater paused after flush returns. Written as an explicit
  // wait loop (predicate checked before each wait and on each wake, same
  // as cv.wait(lock, pred)) so the guarded accesses are in this annotated
  // scope.
  for (;;) {
    if (paused_) {
      paused_ = false;
      cv_worker_.notify_one();
    }
    if (error_ != nullptr || (!pending_ && !in_flight_)) break;
    cv_idle_.wait(lock.native());
  }
  if (error_) std::rethrow_exception(error_);
}

void AsyncUpdater::drain() {
  std::exception_ptr err;
  try {
    flush();
  } catch (...) {
    err = std::current_exception();
  }
  {
    util::MutexLock lock(&mutex_);
    stop_ = true;
  }
  cv_worker_.notify_one();
  // call_once serializes concurrent drains (e.g. an explicit drain racing
  // the destructor's): exactly one caller joins, the rest block until the
  // join completes — keeping drain() idempotent and thread-safe.
  std::call_once(join_once_, [this] { worker_.join(); });
  if (err) std::rethrow_exception(err);
}

void AsyncUpdater::pause() {
  util::MutexLock lock(&mutex_);
  paused_ = true;
  // Wake flush()/drain() waiters so they can override the pause (their
  // wait predicate re-clears paused_) instead of hanging on a batch the
  // worker will no longer pick up.
  cv_idle_.notify_all();
}

void AsyncUpdater::resume() {
  util::MutexLock lock(&mutex_);
  paused_ = false;
  cv_worker_.notify_one();
}

std::uint64_t AsyncUpdater::mods_reflected(std::uint64_t version) const {
  util::MutexLock lock(&mutex_);
  // Versions are strictly increasing in publish order: binary-search the
  // newest batch published at or before `version`, falling back to the
  // prune marker for versions older than the retention window.
  const auto it = std::partition_point(
      version_log_.begin(), version_log_.end(),
      [version](const std::pair<std::uint64_t, std::uint64_t>& e) {
        return e.first <= version;
      });
  if (it != version_log_.begin()) return std::prev(it)->second;
  if (pruned_ && version >= pruned_->first) return pruned_->second;
  return 0;
}

void AsyncUpdater::worker_loop() {
  util::UniqueLock lock(&mutex_);
  for (;;) {
    // Explicit wait loop (see submit()): wake when stopped or a batch is
    // runnable (pending and not paused).
    while (!stop_ && (!pending_.has_value() || paused_))
      cv_worker_.wait(lock.native());
    if (!pending_ || paused_) {
      // Only reachable with stop_ set: a paused drain was abandoned (the
      // destructor path after a flush error) — nothing runnable remains.
      if (stop_) return;
      continue;
    }
    PendingBatch batch = std::move(*pending_);
    pending_.reset();
    in_flight_ = true;
    lock.unlock();

    std::uint64_t version = 0;
    std::exception_ptr err;
    try {
      version = apply_(batch.network, batch.dirty_blocks);
    } catch (...) {
      err = std::current_exception();
    }
    const double latency = seconds_since(batch.oldest);

    lock.lock();
    in_flight_ = false;
    if (err) {
      // Latch the error and stop: the model source's state after a failed
      // update is suspect, so no further batches are applied. submit() and
      // flush() surface the error to the caller; the batch's modifications
      // count as failed, so submitted = applied + failed + unpublished.
      error_ = err;
      stop_ = true;
      unpublished_mods_ -= batch.mods;
      failed_->add(batch.mods);
      staleness_mods_->set(static_cast<std::int64_t>(unpublished_mods_));
      cv_idle_.notify_all();
      return;
    }
    unpublished_mods_ -= batch.mods;
    applied_mods_ += batch.mods;
    applied_->add(batch.mods);
    batches_->add(1);
    publish_latency_hist_->record(latency);
    staleness_mods_->set(static_cast<std::int64_t>(unpublished_mods_));
    version_log_.emplace_back(version, applied_mods_);
    // Bound the log: fold the older half into the prune marker once it
    // outgrows kVersionLogCap batches of retention.
    if (version_log_.size() > kVersionLogCap) {
      const auto half =
          static_cast<std::ptrdiff_t>(version_log_.size() / 2);
      pruned_ = version_log_[static_cast<std::size_t>(half - 1)];
      version_log_.erase(version_log_.begin(),
                         version_log_.begin() + half);
    }
    cv_idle_.notify_all();
    if (stop_ && !pending_) return;
  }
}

}  // namespace er
