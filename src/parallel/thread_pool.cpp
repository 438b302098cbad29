#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace er {

namespace {
thread_local bool t_on_worker = false;

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

int resolve_num_threads(int requested) {
  if (requested < 0)
    throw std::invalid_argument("resolve_num_threads: negative thread count");
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads, obs::MetricsRegistry* registry) {
  obs::MetricsRegistry& reg = obs::registry_or_global(registry);
  tasks_total_ = &reg.counter("er_pool_tasks_total", {},
                              "Tasks submitted to the thread pool");
  busy_us_total_ =
      &reg.counter("er_pool_busy_us_total", {},
                   "Microseconds workers spent running tasks (utilization = "
                   "busy_us / threads / elapsed)");
  queue_depth_ = &reg.gauge("er_pool_queue_depth", {},
                            "Tasks enqueued but not yet started");
  threads_gauge_ = &reg.gauge("er_pool_threads", {}, "Live worker threads");
  obs::Counter& started =
      reg.counter("er_pool_threads_started_total", {},
                  "Worker threads spawned (transient pools show as churn)");
  queue_wait_hist_ =
      &reg.histogram("er_pool_task_queue_wait_seconds", {},
                     "Submit-to-start wait per task (queue pressure)");
  run_hist_ = &reg.histogram("er_pool_task_run_seconds", {},
                             "Wall-clock run time per task (compute side "
                             "of the queue-wait/compute split)");
  const int n = resolve_num_threads(num_threads);
  threads_gauge_->add(n);
  started.add(static_cast<std::uint64_t>(n));
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(&mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  threads_gauge_->add(-static_cast<std::int64_t>(workers_.size()));
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  QueuedTask queued{std::packaged_task<void()>(std::move(task)),
                    std::chrono::steady_clock::now()};
  std::future<void> fut = queued.task.get_future();
  {
    util::MutexLock lock(&mutex_);
    if (stop_)
      throw std::runtime_error("ThreadPool::submit: pool is shutting down");
    queue_.push(std::move(queued));
  }
  tasks_total_->add(1);
  queue_depth_->add(1);
  cv_.notify_one();
  return fut;
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    QueuedTask queued;
    {
      util::UniqueLock lock(&mutex_);
      // Explicit wait loop (not cv_.wait(lock, pred)): the guarded fields
      // are read in this annotated scope, where the analysis can see the
      // lock is held, instead of inside an unannotated lambda.
      while (!stop_ && queue_.empty()) cv_.wait(lock.native());
      if (queue_.empty()) return;  // stop_ set and queue drained
      queued = std::move(queue_.front());
      queue_.pop();
    }
    const auto start = std::chrono::steady_clock::now();
    queue_depth_->add(-1);
    queue_wait_hist_->record(seconds_between(queued.enqueued, start));
    queued.task();  // exceptions land in the task's future
    const auto end = std::chrono::steady_clock::now();
    const double run = seconds_between(start, end);
    run_hist_->record(run);
    busy_us_total_->add(static_cast<std::uint64_t>(std::llround(run * 1e6)));
  }
}

bool fans_out(const ThreadPool* pool) {
  return pool != nullptr && pool->num_threads() > 1 && !ThreadPool::on_worker_thread();
}

std::unique_ptr<ThreadPool> transient_pool(int num_threads) {
  if (ThreadPool::on_worker_thread() || resolve_num_threads(num_threads) <= 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads);
}

void wait_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void parallel_for(ThreadPool* pool, index_t begin, index_t end, index_t grain,
                  const std::function<void(index_t, index_t)>& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const index_t n = end - begin;
  if (n <= grain || !fans_out(pool)) {
    body(begin, end);
    return;
  }

  // Cap chunk count at a small multiple of the worker count: enough slack
  // for load balancing without swamping the queue.
  const index_t by_grain = (n + grain - 1) / grain;
  const index_t max_chunks =
      static_cast<index_t>(pool->num_threads()) * 4;
  const index_t chunks = std::min(by_grain, std::max<index_t>(1, max_chunks));
  const index_t step = (n + chunks - 1) / chunks;

  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(chunks));
  for (index_t lo = begin; lo < end; lo += step) {
    const index_t hi = std::min<index_t>(lo + step, end);
    futures.push_back(pool->submit([&body, lo, hi] { body(lo, hi); }));
  }
  wait_all(futures);
}

}  // namespace er
