#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace er {

namespace {
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

void ThreadPool::worker_loop() {
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

std::unique_ptr<ThreadPool> transient_pool(int num_threads) {
  if (resolve_num_threads(num_threads) <= 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads);
}

namespace {
/// What a run_with_helpers call shares with its helpers. A helper holds it
/// by shared_ptr, so one that starts after the call has returned reads
/// only this, never the caller's frame.
struct HelperGate {
  explicit HelperGate(const std::function<void(int)>* w) : work(w) {}

  util::Mutex mutex;
  std::condition_variable cv;
  /// The caller's work while the call runs; null once the gate is closed.
  const std::function<void(int)>* work ER_GUARDED_BY(mutex);
  int started ER_GUARDED_BY(mutex) = 0;  // helpers that took a slot
  int running ER_GUARDED_BY(mutex) = 0;  // of those, not yet returned
  std::exception_ptr error ER_GUARDED_BY(mutex);  // the first one thrown
};

std::exception_ptr call(const std::function<void(int)>& work, int slot) {
  try {
    work(slot);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}
}  // namespace

void run_with_helpers(ThreadPool& pool, const std::function<void(int)>& work) {
  const auto gate = std::make_shared<HelperGate>(&work);
  HelperGate& g = *gate;
  for (int h = 1; h < pool.num_threads(); ++h) {
    // The future is dropped: a helper reports through the gate.
    pool.submit([gate] {
      HelperGate& hg = *gate;
      const std::function<void(int)>* helper_work = nullptr;
      int slot = 0;
      {
        util::MutexLock lock(&hg.mutex);
        if (hg.work == nullptr) return;  // late: the call is over
        helper_work = hg.work;
        slot = ++hg.started;
        ++hg.running;
      }
      std::exception_ptr error = call(*helper_work, slot);
      util::MutexLock lock(&hg.mutex);
      if (error && !hg.error) hg.error = error;
      if (--hg.running == 0) hg.cv.notify_all();
    });
  }
  std::exception_ptr error = call(work, 0);
  util::UniqueLock lock(&g.mutex);
  if (error && !g.error) g.error = error;
  g.work = nullptr;
  while (g.running > 0) g.cv.wait(lock.native());
  if (g.error) std::rethrow_exception(g.error);
}

void parallel_for(ThreadPool* pool, index_t begin, index_t end, index_t grain,
                  const std::function<void(index_t, index_t)>& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const index_t n = end - begin;
  if (n <= grain || pool == nullptr || pool->num_threads() == 1) {
    body(begin, end);
    return;
  }

  // Cap chunk count at a small multiple of the worker count: enough slack
  // for load balancing without too many claims.
  const index_t wanted =
      std::min((n + grain - 1) / grain, static_cast<index_t>(pool->num_threads()) * 4);
  const index_t step = (n + wanted - 1) / wanted;
  const index_t chunks = (n + step - 1) / step;
  std::atomic<index_t> next{0};
  run_with_helpers(*pool, [&](int) {
    for (index_t c; (c = next++) < chunks;) {
      const index_t lo = begin + c * step;
      body(lo, std::min<index_t>(lo + step, end));
    }
  });
}

}  // namespace er
