// Fixed-size thread pool and a blocking parallel_for, the concurrency
// substrate for block-parallel reduction (Alg. 1 steps 2-4 are independent
// per block) and chunked effective-resistance batch queries.
//
// Design rules (see DESIGN.md §3 "Concurrency model"):
//   * Determinism is owned by the callers: every parallel site derives its
//     RNG stream as mix_seed(seed, stream_id), so results are bit-identical
//     at any thread count, including 1.
//   * A caller that waits on pool work runs it (run_with_helpers): the
//     calling thread works while idle workers join in as helpers, and it
//     never waits for a helper that has not started. So a call behaves the
//     same from any thread, a pool worker included (reduce_block on a
//     worker issuing a batched ER query), and progress never needs a free
//     worker.
//   * Tasks may throw; the first exception is rethrown on the calling
//     thread once every helper that started has returned.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace er {

namespace obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

/// Threading knob carried by ReductionOptions, ApproxCholOptions (and
/// bench flags). Results are bit-identical at any setting; the defaults
/// differ by site: ReductionOptions keeps 1 (the caller opts in to a
/// pool), ApproxCholOptions uses 0 (its transient pool only lives for the
/// Alg. 2 build and is skipped when the caller passes a pool).
struct ParallelOptions {
  /// 0 = auto (hardware concurrency), 1 = serial, n = exactly n threads.
  int num_threads = 1;
};

/// Map the ParallelOptions convention onto an actual thread count (>= 1).
int resolve_num_threads(int requested);

/// Fixed-size pool of worker threads draining a FIFO task queue.
/// submit() is thread-safe, including from inside a worker task.
///
/// Observability (DESIGN.md §6): every pool reports a queue-depth gauge
/// (`er_pool_queue_depth`), a worker-count gauge (`er_pool_threads`), a
/// spawned-workers counter (`er_pool_threads_started_total`; its rate is
/// the churn of transient pools such as the Alg. 2 build's), per-task
/// queue-wait and run-time histograms (`er_pool_task_queue_wait_seconds`
/// / `er_pool_task_run_seconds` — the queue-wait vs compute split of
/// anything fanned across the pool), and a busy-time counter
/// (`er_pool_busy_us_total`; utilization = busy_us / threads / elapsed).
/// The cost is three steady_clock reads per *task* (tasks are
/// chunk-granular), nothing per iteration.
class ThreadPool {
 public:
  /// Spawns resolve_num_threads(num_threads) workers immediately.
  /// Metrics go to `registry` (null = the process-wide global registry);
  /// pools sharing a registry aggregate into the same series.
  explicit ThreadPool(int num_threads = 0,
                      obs::MetricsRegistry* registry = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Enqueue a task; the future resolves when it finishes and rethrows any
  /// exception the task raised. Never blocks (safe to call from a worker).
  std::future<void> submit(std::function<void()> task) ER_EXCLUDES(mutex_);

 private:
  /// A queued task plus its enqueue instant (the queue-wait anchor).
  struct QueuedTask {
    std::packaged_task<void()> task;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();

  std::vector<std::thread> workers_;  // main-thread only (ctor/dtor)
  util::Mutex mutex_;
  std::queue<QueuedTask> queue_ ER_GUARDED_BY(mutex_);
  std::condition_variable cv_;
  bool stop_ ER_GUARDED_BY(mutex_) = false;
  // Registry-backed instrumentation (pointers cached at construction;
  // recording is lock-free).
  obs::Counter* tasks_total_;
  obs::Counter* busy_us_total_;
  obs::Gauge* queue_depth_;
  obs::Gauge* threads_gauge_;
  obs::Histogram* queue_wait_hist_;
  obs::Histogram* run_hist_;
};

/// A pool for a parallel step whose caller passed none: with more than
/// one thread requested (ParallelOptions convention), a new pool of that
/// many threads; otherwise null.
std::unique_ptr<ThreadPool> transient_pool(int num_threads);

/// Runs `work(0)` on the calling thread and queues num_threads() - 1
/// helpers on `pool`; each helper that starts while the caller's call is
/// still running runs `work(slot)` with its own slot in
/// [1, num_threads()). Returns once the caller's call and every started
/// helper have returned; a helper that starts later returns at once
/// without touching `work`. `work` must finish the job from slot 0 alone.
/// Rethrows the first exception a call raised.
void run_with_helpers(ThreadPool& pool, const std::function<void(int)>& work);

/// Split [begin, end) into chunks of at least `grain` iterations and run
/// `body(chunk_begin, chunk_end)` on the calling thread and the pool's
/// idle workers (run_with_helpers), blocking until all chunks complete.
/// Runs inline (one chunk) with a null or 1-thread pool or a range within
/// one grain. The first exception thrown by any chunk is rethrown here
/// after every chunk that started has finished; a thread whose chunk
/// threw claims no further chunk.
void parallel_for(ThreadPool* pool, index_t begin, index_t end, index_t grain,
                  const std::function<void(index_t, index_t)>& body);

}  // namespace er
