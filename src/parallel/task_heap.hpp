// Ready-task executor for the dependency-driven kernels (the supernodal
// Cholesky numeric pass and the Alg. 2 column build): one max-heap of
// ready tasks drained by the calling thread and a pool's idle workers.
// The kernel keeps its own dependency rules; the executor owns the
// scheduling protocol, the wake-ups and the error latch (DESIGN.md §3 "Parallel sites").
#pragma once

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/thread_annotations.hpp"

namespace er {

/// Runs a task graph on the calling thread and a pool's idle workers
/// (run_with_helpers). The caller runs the loop below in slot 0 and up to
/// pool.num_threads() - 1 helpers in slots 1.., so per-worker scratch of
/// pool.num_threads() entries covers every slot. Each loop:
///   * pops the top ready task;
///   * `execute(task, slot)` outside the lock (per-worker scratch is the
///     kernel's, indexed by slot);
///   * `complete(task, ready)` under the lock: the kernel releases the
///     tasks that depended on `task` and appends those now ready to
///     `ready`. Calls to `complete` never overlap, so the kernel's
///     dependency counters need no lock of their own.
/// The run ends when no task is ready or running, or at the first error a
/// task throws (no further task starts). The caller alone can finish the
/// graph, so run() is safe from any thread, a worker of the same pool
/// included. It returns once every started loop has returned and only
/// then rethrows that error.
template <class Task, class Execute, class Complete>
class TaskHeap {
 public:
  /// `ready`: the tasks ready at the start.
  TaskHeap(std::vector<Task> ready, Execute execute, Complete complete)
      : execute_(std::move(execute)), complete_(std::move(complete)), heap_(std::move(ready)) {
    std::make_heap(heap_.begin(), heap_.end());
  }

  void run(ThreadPool& pool) ER_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(&mutex_);
      if (heap_.empty()) return;
    }
    run_with_helpers(pool, [this](int slot) { work_loop(slot); });
    util::MutexLock lock(&mutex_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void work_loop(int slot) ER_EXCLUDES(mutex_) {
    util::UniqueLock lock(&mutex_);
    for (;;) {
      while (heap_.empty() && running_ > 0 && !error_) cv_.wait(lock.native());
      if (heap_.empty() || error_) return;
      std::pop_heap(heap_.begin(), heap_.end());
      const Task task = heap_.back();
      heap_.pop_back();
      ++running_;
      lock.unlock();
      std::exception_ptr error;
      try {
        execute_(task, slot);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      --running_;
      const std::size_t queued = heap_.size();
      if (!error) {
        try {
          complete_(task, heap_);
        } catch (...) {
          error = std::current_exception();
        }
      }
      if (error) {
        if (!error_) error_ = std::move(error);
        cv_.notify_all();
        return;
      }
      for (std::size_t k = queued; k < heap_.size(); ++k)
        std::push_heap(heap_.begin(), heap_.begin() + static_cast<std::ptrdiff_t>(k) + 1);
      if (heap_.empty() && running_ == 0) {
        cv_.notify_all();
        return;
      }
      // This loop takes one of the new tasks itself.
      for (std::size_t k = queued + 1; k < heap_.size(); ++k) cv_.notify_one();
    }
  }

  Execute execute_;
  Complete complete_;
  util::Mutex mutex_;
  std::condition_variable cv_;
  std::vector<Task> heap_ ER_GUARDED_BY(mutex_);  // max-heap of ready tasks
  int running_ ER_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ ER_GUARDED_BY(mutex_);
};

}  // namespace er
