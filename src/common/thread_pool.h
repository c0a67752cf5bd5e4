#ifndef HYPPO_COMMON_THREAD_POOL_H_
#define HYPPO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hyppo {

/// \brief Fixed-size worker pool for executing independent tasks.
///
/// Used by the plan executor and the parallel plan-search engine (each
/// runs one long-lived cooperating worker loop per thread over a shared
/// queue) and by the ML kernel layer (src/ml/kernels). Submit()
/// enqueues work; Wait() blocks until every submitted task has finished.
///
/// Nesting policy ("serial-when-nested"): a task running on a pool
/// worker may call Submit() and Wait() on the same pool. Submit() from a
/// worker runs the task inline on the calling thread (queueing it and
/// then Wait()ing would deadlock: the waiting task itself counts as
/// in-flight, so the idle condition could never be reached), and Wait()
/// from a worker returns immediately — every task this worker submitted
/// has already run inline, and waiting for other threads' tasks from
/// inside a task would re-introduce the deadlock. The net effect is that
/// nested parallelism degrades to serial execution by construction
/// instead of deadlocking or oversubscribing; parallel kernels inside
/// parallel executor tasks rely on this (see docs/KERNELS.md).
class ThreadPool {
 public:
  /// Creates `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. When called from a worker of this pool, runs the
  /// task inline instead (see the nesting policy above).
  void Submit(std::function<void()> task);

  /// Blocks until the queue is drained and all workers are idle. When
  /// called from a worker of this pool, returns immediately (see the
  /// nesting policy above).
  void Wait();

  /// True when the calling thread is one of this pool's workers.
  bool InWorkerThread() const;

  /// True when the calling thread is a worker of ANY ThreadPool. The
  /// kernel layer uses this to fall back to serial execution instead of
  /// fanning out from an already-parallel context (oversubscription
  /// guard).
  static bool InAnyPoolWorker();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int64_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace hyppo

#endif  // HYPPO_COMMON_THREAD_POOL_H_
