// Worker pool. Used by the orchestrator for stage fan-out (one resizable
// pool per WFD), the watchdog serving pipeline, and benches that drive
// open-loop load.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/queue.h"

namespace asbase {

class ThreadPool {
 public:
  // `num_threads` may be 0 for a pool grown later via EnsureAtLeast.
  //
  // Placement: with a `first_cpu`, worker k (current and future) is pinned
  // to the single core AllowedCpus()[(first_cpu + k) % n], so k concurrent
  // tasks land on k distinct cores. No `first_cpu` = no affinity.
  explicit ThreadPool(size_t num_threads,
                      std::optional<size_t> first_cpu = std::nullopt);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task. Tasks run in FIFO order across the workers.
  void Submit(std::function<void()> task);

  // Block until every task submitted so far has finished executing.
  void Drain();

  // Grows the pool to at least `num_threads` workers (never shrinks).
  // Returns how many workers were actually spawned — 0 when the pool is
  // already big enough, which is what makes reuse observable
  // (alloy_orch_thread_spawns_total stays flat on a warm WFD).
  size_t EnsureAtLeast(size_t num_threads);

  size_t num_threads() const;

  // The cores worker `k` may run on, as the kernel reports them (empty off
  // Linux or for a worker that does not exist).
  std::vector<int> WorkerCpus(size_t k);

  // The cores this process may run on, ascending: the main thread's
  // sched_getaffinity mask, read once. Not hardware_concurrency, which
  // ignores taskset and cpuset limits.
  static const std::vector<int>& AllowedCpus();

  // Pins `thread` to `cpu` alone. A core outside AllowedCpus() leaves the
  // thread's affinity untouched and returns false: under taskset,
  // pthread_setaffinity_np would otherwise widen a thread past the
  // process's mask.
  static bool PinThread(std::thread& thread, int cpu);

 private:
  void WorkerLoop();

  BlockingQueue<std::function<void()>> tasks_;
  const std::optional<size_t> first_cpu_;
  mutable std::mutex workers_mutex_;
  std::vector<std::thread> workers_;

  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  size_t inflight_ = 0;  // queued + running
};

}  // namespace asbase

#endif  // SRC_COMMON_THREAD_POOL_H_
