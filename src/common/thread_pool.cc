#include "src/common/thread_pool.h"

#include <algorithm>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

#include "src/common/logging.h"

namespace asbase {

namespace {

#ifdef __linux__
std::vector<int> CpuList(const cpu_set_t& set) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}
#endif

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, std::optional<size_t> first_cpu)
    : first_cpu_(first_cpu) {
  EnsureAtLeast(num_threads);
}

ThreadPool::~ThreadPool() {
  tasks_.Close();
  std::lock_guard<std::mutex> lock(workers_mutex_);
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    ++inflight_;
  }
  bool pushed = tasks_.Push(std::move(task));
  AS_CHECK(pushed) << "Submit() after destruction";
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [&] { return inflight_ == 0; });
}

size_t ThreadPool::EnsureAtLeast(size_t num_threads) {
  std::lock_guard<std::mutex> lock(workers_mutex_);
  size_t spawned = 0;
  while (workers_.size() < num_threads) {
    workers_.emplace_back([this] { WorkerLoop(); });
    const std::vector<int>& allowed = AllowedCpus();
    if (first_cpu_.has_value() && !allowed.empty()) {
      const size_t k = workers_.size() - 1;
      PinThread(workers_.back(), allowed[(*first_cpu_ + k) % allowed.size()]);
    }
    ++spawned;
  }
  return spawned;
}

size_t ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> lock(workers_mutex_);
  return workers_.size();
}

std::vector<int> ThreadPool::WorkerCpus(size_t k) {
#ifdef __linux__
  std::lock_guard<std::mutex> lock(workers_mutex_);
  cpu_set_t set;
  if (k < workers_.size() &&
      pthread_getaffinity_np(workers_[k].native_handle(), sizeof(set),
                             &set) == 0) {
    return CpuList(set);
  }
#else
  (void)k;
#endif
  return {};
}

const std::vector<int>& ThreadPool::AllowedCpus() {
  static const std::vector<int> allowed = []() -> std::vector<int> {
#ifdef __linux__
    cpu_set_t set;
    // getpid() names the main thread, so a pinned caller (a stage worker)
    // does not narrow the answer to its own core.
    if (sched_getaffinity(getpid(), sizeof(set), &set) == 0) {
      return CpuList(set);
    }
#endif
    return {};
  }();
  return allowed;
}

bool ThreadPool::PinThread(std::thread& thread, int cpu) {
#ifdef __linux__
  const std::vector<int>& allowed = AllowedCpus();
  if (!std::binary_search(allowed.begin(), allowed.end(), cpu)) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set) ==
         0;
#else
  (void)thread;
  (void)cpu;
  return false;
#endif
}

void ThreadPool::WorkerLoop() {
  while (auto task = tasks_.Pop()) {
    (*task)();
    std::lock_guard<std::mutex> lock(drain_mutex_);
    if (--inflight_ == 0) {
      drain_cv_.notify_all();
    }
  }
}

}  // namespace asbase
