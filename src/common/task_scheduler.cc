#include "common/task_scheduler.h"

#include <algorithm>

namespace x100 {

TaskScheduler::TaskScheduler(int num_workers) {
  if (num_workers <= 0) {
    num_workers =
        std::max(1u, std::thread::hardware_concurrency());
  }
  queues_.resize(num_workers);
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; i++) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Workers drained their deques before exiting; run anything submitted
  // during teardown so no TaskGroup is left waiting.
  std::function<void()> fn;
  bool stolen;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!PopTaskLocked(0, &fn, &stolen)) break;
    }
    fn();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

TaskScheduler* TaskScheduler::Global() {
  static TaskScheduler* global = new TaskScheduler();
  return global;
}

void TaskScheduler::Submit(std::function<void()> fn, const void* tag) {
  const size_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                   queues_.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[q].push_back(Task{std::move(fn), tag});
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  work_cv_.notify_one();
}

bool TaskScheduler::PopTaskLocked(int home, std::function<void()>* out,
                                  bool* stolen) {
  *stolen = false;
  if (home >= 0 && home < static_cast<int>(queues_.size()) &&
      !queues_[home].empty()) {
    *out = std::move(queues_[home].front().fn);
    queues_[home].pop_front();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  // Steal from the longest deque (front = oldest task: FIFO across
  // thieves keeps partial pipelines of one query flowing together).
  int victim = -1;
  size_t best = 0;
  for (int q = 0; q < static_cast<int>(queues_.size()); q++) {
    if (q != home && queues_[q].size() > best) {
      best = queues_[q].size();
      victim = q;
    }
  }
  if (victim < 0) return false;
  *out = std::move(queues_[victim].front().fn);
  queues_[victim].pop_front();
  queued_.fetch_sub(1, std::memory_order_relaxed);
  *stolen = home >= 0;  // external helpers don't count as steals
  return true;
}

bool TaskScheduler::PopTaggedTaskLocked(const void* tag,
                                        std::function<void()>* out) {
  for (auto& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->tag == tag) {
        *out = std::move(it->fn);
        queue.erase(it);
        queued_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  return false;
}

bool TaskScheduler::RunOneTask(const void* tag) {
  std::function<void()> fn;
  bool stolen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool found = tag == nullptr ? PopTaskLocked(-1, &fn, &stolen)
                                      : PopTaggedTaskLocked(tag, &fn);
    if (!found) return false;
  }
  fn();
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TaskScheduler::HelpUntil(const std::function<bool()>& done) {
  while (true) {
    // Snapshot the epoch BEFORE evaluating the predicate: a flip+wake
    // that races with the check is then seen either by done() (flip
    // happened before) or by the epoch comparison (flip happened after).
    const uint64_t epoch = wake_epoch_.load(std::memory_order_acquire);
    if (done()) return;
    if (RunOneTask()) continue;
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      // Teardown: don't park on a signal that may never fire again, and
      // don't spin; the owner is expected to flip done() promptly.
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    work_cv_.wait(lock, [&] {
      if (stopping_) return true;
      if (wake_epoch_.load(std::memory_order_acquire) != epoch) return true;
      for (const auto& q : queues_) {
        if (!q.empty()) return true;
      }
      return false;
    });
  }
}

void TaskScheduler::WakeHelpers() {
  {
    // The lock pairs the epoch bump with HelpUntil's predicate check so
    // the wake cannot fall between a helper's check and its sleep.
    std::lock_guard<std::mutex> lock(mu_);
    wake_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  work_cv_.notify_all();
}

void TaskScheduler::WorkerLoop(int id) {
  while (true) {
    std::function<void()> fn;
    bool stolen = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Pop before checking stopping_ so shutdown drains queued tasks.
      work_cv_.wait(lock, [&] {
        return PopTaskLocked(id, &fn, &stolen) || stopping_;
      });
      if (!fn) return;  // stopping and every deque empty
    }
    fn();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    if (stolen) tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TaskGroup::Spawn(std::function<Status()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_++;
  }
  scheduler_->Submit([this, fn = std::move(fn)] { Run(fn); }, tag_);
}

void TaskGroup::RunInline(const std::function<Status()>& fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_++;
  }
  Run(fn);
}

void TaskGroup::Run(const std::function<Status()>& fn) {
  if (IsCancelled()) {
    std::lock_guard<std::mutex> lock(mu_);
    any_cancelled_ = true;
    outstanding_--;
    if (outstanding_ == 0) done_cv_.notify_all();
    return;
  }
  Finish(fn());
}

void TaskGroup::Finish(const Status& s) {
  // One failing task aborts its siblings (cancellation propagation).
  // Cancel BEFORE the final decrement: once outstanding_ hits 0, Wait()
  // may return and the owner may destroy the group, so no member access
  // is allowed after the decrement is published.
  if (!s.ok() && !s.IsCancelled()) Cancel();
  std::lock_guard<std::mutex> lock(mu_);
  if (s.IsCancelled()) {
    any_cancelled_ = true;
  } else if (!s.ok() && first_error_.ok()) {
    first_error_ = s;
  }
  outstanding_--;
  if (outstanding_ == 0) done_cv_.notify_all();
}

Status TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (outstanding_ > 0) {
    lock.unlock();
    // Help drain THIS group's queued tasks so a saturated (or single-
    // worker) scheduler cannot deadlock the joining thread. Only own
    // tasks: an arbitrary stolen task may block on a barrier owned by a
    // frame suspended beneath this very Wait (see header).
    if (!scheduler_->RunOneTask(tag_)) {
      lock.lock();
      if (outstanding_ > 0) {
        done_cv_.wait_for(lock, std::chrono::milliseconds(2));
      }
      continue;
    }
    lock.lock();
  }
  if (!first_error_.ok()) return first_error_;
  if (any_cancelled_ || IsCancelled()) {
    return Status::Cancelled("task group cancelled");
  }
  return Status::OK();
}

Status RunPipelineTasks(TaskScheduler* scheduler, TaskQuota* quota,
                        CancellationToken* cancel, int n,
                        const std::function<Status(int, TaskGroup&)>& body,
                        const void* help_tag) {
  const int grant = quota != nullptr ? quota->Acquire(n) : n;
  Status status;
  {
    TaskGroup group(scheduler, cancel, help_tag);
    std::atomic<int> next{0};
    const auto task = [&group, &next, &body, n]() -> Status {
      int i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
        X100_RETURN_IF_ERROR(body(i, group));
      }
      return Status::OK();
    };
    if (n == 1) {
      // A single task runs on the calling thread: spawning it would only
      // move the whole chain onto a pool thread, out of the caller's
      // profile, at the cost of a scheduler round trip.
      group.RunInline(task);
    } else {
      for (int t = 0; t < grant && t < n; t++) group.Spawn(task);
    }
    status = group.Wait();  // pipeline barrier
  }
  if (quota != nullptr) quota->Release(grant);
  return status;
}

}  // namespace x100
