#include "util/thread_pool.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace pase {

namespace {

/// Identifies the pool (and worker slot) the current thread belongs to, so
/// nested submissions land on the submitting worker's own deque.
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  i64 slot = -1;
};
thread_local WorkerIdentity tls_identity;

}  // namespace

i64 ThreadPool::resolve(i64 requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<i64>(hw) : 1;
}

ThreadPool::ThreadPool(i64 num_threads) {
  const i64 n = resolve(num_threads);
  deques_.reserve(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i)
    deques_.push_back(std::make_unique<WorkerDeque>());
  workers_.reserve(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::push(std::function<void()> task) {
  size_t target;
  if (tls_identity.pool == this && tls_identity.slot >= 0) {
    target = static_cast<size_t>(tls_identity.slot);
  } else {
    target = static_cast<size_t>(rr_.fetch_add(1, std::memory_order_relaxed) %
                                 deques_.size());
  }
  {
    std::lock_guard<std::mutex> lk(deques_[target]->mu);
    deques_[target]->q.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    ++queued_;
  }
  idle_cv_.notify_one();
}

bool ThreadPool::try_pop(i64 slot, std::function<void()>& out) {
  const i64 n = static_cast<i64>(deques_.size());
  bool found = false;
  // Own deque first (LIFO end for locality), then steal from the others'
  // FIFO end, starting just past our slot to spread contention.
  if (slot >= 0) {
    WorkerDeque& own = *deques_[static_cast<size_t>(slot)];
    std::lock_guard<std::mutex> lk(own.mu);
    if (!own.q.empty()) {
      out = std::move(own.q.back());
      own.q.pop_back();
      found = true;
    }
  }
  for (i64 k = 0; !found && k < n; ++k) {
    const size_t victim = static_cast<size_t>((slot + 1 + k) % n);  // slot>=-1
    if (slot >= 0 && victim == static_cast<size_t>(slot)) continue;
    WorkerDeque& d = *deques_[victim];
    std::lock_guard<std::mutex> lk(d.mu);
    if (!d.q.empty()) {
      out = std::move(d.q.front());
      d.q.pop_front();
      found = true;
    }
  }
  if (found) {
    std::lock_guard<std::mutex> lk(idle_mu_);
    --queued_;
  }
  return found;
}

bool ThreadPool::run_one() {
  const i64 slot = tls_identity.pool == this ? tls_identity.slot : -1;
  std::function<void()> task;
  if (!try_pop(slot, task)) return false;
  {
    TraceSession::Span s(trace_.load(std::memory_order_acquire), "task");
    task();
  }
  return true;
}

void ThreadPool::worker_main(i64 slot) {
  tls_identity = {this, slot};
  for (;;) {
    std::function<void()> task;
    if (try_pop(slot, task)) {
      {
        TraceSession::Span s(trace_.load(std::memory_order_acquire), "task");
        task();
      }
      continue;
    }
    std::unique_lock<std::mutex> lk(idle_mu_);
    idle_cv_.wait(lk, [&] { return stop_ || queued_ > 0; });
    if (stop_ && queued_ == 0) return;
  }
}

void ThreadPool::parallel_for(i64 begin, i64 end, i64 grain,
                              const std::function<void(i64, i64)>& body,
                              const std::atomic<bool>* cancel) {
  if (end <= begin) return;
  grain = std::max<i64>(1, grain);
  const i64 span = end - begin;
  const i64 nchunks = ceil_div(span, grain);

  struct Shared {
    std::atomic<i64> next{0};
    std::atomic<i64> done{0};
    std::mutex err_mu;
    std::exception_ptr err;
    i64 err_chunk = -1;
  };
  auto shared = std::make_shared<Shared>();

  auto drain = [shared, begin, end, grain, nchunks, &body, cancel] {
    for (;;) {
      const i64 c = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) return;
      const i64 b0 = begin + c * grain;
      const i64 b1 = std::min(end, b0 + grain);
      try {
        // Cancelled loops skip chunks not yet started; the caller is
        // responsible for discarding the (partial) result.
        if (!cancel || !cancel->load(std::memory_order_relaxed)) body(b0, b1);
      } catch (...) {
        // Every chunk runs to completion; the *lowest* failing chunk wins,
        // so the propagated exception is scheduling-independent.
        std::lock_guard<std::mutex> lk(shared->err_mu);
        if (shared->err_chunk < 0 || c < shared->err_chunk) {
          shared->err = std::current_exception();
          shared->err_chunk = c;
        }
      }
      shared->done.fetch_add(1, std::memory_order_acq_rel);
    }
  };

  // Helpers for every worker; `body` stays alive because this frame blocks
  // until all chunks are done, and the helpers only touch it while a chunk
  // is still unclaimed or running.
  const i64 helpers =
      std::min<i64>(num_threads(), std::max<i64>(0, nchunks - 1));
  for (i64 i = 0; i < helpers; ++i) push(drain);
  drain();  // the calling thread participates
  while (shared->done.load(std::memory_order_acquire) < nchunks) {
    if (!run_one()) std::this_thread::yield();
  }
  // Take the exception out of `shared` before rethrowing: a worker's copy
  // of `drain` may still hold the last reference to `shared` and destroy it
  // after the caller's catch block has started reading the exception. With
  // the exception owned by this frame, that worker frees nothing the
  // caller can still see.
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(shared->err_mu);
    err = std::move(shared->err);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace pase
