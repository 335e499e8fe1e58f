#include "util/thread_pool.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace pase {

i64 ThreadPool::resolve(i64 requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<i64>(hw) : 1;
}

ThreadPool::ThreadPool(i64 num_threads) {
  const i64 n = resolve(num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::push(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_main() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and every task has run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    TraceSession::Span s(trace_.load(std::memory_order_acquire), "task");
    task();
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
  // is still unclaimed or running. A helper that starts after the last
  // chunk was claimed returns at once.
  const i64 helpers =
      std::min<i64>(num_threads(), std::max<i64>(0, nchunks - 1));
  for (i64 i = 0; i < helpers; ++i) push(drain);
  drain();  // the calling thread participates
  while (shared->done.load(std::memory_order_acquire) < nchunks)
    std::this_thread::yield();
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
