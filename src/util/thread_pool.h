// Thread pool used by the DP solver to fan its min-plus reduce across
// cores (the only parallel_for caller), and by the serving daemon to run
// admitted solves.
//
// Thread-safety and determinism contract:
//  * The pool is one first-in-first-out queue: workers start tasks in the
//    order they were submitted, whichever thread submitted them.
//  * submit() and parallel_for() may be called from any thread, including
//    from inside a pool task. A task must not block on the future of a task
//    queued behind it (on a busy pool that task may never start); a nested
//    parallel_for() is safe, because its caller runs every chunk no other
//    thread has claimed and only waits for chunks already running.
//  * parallel_for() decomposes [begin, end) into fixed chunks by index, so
//    the mapping of iteration -> chunk is a pure function of (begin, end,
//    grain) and never depends on the number of threads or on scheduling.
//    Callers that write only to disjoint, index-addressed slots therefore
//    produce bit-identical results at any thread count — this is the
//    property the DP solver's determinism guarantee rests on.
//  * Exceptions thrown by tasks are captured: submit() rethrows from the
//    returned future; parallel_for() rethrows the exception of the
//    *lowest-indexed* failing chunk (again independent of scheduling).
//  * All public members are safe to call concurrently. The pool itself
//    must outlive every future obtained from it; the destructor drains
//    queued tasks before joining.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/types.h"

namespace pase {

class TraceSession;

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1). A 1-thread pool still works (parallel_for degrades to a
  /// sequential loop on the calling thread).
  explicit ThreadPool(i64 num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  i64 num_threads() const { return static_cast<i64>(workers_.size()); }

  /// Resolves the `0 = hardware concurrency` convention used by options
  /// structs (DpOptions::num_threads, pase_cli --threads).
  static i64 resolve(i64 requested);

  /// Queues `f` behind every task submitted before it and returns a future
  /// for its result; the first idle worker runs it.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    push([task] { (*task)(); });
    return fut;
  }

  /// Runs body(chunk_begin, chunk_end) over a fixed, scheduling-independent
  /// decomposition of [begin, end) into chunks of `grain` indices (last
  /// chunk may be short). The calling thread participates, then yields
  /// until the chunks other threads claimed have finished; rethrows the
  /// lowest-chunk exception if any body threw.
  ///
  /// `cancel` makes the loop cooperatively cancellable: when non-null and
  /// set, chunks not yet started are skipped (already-running bodies finish
  /// or observe the token themselves). Cancellation only ever *abandons*
  /// work, so a caller that checks the token after the call (as the DP
  /// solver's deadline/watchdog path does) keeps determinism: either the
  /// loop completed every chunk, or the caller discards the whole result.
  void parallel_for(i64 begin, i64 end, i64 grain,
                    const std::function<void(i64, i64)>& body,
                    const std::atomic<bool>* cancel = nullptr);

  /// Attaches (or detaches, with nullptr) a trace session: every task the
  /// pool executes is then recorded as a "task" span on the executing
  /// thread's lane. The session must outlive its attachment; task spans are
  /// scheduling-dependent and therefore land in volatile trace/gauge data
  /// only, never in structural metrics (see src/obs/metrics.h).
  void set_trace(TraceSession* trace) {
    trace_.store(trace, std::memory_order_release);
  }

 private:
  void push(std::function<void()> task);
  void worker_main();

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  ///< FIFO (guarded by mu_)
  bool stop_ = false;                        ///< guarded by mu_

  std::atomic<TraceSession*> trace_{nullptr};
};

}  // namespace pase
