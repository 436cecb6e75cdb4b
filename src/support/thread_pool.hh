/**
 * @file
 * A small fixed-size thread pool with a work queue and a
 * `parallelFor` index loop — the execution substrate for bulk
 * simulation workloads (sim/batch.hh).
 *
 * Design constraints, in order:
 *  - determinism: the pool schedules *which thread* runs an index,
 *    never *what* an index computes; callers that keep per-index
 *    state independent get results identical to a serial loop;
 *  - exception safety: a task that throws never takes down a worker;
 *    parallelFor() rethrows the exception of the lowest failing
 *    index after every index has settled, so the surfaced error does
 *    not depend on thread scheduling;
 *  - graceful degradation: `threads = 1` (or a single-index loop)
 *    runs inline on the calling thread — byte-identical behavior to
 *    not having a pool at all.
 */

#ifndef ASIM_SUPPORT_THREAD_POOL_HH
#define ASIM_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace asim {

/** Most worker threads a command line may ask a pool for. */
inline constexpr unsigned kMaxPoolThreads = 1024;

/** See file comment. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means hardwareThreads() */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains outstanding work, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (>= 1). */
    unsigned size() const { return threads_; }

    /** std::thread::hardware_concurrency(), never less than 1. */
    static unsigned hardwareThreads();

    /**
     * Enqueue one task. Tasks may not touch the pool (no nested
     * post/parallelFor). A throwing task is swallowed by the worker;
     * use parallelFor() when failures must surface.
     */
    void post(std::function<void()> task);

    /** Block until the queue is empty and every worker is idle. */
    void drain();

    /**
     * Run `fn(i)` for every i in [begin, end), distributing indices
     * across the workers plus the calling thread. Returns when all
     * indices have settled. If any invocation threw, rethrows the
     * exception of the lowest failing index (deterministic under any
     * scheduling); the remaining indices still run to completion.
     *
     * With one worker or a single index the loop runs inline, in
     * index order, on the calling thread.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)> &fn);

  private:
    void workerLoop();

    unsigned threads_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;   ///< workers: work or shutdown
    std::condition_variable idle_;   ///< drain(): all quiet
    unsigned active_ = 0;            ///< tasks currently executing
    bool shutdown_ = false;
};

} // namespace asim

#endif // ASIM_SUPPORT_THREAD_POOL_HH
