/**
 * @file
 * Work-stealing thread pool for embarrassingly parallel campaign
 * work.
 *
 * The paper ran its characterization on three machines concurrently;
 * our simulated sweeps are likewise embarrassingly parallel at the
 * (workload, core) cell level because every cell is seeded purely by
 * its experiment coordinates. The pool is deliberately small: each
 * worker owns a deque, pops from its own back (LIFO, cache-warm) and
 * steals from the front of a sibling's deque (FIFO, oldest work
 * first) when its own runs dry. Callers submit from outside the pool
 * and block on wait() for a barrier. Its one production client is
 * the sweep core's fan-out of fresh cells (core/executor); ledger
 * derivation is serial.
 *
 * The pool makes no determinism promises about *completion order* —
 * schedulers that need reproducible output must merge results in a
 * canonical order of their own (see core/executor).
 */

#ifndef VMARGIN_UTIL_THREADPOOL_HH
#define VMARGIN_UTIL_THREADPOOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hh"

namespace vmargin::util
{

/** Fixed-size work-stealing pool. */
class ThreadPool
{
  public:
    /**
     * @param workers thread count; 0 selects defaultWorkerCount().
     * Fatal on a negative count.
     */
    explicit ThreadPool(int workers = 0);

    /** Drains remaining work, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue one task. Tasks are distributed round-robin across the
     * worker deques; idle workers steal across deques, so a skewed
     * distribution still keeps every thread busy.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished running. */
    void wait();

    /** Number of worker threads. */
    int workerCount() const
    {
        return static_cast<int>(workers_.size());
    }

    /** Hardware concurrency, clamped to at least 1. */
    static int defaultWorkerCount();

  private:
    /** One worker's stealable deque. */
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(size_t self);

    /** Pop from own back, else steal from a sibling's front. */
    bool takeTask(size_t self, std::function<void()> &out);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex mutex_; ///< guards sleep/wake and the counters below
    std::condition_variable workAvailable_;
    std::condition_variable allDone_;
    size_t unfinished_ = 0; ///< submitted but not yet finished tasks
    size_t queued_ = 0;     ///< submitted but not yet taken tasks
    size_t nextQueue_ = 0;  ///< round-robin submit cursor
    bool stopping_ = false;

    // Telemetry (scheduling-class: task placement, steals and idle
    // time all depend on the OS scheduler). Handles are fetched once
    // at construction; the hot paths only touch relaxed atomics.
    obs::Counter &statTasks_;
    obs::Counter &statSteals_;
    obs::Counter &statIdleNs_;
    obs::Gauge &statQueuePeak_;
};

} // namespace vmargin::util

#endif // VMARGIN_UTIL_THREADPOOL_HH
