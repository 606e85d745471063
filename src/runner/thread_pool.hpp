/**
 * @file
 * Fixed-size thread pool for the experiment runner. Deliberately simple:
 * no work stealing, no task priorities — a single FIFO queue drained by a
 * fixed set of workers. Experiment fan-out is coarse-grained (each task
 * is a whole simulation run), so queue contention is negligible and the
 * simplicity keeps the concurrency story auditable under TSan.
 */

#ifndef ERMS_RUNNER_THREAD_POOL_HPP
#define ERMS_RUNNER_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace erms {

/**
 * Fixed-size FIFO thread pool.
 *
 * Jobs submitted with submit() run on one of `workerCount()` worker
 * threads in submission order (start order; completion order depends on
 * job duration). waitIdle() blocks until every submitted job has
 * finished. The destructor drains outstanding jobs before joining.
 *
 * Exceptions escaping a job terminate the process (jobs are expected to
 * handle their own failures); ParallelRunner wraps tasks so the first
 * task exception is captured and rethrown on the caller thread instead.
 */
class ThreadPool
{
  public:
    /** Spawn `workers` threads (clamped to >= 1). */
    explicit ThreadPool(int workers);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. Thread-safe. */
    void submit(std::function<void()> job);

    /** Block until all jobs submitted so far have completed. */
    void waitIdle();

    int workerCount() const { return static_cast<int>(threads_.size()); }

    /** True on a worker thread of any ThreadPool. ParallelRunner reads
     *  it so that pools never nest (see parallel_runner.hpp). */
    static bool onWorkerThread();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;  ///< signals workers: job or stop
    std::condition_variable idle_;  ///< signals waiters: pool drained
    std::deque<std::function<void()>> queue_;
    std::size_t inFlight_ = 0; ///< queued + currently executing jobs
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

} // namespace erms

#endif // ERMS_RUNNER_THREAD_POOL_HPP
