/**
 * @file
 * ParallelRunner — deterministic fan-out of independent experiment runs
 * (each task typically constructs and runs its own Simulation) across a
 * fixed-size ThreadPool.
 *
 * Determinism contract: tasks receive no shared mutable state from the
 * runner, and every stochastic component inside a task must be seeded
 * from the task's index (see deriveRunSeed() in common/rng.hpp). Under
 * that contract, serial execution (1 worker) and parallel execution (N
 * workers) produce byte-identical per-run results; only wall-clock time
 * and the interleaving of observer callbacks differ.
 *
 * Worker count resolution: RunnerOptions::workers when > 0, else
 * std::thread::hardware_concurrency() (at least 1). The library reads
 * no environment; binaries that take a worker count from one parse it
 * into RunnerOptions themselves (bench/bench_util.hpp). A runner whose
 * batches have a known size caps its workers at it through
 * resolveWorkerCount(requested, tasks).
 *
 * Nesting: a ParallelRunner constructed on a ThreadPool worker thread
 * runs its tasks inline on that thread, whatever its options ask for,
 * so pools never nest: a sweep cell that profiles a catalog or runs a
 * sharded simulation uses the outer pool's threads and starts none.
 */

#ifndef ERMS_RUNNER_PARALLEL_RUNNER_HPP
#define ERMS_RUNNER_PARALLEL_RUNNER_HPP

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

namespace erms {

class ThreadPool;

/** Configuration of one ParallelRunner. */
struct RunnerOptions
{
    /** Worker threads; 0 = hardware (see file doc). */
    int workers = 0;
};

/**
 * Progress/timing observer for a batch of runs. Callbacks fire on worker
 * threads but are serialized by the runner (never concurrently), so
 * implementations may keep plain state. Callback interleaving across
 * runs is timing-dependent; per-run results are not.
 */
class RunObserver
{
  public:
    virtual ~RunObserver() = default;

    /** A run began executing. */
    virtual void
    onRunStarted(std::size_t index, std::size_t total)
    {
        (void)index;
        (void)total;
    }

    /** A run finished; wall_seconds is its wall-clock duration. */
    virtual void
    onRunFinished(std::size_t index, std::size_t total, double wall_seconds)
    {
        (void)index;
        (void)total;
        (void)wall_seconds;
    }
};

/** Resolve an effective worker count: `requested` when > 0, else the
 *  hardware concurrency, capped at `tasks` so that a pool is no larger
 *  than its work. Always >= 1. */
int resolveWorkerCount(
    int requested,
    std::size_t tasks = std::numeric_limits<std::size_t>::max());

/** Executes batches of independent tasks on a fixed-size thread pool. */
class ParallelRunner
{
  public:
    explicit ParallelRunner(RunnerOptions options = {});
    ~ParallelRunner();

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    /** Attach a progress observer (not owned; may be null). */
    void setObserver(RunObserver *observer) { observer_ = observer; }

    /** Resolved worker count; 1 on a pool worker thread (file doc). */
    int workerCount() const { return workers_; }

    /**
     * Execute all tasks and return their results in task order,
     * regardless of completion order. Result must be default- and
     * move-constructible. If any task throws, the first exception (in
     * task order) is rethrown on the calling thread after every task
     * has finished.
     */
    template <typename Result>
    std::vector<Result>
    runAll(std::vector<std::function<Result()>> tasks)
    {
        std::vector<Result> results(tasks.size());
        runIndexed(tasks.size(), [&](std::size_t i) {
            results[i] = tasks[i]();
        });
        return results;
    }

    /** Void-task overload of runAll(). */
    void
    runAll(std::vector<std::function<void()>> tasks)
    {
        runIndexed(tasks.size(),
                   [&](std::size_t i) { tasks[i](); });
    }

  private:
    /** Run body(0..count-1), each index exactly once, pool-parallel. */
    void runIndexed(std::size_t count,
                    const std::function<void(std::size_t)> &body);

    int workers_ = 1;
    RunObserver *observer_ = nullptr;
    std::unique_ptr<ThreadPool> pool_; ///< null when workers_ == 1
};

} // namespace erms

#endif // ERMS_RUNNER_PARALLEL_RUNNER_HPP
