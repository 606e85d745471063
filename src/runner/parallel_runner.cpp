#include "parallel_runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "thread_pool.hpp"

namespace erms {

int
resolveWorkerCount(int requested, std::size_t tasks)
{
    const unsigned hardware = std::thread::hardware_concurrency();
    const int workers = requested > 0  ? requested
                        : hardware > 0 ? static_cast<int>(hardware)
                                       : 1;
    return static_cast<int>(std::clamp<std::size_t>(
        tasks, 1, static_cast<std::size_t>(workers)));
}

ParallelRunner::ParallelRunner(RunnerOptions options)
    : workers_(ThreadPool::onWorkerThread()
                   ? 1
                   : resolveWorkerCount(options.workers))
{
    if (workers_ > 1)
        pool_ = std::make_unique<ThreadPool>(workers_);
}

ParallelRunner::~ParallelRunner() = default;

void
ParallelRunner::runIndexed(std::size_t count,
                           const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;

    using Clock = std::chrono::steady_clock;
    std::mutex observer_mutex;
    const auto timed_body = [&](std::size_t index) {
        if (observer_ != nullptr) {
            std::lock_guard<std::mutex> lock(observer_mutex);
            observer_->onRunStarted(index, count);
        }
        const Clock::time_point start = Clock::now();
        body(index);
        const double wall_seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (observer_ != nullptr) {
            std::lock_guard<std::mutex> lock(observer_mutex);
            observer_->onRunFinished(index, count, wall_seconds);
        }
    };

    if (pool_ == nullptr) {
        for (std::size_t i = 0; i < count; ++i)
            timed_body(i);
        return;
    }

    // First exception in *task order*, so serial and parallel runs fail
    // identically when several tasks throw.
    std::mutex error_mutex;
    std::size_t error_index = count;
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
        pool_->submit([&, i] {
            try {
                timed_body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
            }
        });
    }
    pool_->waitIdle();
    if (error)
        std::rethrow_exception(error);
}

} // namespace erms
