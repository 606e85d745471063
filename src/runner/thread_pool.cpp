#include "thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace erms {

namespace {

/** Set by each pool worker when it starts; never cleared, since the
 *  thread runs nothing but the worker loop. */
thread_local bool tlPoolWorker = false;

} // namespace

bool
ThreadPool::onWorkerThread()
{
    return tlPoolWorker;
}

ThreadPool::ThreadPool(int workers)
{
    const int count = std::max(1, workers);
    threads_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    waitIdle();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
        ++inFlight_;
    }
    wake_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ThreadPool::workerLoop()
{
    tlPoolWorker = true;
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
            if (inFlight_ == 0)
                idle_.notify_all();
        }
    }
}

} // namespace erms
