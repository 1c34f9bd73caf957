#include "sim/Parallel.hh"

#include <algorithm>

#include <sched.h>

namespace spin
{

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int n = sched_getaffinity(0, sizeof(set), &set) == 0
                      ? CPU_COUNT(&set)
                      : static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(n, 1, kMaxThreads);
}

StepExecutor::StepExecutor(int threads)
    : nthreads_(threads < 1 ? 1 : threads)
{
    workers_.reserve(static_cast<std::size_t>(nthreads_ - 1));
    for (int s = 1; s < nthreads_; ++s)
        workers_.emplace_back([this, s] { workerLoop(s); });
}

StepExecutor::~StepExecutor()
{
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
StepExecutor::runShard(const std::function<void(int)> &task, int shard)
{
    try {
        task(shard);
    } catch (...) {
        const std::lock_guard<std::mutex> lock(errMutex_);
        if (!firstError_)
            firstError_ = std::current_exception();
    }
}

void
StepExecutor::run(const std::function<void(int)> &task)
{
    if (workers_.empty()) {
        task(0);
        return;
    }
    task_ = &task;
    // The release fetch_add publishes task_ to workers whose acquire
    // load of epoch_ observes the new generation.
    const std::uint64_t gen =
        epoch_.fetch_add(1, std::memory_order_release) + 1;
    epoch_.notify_all();

    runShard(task, 0);

    const std::uint64_t want = gen * workers_.size();
    std::uint64_t d = done_.load(std::memory_order_acquire);
    while (d < want) {
        done_.wait(d, std::memory_order_acquire);
        d = done_.load(std::memory_order_acquire);
    }
    task_ = nullptr;

    if (firstError_) {
        std::exception_ptr e;
        {
            const std::lock_guard<std::mutex> lock(errMutex_);
            e = firstError_;
            firstError_ = nullptr;
        }
        std::rethrow_exception(e);
    }
}

void
StepExecutor::workerLoop(int shard)
{
    std::uint64_t seen = 0;
    for (;;) {
        epoch_.wait(seen, std::memory_order_acquire);
        seen = epoch_.load(std::memory_order_acquire);
        if (stop_.load(std::memory_order_acquire))
            return;
        runShard(*task_, shard);
        done_.fetch_add(1, std::memory_order_release);
        done_.notify_one();
    }
}

} // namespace spin
