/**
 * @file
 * Persistent worker pool for the deterministic sharded step loop.
 *
 * A StepExecutor owns N-1 worker threads (the calling thread acts as
 * shard 0) and replays one closure across all shards per run() call.
 * Synchronization is a generation counter with C++20 atomic
 * wait/notify -- futex-backed on Linux, so idle workers sleep instead
 * of spinning between simulation phases, which matters on the small
 * oversubscribed CI runners the determinism gates execute on.
 *
 * Determinism contract (docs/SCALING.md): the executor guarantees only
 * that every shard closure finished before run() returns. Bit-identical
 * results across thread counts are the *callers'* obligation: each
 * phase closure may write shard-local state only, and cross-shard
 * effects (stats, trace events, in-flight accounting) are staged per
 * shard and committed in shard order by Network::step().
 */

#ifndef SPINNOC_SIM_PARALLEL_HH
#define SPINNOC_SIM_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spin
{

/** The most threads a worker pool here runs: `-t` (inside one network)
 *  and the `-j` of spin_sweep (cells at once) and spin_model (runs at
 *  once) take 1 to this. */
inline constexpr int kMaxThreads = 64;

/** The CPUs this process may run on (its affinity mask, as nproc
 *  counts them), clamped to [1, kMaxThreads]. */
int availableCpus();

/** See file comment. */
class StepExecutor
{
  public:
    /** Spawn @p threads - 1 workers; @p threads is clamped to >= 1. */
    explicit StepExecutor(int threads);
    ~StepExecutor();

    StepExecutor(const StepExecutor &) = delete;
    StepExecutor &operator=(const StepExecutor &) = delete;

    int threads() const { return nthreads_; }

    /**
     * Execute task(shard) for every shard in [0, threads()); the
     * calling thread runs shard 0. Returns once every shard finished.
     * A FatalError thrown inside any shard is rethrown here (first
     * one wins) after the remaining shards complete.
     */
    void run(const std::function<void(int)> &task);

  private:
    void workerLoop(int shard);
    void runShard(const std::function<void(int)> &task, int shard);

    const int nthreads_;
    /** Live only inside run(); guarded by the epoch_ release/acquire
     *  pair, never read by a worker outside its generation. */
    const std::function<void(int)> *task_ = nullptr;
    /** Bumped once per run(); workers wait for it to change. */
    std::atomic<std::uint64_t> epoch_{0};
    /** Total shard completions by workers; run() waits until it
     *  reaches epoch_ * (nthreads_ - 1). */
    std::atomic<std::uint64_t> done_{0};
    std::atomic<bool> stop_{false};
    std::mutex errMutex_;
    std::exception_ptr firstError_;
    std::vector<std::thread> workers_;
};

} // namespace spin

#endif // SPINNOC_SIM_PARALLEL_HH
