/**
 * @file
 * runTasks — the one parallel-for of the set-up passes (the binary
 * edge-list load and the partition build): fixed-size tasks on an
 * Executor, with the calling thread taking part.
 */

#ifndef GRAPHABCD_RUNTIME_PARALLEL_FOR_HH
#define GRAPHABCD_RUNTIME_PARALLEL_FOR_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "runtime/executor.hh"

namespace graphabcd {

/** @return tasks of `grain` items covering n items (at least one). */
constexpr std::size_t
taskCount(std::uint64_t n, std::uint64_t grain)
{
    return static_cast<std::size_t>(
        std::max<std::uint64_t>(1, (n + grain - 1) / grain));
}

/** @return [begin, end) of task t's items, of n items in tasks of
 *  `grain`. */
constexpr std::pair<std::uint64_t, std::uint64_t>
taskRange(std::size_t t, std::uint64_t n, std::uint64_t grain)
{
    return {t * grain, std::min<std::uint64_t>(n, (t + 1) * grain)};
}

/**
 * Run body(t) for every t in [0, tasks) and return once all finished.
 * Up to size() - 1 workers of `exec` (the shared pool when null) help
 * the calling thread, which claims tasks too, so every task runs even
 * while no worker is free.  A single task runs inline without touching
 * the pool.  `body` must not throw: a task records its failure and the
 * caller reports it after the return.
 */
template <typename Fn>
void
runTasks(Executor *exec, std::size_t tasks, const Fn &body)
{
    if (tasks <= 1) {
        if (tasks == 1)
            body(0);
        return;
    }
    Executor &pool = exec ? *exec : *Executor::shared();
    std::atomic<std::size_t> next{0};
    auto drain = [&] {
        for (std::size_t t;
             (t = next.fetch_add(1, std::memory_order_relaxed)) < tasks;)
            body(t);
    };
    const auto helpers = static_cast<std::uint32_t>(
        std::min<std::size_t>(tasks, pool.size()) - 1);
    auto job = pool.createJob(helpers);
    for (std::uint32_t i = 0; i < helpers; i++)
        job->submit(drain);
    drain();
    job->wait();
}

} // namespace graphabcd

#endif // GRAPHABCD_RUNTIME_PARALLEL_FOR_HH
