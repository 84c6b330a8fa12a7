#include "core/scheduler.hh"

#include <algorithm>

#include "support/logging.hh"

namespace graphabcd {

// ---------------------------------------------------------------- Cyclic

CyclicScheduler::CyclicScheduler(BlockId num_blocks)
    : active(num_blocks, 0)
{
}

void
CyclicScheduler::activate(BlockId b, double)
{
    GRAPHABCD_ASSERT(b < active.size(), "block id out of range");
    stats.activations++;
    if (!active[b]) {
        active[b] = 1;
        nActive++;
    }
}

std::optional<BlockId>
CyclicScheduler::next()
{
    if (nActive == 0)
        return std::nullopt;
    const auto n = static_cast<BlockId>(active.size());
    for (BlockId step = 0; step < n; step++) {
        BlockId b = cursor;
        cursor = cursor + 1 == n ? 0 : cursor + 1;
        if (active[b]) {
            active[b] = 0;
            nActive--;
            return b;
        }
    }
    panic("active count out of sync with the bitvector");
}

// -------------------------------------------------------------- Priority

PriorityScheduler::PriorityScheduler(BlockId num_blocks)
    : prio(num_blocks, 0.0), pushedPrio(num_blocks, 0.0),
      active(num_blocks, 0)
{
}

void
PriorityScheduler::activate(BlockId b, double priority_delta)
{
    GRAPHABCD_ASSERT(b < active.size(), "block id out of range");
    stats.activations++;
    // A gradient estimate cannot shrink from new scatter input: clamp
    // non-positive deltas.  Without the clamp a negative delta drives
    // prio[b] below pushedPrio[b] (or below zero), which defeats the
    // 25% growth test below and refreshes the heap on every call —
    // exactly the churn the throttle exists to prevent.
    if (priority_delta > 0.0)
        prio[b] += priority_delta;
    const bool was_active = active[b];
    if (!was_active) {
        active[b] = 1;
        nActive++;
    }
    // Lazy heap with churn throttling: only refresh a block's entry
    // when its priority grew by more than 25% since the last push —
    // scatter storms otherwise push one entry per written edge.  The
    // live entry of a block is the one whose key equals pushedPrio.
    if (!was_active || prio[b] > pushedPrio[b] * 1.25) {
        if (was_active)
            stats.refreshes++;
        pushedPrio[b] = prio[b];
        heap.push_back(HeapEntry{prio[b], b});
        std::push_heap(heap.begin(), heap.end());
        stats.heapPushes++;
    }
}

std::optional<BlockId>
PriorityScheduler::next()
{
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end());
        HeapEntry top = heap.back();
        heap.pop_back();
        if (!active[top.block] ||
            top.priority != pushedPrio[top.block]) {
            stats.staleDiscards++;
            continue;   // stale
        }
        active[top.block] = 0;
        prio[top.block] = 0.0;   // processed: gradient estimate consumed
        pushedPrio[top.block] = 0.0;
        nActive--;
        return top.block;
    }
    GRAPHABCD_ASSERT(nActive == 0, "active blocks missing from the heap");
    return std::nullopt;
}

// ---------------------------------------------------------------- Random

RandomScheduler::RandomScheduler(BlockId num_blocks, std::uint64_t seed)
    : slot(num_blocks, npos), rng(seed)
{
}

void
RandomScheduler::activate(BlockId b, double)
{
    GRAPHABCD_ASSERT(b < slot.size(), "block id out of range");
    stats.activations++;
    if (slot[b] != npos)
        return;
    slot[b] = static_cast<std::uint32_t>(pool.size());
    pool.push_back(b);
}

std::optional<BlockId>
RandomScheduler::next()
{
    if (pool.empty())
        return std::nullopt;
    auto idx = static_cast<std::uint32_t>(rng.nextBounded(pool.size()));
    BlockId b = pool[idx];
    pool[idx] = pool.back();
    slot[pool[idx]] = idx;
    pool.pop_back();
    slot[b] = npos;
    return b;
}

// --------------------------------------------------------------- factory

std::unique_ptr<BlockScheduler>
makeScheduler(Schedule schedule, BlockId num_blocks, std::uint64_t seed)
{
    switch (schedule) {
      case Schedule::Cyclic:
        return std::make_unique<CyclicScheduler>(num_blocks);
      case Schedule::Priority:
        return std::make_unique<PriorityScheduler>(num_blocks);
      case Schedule::Random:
        return std::make_unique<RandomScheduler>(num_blocks, seed);
    }
    panic("unknown schedule");
}

std::unique_ptr<BlockScheduler>
makeSeededScheduler(Schedule schedule, BlockId num_blocks,
                    std::uint64_t seed)
{
    auto sched = makeScheduler(schedule, num_blocks, seed);
    for (BlockId b = 0; b < num_blocks; b++)
        sched->activate(b, initialActivationPriority());
    return sched;
}

} // namespace graphabcd
