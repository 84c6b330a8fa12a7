#include "core/scheduler.hh"

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
    : prio(num_blocks, 0.0), slot(num_blocks, npos)
{
}

void
PriorityScheduler::activate(BlockId b, double priority_delta)
{
    GRAPHABCD_ASSERT(b < slot.size(), "block id out of range");
    stats.activations++;
    // A gradient estimate cannot shrink from new scatter input: clamp
    // non-positive deltas, so an entry only ever moves up while active.
    const bool grew = priority_delta > 0.0;
    if (grew)
        prio[b] += priority_delta;
    if (slot[b] == npos) {
        heap.push_back(b);
        siftUp(heap.size() - 1);
        stats.heapPushes++;
    } else if (grew) {
        siftUp(slot[b]);
        stats.refreshes++;
    }
}

std::optional<BlockId>
PriorityScheduler::next()
{
    if (heap.empty())
        return std::nullopt;
    const BlockId top = heap.front();
    const BlockId last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
        place(0, last);
        siftDown(0);
    }
    slot[top] = npos;
    prio[top] = 0.0;   // processed: gradient estimate consumed
    return top;
}

void
PriorityScheduler::place(std::size_t i, BlockId b)
{
    heap[i] = b;
    slot[b] = static_cast<std::uint32_t>(i);
}

void
PriorityScheduler::siftUp(std::size_t i)
{
    const BlockId b = heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(prio[heap[parent]] < prio[b]))
            break;
        place(i, heap[parent]);
        i = parent;
    }
    place(i, b);
}

void
PriorityScheduler::siftDown(std::size_t i)
{
    const BlockId b = heap[i];
    const std::size_t n = heap.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && prio[heap[child]] < prio[heap[child + 1]])
            child++;
        if (!(prio[b] < prio[heap[child]]))
            break;
        place(i, heap[child]);
        i = child;
    }
    place(i, b);
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
