#include "core/scheduler.hh"

#include <algorithm>
#include <bit>
#include <cmath>

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

// ------------------------------------------------------------------ OBIM

ObimScheduler::ObimScheduler(BlockId num_blocks,
                             std::uint32_t num_workers)
    : slots(std::min<std::uint32_t>(
          std::max<std::uint32_t>(num_workers, 1u) * 2, 64u)),
      prio(num_blocks), queued(num_blocks), queuedLevel(num_blocks),
      popLevelHist(obs::histogram("scheduler.obim.pop_level",
                                  obs::obimLevelBuckets()))
{
    for (BlockId b = 0; b < num_blocks; b++) {
        prio[b].store(0.0, std::memory_order_relaxed);
        queued[b].store(0, std::memory_order_relaxed);
        queuedLevel[b].store(kLevels - 1, std::memory_order_relaxed);
    }
}

int
ObimScheduler::levelOf(double priority)
{
    if (!(priority > 0.0))
        return kLevels - 1;   // non-positive / NaN: lowest level
    int exp = 0;
    std::frexp(priority, &exp);   // priority in [2^(exp-1), 2^exp)
    // kTopExp puts the initial-activation seed (1e9 ~ 2^30) at level 1
    // and leaves level 0 for anything >= 2^31; the 64 levels then span
    // priorities down to ~2^-32, far below any useful tolerance.
    constexpr int kTopExp = 31;
    const int level = kTopExp - exp;
    return std::clamp(level, 0, kLevels - 1);
}

void
ObimScheduler::activate(BlockId b, double priority_delta)
{
    GRAPHABCD_ASSERT(b < queued.size(), "block id out of range");
    cActivations.fetch_add(1, std::memory_order_relaxed);
    // Accumulate the gradient estimate (non-positive deltas are
    // ignored, as in PriorityScheduler) and bucket the new total.
    double total;
    if (priority_delta > 0.0) {
        double cur = prio[b].load(std::memory_order_relaxed);
        while (!prio[b].compare_exchange_weak(cur, cur + priority_delta,
                                              std::memory_order_relaxed))
            ;
        total = cur + priority_delta;
    } else {
        total = prio[b].load(std::memory_order_relaxed);
    }
    const int level = levelOf(total);
    for (;;) {
        if (queued[b].load(std::memory_order_acquire) != 0) {
            int cur_level =
                queuedLevel[b].load(std::memory_order_relaxed);
            if (level >= cur_level)
                return;   // live entry already at a same-or-better level
            // Upgrade: retag the live entry and push a duplicate at the
            // better level; the old entry goes stale and next() drops
            // it via the queued-flag exchange (lazy deletion).
            if (queuedLevel[b].compare_exchange_weak(
                    cur_level, level, std::memory_order_relaxed)) {
                cRefreshes.fetch_add(1, std::memory_order_relaxed);
                cPushes.fetch_add(1, std::memory_order_relaxed);
                pushToSlot(b, level);
                return;
            }
        } else {
            if (queued[b].exchange(1, std::memory_order_acq_rel) == 0) {
                queuedLevel[b].store(level, std::memory_order_relaxed);
                nQueued.fetch_add(1, std::memory_order_relaxed);
                cPushes.fetch_add(1, std::memory_order_relaxed);
                pushToSlot(b, level);
                return;
            }
            // Lost the race to another activation: re-check its level.
        }
    }
}

std::uint32_t
ObimScheduler::slotIndex() const
{
    static std::atomic<std::uint32_t> nextThreadTag{0};
    thread_local const std::uint32_t threadTag =
        nextThreadTag.fetch_add(1, std::memory_order_relaxed);
    return static_cast<std::uint32_t>(threadTag % slots.size());
}

void
ObimScheduler::pushToSlot(BlockId b, int level)
{
    const std::uint32_t s = slotIndex();
    Slot &slot = slots[s];
    Chunk out;
    int out_level = -1;
    {
        std::lock_guard<std::mutex> lock(slot.m);
        if (slot.open.count > 0 && slot.level != level) {
            // Level changed: publish the open chunk as-is.
            out = slot.open;
            out_level = slot.level;
            slot.open = Chunk{};
        }
        slot.level = level;
        slot.open.items[slot.open.count++] = b;
        if (slot.open.count == kChunkSize) {
            // (Mutually exclusive with the level-change flush above:
            // that path leaves count == 1.)
            out = slot.open;
            out_level = level;
            slot.open = Chunk{};
            slot.level = -1;
        }
        const std::uint64_t bit = std::uint64_t{1} << s;
        if (slot.open.count > 0)
            slotMask.fetch_or(bit, std::memory_order_release);
        else
            slotMask.fetch_and(~bit, std::memory_order_release);
    }
    if (out_level >= 0)
        publishChunk(std::move(out), out_level);
}

void
ObimScheduler::publishChunk(Chunk &&chunk, int level)
{
    Level &lvl = levels[static_cast<std::size_t>(level)];
    std::lock_guard<std::mutex> lock(lvl.m);
    lvl.chunks.push_back(std::move(chunk));
    // Set the occupancy bit under the level lock, so bit==0 implies
    // the level really is empty at every lock boundary.
    occupancy.fetch_or(std::uint64_t{1} << level,
                       std::memory_order_release);
}

std::optional<BlockId>
ObimScheduler::popLevel(int level)
{
    Level &lvl = levels[static_cast<std::size_t>(level)];
    std::lock_guard<std::mutex> lock(lvl.m);
    while (!lvl.chunks.empty()) {
        Chunk &front = lvl.chunks.front();
        if (front.head < front.count) {
            BlockId b = front.items[front.head++];
            if (front.head == front.count)
                lvl.chunks.pop_front();
            if (lvl.chunks.empty())
                occupancy.fetch_and(~(std::uint64_t{1} << level),
                                    std::memory_order_release);
            return b;
        }
        lvl.chunks.pop_front();
    }
    occupancy.fetch_and(~(std::uint64_t{1} << level),
                        std::memory_order_release);
    return std::nullopt;
}

void
ObimScheduler::drainSlots()
{
    std::uint64_t mask = slotMask.load(std::memory_order_acquire);
    while (mask) {
        const int s = std::countr_zero(mask);
        mask &= mask - 1;
        Slot &slot = slots[static_cast<std::size_t>(s)];
        Chunk out;
        int out_level = -1;
        {
            std::lock_guard<std::mutex> lock(slot.m);
            if (slot.open.count > 0) {
                out = slot.open;
                out_level = slot.level;
                slot.open = Chunk{};
                slot.level = -1;
            }
            slotMask.fetch_and(~(std::uint64_t{1} << s),
                               std::memory_order_release);
        }
        if (out_level >= 0)
            publishChunk(std::move(out), out_level);
    }
}

void
ObimScheduler::drainOwnSlot()
{
    const std::uint32_t s = slotIndex();
    const std::uint64_t bit = std::uint64_t{1} << s;
    if (!(slotMask.load(std::memory_order_acquire) & bit))
        return;
    Slot &slot = slots[s];
    Chunk out;
    int out_level = -1;
    {
        std::lock_guard<std::mutex> lock(slot.m);
        if (slot.open.count > 0) {
            out = slot.open;
            out_level = slot.level;
            slot.open = Chunk{};
            slot.level = -1;
        }
        slotMask.fetch_and(~bit, std::memory_order_release);
    }
    if (out_level >= 0)
        publishChunk(std::move(out), out_level);
}

std::optional<BlockId>
ObimScheduler::next()
{
    // Publish this thread's own open chunk before choosing a level:
    // without it a consumer can pop a weaker published level while its
    // own *stronger* activations sit invisible in the open chunk —
    // out-of-order processing that fragments deltas prematurely (each
    // premature apply scatters mass that would otherwise have
    // coalesced).  One mostly-uncontended lock per pop; cross-worker
    // open chunks are still only drained when occupancy runs dry.
    drainOwnSlot();
    bool drained = false;
    for (;;) {
        const std::uint64_t occ =
            occupancy.load(std::memory_order_acquire);
        if (occ == 0) {
            if (drained)
                return std::nullopt;
            // Published levels are dry; flush the open per-worker
            // chunks and rescan once before declaring emptiness.
            drainSlots();
            drained = true;
            continue;
        }
        const int level = std::countr_zero(occ);
        std::optional<BlockId> b = popLevel(level);
        if (!b)
            continue;   // raced to empty; occupancy was cleared
        if (queued[*b].exchange(0, std::memory_order_acq_rel) != 0) {
            nQueued.fetch_sub(1, std::memory_order_relaxed);
            // Processed: the gradient estimate is consumed.
            prio[*b].store(0.0, std::memory_order_relaxed);
            popLevelHist.record(static_cast<double>(level));
            return *b;
        }
        cStaleDiscards.fetch_add(1, std::memory_order_relaxed);
        drained = false;   // discards may have emptied a level
    }
}

std::size_t
ObimScheduler::activeCount() const
{
    const std::int64_t n = nQueued.load(std::memory_order_acquire);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
}

double
ObimScheduler::priority(BlockId b) const
{
    return prio[b].load(std::memory_order_relaxed);
}

const SchedulerCounters &
ObimScheduler::counters() const
{
    snap.activations = cActivations.load(std::memory_order_relaxed);
    snap.heapPushes = cPushes.load(std::memory_order_relaxed);
    snap.staleDiscards = cStaleDiscards.load(std::memory_order_relaxed);
    snap.refreshes = cRefreshes.load(std::memory_order_relaxed);
    return snap;
}

// --------------------------------------------------------------- factory

std::unique_ptr<BlockScheduler>
makeScheduler(Schedule schedule, BlockId num_blocks, std::uint64_t seed,
              std::uint32_t num_workers)
{
    switch (schedule) {
      case Schedule::Cyclic:
        return std::make_unique<CyclicScheduler>(num_blocks);
      case Schedule::Priority:
        return std::make_unique<PriorityScheduler>(num_blocks);
      case Schedule::Random:
        return std::make_unique<RandomScheduler>(num_blocks, seed);
      case Schedule::Obim:
        return std::make_unique<ObimScheduler>(num_blocks, num_workers);
    }
    panic("unknown schedule");
}

std::unique_ptr<BlockScheduler>
makeSeededScheduler(Schedule schedule, BlockId num_blocks,
                    std::uint64_t seed, std::uint32_t num_workers)
{
    auto sched = makeScheduler(schedule, num_blocks, seed, num_workers);
    for (BlockId b = 0; b < num_blocks; b++)
        sched->activate(b, initialActivationPriority());
    return sched;
}

} // namespace graphabcd
