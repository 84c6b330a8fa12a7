/**
 * @file
 * Block selection (scheduling) strategies — paper Sec. III-B / IV-B.
 *
 * A scheduler owns the active list: blocks become active when SCATTER
 * writes changed values into their edge slice, and inactive when picked
 * for processing.  The algorithm terminates when no block is active
 * (the Termination Unit's check in Fig. 2, step 1).
 *
 * PriorityScheduler implements the Gauss-Southwell rule with the paper's
 * approximation: a block's priority is the L1 norm of the value changes
 * recently scattered into it (an estimate of its gradient magnitude),
 * cheap to maintain and reset when the block is processed.
 *
 * Concurrency contract
 * --------------------
 * Every scheduler call is serialized: the engine's control lock (or a
 * single-threaded run loop) covers each activate(), next(),
 * activeCount() and counters() call.  No scheduler synchronizes
 * internally.
 */

#ifndef GRAPHABCD_CORE_SCHEDULER_HH
#define GRAPHABCD_CORE_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/options.hh"
#include "graph/types.hh"
#include "support/random.hh"

namespace graphabcd {

/**
 * Cumulative work counters a scheduler maintains over its lifetime.
 * Plain (non-atomic) fields: every scheduler call already happens under
 * the engine's control lock.  heapPushes / refreshes measure heap work
 * and are only meaningful for PriorityScheduler.
 */
struct SchedulerCounters
{
    std::uint64_t activations = 0;   //!< activate() calls
    std::uint64_t heapPushes = 0;    //!< inactive blocks entering the heap
    std::uint64_t refreshes = 0;     //!< sift-ups of active blocks whose
                                     //!< priority grew
};

/**
 * Abstract block scheduler.  All implementations are deterministic given
 * the same activation sequence (Random uses a seeded generator).
 */
class BlockScheduler
{
  public:
    virtual ~BlockScheduler() = default;

    /**
     * Record that block `b` received updated inputs.
     * @param priority_delta estimated gradient-magnitude increase (L1 of
     *        the incoming value changes); ignored by order-based rules.
     */
    virtual void activate(BlockId b, double priority_delta) = 0;

    /**
     * Pick the next block to process and mark it inactive.
     * @return std::nullopt when no block is active (quiescence).
     */
    virtual std::optional<BlockId> next() = 0;

    /** @return number of active blocks. */
    virtual std::size_t activeCount() const = 0;

    /** @return whether no block is active. */
    bool empty() const { return activeCount() == 0; }

    /** @return current priority estimate of block b (0 if unsupported). */
    virtual double priority(BlockId) const { return 0.0; }

    /** @return cumulative work counters (heap fields 0 if heapless). */
    const SchedulerCounters &counters() const { return stats; }

    /** @return the strategy this scheduler implements. */
    virtual Schedule kind() const = 0;

  protected:
    SchedulerCounters stats;
};

/**
 * Cyclic selection: repeatedly sweeps the block id space in fixed order,
 * skipping inactive blocks.  Predictable access pattern (prefetchable).
 */
class CyclicScheduler : public BlockScheduler
{
  public:
    explicit CyclicScheduler(BlockId num_blocks);

    void activate(BlockId b, double priority_delta) override;
    std::optional<BlockId> next() override;
    std::size_t activeCount() const override { return nActive; }
    Schedule kind() const override { return Schedule::Cyclic; }

  private:
    std::vector<char> active;
    BlockId cursor = 0;
    std::size_t nActive = 0;
};

/**
 * Gauss-Southwell priority selection: argmax of the maintained gradient
 * estimates.  An indexed binary max-heap holds exactly the active
 * blocks, one entry each, with a block -> heap position index: a
 * priority that grows sifts its block's entry up in place, so
 * activate() and next() are O(log active) and every pop is an exact
 * argmax.
 */
class PriorityScheduler : public BlockScheduler
{
  public:
    explicit PriorityScheduler(BlockId num_blocks);

    void activate(BlockId b, double priority_delta) override;
    std::optional<BlockId> next() override;
    std::size_t activeCount() const override { return heap.size(); }
    double priority(BlockId b) const override { return prio[b]; }
    Schedule kind() const override { return Schedule::Priority; }

  private:
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    void place(std::size_t i, BlockId b);

    std::vector<double> prio;
    std::vector<BlockId> heap;        //!< active blocks, max-heap on prio
    std::vector<std::uint32_t> slot;  //!< block -> heap index or npos

    static constexpr std::uint32_t npos = ~0u;
};

/**
 * Uniform random selection among active blocks (ablation baseline; the
 * BCD literature often analyses random selection).
 */
class RandomScheduler : public BlockScheduler
{
  public:
    RandomScheduler(BlockId num_blocks, std::uint64_t seed);

    void activate(BlockId b, double priority_delta) override;
    std::optional<BlockId> next() override;
    std::size_t activeCount() const override { return pool.size(); }
    Schedule kind() const override { return Schedule::Random; }

  private:
    std::vector<BlockId> pool;        //!< active blocks, unordered
    std::vector<std::uint32_t> slot;  //!< block -> pool index or npos
    Rng rng;

    static constexpr std::uint32_t npos = ~0u;
};

/**
 * One participant's activation batch: the blocks a SCATTER activated,
 * each with the L1 sum of the deltas added for it, deduplicated so a
 * commit calls activate() once per distinct block instead of once per
 * add().
 *
 * The batch keeps what it is given: the state-based engines' per-block
 * activation step (activateDestinations in core/state.hh) adds either
 * each scattered out-edge's block, which is exact, or the scattering
 * block's whole union of destination blocks at the summed delta, which
 * may over-activate (safe there: an unchanged block re-gathers to the
 * same values).  add() applies PriorityScheduler's clamp (only
 * positive deltas count), so a zero-delta add still activates its
 * block.  Not thread-safe: each participant owns one.
 */
class BlockActivations
{
  public:
    BlockActivations() = default;

    explicit BlockActivations(BlockId num_blocks) { resize(num_blocks); }

    /** Size for a partition of `num_blocks` blocks; drops the batch. */
    void
    resize(BlockId num_blocks)
    {
        sum_.assign(num_blocks, kUntouched);
        touched_.resize(num_blocks);   // a block enters at most once
        count_ = 0;
    }

    /**
     * Record a write of `delta` into block b's edge slice.  Kept free of
     * any allocation path so every engine's per-edge loop inlines it.
     */
    void
    add(BlockId b, double delta)
    {
        double &s = sum_[b];
        if (s < 0.0) {
            s = 0.0;
            touched_[count_++] = b;
        }
        if (delta > 0.0)
            s += delta;
    }

    /** @return blocks the batch is sized for. */
    BlockId numBlocks() const { return static_cast<BlockId>(sum_.size()); }

    /** @return distinct blocks in the batch. */
    std::size_t size() const { return count_; }

    bool empty() const { return count_ == 0; }

    /** Call fn(block, l1_sum) once per distinct block, in first-touch
     *  order, and empty the batch. */
    template <typename Fn>
    void
    flush(Fn &&fn)
    {
        for (std::size_t i = 0; i < count_; i++) {
            const BlockId b = touched_[i];
            fn(b, sum_[b]);
            sum_[b] = kUntouched;
        }
        count_ = 0;
    }

    /** Activate every block of the batch on `sched`; empties it. */
    void
    commit(BlockScheduler &sched)
    {
        flush([&sched](BlockId b, double l1) { sched.activate(b, l1); });
    }

  private:
    static constexpr double kUntouched = -1.0;

    std::vector<double> sum_;       //!< per block; kUntouched if absent
    std::vector<BlockId> touched_;  //!< distinct blocks, first-touch order
    std::size_t count_ = 0;         //!< used prefix of touched_
};

/** Factory keyed by the EngineOptions schedule. */
std::unique_ptr<BlockScheduler> makeScheduler(Schedule schedule,
                                              BlockId num_blocks,
                                              std::uint64_t seed);

/**
 * Initial activation priority used when every block is seeded at the
 * start of a run.  It is *equal* across blocks and far larger than any
 * gradient estimate, so the first sweep visits every block once before
 * Gauss-Southwell ordering takes over — seeding by block density
 * instead measurably hurts convergence on skewed graphs.
 */
inline double
initialActivationPriority()
{
    return 1e9;
}

/** makeScheduler with every block activated at
 *  initialActivationPriority(): the start state of a run. */
std::unique_ptr<BlockScheduler> makeSeededScheduler(
    Schedule schedule, BlockId num_blocks, std::uint64_t seed);

} // namespace graphabcd

#endif // GRAPHABCD_CORE_SCHEDULER_HH
