/**
 * @file
 * BlockPump — the one barrierless run loop of the threaded engines (the
 * "software GraphABCD" of paper Sec. IV-A / V-D): each participant
 * claims a block from a bounded dispatch FIFO, runs the engine's fused
 * per-block kernel, commits, and claims the next block — it never waits
 * on a barrier.
 *
 * Threading: the pump spawns nothing.  It opens an Executor::Job with
 * the run's participation bound on EngineOptions::executor (defaulting
 * to Executor::shared()), and the calling thread pumps alongside the
 * pool tasks — so a run always makes progress even on a saturated pool,
 * and N concurrent runs share one set of OS threads.
 *
 * Control state (the scheduler, the FIFO, the participant count, the
 * halt flags and the run-wide convergence window) sits behind one
 * mutex that every participant takes exactly once per block: commit
 * the previous block's activation batch, refill the FIFO from the
 * scheduler, claim the next block.  The batch is a BlockActivations
 * (core/scheduler.hh): the kernel records every out-edge it scatters
 * to in the participant's batch, deduplicated per destination block,
 * so the locked commit costs one activate() per distinct block, not one
 * per out-edge.
 *
 * The FIFO bounds staleness (Sec. III-D): each item carries the
 * block-update count at FIFO entry, and the difference read at claim
 * time is the measured staleness, which FIFO order keeps at <= window
 * + participants (asserted in every build).  AsyncEngine uses a window
 * of 4 x participation; AccumEngine uses 1, i.e. claims straight from
 * the scheduler, because its deltas commute.
 *
 * The pump never runs one block on two participants at once.  The
 * scheduler re-issues a block that is re-activated while an earlier
 * copy is still in the FIFO or in flight.  A copy still in the FIFO
 * already covers the re-issue (it will read the newer inputs); for a
 * copy in flight the pump re-activates the block when that copy
 * commits.  Both engines rely on this.  AsyncEngine stores whole
 * values, so of two overlapping copies the slower one could overwrite
 * a newer value that nothing re-activates (a converged SSSP run with
 * wrong distances).  AccumEngine's kernel owns its block's vertices
 * from claim to commit: it moves their accumulators into the
 * participant's buffer and is their only writer.
 */

#ifndef GRAPHABCD_CORE_BLOCK_PUMP_HH
#define GRAPHABCD_CORE_BLOCK_PUMP_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/options.hh"
#include "core/run_accounting.hh"
#include "core/scheduler.hh"
#include "obs/obs.hh"
#include "runtime/executor.hh"
#include "support/logging.hh"

namespace graphabcd {

/** The engine-fixed shape of one pump run. */
struct PumpConfig
{
    const char *metrics;          //!< metric prefix, e.g. "engine.async"
    std::uint32_t participation;  //!< participants, the caller included
    std::size_t window;           //!< dispatch FIFO capacity (>= 1)
    BlockId numBlocks;            //!< blocks the scheduler hands out
};

/**
 * @tparam Local per-participant scratch (participants run
 *         concurrently).  Recycled with the participant's activation
 *         batch: a run default-constructs at most `participation` of
 *         them, however often its pool tasks requeue.
 * @tparam Kernel BlockWork(BlockId, Local &, BlockActivations &):
 *         process one block; the batch it fills is committed to the
 *         scheduler under the control lock.
 */
template <typename Local, typename Kernel>
class BlockPump
{
  public:
    BlockPump(const PumpConfig &cfg, BlockScheduler &sched,
              RunAccounting &acct, const EngineOptions &opt,
              Kernel &kernel)
        : cfg_(cfg), sched_(sched), acct_(acct), stop_(opt.stop),
          kernel_(kernel),
          gasHist_(obs::histogram(metric(".block_gas_us").c_str(),
                                  obs::latencyBucketsUs())),
          fanoutHist_(obs::histogram(metric(".scatter_fanout").c_str(),
                                     obs::fanoutBuckets())),
          staleHist_(obs::histogram(metric(".staleness_blocks").c_str(),
                                    obs::stalenessBuckets())),
          depthGauge_(obs::gauge(metric(".queue_depth").c_str())),
          exec_(opt.executor ? opt.executor : Executor::shared()),
          job_(exec_->createJob(cfg.participation))
    {
        ctl_.dispatched.assign(cfg.numBlocks, kIdle);
    }

    /** Pump to quiescence or halt, then assemble the report. */
    EngineReport
    run()
    {
        ctl_.pumps = 1;   // the calling thread participates
        pump(/*allow_requeue=*/false);
        job_->wait();   // all pool participants drained

        // A halted run never claims convergence once it dropped
        // dispatched blocks: an empty scheduler then no longer means
        // quiescence.  No lock needed: wait() ordered every
        // participant (and its activations) before this point.
        const bool stopped = stop_.stopRequested();
        return acct_.finish(sched_, stopped,
                            !stopped && !ctl_.droppedWork &&
                                sched_.empty());
    }

  private:
    /** Blocks a pool task pumps before requeueing itself, so
     *  concurrent runs interleave on a shared pool instead of the
     *  first run monopolising the workers to quiescence. */
    static constexpr std::uint32_t kQuantum = 32;

    struct WorkItem
    {
        BlockId block;
        std::uint64_t stamp;   //!< block updates at FIFO entry
    };

    /** Per-block dispatch state. */
    enum : std::uint8_t
    {
        kIdle,       //!< not in the FIFO, not in flight
        kQueued,     //!< in the FIFO
        kRunning,    //!< in flight
        kReissued,   //!< in flight, and the scheduler re-issued it
    };

    /** What one participant owns while it pumps.  The batch is empty
     *  between blocks; the kernel leaves the Local's state reusable.
     *  Cache-line aligned: kernels write their Local's tallies per
     *  vertex, and two participants' heap-allocated state must not
     *  share a line. */
    struct alignas(64) Participant
    {
        Local local;
        BlockActivations activations;
    };

    struct Ctl
    {
        std::mutex m;
        std::deque<WorkItem> fifo;
        std::vector<std::uint8_t> dispatched;   //!< state per block
        std::uint32_t pumps = 0;      //!< live participants
        bool halted = false;          //!< stop token or budget
        bool droppedWork = false;     //!< a halt discarded FIFO items
        /** State of participants that returned or requeued.  Both
         *  halves are sized to the partition (the batch to its blocks,
         *  the accum buffer to its vertices), so building them per
         *  kQuantum blocks would pay that fill every quantum. */
        std::vector<std::unique_ptr<Participant>> idle;
    };

    std::string
    metric(const char *suffix) const
    {
        return std::string(cfg_.metrics) + suffix;
    }

    // ---- ctl_.m must be held by callers of the *Locked helpers ----

    /** Move ready blocks scheduler -> FIFO until the window is full or
     *  the run halts (stop token or update budget). */
    void
    refillLocked()
    {
        if (!ctl_.halted && stop_.stopRequested())
            ctl_.halted = true;
        while (!ctl_.halted && ctl_.fifo.size() < cfg_.window) {
            if (acct_.budgetSpent()) {
                ctl_.halted = true;
                break;
            }
            std::optional<BlockId> b = sched_.next();
            if (!b)
                break;
            std::uint8_t &state = ctl_.dispatched[*b];
            if (state != kIdle) {
                if (state != kQueued)
                    state = kReissued;
                continue;
            }
            state = kQueued;
            ctl_.fifo.push_back({*b, acct_.blockUpdates()});
        }
        if (ctl_.halted && !ctl_.fifo.empty()) {
            ctl_.droppedWork = true;
            ctl_.fifo.clear();
        }
        if constexpr (obs::kEnabled)
            depthGauge_.set(static_cast<double>(ctl_.fifo.size()));
    }

    /** Claim the FIFO head.  Measuring staleness inside the locked
     *  claim keeps the FIFO bound exact: only blocks in flight at the
     *  stamp or ahead in the FIFO can have been counted since, and
     *  every build checks that bound. */
    std::optional<WorkItem>
    claimLocked()
    {
        if (ctl_.fifo.empty())
            return std::nullopt;
        WorkItem item = ctl_.fifo.front();
        ctl_.fifo.pop_front();
        ctl_.dispatched[item.block] = kRunning;
        const std::uint64_t staleness = acct_.blockUpdates() - item.stamp;
        GRAPHABCD_ASSERT(staleness <= cfg_.window + cfg_.participation,
                         "staleness ", staleness, " exceeds the dispatch "
                         "window bound");
        if constexpr (obs::kEnabled) {
            staleHist_.record(static_cast<double>(staleness));
            depthGauge_.set(static_cast<double>(ctl_.fifo.size()));
        }
        return item;
    }

    /** Add pool participants for claimable work (FIFO plus scheduler
     *  backlog), up to the participation bound. */
    void
    spawnLocked()
    {
        const std::size_t free_slots = cfg_.participation > ctl_.pumps
            ? cfg_.participation - ctl_.pumps
            : 0;
        std::size_t want = std::min<std::size_t>(
            free_slots, ctl_.fifo.size() + sched_.activeCount());
        for (; want > 0; want--) {
            ctl_.pumps++;
            job_->submit([this] { pump(/*allow_requeue=*/true); });
        }
    }

    /** One participant: claim-process-commit blocks until nothing is
     *  claimable (or, for pool tasks, the quantum expires and the
     *  participant requeues itself behind other runs' tasks). */
    void
    pump(bool allow_requeue)
    {
        std::unique_ptr<Participant> self;
        BlockWork work;
        std::optional<WorkItem> cur;   // processed, not yet committed
        for (std::uint32_t done = 0;; done++) {
            {
                std::lock_guard<std::mutex> lock(ctl_.m);
                if (!self) {
                    if (ctl_.idle.empty()) {
                        self = std::make_unique<Participant>();
                    } else {
                        self = std::move(ctl_.idle.back());
                        ctl_.idle.pop_back();
                    }
                }
                if (cur) {
                    self->activations.commit(sched_);
                    if (std::exchange(ctl_.dispatched[cur->block],
                                      kIdle) == kReissued) {
                        // The scheduler picked it once already: top rank.
                        sched_.activate(cur->block,
                                        initialActivationPriority());
                    }
                    acct_.observe(work);
                }
                refillLocked();
                if (allow_requeue && done >= kQuantum &&
                    !ctl_.fifo.empty()) {
                    // Keep ctl_.pumps: the requeued task inherits this
                    // participant's slot.
                    cur.reset();
                    ctl_.idle.push_back(std::move(self));
                } else if ((cur = claimLocked())) {
                    spawnLocked();
                } else {
                    ctl_.pumps--;
                    ctl_.idle.push_back(std::move(self));
                    return;
                }
            }
            if (!cur) {
                job_->submit([this] { pump(/*allow_requeue=*/true); });
                return;
            }
            BlockActivations &activations = self->activations;
            if (activations.numBlocks() != cfg_.numBlocks)
                activations.resize(cfg_.numBlocks);   // a new participant
            {
                obs::ScopedLatency lat(gasHist_);
                work = kernel_(cur->block, self->local, activations);
            }
            fanoutHist_.record(static_cast<double>(work.scatters));
            acct_.count(work);
        }
    }

    const PumpConfig cfg_;
    BlockScheduler &sched_;
    RunAccounting &acct_;
    const StopToken &stop_;
    Kernel &kernel_;
    obs::Histogram &gasHist_;
    obs::Histogram &fanoutHist_;
    obs::Histogram &staleHist_;
    obs::Gauge &depthGauge_;
    std::shared_ptr<Executor> exec_;
    std::shared_ptr<Executor::Job> job_;
    Ctl ctl_;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_BLOCK_PUMP_HH
