/**
 * @file
 * FragmentEngine — multi-fragment scale-out execution of one BCD run.
 *
 * The graph is cut into contiguous, edge-balanced fragments
 * (FragmentTopology); each fragment's values, mirrors, scheduler, and
 * outboxes live in a FragmentShard, and all cross-fragment traffic goes
 * through the MessagePlane's SPSC rings.  This is the libgrape-lite /
 * GraphScale shared-nothing model run inside one process: the same
 * partitioning later maps each fragment to a process or an accelerator
 * (the HARP sim's multi-device affinity reuses FragmentTopology).
 *
 * Threading: the engine spawns nothing.  Participants — the calling
 * thread plus up to min(numThreads, fragments) - 1 pool tasks on the
 * shared work-stealing executor — sweep the fragments round-robin from
 * staggered offsets and claim one at a time with an acquire/release
 * flag, so each shard has at most one runner and its state stays plain
 * (non-atomic).  A claimed fragment is *pumped*: drain incoming rings
 * (apply deltas to mirror slots, activate blocks), process a bounded
 * quantum of scheduler blocks, then flush outboxes as far as ring space
 * allows.  Pumps never block on a full ring — the remainder stays in
 * the outbox and the fragment simply stays non-idle — so two fragments
 * flooding each other cannot deadlock.
 *
 * Termination is the four-counter scheme in shared memory: global
 * seq_cst sent/received counters (sent bumped at outbox-append time)
 * plus a per-fragment idle flag that every pump clears at entry and
 * recomputes at exit.  A detector fires when sent == received, every
 * fragment is idle, and a re-read of sent shows nothing was produced
 * in between; the seq_cst total order makes the double-read sound.
 */

#ifndef GRAPHABCD_FRAGMENT_ENGINE_HH
#define GRAPHABCD_FRAGMENT_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "core/options.hh"
#include "core/scheduler.hh"
#include "core/vertex_program.hh"
#include "fragment/message_plane.hh"
#include "fragment/shard.hh"
#include "fragment/topology.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "runtime/executor.hh"

namespace graphabcd {

/** Per-fragment outcome accounting, exposed for tests and bench. */
struct FragmentRunStats
{
    std::uint64_t blockUpdates = 0;
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesReceived = 0;
};

/**
 * Sharded BCD engine over a fragment topology.  Works for every scalar
 * program (the shard state is plain values, no atomicity requirement).
 */
template <VertexProgram Program>
class FragmentEngine
{
  public:
    using Value = typename Program::Value;
    using Msg = DeltaMsg<Value>;

    FragmentEngine(const BlockPartition &g, Program p, EngineOptions opt)
        : graph(g), program(std::move(p)), options(opt),
          topology_(g, std::max(1u, opt.fragments))
    {
    }

    /** @return the realised shard layout (after clamping). */
    const FragmentTopology &topology() const { return topology_; }

    /** @return per-fragment stats of the last run() (empty before). */
    const std::vector<FragmentRunStats> &
    fragmentStats() const
    {
        return stats_;
    }

    /**
     * Run to global quiescence (or maxEpochs / stop).
     * @param out_values receives the stitched final vertex values.
     */
    EngineReport
    run(std::vector<Value> &out_values)
    {
        // Each productive fragment pump records a child span below the
        // run's root span (participantLoop).
        RunAccounting acct("engine.fragment.run", graph.numVertices(),
                           options);
        const FragmentId nFrags = topology_.numFragments();

        // Ring capacity scales with shard size but stays bounded: the
        // outbox absorbs bursts beyond it without blocking.
        const std::size_t ringCap = std::clamp<std::size_t>(
            graph.numVertices() / std::max<FragmentId>(nFrags, 1), 1024,
            65536);
        MessagePlane<Value> plane(nFrags, ringCap);

        struct FragCtl
        {
            std::unique_ptr<FragmentShard<Program>> shard;
            alignas(64) std::atomic<bool> claimed{false};
            std::atomic<bool> idle{false};
            // Below: mutated only by the claiming runner (handed off
            // through the claim flag), read after the run drains.
            std::uint64_t blockUpdates = 0;
            std::uint64_t sent = 0;
            std::uint64_t received = 0;
            ConvergenceWindow win;   //!< the fragment's .frag<i> series
        };
        std::vector<std::unique_ptr<FragCtl>> frags(nFrags);
        for (FragmentId f = 0; f < nFrags; f++) {
            frags[f] = std::make_unique<FragCtl>();
            frags[f]->shard = std::make_unique<FragmentShard<Program>>(
                graph, topology_, f, program, options);
            std::shared_ptr<obs::ConvergenceSeries> series;
            if constexpr (obs::kEnabled) {
                if (options.convergence) {
                    series = obs::beginConvergence(
                        options.convergence->label() + ".frag" +
                        std::to_string(f));
                }
            }
            frags[f]->win = acct.openWindow(std::move(series));
        }

        std::atomic<bool> halted{false};
        std::atomic<bool> quiesced{false};
        std::atomic<bool> done{false};

        // Resolve metrics once per run; record per pump / per block.
        obs::Counter &sentCtr = obs::counter("fragment.messages_sent");
        obs::Counter &recvCtr =
            obs::counter("fragment.messages_received");
        obs::Histogram &depthHist = obs::histogram(
            "fragment.ring_depth", obs::ringDepthBuckets());
        obs::Histogram &staleHist = obs::histogram(
            "fragment.mirror_staleness_blocks", obs::stalenessBuckets());

        // Blocks one pump processes before flushing and releasing the
        // fragment; bounds both mirror staleness and claim latency.
        constexpr std::uint32_t kBlocksPerPump = 32;
        // Messages drained per popN batch.
        constexpr std::size_t kDrainBatch = 256;
        // Outbox backpressure: beyond this backlog a pump stops
        // producing and spends its quantum draining + flushing.
        const std::size_t outboxCap = 4 * ringCap;
        // Sweeps a pool task runs before requeueing itself, so
        // concurrent runs interleave on a shared pool.
        constexpr std::uint32_t kRoundsPerTask = 64;

        // ---- one pump: drain -> process -> flush -> recompute idle ----
        // `batch_buf` is per-participant scratch (each participant owns
        // its own), never shared across threads.
        auto pumpOnce = [&](FragCtl &fc, FragmentId f,
                            std::vector<Msg> &batch_buf) -> bool {
            // Entry store must be seq_cst *before* any apply, so the
            // detector can never pair a stale idle=true with this
            // pump's received increments.
            fc.idle.store(false, std::memory_order_seq_cst);
            FragmentShard<Program> &shard = *fc.shard;
            bool did_work = false;

            for (FragmentId src = 0; src < nFrags; src++) {
                if (src == f)
                    continue;
                auto &ch = plane.channel(src, f);
                if constexpr (obs::kEnabled) {
                    const std::size_t depth = ch.ring.size();
                    if (depth > 0)
                        depthHist.record(static_cast<double>(depth));
                }
                for (;;) {
                    const std::size_t k = ch.ring.popN(
                        batch_buf.data(), batch_buf.size());
                    if (k == 0)
                        break;
                    if constexpr (obs::kEnabled) {
                        const std::uint64_t now = acct.blockUpdates();
                        const std::uint64_t stamp = ch.flushStamp.load(
                            std::memory_order_relaxed);
                        staleHist.record(static_cast<double>(
                            now > stamp ? now - stamp : 0));
                    }
                    BlockWork applied{.blocks = 0};
                    for (std::size_t i = 0; i < k; i++)
                        applied.scatters += shard.applyMessage(batch_buf[i]);
                    acct.count(applied);
                    fc.received += k;
                    plane.noteReceived(k);
                    recvCtr.add(k);
                    did_work = true;
                }
            }

            std::uint32_t blocks = 0;
            while (blocks < kBlocksPerPump) {
                if (halted.load(std::memory_order_relaxed))
                    break;
                if (options.stop.stopRequested() || acct.budgetSpent()) {
                    halted.store(true, std::memory_order_relaxed);
                    break;
                }
                if (shard.pendingOutbox() > outboxCap)
                    break;
                std::optional<ShardWork> work =
                    shard.processNext(options.tolerance, plane);
                if (!work)
                    break;
                did_work = true;
                blocks++;
                fc.blockUpdates++;
                fc.sent += work->messagesQueued;
                sentCtr.add(work->messagesQueued);
                acct.count(*work);
                acct.observe(fc.win, *work);
            }

            const bool drained =
                shard.flushOutboxes(plane, acct.blockUpdates());

            bool rings_empty = true;
            for (FragmentId src = 0; src < nFrags && rings_empty;
                 src++) {
                if (src != f && !plane.channel(src, f).ring.empty())
                    rings_empty = false;
            }
            // Exit store seq_cst: the detector's idle sweep totally
            // orders against the sent/received counter reads.
            fc.idle.store(shard.schedulerEmpty() && drained &&
                              rings_empty,
                          std::memory_order_seq_cst);
            return did_work;
        };

        // ---- quiescence detector (any participant may fire it) ----
        auto tryTerminate = [&] {
            const std::uint64_t s1 = plane.sent();
            if (s1 != plane.received())
                return;
            for (FragmentId f = 0; f < nFrags; f++) {
                if (!frags[f]->idle.load(std::memory_order_seq_cst))
                    return;
            }
            // Nothing was produced while the idle flags were read:
            // every queued message is applied and every scheduler was
            // empty at its owner's last pump exit.
            if (plane.sent() != s1)
                return;
            quiesced.store(true, std::memory_order_relaxed);
            done.store(true, std::memory_order_release);
        };

        // ---- participant: sweep fragments round-robin, claim, pump ----
        auto participantLoop = [&](FragmentId start,
                                   bool bounded) -> bool {
            std::vector<Msg> batch_buf(kDrainBatch);
            std::uint32_t rounds = 0;
            while (!done.load(std::memory_order_acquire)) {
                if (halted.load(std::memory_order_relaxed)) {
                    done.store(true, std::memory_order_release);
                    break;
                }
                bool any = false;
                for (FragmentId i = 0; i < nFrags; i++) {
                    const FragmentId f = (start + i) % nFrags;
                    FragCtl &fc = *frags[f];
                    if (fc.claimed.exchange(
                            true, std::memory_order_acq_rel))
                        continue;   // another runner owns it right now
                    // Record productive pumps as child spans of the
                    // ambient context (the executor task adopted the
                    // job's tree).  Timed manually so idle sweeps — the
                    // overwhelming majority near quiescence — cost two
                    // clock reads at most and record nothing.
                    bool did;
                    if (obs::tracingEnabled()) {
                        const double t0 = obs::traceNowMicros();
                        did = pumpOnce(fc, f, batch_buf);
                        if (did) {
                            obs::completeSpan("fragment.pump", t0,
                                              obs::traceNowMicros() - t0,
                                              obs::childSpan());
                        }
                    } else {
                        did = pumpOnce(fc, f, batch_buf);
                    }
                    any |= did;
                    fc.claimed.store(false, std::memory_order_release);
                    if (done.load(std::memory_order_relaxed))
                        break;
                }
                if (!any) {
                    tryTerminate();
                    if (!done.load(std::memory_order_acquire))
                        std::this_thread::yield();
                }
                if (bounded && ++rounds >= kRoundsPerTask)
                    return done.load(std::memory_order_acquire);
            }
            return true;
        };

        // Participants beyond the fragment count would only contend on
        // claim flags, so the bound is min(threads, fragments).
        const std::uint32_t participants = std::clamp<std::uint32_t>(
            std::min<std::uint32_t>(std::max(1u, options.numThreads),
                                    nFrags),
            1, nFrags);
        std::shared_ptr<Executor> exec =
            options.executor ? options.executor : Executor::shared();
        std::shared_ptr<Executor::Job> job =
            exec->createJob(participants);
        std::atomic<std::uint32_t> offsetSeq{1};
        std::function<void()> poolPump;
        poolPump = [&] {
            const FragmentId start =
                offsetSeq.fetch_add(1, std::memory_order_relaxed) %
                nFrags;
            if (!participantLoop(start, /*bounded=*/true))
                job->submit(poolPump);
        };
        for (std::uint32_t h = 1; h < participants; h++)
            job->submit(poolPump);
        participantLoop(0, /*bounded=*/false);
        job->wait();   // all pool participants drained

        // ---- stitch results and build the report ----
        // The run-wide window is the sum of the fragments' windows.
        out_values.resize(graph.numVertices());
        stats_.assign(nFrags, FragmentRunStats{});
        for (FragmentId f = 0; f < nFrags; f++) {
            FragCtl &fc = *frags[f];
            const FragmentShard<Program> &shard = *fc.shard;
            std::copy(shard.values().begin(), shard.values().end(),
                      out_values.begin() + shard.vertexBegin());
            stats_[f].blockUpdates = fc.blockUpdates;
            stats_[f].messagesSent = fc.sent;
            stats_[f].messagesReceived = fc.received;
            acct.window().l1 += fc.win.l1;
            acct.window().active += fc.win.active;
            acct.sample(fc.win, /*final=*/true);
            RunAccounting::flushSchedulerCounters(shard.scheduler());
        }

        // A halted run never claims convergence: only the detector's
        // proof of global quiescence does.
        const bool stopped = options.stop.stopRequested();
        return acct.finish(stopped,
                           quiesced.load(std::memory_order_relaxed) &&
                               !stopped);
    }

  private:
    const BlockPartition &graph;
    Program program;
    EngineOptions options;
    FragmentTopology topology_;
    std::vector<FragmentRunStats> stats_;
};

} // namespace graphabcd

#endif // GRAPHABCD_FRAGMENT_ENGINE_HH
