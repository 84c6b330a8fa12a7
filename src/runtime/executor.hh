/**
 * @file
 * Process-wide work-stealing executor — the software analogue of the
 * paper's task-queue units (Fig. 2).
 *
 * GraphABCD's CPU and accelerator sides never synchronise through
 * barriers; they exchange block ids through bounded task queues and
 * every processing element pulls work whenever it is free (Sec. IV-A3).
 * The Executor gives the software engines the same substrate: a fixed
 * set of persistent workers (sized to the hardware, not to the number
 * of concurrent runs), one sharded run-queue per worker, and work
 * stealing so an idle worker drains a loaded shard instead of waiting.
 *
 * Multi-tenancy is the point.  Under the serve layer many engine runs
 * execute concurrently; if each run spawned its own `numThreads`
 * workers (the pre-Executor design), N concurrent jobs oversubscribed
 * the machine N-fold and throughput collapsed.  Instead every run
 * opens a Job handle with a *participation bound*: at most that many
 * of the job's tasks are released into the shards at once, the rest
 * wait in the job's backlog.  N concurrent jobs therefore share one
 * pool, each limited to its fair slice, and total thread count stays
 * `pool size + service workers` no matter the offered load.
 *
 * Tasks must be dependency-free among jobs (no task may block waiting
 * for another job's task): engines follow this by having the caller
 * thread participate in its own run, so a run always makes progress
 * even when every pool worker is busy elsewhere.
 */

#ifndef GRAPHABCD_RUNTIME_EXECUTOR_HH
#define GRAPHABCD_RUNTIME_EXECUTOR_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/span.hh"
#include "support/logging.hh"

namespace graphabcd {

/**
 * Fixed-size work-stealing thread pool with per-job admission bounds.
 * Create once and share: construction spawns the workers, destruction
 * drains every queued task and joins.
 */
class Executor
{
  public:
    /**
     * Per-run submission handle.  submit() enqueues a task under the
     * job's participation bound; wait() blocks until every submitted
     * task has finished (reusable: a drained job accepts new tasks).
     * Obtain via Executor::createJob(); must not outlive the Executor.
     */
    class Job : public std::enable_shared_from_this<Job>
    {
      public:
        /**
         * Enqueue a task.  At most the job's participation bound of
         * its tasks are released into the worker shards at once; the
         * surplus waits in the job backlog and is released as earlier
         * tasks of this job finish.
         */
        void submit(std::function<void()> fn);

        /**
         * Block until every task submitted so far has finished.  The
         * releasing worker's mutex handoff orders the tasks' writes
         * before the return, so the caller reads them race-free.
         */
        void wait();

        /** @return tasks submitted but not yet finished (racy). */
        std::size_t pending() const;

      private:
        friend class Executor;

        Job(Executor &executor, std::uint32_t max_participation)
            : exec(executor), limit(std::max(1u, max_participation))
        {
        }

        Executor &exec;
        const std::uint32_t limit;   //!< max released tasks

        /** A backlogged task keeps the span context captured at
         *  submit() so causal attribution survives deferred release. */
        struct Pending
        {
            std::function<void()> fn;
            obs::SpanContext ctx;
        };

        mutable std::mutex mtx;
        std::condition_variable idleCv;
        std::deque<Pending> backlog;
        std::uint32_t released = 0;   //!< tasks in shards or running
        std::size_t unfinished = 0;   //!< backlog + released
    };

    /** Work-stealing counters (monotonic over the executor lifetime). */
    struct Stats
    {
        std::uint64_t executed = 0;   //!< tasks run to completion
        std::uint64_t steals = 0;     //!< tasks taken from a foreign shard
    };

    /**
     * @param num_threads persistent worker threads; 0 sizes the pool to
     *        std::thread::hardware_concurrency().
     */
    explicit Executor(std::uint32_t num_threads = 0);

    /** Drains every queued task, then joins the workers. */
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /**
     * The process-wide pool, created on first use and sized to the
     * hardware.  Engines default to this so every run in the process —
     * standalone or behind the serve layer — shares one set of workers.
     */
    static const std::shared_ptr<Executor> &shared();

    /**
     * Open a submission handle.
     * @param max_participation most tasks of this job that may occupy
     *        workers simultaneously (clamped to >= 1).
     */
    std::shared_ptr<Job> createJob(std::uint32_t max_participation);

    /** @return worker count. */
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(workers.size());
    }

    /** @return tasks sitting in the shards right now (racy gauge —
     *  the stall watchdog's diagnosis, not a synchronisation point). */
    std::size_t
    queueDepth() const
    {
        return queued.load(std::memory_order_relaxed);
    }

    /** @return work-stealing counters. */
    Stats stats() const;

  private:
    friend class Job;

    /** One released task: the closure, its accounting handle, and the
     *  submitter's span context (adopted by the running worker, so the
     *  task's trace events land in the submitting job's span tree). */
    struct Task
    {
        std::function<void()> fn;
        std::shared_ptr<Job> job;
        obs::SpanContext ctx;
    };

    /** A worker's run-queue.  Owner pops the front, thieves the back. */
    struct alignas(64) Shard
    {
        std::mutex mtx;
        std::deque<Task> queue;
    };

    void workerLoop(std::uint32_t self);
    void enqueue(Task task);
    void finishTask(const std::shared_ptr<Job> &job);
    bool tryTake(std::uint32_t self, Task &out, bool &stolen);

    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<std::thread> workers;
    std::atomic<std::size_t> queued{0};   //!< tasks sitting in shards
    std::atomic<std::uint64_t> rr{0};     //!< round-robin shard cursor
    std::atomic<std::uint64_t> nExecuted{0};
    std::atomic<std::uint64_t> nSteals{0};

    std::mutex sleepMtx;
    std::condition_variable sleepCv;
    bool stopping = false;   //!< guarded by sleepMtx
};

} // namespace graphabcd

#endif // GRAPHABCD_RUNTIME_EXECUTOR_HH
