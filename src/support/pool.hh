/**
 * @file
 * A fixed-size thread pool over a sharded work queue.
 *
 * The sweep harness's execution engine: N worker threads, one task
 * deque per worker (a shard). submit() distributes tasks round-robin
 * across the shards; an idle worker drains its own shard first and
 * steals from the others when it runs dry, so a skewed task mix (one
 * slow simulation point among many fast ones) cannot strand work
 * behind it. wait() blocks until every submitted task has finished,
 * after which the pool can be reused for the next wave.
 *
 * The pool makes no determinism promises about *scheduling* — tasks
 * run in whatever order the workers reach them. Determinism of results
 * is the caller's contract: sweep tasks write only to their own
 * index-addressed result slot (bench/bench_common.hh, SweepRunner), so
 * the assembled output is identical for any worker count.
 *
 * Tasks must not call wait() or submit-and-wait on the same pool from
 * inside a task (the worker would sleep on itself). Nested sweeps get
 * their own pool.
 */

#ifndef UHM_SUPPORT_POOL_HH
#define UHM_SUPPORT_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace uhm
{

/** Most workers a --jobs/--workers flag or UHM_JOBS asks for: each
 *  worker is an OS thread. */
inline constexpr unsigned maxJobs = 256;

/**
 * Default worker count: UHM_JOBS from the environment if set and
 * positive (clamped to maxJobs), else the hardware concurrency, and at
 * least 1.
 */
unsigned defaultJobs();

/** Fixed-size thread pool with per-worker work shards and stealing. */
class ThreadPool
{
  public:
    /** Start @p jobs workers (0 = defaultJobs()). */
    explicit ThreadPool(unsigned jobs = 0);

    /** Waits for outstanding tasks, then stops and joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned jobs() const { return static_cast<unsigned>(shards_.size()); }

    /** Enqueue one task (round-robin over the shards). */
    void submit(std::function<void()> task);

    /** Block until every task submitted so far has finished. */
    void wait();

  private:
    /** One worker's slice of the queue. */
    struct Shard
    {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    /** Pop a task from @p shard; false if it is empty. */
    bool popFrom(size_t shard, std::function<void()> &task);

    /** Worker @p self: own shard first, then steal, then sleep. */
    void workerLoop(size_t self);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::thread> workers_;

    // Lifecycle/accounting state, all under mutex_.
    std::mutex mutex_;
    std::condition_variable workCv_; ///< signalled on submit and stop
    std::condition_variable idleCv_; ///< signalled when pending_ hits 0
    size_t queued_ = 0;  ///< tasks enqueued but not yet claimed
    size_t pending_ = 0; ///< tasks enqueued or running, not yet finished
    size_t nextShard_ = 0;
    bool stop_ = false;
};

/**
 * Run fn(i) for every i in [0, n) on @p pool's workers and block until
 * all n calls have returned. Indices are claimed in no particular
 * order; fn must confine its writes to index-owned state. If calls
 * throw, the exception of the lowest such i is rethrown here, after
 * all n have returned, and the pool stays usable.
 */
void parallelFor(ThreadPool &pool, size_t n,
                 const std::function<void(size_t)> &fn);

} // namespace uhm

#endif // UHM_SUPPORT_POOL_HH
