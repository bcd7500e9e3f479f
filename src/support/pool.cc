#include "support/pool.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <utility>

#include "support/logging.hh"

namespace uhm
{

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("UHM_JOBS")) {
        long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<unsigned>(std::min<long>(n, maxJobs));
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = defaultJobs();
    shards_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        shards_.push_back(std::make_unique<Shard>());
    workers_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    uhm_assert(task != nullptr, "null task submitted to pool");
    size_t shard;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        uhm_assert(!stop_, "submit on a stopping pool");
        shard = nextShard_;
        nextShard_ = nextShard_ + 1 == shards_.size() ? 0 : nextShard_ + 1;
    }
    {
        std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
        shards_[shard]->tasks.push_back(std::move(task));
    }
    // The task is visible in its shard before the counters say so, so a
    // worker that wins the queued_ claim always finds something to pop.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++queued_;
        ++pending_;
    }
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] { return pending_ == 0; });
}

bool
ThreadPool::popFrom(size_t shard, std::function<void()> &task)
{
    std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
    if (shards_[shard]->tasks.empty())
        return false;
    task = std::move(shards_[shard]->tasks.front());
    shards_[shard]->tasks.pop_front();
    return true;
}

void
ThreadPool::workerLoop(size_t self)
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock, [this] { return queued_ > 0 || stop_; });
            if (queued_ == 0 && stop_)
                return;
            --queued_; // claim one task; some shard must hold it
        }
        std::function<void()> task;
        // Own shard first, then steal round-robin. The claimed task is
        // already pushed (submit orders push before counter), but
        // another worker may drain a shard between our probes, so keep
        // scanning until the claim is honoured.
        while (true) {
            if (popFrom(self, task))
                break;
            bool found = false;
            for (size_t i = 1; i < shards_.size() && !found; ++i)
                found = popFrom((self + i) % shards_.size(), task);
            if (found)
                break;
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pending_;
            if (pending_ == 0)
                idleCv_.notify_all();
        }
    }
}

void
parallelFor(ThreadPool &pool, size_t n,
            const std::function<void(size_t)> &fn)
{
    // A throw escaping a worker would end the process: keep the lowest
    // index's, the one a serial loop raises, and rethrow it here.
    std::mutex mutex;
    size_t failed = n;
    std::exception_ptr error;
    for (size_t i = 0; i < n; ++i) {
        pool.submit([&, i] {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (i < failed) {
                    failed = i;
                    error = std::current_exception();
                }
            }
        });
    }
    pool.wait();
    if (error)
        std::rethrow_exception(error);
}

} // namespace uhm
