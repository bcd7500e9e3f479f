/**
 * @file
 * Tests for the thread pool, its sharded work queue, and the
 * deterministic observability merge — including stress cases meant to
 * run under ThreadSanitizer (the CI tsan job builds exactly this file
 * plus sweep_test with -fsanitize=thread).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/counter.hh"
#include "obs/merge.hh"
#include "obs/registry.hh"
#include "support/json.hh"
#include "support/pool.hh"

namespace uhm
{
namespace
{

// ---- the pool --------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&sum] { sum.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, ParallelForTouchesEachIndexExactlyOnce)
{
    ThreadPool pool(8);
    constexpr size_t n = 1000;
    std::vector<std::atomic<int>> touched(n);
    parallelFor(pool, n, [&](size_t i) { touched[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleWorkerStillDrainsTheQueue)
{
    ThreadPool pool(1);
    std::atomic<int> sum{0};
    parallelFor(pool, 50, [&](size_t i) {
        sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 49 * 50 / 2);
}

TEST(ThreadPool, ReusableAcrossWaves)
{
    ThreadPool pool(3);
    std::atomic<int> sum{0};
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&sum] { sum.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(sum.load(), (wave + 1) * 20);
    }
}

TEST(ThreadPool, WaitWithNothingSubmittedReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait();
    SUCCEED();
}

TEST(ThreadPool, MoreWorkersThanTasks)
{
    ThreadPool pool(16);
    std::atomic<int> sum{0};
    parallelFor(pool, 3, [&](size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 3);
}

/**
 * Stealing stress: many tiny tasks plus a few long ones, so workers
 * with empty shards must steal from loaded ones. Run under TSan this
 * exercises every lock pairing in the pool.
 */
TEST(ThreadPool, StressSkewedTaskMix)
{
    ThreadPool pool(4);
    std::atomic<uint64_t> work{0};
    constexpr int tasks = 5000;
    for (int i = 0; i < tasks; ++i) {
        int spin = i % 97 == 0 ? 5000 : 10;
        pool.submit([&work, spin] {
            uint64_t local = 0;
            for (int s = 0; s < spin; ++s)
                local += static_cast<uint64_t>(s);
            work.fetch_add(local == 0 ? 1 : 1);
        });
    }
    pool.wait();
    EXPECT_EQ(work.load(), static_cast<uint64_t>(tasks));
}

/** Per-worker isolated state plus a post-wait merge: the sweep shape. */
TEST(ThreadPool, IndexAddressedResultsNeedNoLocks)
{
    ThreadPool pool(8);
    constexpr size_t n = 256;
    std::vector<uint64_t> results(n, 0);
    parallelFor(pool, n, [&](size_t i) {
        results[i] = i * i; // each task owns exactly one slot
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(ThreadPool, DefaultJobsClampsUhmJobs)
{
    // Reads the count only: no pool, so no thread, is started.
    const char *saved = std::getenv("UHM_JOBS");
    std::string restore = saved ? saved : "";
    setenv("UHM_JOBS", "100000", 1);
    EXPECT_EQ(defaultJobs(), maxJobs);
    setenv("UHM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    if (saved)
        setenv("UHM_JOBS", restore.c_str(), 1);
    else
        unsetenv("UHM_JOBS");
}

// ---- deterministic merges --------------------------------------------------

TEST(ObsMerge, CounterSnapshotsSumPerName)
{
    std::map<std::string, uint64_t> a = {{"dtb.hits", 3},
                                         {"dtb.misses", 1}};
    std::map<std::string, uint64_t> b = {{"dtb.hits", 2},
                                         {"icache.hits", 7}};
    obs::mergeCounterSnapshots(a, b);
    EXPECT_EQ(a.at("dtb.hits"), 5u);
    EXPECT_EQ(a.at("dtb.misses"), 1u);
    EXPECT_EQ(a.at("icache.hits"), 7u);
}

TEST(ObsMerge, MergedCountersAccumulateSnapshots)
{
    obs::MergedCounters merged;
    merged.accumulate({{"dtb.hits", 10}});
    merged.accumulate({{"dtb.hits", 32}});
    EXPECT_EQ(merged.shards(), 2u);
    EXPECT_EQ(merged.get("dtb.hits"), 42u);
    EXPECT_EQ(merged.get("dtb.misses"), 0u);

    JsonWriter jw;
    merged.writeJson(jw);
    EXPECT_EQ(jw.str(), "{\"dtb.hits\":42}");
}

TEST(ObsMerge, MergeOrderIndependentForCounters)
{
    std::map<std::string, uint64_t> x = {{"a", 1}, {"b", 2}};
    std::map<std::string, uint64_t> y = {{"b", 5}, {"c", 3}};

    obs::MergedCounters forward, backward;
    forward.accumulate(x);
    forward.accumulate(y);
    backward.accumulate(y);
    backward.accumulate(x);
    EXPECT_EQ(forward.values(), backward.values());
}

TEST(ObsMerge, MergedHistogramsAccumulateSnapshots)
{
    obs::Histogram a, b;
    a.record(4);
    a.record(5);
    b.record(1000);

    obs::MergedHistograms merged;
    merged.accumulate({{"translate.latency_cycles", a.snapshot()}});
    merged.accumulate({{"translate.latency_cycles", b.snapshot()},
                       {"dtb.residency_cycles", a.snapshot()}});
    EXPECT_EQ(merged.shards(), 2u);

    obs::HistogramSnapshot lat =
        merged.get("translate.latency_cycles");
    EXPECT_EQ(lat.count, 3u);
    EXPECT_EQ(lat.sum, 1009u);
    EXPECT_EQ(lat.min, 4u);
    EXPECT_EQ(lat.max, 1000u);
    // Absent names appear; never-seen names come back empty.
    EXPECT_EQ(merged.get("dtb.residency_cycles").count, 2u);
    EXPECT_EQ(merged.get("absent").count, 0u);
    // The merged map is name-ordered, independent of arrival order.
    ASSERT_EQ(merged.values().size(), 2u);
    EXPECT_EQ(merged.values().begin()->first, "dtb.residency_cycles");

    JsonWriter jw;
    merged.writeJson(jw);
    EXPECT_NE(jw.str().find("\"translate.latency_cycles\":{\"count\":3"),
              std::string::npos);
}

TEST(ObsMerge, EmptyInputsMergeToEmpty)
{
    obs::MergedCounters merged;
    EXPECT_EQ(merged.shards(), 0u);
    EXPECT_TRUE(merged.values().empty());
}

} // anonymous namespace
} // namespace uhm
