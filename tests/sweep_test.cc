/**
 * @file
 * Determinism tests for the parallel sweep harness: the same sweep run
 * at --jobs 1 and --jobs 8 must produce identical merged counter
 * values and byte-identical JSONL reports. This is the acceptance
 * contract of bench/bench_common.hh's SweepRunner, and the CI tsan job
 * runs this binary under ThreadSanitizer as well.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace uhm::bench
{
namespace
{

/** A small but heterogeneous batch: three programs x three machines. */
std::vector<SweepPoint>
testBatch()
{
    const std::vector<std::string> names = {"fib", "collatz", "sieve"};
    const std::vector<MachineKind> kinds = {MachineKind::Conventional,
                                            MachineKind::Cached,
                                            MachineKind::Dtb,
                                            MachineKind::Tiered};
    std::vector<SweepPoint> points;
    for (const std::string &name : names) {
        for (MachineKind kind : kinds) {
            SweepPoint point;
            point.label = name;
            for (const auto &sample : workload::samplePrograms()) {
                if (sample.name == name) {
                    point.program = hlr::compileSource(sample.source);
                    point.input = sample.input;
                }
            }
            point.config = makeConfig(kind);
            points.push_back(std::move(point));
        }
    }
    return points;
}

TEST(Sweep, SerialAndParallelReportsAreByteIdentical)
{
    std::vector<SweepPoint> points = testBatch();

    SweepRunner serial(1);
    SweepRunner parallel(8);
    SweepReport one = runSweep(serial, points);
    SweepReport eight = runSweep(parallel, points);

    EXPECT_EQ(serial.jobs(), 1u);
    EXPECT_EQ(parallel.jobs(), 8u);
    EXPECT_EQ(one.jsonl, eight.jsonl);
}

TEST(Sweep, SerialAndParallelMergedCountersAgree)
{
    std::vector<SweepPoint> points = testBatch();

    SweepRunner serial(1);
    SweepRunner parallel(8);
    SweepReport one = runSweep(serial, points);
    SweepReport eight = runSweep(parallel, points);

    EXPECT_EQ(one.counters.shards(), points.size());
    EXPECT_EQ(eight.counters.shards(), points.size());
    EXPECT_EQ(one.counters.values(), eight.counters.values());
    EXPECT_GT(eight.counters.get("machine.dir_instrs"), 0u);
}

TEST(Sweep, ParallelRunsAreRepeatable)
{
    std::vector<SweepPoint> points = testBatch();
    SweepRunner runner(8);
    SweepReport first = runSweep(runner, points);
    SweepReport second = runSweep(runner, points);
    EXPECT_EQ(first.jsonl, second.jsonl);
    EXPECT_EQ(first.counters.values(), second.counters.values());
}

TEST(Sweep, ReportShapeMatchesTheDocumentedSchema)
{
    std::vector<SweepPoint> points = testBatch();
    SweepRunner runner(4);
    SweepReport report = runSweep(runner, points);

    ASSERT_EQ(report.results.size(), points.size());
    size_t lines = 0;
    for (char c : report.jsonl)
        if (c == '\n')
            ++lines;
    // One sweep_point line per point, one sweep_hist line per point
    // that registered histograms (the DTB-bearing organizations), one
    // sweep_sample line per occupancy sample (none here — sampling is
    // off by default), plus one sweep_summary line.
    size_t expected = points.size() + 1;
    for (const RunResult &r : report.results) {
        expected += r.histograms.empty() ? 0 : 1;
        expected += r.samples.size();
    }
    EXPECT_EQ(lines, expected);
    EXPECT_NE(report.jsonl.find("\"type\":\"sweep_point\""),
              std::string::npos);
    EXPECT_NE(report.jsonl.find("\"type\":\"sweep_hist\""),
              std::string::npos);
    EXPECT_EQ(report.jsonl.find("\"type\":\"sweep_sample\""),
              std::string::npos);
    EXPECT_NE(report.jsonl.find("\"type\":\"sweep_summary\""),
              std::string::npos);
    // The summary line carries the merged histograms.
    EXPECT_NE(report.jsonl.find("\"histograms\":{"), std::string::npos);
    EXPECT_NE(report.jsonl.find("\"translate.latency_cycles\""),
              std::string::npos);
    // Per-point results arrive in point order, untouched by scheduling.
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_GT(report.results[i].dirInstrs, 0u) << "point " << i;
}

TEST(Sweep, SampledSweepsStayByteIdentical)
{
    // The interval sampler's series rides the report as sweep_sample
    // lines; it must obey the same determinism contract as everything
    // else, and the histogram aggregate must match a by-hand fold.
    std::vector<SweepPoint> points = testBatch();
    for (SweepPoint &point : points)
        point.config.sampleIntervalCycles = 2048;

    SweepRunner serial(1);
    SweepRunner parallel(8);
    SweepReport one = runSweep(serial, points);
    SweepReport eight = runSweep(parallel, points);
    EXPECT_EQ(one.jsonl, eight.jsonl);
    EXPECT_NE(one.jsonl.find("\"type\":\"sweep_sample\""),
              std::string::npos);

    obs::MergedHistograms byHand;
    for (const RunResult &r : one.results)
        byHand.accumulate(r.histograms);
    EXPECT_EQ(one.histograms.values(), byHand.values());
    EXPECT_EQ(eight.histograms.values(), byHand.values());
}

TEST(Sweep, MergedCountersEqualTheSumOfPerPointCounters)
{
    std::vector<SweepPoint> points = testBatch();
    SweepRunner runner(8);
    SweepReport report = runSweep(runner, points);

    obs::MergedCounters byHand;
    for (const RunResult &r : report.results)
        byHand.accumulate(r.counters);
    EXPECT_EQ(report.counters.values(), byHand.values());
}

TEST(Sweep, GridHelpersAreJobCountInvariant)
{
    // The hoisted helpers used by the table benches must obey the same
    // contract. Use a truncated steered grid to keep the test quick.
    std::vector<SteeredPoint> grid = steeredGrid();
    ASSERT_GE(grid.size(), 4u);
    grid.resize(4);

    SweepRunner serial(1);
    SweepRunner parallel(8);
    std::vector<MeasuredPoint> one = measureSteeredGrid(serial, grid);
    std::vector<MeasuredPoint> eight =
        measureSteeredGrid(parallel, grid);

    ASSERT_EQ(one.size(), eight.size());
    for (size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].t1, eight[i].t1) << "point " << i;
        EXPECT_EQ(one[i].t2, eight[i].t2) << "point " << i;
        EXPECT_EQ(one[i].t3, eight[i].t3) << "point " << i;
        EXPECT_EQ(one[i].dirInstrs, eight[i].dirInstrs) << "point " << i;
    }
}

TEST(SweepPoints, EveryPointGetsTheSettingsConfig)
{
    MachineSettings settings;
    settings.kind = MachineKind::Cached;
    settings.scheme = EncodingScheme::Packed;
    settings.dtbBytes = 512;
    settings.assoc = 1;
    settings.sampleInterval = 100;
    std::vector<std::string> loaded;
    const ProgramLoader load = [&](const std::string &name,
                                   std::vector<int64_t> &input) {
        loaded.push_back(name);
        input = {7};
        return hlr::compileSource("program one; begin write 1; end.");
    };
    const std::vector<SweepPoint> points =
        sweepPoints({"fib", "synthetic", "my.ctr"}, settings, 42, load);
    ASSERT_EQ(points.size(), 3u);
    // Only a name outside the corpus reaches the loader.
    EXPECT_EQ(loaded, std::vector<std::string>{"my.ctr"});
    EXPECT_EQ(points[0].input, workload::sampleByName("fib").input);
    EXPECT_EQ(points[1].program.size(), gridWorkload(2, 42).size());
    EXPECT_EQ(points[2].input, std::vector<int64_t>{7});
    const MachineConfig want = settings.toConfig();
    for (const SweepPoint &point : points) {
        EXPECT_EQ(point.scheme, EncodingScheme::Packed);
        EXPECT_EQ(point.config.kind, want.kind);
        EXPECT_EQ(point.config.dtb.capacityBytes, 512u);
        EXPECT_EQ(point.config.dtb.assoc, 1u);
        EXPECT_EQ(point.config.icache.capacityBytes, 512u);
        EXPECT_EQ(point.config.icache.assoc, 1u);
        EXPECT_EQ(point.config.sampleIntervalCycles, 100u);
    }
}

TEST(SweepPoints, NoNamesMeansTheCorpusAndNoLoaderMeansSamplesOnly)
{
    const std::vector<SweepPoint> points =
        sweepPoints({}, MachineSettings{}, 1978);
    ASSERT_EQ(points.size(), workload::samplePrograms().size());
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].label, workload::samplePrograms()[i].name);
    EXPECT_THROW(sweepPoints({"no-such-sample"}, MachineSettings{}, 1978),
                 FatalError);
}

} // anonymous namespace
} // namespace uhm::bench
