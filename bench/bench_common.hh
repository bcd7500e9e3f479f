/**
 * @file
 * Shared infrastructure for the benchmark harness.
 *
 * Every bench binary regenerates one of the paper's tables or figures.
 * Absolute numbers differ from 1978 hardware, but the shapes — who wins,
 * by what factor, where the crossovers fall — are the reproduction
 * targets (see EXPERIMENTS.md and docs/BENCHMARKS.md).
 *
 * The grid-shaped benches fan their independent simulation points out
 * over a SweepRunner (a support::ThreadPool with index-addressed
 * results), so a full regeneration scales with the core count while
 * the printed tables and JSON stay byte-identical to a serial run: a
 * worker writes only to its own point's result slot, and all output is
 * rendered from the assembled vector in grid order.
 */

#ifndef UHM_BENCH_BENCH_COMMON_HH
#define UHM_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "analytic/model.hh"
#include "hlr/compiler.hh"
#include "obs/merge.hh"
#include "support/pool.hh"
#include "uhm/machine.hh"
#include "uhm/settings.hh"
#include "workload/samples.hh"
#include "workload/synthetic.hh"

namespace uhm::bench
{

/** A machine config of the given kind with otherwise default knobs. */
inline MachineConfig
makeConfig(MachineKind kind)
{
    MachineConfig cfg;
    cfg.kind = kind;
    return cfg;
}

/** Measured T1/T2/T3 plus the parameters that produced them. */
struct MeasuredPoint
{
    double t1 = 0, t2 = 0, t3 = 0;
    double d = 0;  ///< measured decode cycles per decoded instruction
    double x = 0;  ///< measured semantic cycles per instruction
    double g = 0;  ///< measured translate cycles per translated instr
    double hD = 1; ///< measured DTB hit ratio
    double hc = 1; ///< measured icache hit ratio
    double s1 = 0; ///< measured short fetches per DIR instruction
    double s2 = 0; ///< measured level-2 refs per DIR fetch
    uint64_t dirInstrs = 0;

    /** Paper convention: degradation of the cache organization
     *  relative to the DTB organization. */
    double f1() const { return (t3 - t2) / t2 * 100.0; }
    /** Degradation of the conventional organization relative to the
     *  DTB organization. */
    double f2() const { return (t1 - t2) / t2 * 100.0; }
};

/**
 * Run @p prog on all three machine organizations with @p base config
 * parameters and collect the measured model coordinates.
 */
MeasuredPoint measurePoint(const DirProgram &prog, EncodingScheme scheme,
                           const MachineConfig &base,
                           const std::vector<int64_t> &input = {});

/**
 * The synthetic workload used by the Table 2/3 measured grids: a phased
 * loop sequence whose instruction working set exceeds the default DTB
 * so h_D lands near the paper's 0.8 operating point.
 */
DirProgram gridWorkload(uint32_t semwork_weight, uint64_t seed = 1978);

// ---------------------------------------------------------------------
// The parallel sweep harness.
// ---------------------------------------------------------------------

/**
 * First "--jobs=N" among @p argv, or 0 (meaning defaultJobs(), which
 * itself honours the UHM_JOBS environment variable). Every grid bench
 * accepts the flag. A value that is not an integer in [0, maxJobs]
 * prints "error: --jobs ..." and exits 1.
 */
unsigned jobsFromArgs(int argc, char **argv);

/**
 * Fans independent simulation points out across a thread pool.
 *
 * The determinism contract: fn(i) may depend only on i (each point
 * builds its own program/Machine/Registry), and results land in an
 * index-addressed vector — so the assembled output is identical for
 * any job count and any completion order. Aggregation over the result
 * vector (obs::MergedCounters, JSONL concatenation) then inherits
 * grid order, never scheduling order.
 */
class SweepRunner
{
  public:
    /** @param jobs worker count; 0 = defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0) : pool_(jobs) {}

    unsigned jobs() const { return pool_.jobs(); }

    /** Evaluate fn(i) for i in [0, n); results in index order. */
    template <typename Fn>
    auto
    map(size_t n, Fn fn) -> std::vector<std::invoke_result_t<Fn, size_t>>
    {
        std::vector<std::invoke_result_t<Fn, size_t>> results(n);
        parallelFor(pool_, n,
                    [&](size_t i) { results[i] = fn(i); });
        return results;
    }

    /** Evaluate fn(item) per item; results in item order. */
    template <typename T, typename Fn>
    auto
    mapItems(const std::vector<T> &items, Fn fn)
        -> std::vector<std::invoke_result_t<Fn, const T &>>
    {
        std::vector<std::invoke_result_t<Fn, const T &>> results(
            items.size());
        parallelFor(pool_, items.size(),
                    [&](size_t i) { results[i] = fn(items[i]); });
        return results;
    }

  private:
    ThreadPool pool_;
};

// ---------------------------------------------------------------------
// Hoisted parameter-grid helpers (formerly copy-pasted per bench).
// ---------------------------------------------------------------------

/** One steered (d, x) target of the Table 2/3 measured grids. */
struct SteeredPoint
{
    double dTarget = 0;
    double xTarget = 0;
};

/**
 * The measured-grid targets shared by bench_table2_f1 and
 * bench_table3_f2: analytic::paperDGrid() x {5, 15, 30}, in row-major
 * (d outer) order — the order the tables print.
 */
std::vector<SteeredPoint> steeredGrid();

/**
 * Measure one steered grid point: generate the synthetic workload
 * whose SEMWORK weight steers x toward the target, probe the baseline
 * decode cost, pad extraDecodeCycles toward the d target, and measure
 * on all three organizations.
 */
MeasuredPoint measureSteered(
    const SteeredPoint &pt,
    EncodingScheme scheme = EncodingScheme::Huffman);

/** The full steered grid, one point per worker. */
std::vector<MeasuredPoint> measureSteeredGrid(
    SweepRunner &runner, const std::vector<SteeredPoint> &grid,
    EncodingScheme scheme = EncodingScheme::Huffman);

/**
 * Compile and measure the named sample programs (their own inputs),
 * one program per worker; results in name order.
 */
std::vector<MeasuredPoint> measureSamples(
    SweepRunner &runner, const std::vector<std::string> &names,
    EncodingScheme scheme = EncodingScheme::Huffman);

/**
 * Run @p prog once per config, one run per worker; results in config
 * order. The staple of the organization-sweep benches.
 */
std::vector<RunResult> runConfigs(
    SweepRunner &runner, const DirProgram &prog, EncodingScheme scheme,
    const std::vector<MachineConfig> &configs,
    const std::vector<int64_t> &input = {});

// ---------------------------------------------------------------------
// Multi-program batch sweeps (uhm_cli sweep, the daemon's sweep verb).
// ---------------------------------------------------------------------

/** One point of a multi-program batch sweep. */
struct SweepPoint
{
    /** Name reported on the point's JSONL line. */
    std::string label;
    DirProgram program;
    EncodingScheme scheme = EncodingScheme::Huffman;
    MachineConfig config;
    std::vector<int64_t> input;
};

/** What one batch sweep produced. */
struct SweepReport
{
    /**
     * One "sweep_point" JSON line per point, in point order — followed
     * by a "sweep_hist" line when the point registered histograms and
     * one "sweep_sample" line per occupancy sample when sampling was
     * on — then one "sweep_summary" line carrying the merged counters
     * and histograms. Byte-identical for any job count (schema in
     * docs/BENCHMARKS.md).
     */
    std::string jsonl;
    /** Counters of all points, merged in point order. */
    obs::MergedCounters counters;
    /** Histograms of all points, merged in point order. */
    obs::MergedHistograms histograms;
    /** The raw per-point results, in point order. */
    std::vector<RunResult> results;
};

/** Loads a program by a name that is not in the corpus (uhm_cli: a
 *  file path), filling its default input. */
using ProgramLoader = std::function<DirProgram(
    const std::string &name, std::vector<int64_t> &input)>;

/**
 * The program @p name names, its default input in @p input: a corpus
 * sample, or "synthetic" = gridWorkload(2, @p seed). Any other name
 * goes to @p load — an unknown sample when there is no loader.
 */
DirProgram resolveProgram(const std::string &name, uint64_t seed,
                          std::vector<int64_t> &input,
                          const ProgramLoader &load = nullptr);

/**
 * The points of a batch sweep, one per resolveProgram() of @p programs
 * in order (empty = the whole sample corpus), each on
 * @p settings.toConfig() and @p settings.scheme.
 */
std::vector<SweepPoint> sweepPoints(
    const std::vector<std::string> &programs,
    const MachineSettings &settings, uint64_t seed,
    const ProgramLoader &load = nullptr);

/** Run every point on the runner's workers and merge the evidence. */
SweepReport runSweep(SweepRunner &runner,
                     const std::vector<SweepPoint> &points);

} // namespace uhm::bench

#endif // UHM_BENCH_BENCH_COMMON_HH
