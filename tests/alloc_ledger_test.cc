/**
 * @file
 * The allocation ledger of one cold served request.
 *
 * A cold `run` with inline source compiles, encodes, builds a machine
 * and first-runs it (SessionCache::build, then the server's sliced
 * run). This test replaces the global operator new, replays that chain
 * on the serve_cold mix (each sample's source plus a unique comment,
 * the request-default machine) and counts heap allocations per stage.
 *
 * The counts are deterministic, so they are a per-layer cost ledger
 * free of timing noise. The table below holds the counts before the
 * cold chain was made allocation-lean and the budget it is held to
 * now; a stage that allocates more than its budget fails.
 *
 * Skipped under ASan and TSan, whose runtimes own the allocator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "hlr/compiler.hh"
#include "obs/trace.hh"
#include "uhm/machine.hh"
#include "uhm/settings.hh"
#include "workload/samples.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UHM_LEDGER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define UHM_LEDGER_SANITIZED 1
#endif
#endif

namespace
{

/** Allocations and bytes seen while counting is on. */
struct Tally
{
    uint64_t calls = 0;
    uint64_t bytes = 0;
};

bool counting = false;
Tally tally;

} // anonymous namespace

#ifndef UHM_LEDGER_SANITIZED

namespace
{

void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    if (counting) {
        ++tally.calls;
        tally.bytes += n;
    }
    if (n == 0)
        n = 1;
    void *p = align > alignof(std::max_align_t) ?
        std::aligned_alloc(align, (n + align - 1) / align * align) :
        std::malloc(n);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // anonymous namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // UHM_LEDGER_SANITIZED

namespace
{

using namespace uhm;

/** The stages of one cold request, in order. */
enum Stage { Compile, Encode, Build, Begin, FirstRun, Finish, numStages };

const char *const stageNames[numStages] = {
    "compile", "encode", "Machine()", "beginRun", "first run", "finishRun",
};

/**
 * Allocation calls per stage, summed over the seven requests of the
 * serve_cold mix: before = the chain as it was, budget = what it may
 * allocate now.
 */
struct StageBudget
{
    uint64_t before;
    uint64_t budget;
};

const StageBudget ledger[numStages] = {
    /* compile   */ {706, 147},
    /* encode    */ {1122, 405},
    /* Machine() */ {378, 49},
    /* beginRun  */ {27, 27},
    /* first run */ {711, 276},
    /* finishRun */ {331, 259},
};

/** One serve_cold mix round: gcd power collatz collatz nest echo adler. */
const char *const coldMix[] = {"gcd",  "power", "collatz", "collatz",
                               "nest", "echo",  "adler"};

/** Count the allocations @p fn makes into @p out. */
template <typename Fn>
void
measure(Tally &out, Fn &&fn)
{
    tally = {};
    counting = true;
    fn();
    counting = false;
    out.calls += tally.calls;
    out.bytes += tally.bytes;
}

/** Replay the cold chain of every request in the mix, per stage. */
std::vector<Tally>
coldLedger()
{
    std::vector<Tally> stages(numStages);
    const MachineSettings settings; // the request-default machine
    const uint64_t slice_cycles = 50'000; // the daemon's default slice
    // A daemon has built machines before: warm the process-wide memos
    // (the routine library per layout) outside the ledger.
    {
        const workload::SampleProgram &warm = workload::sampleByName("gcd");
        DirProgram program = hlr::compileSource(warm.source);
        auto image = encodeDir(program, settings.scheme);
        Machine(*image, settings.toConfig()).run(warm.input);
    }
    unsigned n = 0;
    for (const char *name : coldMix) {
        const workload::SampleProgram &sample = workload::sampleByName(name);
        const std::string source =
            sample.source + "\n# ledger." + std::to_string(n++) + "\n";
        DirProgram program;
        std::unique_ptr<EncodedDir> image;
        std::unique_ptr<Machine> machine;
        RunResult r;
        measure(stages[Compile],
                [&] { program = hlr::compileSource(source); });
        measure(stages[Encode],
                [&] { image = encodeDir(program, settings.scheme); });
        measure(stages[Build], [&] {
            machine = std::make_unique<Machine>(*image, settings.toConfig());
        });
        measure(stages[Begin], [&] { machine->beginRun(sample.input); });
        measure(stages[FirstRun], [&] {
            while (!machine->finished())
                machine->runSlice(slice_cycles);
        });
        measure(stages[Finish], [&] { r = machine->finishRun(); });
        EXPECT_FALSE(r.output.empty()) << name;
    }
    return stages;
}

TEST(AllocLedger, ColdRequestStagesStayWithinBudget)
{
#ifdef UHM_LEDGER_SANITIZED
    GTEST_SKIP() << "the sanitizer runtime owns the allocator";
#else
    const std::vector<Tally> stages = coldLedger();
    const double requests = std::size(coldMix);
    std::printf("%-10s %10s %10s %10s %10s\n", "per request", "allocs",
                "bytes", "before", "budget");
    for (int s = 0; s < numStages; ++s) {
        std::printf("%-10s %10.1f %10.0f %10.1f %10.1f\n", stageNames[s],
                    stages[s].calls / requests, stages[s].bytes / requests,
                    ledger[s].before / requests,
                    ledger[s].budget / requests);
        EXPECT_LE(stages[s].calls, ledger[s].budget) << stageNames[s];
    }
#endif
}

/**
 * A tracer's capacity is a ceiling, not an allocation: enabling a ring
 * of 2^24 events (uhm_serve's --timeline-events maximum) allocates
 * nothing, where 2^24 slots of 32 bytes would be 512 MiB.
 */
TEST(AllocLedger, EnablingATracerAllocatesNothing)
{
#ifdef UHM_LEDGER_SANITIZED
    GTEST_SKIP() << "the sanitizer runtime owns the allocator";
#else
    obs::Tracer tracer;
    Tally enable;
    measure(enable, [&] { tracer.enable(size_t{1} << 24); });
    std::printf("Tracer::enable(1 << 24): %llu allocs, %llu bytes\n",
                static_cast<unsigned long long>(enable.calls),
                static_cast<unsigned long long>(enable.bytes));
    EXPECT_EQ(enable.bytes, 0u);
    EXPECT_EQ(tracer.capacity(), size_t{1} << 24);
#endif
}

/**
 * finishRun hands the machine's event ring to the RunResult instead of
 * copying it: on a run with events on it allocates far less than the
 * event list's size, whether the ring wrapped (and is unrolled in
 * place) or not.
 */
TEST(AllocLedger, FinishRunMovesTheEventRing)
{
#ifdef UHM_LEDGER_SANITIZED
    GTEST_SKIP() << "the sanitizer runtime owns the allocator";
#else
    const workload::SampleProgram &sample =
        workload::sampleByName("collatz");
    DirProgram program = hlr::compileSource(sample.source);
    auto image = encodeDir(program, EncodingScheme::Huffman);
    for (size_t capacity : {obs::Tracer::defaultCapacity, size_t{1000}}) {
        MachineConfig cfg;
        cfg.kind = MachineKind::Dtb;
        cfg.profileEvents = true;
        cfg.profileEventCapacity = capacity;
        Machine machine(*image, cfg);
        machine.beginRun(sample.input);
        machine.runSlice(UINT64_MAX);
        RunResult r;
        Tally finish;
        measure(finish, [&] { r = machine.finishRun(); });
        const uint64_t list_bytes = r.events.size() * sizeof(obs::Event);
        std::printf("finishRun, ring of %zu: %llu allocs, %llu bytes; "
                    "%zu events (%llu bytes), %llu dropped\n",
                    capacity,
                    static_cast<unsigned long long>(finish.calls),
                    static_cast<unsigned long long>(finish.bytes),
                    r.events.size(),
                    static_cast<unsigned long long>(list_bytes),
                    static_cast<unsigned long long>(r.eventsDropped));
        EXPECT_GT(r.events.size(), 0u);
        EXPECT_EQ(r.eventsDropped > 0, capacity == 1000);
        EXPECT_LT(4 * finish.bytes, list_bytes);
    }
#endif
}

/**
 * A rerun with events on allocates its event ring once: the first
 * growth reserves as many events as the last run handed to its
 * RunResult (at most the ring's capacity), where growing from 128 by
 * doubling would allocate log2(events / 128) + 1 times. The rerun with
 * events on allocates exactly one block more than the same rerun with
 * events off, and that block holds the last run's events.
 */
TEST(AllocLedger, RerunAllocatesItsEventRingOnce)
{
#ifdef UHM_LEDGER_SANITIZED
    GTEST_SKIP() << "the sanitizer runtime owns the allocator";
#else
    const workload::SampleProgram &sample =
        workload::sampleByName("collatz");
    DirProgram program = hlr::compileSource(sample.source);
    auto image = encodeDir(program, EncodingScheme::Huffman);
    for (size_t capacity : {obs::Tracer::defaultCapacity, size_t{1000}}) {
        Tally rerun[2];
        size_t taken = 0;
        for (bool events : {false, true}) {
            MachineConfig cfg;
            cfg.kind = MachineKind::Dtb;
            cfg.profileEvents = events;
            cfg.profileEventCapacity = capacity;
            Machine machine(*image, cfg);
            taken = machine.run(sample.input).events.size();
            machine.beginRun(sample.input);
            measure(rerun[events],
                    [&] { machine.runSlice(UINT64_MAX); });
        }
        std::printf("rerun, ring of %zu: %llu allocs events off, %llu "
                    "on; %zu events taken by the first run\n",
                    capacity,
                    static_cast<unsigned long long>(rerun[false].calls),
                    static_cast<unsigned long long>(rerun[true].calls),
                    taken);
        EXPECT_LE(taken, capacity);
        EXPECT_GT(taken, 128u);
        EXPECT_EQ(rerun[true].calls, rerun[false].calls + 1);
        EXPECT_EQ(rerun[true].bytes,
                  rerun[false].bytes + taken * sizeof(obs::Event));
    }
#endif
}

/** Encode through finishRun allocate at most half what they did. */
TEST(AllocLedger, BudgetHalvesEncodeThroughFinish)
{
    uint64_t before = 0, budget = 0;
    for (int s = Encode; s <= Finish; ++s) {
        before += ledger[s].before;
        budget += ledger[s].budget;
    }
    EXPECT_LE(2 * budget, before);
}

} // anonymous namespace
