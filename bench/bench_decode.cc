/**
 * @file
 * bench_decode — host-side wall-clock of the decode/translate fast
 * path (the PR-3 tentpole). Unlike the grid benches, which report
 * *simulated* cycles (identical whichever host path runs), this bench
 * times the host:
 *
 *  1. decode: the bulk EncodedDir::decodeAll() pass (table-driven
 *     Huffman decoding) vs. the DecodeMemo replay, over the whole
 *     sample corpus, per encoding scheme;
 *  2. translate: the cold DynamicTranslator path vs. the memoized
 *     repeated-miss replay;
 *  3. events: a full DTB run with events off vs. on — the DTB run
 *     loop's plain instantiation against its Events instantiation,
 *     which records every per-instruction event into the ring (the
 *     cost of a per-instruction trace; the plain loop pays nothing).
 *
 * Emits a human-readable table on stdout and a JSON document (schema
 * in docs/BENCHMARKS.md) to --out=<file>, default BENCH_decode.json.
 * Wall-clock numbers are machine-dependent by nature; compare runs
 * with scripts/bench_compare.py.
 *
 * Usage: bench_decode [--out=FILE] [--iters=N]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/translator.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/logging.hh"

using namespace uhm;
using namespace uhm::bench;

namespace
{

/** Largest --iters: enough for any timing, small enough that a typo
 *  cannot keep the bench running for days. */
constexpr uint64_t maxIters = 1'000'000;

/** Keep results observable so the decode loops cannot be elided. */
volatile uint64_t g_sink = 0;

double
nowNs()
{
    using namespace std::chrono;
    return static_cast<double>(
        duration_cast<nanoseconds>(
            steady_clock::now().time_since_epoch()).count());
}

/**
 * Decode every instruction of @p image once through the bulk
 * decodeAll() path, reusing @p buf; returns a checksum.
 */
uint64_t
decodePass(const EncodedDir &image, std::vector<DecodeResult> &buf)
{
    image.decodeAll(buf);
    uint64_t sum = 0;
    for (const DecodeResult &res : buf)
        sum += static_cast<uint64_t>(res.instr.op) + res.nextBitAddr;
    return sum;
}

/** The compiled sample corpus, encoded under @p scheme. */
std::vector<std::unique_ptr<EncodedDir>>
corpusImages(const std::vector<DirProgram> &programs,
             EncodingScheme scheme)
{
    std::vector<std::unique_ptr<EncodedDir>> images;
    for (const DirProgram &prog : programs)
        images.push_back(encodeDir(prog, scheme));
    return images;
}

struct DecodeRow
{
    std::string scheme;
    uint64_t instrs = 0;         ///< instructions decoded per pass
    double tableNsPerInstr = 0;
    double memoNsPerInstr = 0;
    /**
     * Raw table decode (every pass re-walks the stream) vs. the shipped
     * path: table decode on first touch, DecodeMemo replay on every
     * revisit, which is what Machine/DynamicTranslator pay per decode
     * after warm-up.
     */
    double speedup() const { return tableNsPerInstr / memoNsPerInstr; }
};

DecodeRow
timeDecode(const std::vector<DirProgram> &programs,
           EncodingScheme scheme, unsigned iters)
{
    DecodeRow row;
    row.scheme = encodingName(scheme);
    auto images = corpusImages(programs, scheme);
    for (const auto &image : images)
        row.instrs += image->numInstrs();

    {
        std::vector<DecodeResult> buf;
        for (const auto &image : images) // warm-up
            g_sink = g_sink + decodePass(*image, buf);
        double t0 = nowNs();
        for (unsigned it = 0; it < iters; ++it)
            for (const auto &image : images)
                g_sink = g_sink + decodePass(*image, buf);
        double t1 = nowNs();
        row.tableNsPerInstr =
            (t1 - t0) / (static_cast<double>(row.instrs) * iters);
    }

    // The shipped fast path: a DecodeMemo per image, filled by the
    // table decoder on the warm-up pass, replayed on every timed pass.
    {
        std::vector<DecodeMemo> memos;
        for (const auto &image : images)
            memos.emplace_back(*image);
        auto memoPass = [&]() {
            uint64_t sum = 0;
            for (size_t m = 0; m < memos.size(); ++m) {
                const EncodedDir &image = *images[m];
                for (size_t i = 0; i < image.numInstrs(); ++i) {
                    const DecodeResult &res =
                        memos[m].decodeAt(image.bitAddrOf(i));
                    sum += static_cast<uint64_t>(res.instr.op) +
                           res.nextBitAddr;
                }
            }
            return sum;
        };
        g_sink = g_sink + memoPass(); // warm-up fills the memos
        double t0 = nowNs();
        for (unsigned it = 0; it < iters; ++it)
            g_sink = g_sink + memoPass();
        double t1 = nowNs();
        row.memoNsPerInstr =
            (t1 - t0) / (static_cast<double>(row.instrs) * iters);
    }
    return row;
}

struct TranslateRow
{
    uint64_t instrs = 0; ///< translations per pass (whole corpus)
    double coldNsPerInstr = 0;
    double memoNsPerInstr = 0;
    double speedup() const { return coldNsPerInstr / memoNsPerInstr; }
};

/** The translate path without the memo: decode, stage and lower
 *  @p addr into @p code, as a translator's first miss on it does. */
size_t
translateCold(const EncodedDir &image, uint64_t addr,
              std::vector<ShortInstr> &code)
{
    DecodeResult res = image.decodeAt(addr);
    code.clear();
    lowerStaging(stageInstruction(res.instr, image, res.index), code);
    return code.size();
}

/**
 * Time the repeated-miss translate path: every pass presents every pc
 * to the translator, as a DTB under miss pressure would. The cold
 * variant re-walks the bitstream each time; the memoized variant
 * replays the cached translation from the second pass on.
 */
TranslateRow
timeTranslate(const std::vector<DirProgram> &programs, unsigned iters)
{
    TranslateRow row;
    auto images = corpusImages(programs, EncodingScheme::Huffman);
    for (const auto &image : images)
        row.instrs += image->numInstrs();

    std::vector<DynamicTranslator> translators;
    for (const auto &image : images)
        translators.emplace_back(*image);

    std::vector<ShortInstr> scratch;
    auto pass = [&](bool memoized) {
        uint64_t sum = 0;
        for (size_t t = 0; t < translators.size(); ++t) {
            const EncodedDir &image = *images[t];
            for (size_t i = 0; i < image.numInstrs(); ++i) {
                uint64_t addr = image.bitAddrOf(i);
                sum += memoized ?
                    translators[t].translate(addr).code.size() :
                    translateCold(image, addr, scratch);
            }
        }
        return sum;
    };

    g_sink = g_sink + pass(false); // warm-up
    double t0 = nowNs();
    for (unsigned it = 0; it < iters; ++it)
        g_sink = g_sink + pass(false);
    double t1 = nowNs();
    row.coldNsPerInstr =
        (t1 - t0) / (static_cast<double>(row.instrs) * iters);

    g_sink = g_sink + pass(true); // warm-up fills the memo
    t0 = nowNs();
    for (unsigned it = 0; it < iters; ++it)
        g_sink = g_sink + pass(true);
    t1 = nowNs();
    row.memoNsPerInstr =
        (t1 - t0) / (static_cast<double>(row.instrs) * iters);
    return row;
}

struct EventsRow
{
    double offMs = 0; ///< DTB run, tracer detached
    double onMs = 0;  ///< same run, typed-event ring attached
    double overheadPct() const { return (onMs - offMs) / offMs * 100; }
};

/** Time a full DTB simulation with the event tracer off vs. on. */
EventsRow
timeEvents(unsigned reps)
{
    const auto &sample = workload::sampleByName("qsort");
    DirProgram prog = hlr::compileSource(sample.source);
    auto image = encodeDir(prog, EncodingScheme::Huffman);

    auto measure = [&](bool profile) -> double {
        MachineConfig cfg = makeConfig(MachineKind::Dtb);
        cfg.profileEvents = profile;
        Machine machine(*image, cfg);
        g_sink = g_sink + machine.run(sample.input).cycles; // warm-up
        double t0 = nowNs();
        for (unsigned r = 0; r < reps; ++r)
            g_sink = g_sink + machine.run(sample.input).cycles;
        double t1 = nowNs();
        return (t1 - t0) / reps / 1e6;
    };

    EventsRow row;
    row.offMs = measure(false);
    row.onMs = measure(true);
    return row;
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    std::string out_path = "BENCH_decode.json";
    unsigned iters = 200;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(std::strlen("--out="));
        else if (arg.rfind("--iters=", 0) == 0)
            iters = static_cast<unsigned>(parseUintFlag(
                "--iters", arg.substr(std::strlen("--iters=")), 1,
                maxIters));
        else
            fatal("unknown option '%s'", arg.c_str());
    }

    std::vector<DirProgram> programs;
    for (const auto &sample : workload::samplePrograms())
        programs.push_back(hlr::compileSource(sample.source));

    const std::vector<EncodingScheme> schemes = {
        EncodingScheme::Huffman,   EncodingScheme::PairHuffman,
        EncodingScheme::Quantized, EncodingScheme::Contextual,
        EncodingScheme::Packed,
    };

    std::printf("bench_decode: host wall-clock, %u iters, "
                "%zu corpus programs\n\n", iters, programs.size());
    std::printf("%-14s %8s %12s %12s %9s\n", "scheme", "instrs",
                "table ns/ins", "memo ns/ins", "memo-spd");

    std::vector<DecodeRow> rows;
    for (EncodingScheme scheme : schemes) {
        rows.push_back(timeDecode(programs, scheme, iters));
        const DecodeRow &r = rows.back();
        std::printf("%-14s %8llu %12.2f %12.2f %8.2fx\n",
                    r.scheme.c_str(),
                    static_cast<unsigned long long>(r.instrs),
                    r.tableNsPerInstr, r.memoNsPerInstr, r.speedup());
    }

    TranslateRow tr = timeTranslate(programs, iters);
    std::printf("\ntranslate      %8llu %12.2f %12.2f %8.2fx  "
                "(cold vs memo)\n",
                static_cast<unsigned long long>(tr.instrs),
                tr.coldNsPerInstr, tr.memoNsPerInstr, tr.speedup());

    EventsRow ev = timeEvents(std::max(5u, iters / 20));
    std::printf("\nevents off %.3f ms / on %.3f ms per qsort run "
                "(%.1f%% tracer overhead)\n",
                ev.offMs, ev.onMs, ev.overheadPct());

    JsonWriter jw;
    jw.beginObject();
    jw.key("bench").value("bench_decode");
    jw.key("iters").value(static_cast<uint64_t>(iters));
    jw.key("corpus_programs").value(
        static_cast<uint64_t>(programs.size()));
    jw.key("decode").beginArray();
    for (const DecodeRow &r : rows) {
        jw.beginObject();
        jw.key("scheme").value(r.scheme);
        jw.key("instrs").value(r.instrs);
        jw.key("table_ns_per_instr").value(r.tableNsPerInstr);
        jw.key("memo_ns_per_instr").value(r.memoNsPerInstr);
        jw.key("speedup").value(r.speedup());
        jw.endObject();
    }
    jw.endArray();
    jw.key("translate").beginObject();
    jw.key("instrs").value(tr.instrs);
    jw.key("cold_ns_per_instr").value(tr.coldNsPerInstr);
    jw.key("memo_ns_per_instr").value(tr.memoNsPerInstr);
    jw.key("speedup").value(tr.speedup());
    jw.endObject();
    jw.key("events").beginObject();
    jw.key("off_ms").value(ev.offMs);
    jw.key("on_ms").value(ev.onMs);
    jw.key("overhead_pct").value(ev.overheadPct());
    jw.endObject();
    jw.endObject();

    std::ofstream out(out_path);
    if (!out)
        fatal("cannot open '%s'", out_path.c_str());
    out << jw.str() << "\n";
    std::fprintf(stderr, "# wrote %s\n", out_path.c_str());
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
