/**
 * @file
 * uhm_perfbench — the program behind the repository benchmark.
 *
 * One invocation runs one workload once and prints, as its last stdout
 * line, one JSON object {"correct","attempted","failed","metrics"}:
 *
 *   uhm_perfbench --workload=serve_warm|serve_cold|batch_sweep
 *                 --seed=N --seconds=S --trace=0|1
 *                 --config=perfbench/config.json
 *                 --serve-bin=PATH --run-dir=DIR [--spans=FILE]
 *
 * Every constant of a run (rates, request counts, daemon geometry, the
 * program mixes) comes from the config file; the seed only permutes a
 * fixed multiset of operations and names the unique comments of the
 * cold requests, so the simulated ledger of a workload is identical
 * for every seed.
 *
 * The serve workloads drive the shipped uhm_serve binary, run as its
 * own process, from outside: one connection, one sender thread that
 * writes request lines on a fixed open-loop schedule without waiting
 * for replies (the protocol pipelines), and one receiver thread that
 * frames the replies. Latency runs from each request's due time; the
 * measured phase is cut into windows of windowRequests requests, and
 * latency.p99_ms is the median of the windows' p99s. The scored
 * end-to-end times are CPU times, which leave out the time the host
 * takes from the VM; latency is printed, and reported by the traced run.
 * batch_sweep runs the public sweep API (bench::runSweep) in-process.
 *
 * --trace=1 is the per-layer run. For the serve workloads it first
 * repeats the untraced daemon run (the server-side numbers come from
 * it), then replays the same request stream in-process and serially
 * through the public functions of each module, with a span around
 * every call: parse -> acquire (compile -> encode -> build on a miss)
 * -> beginRun -> runSlice* -> finishRun -> emit -> header. No tracing
 * runs inside the program. Spans stay in memory until the end.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "dir/serialize.hh"
#include "hlr/compiler.hh"
#include "hlr/interp.hh"
#include "hlr/parser.hh"
#include "serve/cache.hh"
#include "serve/proto.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "uhm/machine.hh"
#include "uhm/profile.hh"
#include "workload/samples.hh"

using namespace uhm;
using serve::JsonValue;

namespace
{

// ---------------------------------------------------------------------
// Time and statistics.
// ---------------------------------------------------------------------

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linearly interpolated quantile of @p v (copied, then sorted). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

/** Peak resident set of @p pid in MB (VmHWM), 0 when unreadable. */
double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/**
 * CPU seconds on @p clock (a thread or process CPU-time clock). Time
 * the host takes from the VM (steal) is not charged to it.
 */
double
cpuClockS(clockid_t clock)
{
    timespec ts{};
    ::clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) / 1e9;
}

/** CPU seconds (all threads, user + system) @p pid has used so far. */
double
processCpuS(pid_t pid)
{
    clockid_t clock;
    if (::clock_getcpuclockid(pid, &clock) != 0)
        fatal("no CPU clock for pid %d", static_cast<int>(pid));
    return cpuClockS(clock);
}

/**
 * Ticks the host has taken from this VM's vCPUs so far (the steal
 * column of /proc/stat), summed over all of them.
 */
uint64_t
hostStealTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t field = 0, steal = 0;
    in >> cpu;
    for (int i = 1; i <= 8 && in >> field; ++i)
        steal = field;
    return steal;
}

// ---------------------------------------------------------------------
// Configuration (perfbench/config.json).
// ---------------------------------------------------------------------

const JsonValue &
member(const JsonValue &obj, const std::string &key)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        fatal("config: missing key '%s'", key.c_str());
    return *v;
}

double
num(const JsonValue &obj, const std::string &key)
{
    const JsonValue &v = member(obj, key);
    if (!v.isNumber())
        fatal("config: '%s' must be a number", key.c_str());
    return v.kind == JsonValue::Kind::Int ?
        static_cast<double>(v.integer) : v.number;
}

/**
 * A {"program": weight, ...} object as a list holding each program
 * weight times, in config order. The weights are chosen so the list
 * length is odd: then the median of a run falls inside one program's
 * share instead of on the edge between two.
 */
std::vector<std::string>
weighted(const JsonValue &obj, const std::string &key)
{
    std::vector<std::string> out;
    for (const auto &[name, weight] : member(obj, key).object)
        out.insert(out.end(), static_cast<size_t>(weight.integer), name);
    if (out.empty())
        fatal("config: '%s' must name at least one program", key.c_str());
    return out;
}

std::vector<std::string>
strings(const JsonValue &obj, const std::string &key)
{
    std::vector<std::string> out;
    for (const JsonValue &v : member(obj, key).array)
        out.push_back(v.string);
    if (out.empty())
        fatal("config: '%s' must be a non-empty list", key.c_str());
    return out;
}

/** Seconds to wait for outstanding replies after the last send. */
constexpr double drainSeconds = 20.0;

/**
 * Requests per latency window. latency.p99_ms is the median of the
 * windows' p99s, and each window's p99 has 10 samples beyond it.
 */
constexpr size_t windowRequests = 1000;

/** Number of latency windows of a run of @p n requests. */
size_t
windowCount(size_t n)
{
    return std::max<size_t>(1, n / windowRequests);
}

/** One past the last request id of window @p k of @p n requests. */
size_t
windowEnd(size_t k, size_t n)
{
    return (k + 1) * n / windowCount(n);
}

/** decodeAll passes per image for dir.decode_ns_per_instr. */
constexpr unsigned decodeReps = 20;

/** The daemon's fixed geometry, passed on its command line. */
struct DaemonConfig
{
    unsigned workers;
    unsigned maxSessions;
    unsigned maxQueue;
    uint64_t sliceCycles;
};

struct Config
{
    JsonValue doc;
    DaemonConfig daemon;
};

Config
loadConfig(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read config '%s'", path.c_str());
    std::stringstream text;
    text << in.rdbuf();
    Config cfg;
    std::string err;
    if (!serve::parseJson(text.str(), cfg.doc, err))
        fatal("config '%s': %s", path.c_str(), err.c_str());
    const JsonValue &d = member(cfg.doc, "daemon");
    cfg.daemon.workers = static_cast<unsigned>(num(d, "workers"));
    cfg.daemon.maxSessions = static_cast<unsigned>(num(d, "max_sessions"));
    cfg.daemon.maxQueue = static_cast<unsigned>(num(d, "max_queue"));
    cfg.daemon.sliceCycles = static_cast<uint64_t>(num(d, "slice_cycles"));
    return cfg;
}

/** Set-up repetitions of @p workload; setup_s is their median. */
unsigned
setupRepeats(const Config &cfg, const std::string &workload)
{
    return static_cast<unsigned>(
        num(member(cfg.doc, workload), "setup_repeats"));
}

// ---------------------------------------------------------------------
// Operations and their reference outputs.
// ---------------------------------------------------------------------

/** One generated request (serve workloads). */
struct Op
{
    /** The wire line the daemon receives. */
    std::string line;
    /** Sample the request runs (its source, maybe with a comment). */
    std::string program;
    bool profile = false;
};

/**
 * The independent reference: the HLR interpreter's output for each
 * sample on its own input, cross-checked against the sample's known
 * expected output where it has one.
 */
struct References
{
    std::map<std::string, std::vector<int64_t>> output;
    /** Samples whose interpreter output disagrees with `expected`. */
    uint64_t badReferences = 0;

    void
    add(const std::string &name)
    {
        if (output.count(name))
            return;
        const workload::SampleProgram &s = workload::sampleByName(name);
        hlr::HlrRunResult r = hlr::interpretHlr(hlr::parse(s.source),
                                                s.input);
        if (!s.expected.empty() && r.output != s.expected) {
            std::fprintf(stderr, "reference: %s: interpreter output "
                         "differs from the sample's expected output\n",
                         name.c_str());
            ++badReferences;
        }
        output[name] = r.output;
    }
};

std::string
requestLine(uint64_t id, const std::string &program,
            const std::string &source, bool profile)
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("id").value(id);
    jw.key("verb").value(profile ? "profile" : "run");
    jw.key("program").value(program);
    if (!source.empty()) {
        jw.key("source").value(source);
        // Inline source has no default input; send the sample's.
        const auto &input = workload::sampleByName(program).input;
        if (!input.empty()) {
            jw.key("input").beginArray();
            for (int64_t v : input)
                jw.value(v);
            jw.endArray();
        }
    }
    jw.endObject();
    return jw.str();
}

/**
 * Seeded Fisher-Yates shuffle within each consecutive round of @p round
 * items. Every round keeps the whole weighted mix, so the seed changes
 * the order but neither what any stretch of the run holds nor what a
 * replay of whole rounds covers.
 */
template <typename T>
void
shuffleRounds(std::vector<T> &v, size_t round, uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
    for (size_t base = 0; base < v.size(); base += round) {
        const size_t len = std::min(round, v.size() - base);
        for (size_t i = len; i > 1; --i)
            std::swap(v[base + i - 1], v[base + rng.below(i)]);
    }
}

/** The measured request stream and the set-up warm-up pass. */
struct ServeStream
{
    std::vector<Op> warmup;
    std::vector<Op> ops;
    double rate = 0;
};

/**
 * serve_warm: a fixed multiset (the weighted programs round-robin,
 * every profile_every-th request a profile) shuffled by the seed within
 * rounds of the mix; the warm-up runs every program once. serve_cold: every request is the
 * source of one short sample plus a unique comment; the warm-up fills
 * the session cache so the measured requests evict from the start.
 */
ServeStream
makeServeStream(const std::string &workload, const Config &cfg,
                uint64_t seed, double seconds, References &refs)
{
    const JsonValue &w = member(cfg.doc, workload);
    ServeStream s;
    s.rate = num(w, "rate_rps");
    const std::vector<std::string> programs = weighted(w, "programs");
    for (const std::string &p : programs)
        refs.add(p);
    const size_t n = static_cast<size_t>(std::llround(s.rate * seconds));
    const bool cold = workload == "serve_cold";

    std::vector<std::pair<std::string, bool>> mix;
    const size_t profile_every =
        cold ? 0 : static_cast<size_t>(num(w, "profile_every"));
    for (size_t i = 0; i < n; ++i)
        mix.emplace_back(programs[i % programs.size()],
                         profile_every && i % profile_every == 0);
    shuffleRounds(mix, programs.size(), seed);

    auto source = [&](const std::string &program, const std::string &tag) {
        return workload::sampleByName(program).source + "\n# " + tag +
            "\n";
    };
    // Warm-up ids count down from the top so they never meet the
    // measured ids 0..n-1.
    uint64_t warm_id = 1'000'000'000;
    if (cold) {
        for (size_t i = 0; i < cfg.daemon.maxSessions; ++i) {
            const std::string &p = programs[i % programs.size()];
            s.warmup.push_back(
                {requestLine(warm_id--, p,
                             source(p, "warm " + std::to_string(seed) +
                                           "." + std::to_string(i)),
                             false),
                 p, false});
        }
    } else {
        // One warm-up run per distinct program (the list may repeat
        // a program to weight it).
        for (const auto &[p, ref] : refs.output)
            s.warmup.push_back({requestLine(warm_id--, p, "", false), p,
                                false});
    }
    for (size_t i = 0; i < n; ++i) {
        const auto &[p, profile] = mix[i];
        std::string src = cold ?
            source(p, std::to_string(seed) + "." + std::to_string(i)) : "";
        s.ops.push_back({requestLine(i, p, src, profile), p, profile});
    }
    return s;
}

// ---------------------------------------------------------------------
// The daemon process and a non-fatal client connection.
// ---------------------------------------------------------------------

/** A unix-socket connection that reports failure instead of dying. */
class Conn
{
  public:
    Conn() = default;
    ~Conn() { close(); }

    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool
    open(const std::string &path)
    {
        close();
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path))
            return false;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        return ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) == 0;
    }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
        buf_.clear();
    }

    /** Write @p line plus a newline. Only touches the fd, so one
     *  thread may send while another receives. */
    bool
    sendLine(const std::string &line) const
    {
        std::string text = line + "\n";
        size_t off = 0;
        while (off < text.size()) {
            ssize_t n = ::send(fd_, text.data() + off, text.size() - off,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Next line before @p deadline_ns; false on timeout or close. */
    bool
    readLine(std::string &line, int64_t deadline_ns)
    {
        for (;;) {
            size_t eol = buf_.find('\n', scanned_);
            if (eol != std::string::npos) {
                line.assign(buf_, 0, eol);
                buf_.erase(0, eol + 1);
                scanned_ = 0;
                return true;
            }
            scanned_ = buf_.size();
            int64_t left_ms = (deadline_ns - nowNs()) / 1'000'000;
            if (left_ms < 0)
                return false;
            pollfd pfd{fd_, POLLIN, 0};
            int rc = ::poll(&pfd, 1, static_cast<int>(
                                         std::min<int64_t>(left_ms, 1000)));
            if (rc < 0 && errno != EINTR)
                return false;
            if (rc <= 0)
                continue;
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
    size_t scanned_ = 0;
};

/** One framed reply. */
struct Reply
{
    JsonValue doc;
    std::string payload;
    int64_t recvNs = 0;
    bool ok = false;
    std::string error;

    uint64_t
    uint(const std::string &key) const
    {
        const JsonValue *v = doc.find(key);
        return v && v->kind == JsonValue::Kind::Int && v->integer > 0 ?
            static_cast<uint64_t>(v->integer) : 0;
    }
};

bool
readReply(Conn &conn, Reply &out, int64_t deadline_ns)
{
    std::string header;
    if (!conn.readLine(header, deadline_ns))
        return false;
    out = Reply{};
    out.recvNs = nowNs();
    std::string err;
    if (!serve::parseJson(header, out.doc, err))
        return false;
    const JsonValue *ok = out.doc.find("ok");
    out.ok = ok && ok->kind == JsonValue::Kind::Bool && ok->boolean;
    if (const JsonValue *e = out.doc.find("error"))
        out.error = e->string;
    for (uint64_t i = out.uint("payload_lines"); i > 0; --i) {
        std::string line;
        if (!conn.readLine(line, deadline_ns))
            return false;
        out.payload += line + "\n";
    }
    return true;
}

/** The uhm_serve process; killed and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::string &socket,
           const DaemonConfig &d)
        : socket_(socket)
    {
        std::vector<std::string> args = {
            bin,
            "--socket=" + socket,
            "--workers=" + std::to_string(d.workers),
            "--max-sessions=" + std::to_string(d.maxSessions),
            "--max-queue=" + std::to_string(d.maxQueue),
            "--slice-cycles=" + std::to_string(d.sliceCycles),
        };
        ::unlink(socket.c_str());
        pid_ = ::fork();
        if (pid_ < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid_ == 0) {
            // Never outlive the benchmark, even if it is killed.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            int devnull = ::open("/dev/null", O_WRONLY);
            ::dup2(devnull, STDOUT_FILENO);
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }

    /** Connect once the socket accepts and a ping round-trips. */
    bool
    connect(Conn &conn, double timeout_s)
    {
        const int64_t deadline = nowNs() +
            static_cast<int64_t>(timeout_s * 1e9);
        while (nowNs() < deadline) {
            if (conn.open(socket_)) {
                Reply r;
                if (conn.sendLine(R"({"verb":"ping"})") &&
                    readReply(conn, r, deadline) && r.ok)
                    return true;
            }
            int status;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            ::usleep(200);
        }
        return false;
    }

    /** Ask for a shutdown, wait for the exit; kill after a grace. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        Conn conn;
        if (conn.open(socket_))
            conn.sendLine(R"({"verb":"shutdown"})");
        rusage ru{};
        for (int i = 0; i < 5000; ++i) {
            int status;
            if (::wait4(pid_, &status, WNOHANG, &ru) == pid_) {
                pid_ = -1;
                break;
            }
            ::usleep(1000);
        }
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::wait4(pid_, nullptr, 0, &ru);
            pid_ = -1;
        }
        cpuS_ = seconds(ru.ru_utime) + seconds(ru.ru_stime);
        ::unlink(socket_.c_str());
    }

    /** CPU seconds (user + system) the daemon used in its life; valid
     *  after stop(). Time the host took from the VM is not charged. */
    double cpuS() const { return cpuS_; }

  private:
    static double
    seconds(const timeval &tv)
    {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) / 1e6;
    }

    std::string socket_;
    pid_t pid_ = -1;
    double cpuS_ = 0;
};

// ---------------------------------------------------------------------
// Result accounting.
// ---------------------------------------------------------------------

struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Outputs that disagree with the reference (the correctness bit). */
    uint64_t mismatches = 0;

    void
    record(bool good, bool mismatch = false)
    {
        ++attempted;
        failed += good ? 0 : 1;
        mismatches += mismatch ? 1 : 0;
    }
};

std::vector<int64_t>
intArray(const JsonValue *v)
{
    std::vector<int64_t> out;
    if (v != nullptr)
        for (const JsonValue &x : v->array)
            out.push_back(x.integer);
    return out;
}

/** Check one run/profile reply; @return false when it failed. */
bool
checkReply(const Reply &r, const Op &op, const References &refs,
           bool &mismatch)
{
    mismatch = false;
    if (!r.ok)
        return false;
    if (intArray(r.doc.find("output")) != refs.output.at(op.program)) {
        mismatch = true;
        return false;
    }
    if (r.uint("cycles") == 0 || r.uint("dir_instrs") == 0)
        return false;
    return !op.profile || !r.payload.empty();
}

/** What the untraced daemon run measured. */
struct ServeResult
{
    Tally tally;
    /** Per request id, from its due time; NaN when it failed. */
    std::vector<double> latencyMs;
    /** Per request id, how late the sender wrote it. */
    std::vector<double> lateMs;
    /** Host steal ticks (all vCPUs) at the start and each window's end. */
    std::vector<uint64_t> stealTicks;
    std::vector<double> waitUs;
    std::vector<double> serviceUs;
    /** Daemon CPU seconds of each set-up (start, warm-up, shutdown). */
    std::vector<double> setupS;
    uint64_t overloaded = 0;
    uint64_t missing = 0;
    uint64_t cached = 0;
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    uint64_t evictions = 0;
    /** Daemon CPU seconds over the measured phase. */
    double cpuS = 0;
    double peakRssMb = 0;
    double achievedRps = 0;
};

/** Serially send @p ops and check each reply (the warm-up pass). */
bool
runSerial(Conn &conn, const std::vector<Op> &ops, const References &refs,
          Tally &tally)
{
    for (const Op &op : ops) {
        Reply r;
        bool got = conn.sendLine(op.line) &&
            readReply(conn, r, nowNs() + 30'000'000'000);
        bool mismatch = false;
        tally.record(got && checkReply(r, op, refs, mismatch), mismatch);
        if (!got)
            return false;
    }
    return true;
}

/**
 * The untraced serve run: set-up (daemon start through warm-up) timed
 * @p repeats times, each of those daemons shut down to read its CPU
 * time; then one more set-up whose daemon serves the open-loop measured
 * phase; then the stats verb and the daemon's peak RSS.
 */
ServeResult
runServe(const ServeStream &s, const Config &cfg, unsigned repeats,
         const References &refs, const std::string &bin,
         const std::string &socket)
{
    ServeResult res;
    std::unique_ptr<Daemon> daemon;
    Conn conn;
    auto set_up = [&] {
        daemon = std::make_unique<Daemon>(bin, socket, cfg.daemon);
        if (!daemon->connect(conn, 30.0))
            fatal("uhm_serve did not come up on %s", socket.c_str());
        Tally warm;
        if (!runSerial(conn, s.warmup, refs, warm) || warm.failed)
            fatal("warm-up failed (%llu of %llu requests)",
                  static_cast<unsigned long long>(warm.failed),
                  static_cast<unsigned long long>(warm.attempted));
    };
    for (unsigned rep = 0; rep < repeats; ++rep) {
        set_up();
        conn.close();
        daemon->stop();
        res.setupS.push_back(daemon->cpuS());
    }
    set_up();

    const size_t n = s.ops.size();
    const pid_t dpid = daemon->pid();
    const double cpu0 = processCpuS(dpid);
    const int64_t period = static_cast<int64_t>(1e9 / s.rate);
    const int64_t start = nowNs() + 20'000'000;
    std::vector<int64_t> lateNs(n, 0);
    std::atomic<size_t> sent{0};
    res.stealTicks.push_back(hostStealTicks());
    std::thread sender([&] {
        for (size_t i = 0; i < n; ++i) {
            const int64_t due = start + static_cast<int64_t>(i) * period;
            // Spin instead of sleeping: a sleeping sender leaves its
            // vCPU idle, and on a busy VM host waking it again can take
            // milliseconds, which would read as server latency.
            while (nowNs() < due)
                std::this_thread::yield();
            lateNs[i] = nowNs() - due;
            if (!conn.sendLine(s.ops[i].line))
                break;
            sent.store(i + 1, std::memory_order_release);
            if (i + 1 == windowEnd(res.stealTicks.size() - 1, n))
                res.stealTicks.push_back(hostStealTicks());
        }
    });

    const int64_t deadline = start + static_cast<int64_t>(n) * period +
        static_cast<int64_t>(drainSeconds * 1e9);
    res.latencyMs.assign(n, std::nan(""));
    std::vector<bool> seen(n, false);
    size_t received = 0;
    int64_t last_recv = start;
    while (received < n) {
        Reply r;
        if (!readReply(conn, r, deadline))
            break;
        const uint64_t id = r.uint("id");
        if (id >= n || seen[id])
            continue;
        seen[id] = true;
        ++received;
        last_recv = r.recvNs;
        const Op &op = s.ops[id];
        bool mismatch = false;
        bool good = checkReply(r, op, refs, mismatch);
        res.tally.record(good, mismatch);
        if (r.error == "overloaded")
            ++res.overloaded;
        if (!r.ok)
            continue;
        if (good)
            res.latencyMs[id] =
                static_cast<double>(r.recvNs - (start + static_cast<int64_t>(
                                                            id) * period)) /
                1e6;
        res.waitUs.push_back(static_cast<double>(r.uint("wait_us")));
        res.serviceUs.push_back(static_cast<double>(r.uint("service_us")));
        res.cached += r.doc.find("cached") &&
                r.doc.find("cached")->boolean ? 1 : 0;
        res.cycles += r.uint("cycles");
        res.instrs += r.uint("dir_instrs");
    }
    sender.join();
    res.cpuS = processCpuS(dpid) - cpu0;
    res.missing = n - received;
    for (size_t i = 0; i < res.missing; ++i)
        res.tally.record(false);
    for (size_t i = 0; i < sent.load(); ++i)
        res.lateMs.push_back(static_cast<double>(lateNs[i]) / 1e6);
    res.achievedRps = ratio(static_cast<double>(received) * 1e9,
                            static_cast<double>(last_recv - start));

    Reply stats;
    if (conn.sendLine(R"({"verb":"stats"})") &&
        readReply(conn, stats, nowNs() + 10'000'000'000)) {
        const std::string key = "\"serve.cache.evictions\":";
        size_t at = stats.payload.find(key);
        if (at != std::string::npos)
            res.evictions = std::stoull(stats.payload.substr(
                at + key.size()));
    }
    res.peakRssMb = peakRssMb(daemon->pid());
    conn.close();
    daemon.reset();
    return res;
}

// ---------------------------------------------------------------------
// Spans (the traced run).
// ---------------------------------------------------------------------

constexpr uint32_t noSpan = UINT32_MAX;

constexpr MachineKind allKinds[] = {
    MachineKind::Conventional, MachineKind::Cached, MachineKind::Dtb,
    MachineKind::Dtb2, MachineKind::Tiered,
};

struct Span
{
    const char *name;
    uint32_t parent;
    uint32_t root;
    int64_t t0 = 0;
    int64_t t1 = 0;
};

/** In-memory span log; written out once, at the end. */
class SpanLog
{
  public:
    SpanLog() { spans_.reserve(1 << 16); }

    uint32_t
    open(const char *name, uint32_t parent)
    {
        uint32_t id = static_cast<uint32_t>(spans_.size());
        uint32_t root = parent == noSpan ? id : spans_[parent].root;
        spans_.push_back({name, parent, root, nowNs(), 0});
        return id;
    }

    void close(uint32_t id) { spans_[id].t1 = nowNs(); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of each span: duration minus its children's. */
    std::vector<int64_t>
    selfNs() const
    {
        std::vector<int64_t> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].t1 - spans_[i].t0;
        for (const Span &s : spans_)
            if (s.parent != noSpan)
                self[s.parent] -= s.t1 - s.t0;
        return self;
    }

    void
    write(const std::string &path) const
    {
        if (path.empty())
            return;
        std::ofstream out(path);
        std::vector<int64_t> self = selfNs();
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"id\":" << i << ",\"parent\":"
                << (s.parent == noSpan ? -1 : int64_t{s.parent})
                << ",\"request\":" << s.root << ",\"name\":\"" << s.name
                << "\",\"t0_ns\":" << s.t0 << ",\"dur_ns\":"
                << s.t1 - s.t0 << ",\"self_ns\":" << self[i] << "}\n";
        }
    }

  private:
    std::vector<Span> spans_;
};

/** RAII span; close() ends it early. */
struct Scope
{
    Scope(SpanLog &log, const char *name, uint32_t parent)
        : log(log), id(log.open(name, parent))
    {
    }
    ~Scope() { close(); }

    /** End the span; @return its duration in ns. */
    int64_t
    close()
    {
        if (open) {
            log.close(id);
            open = false;
        }
        return log.spans()[id].t1 - log.spans()[id].t0;
    }

    SpanLog &log;
    uint32_t id;
    bool open = true;
};

/** Counters the traced run gathers next to its spans. */
struct LayerCounts
{
    uint64_t requests = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t slices = 0;
    std::vector<double> firstRunExtraUs;
    std::map<std::string, std::pair<int64_t, uint64_t>> runByKind;
    uint64_t dtbHits = 0, dtbMisses = 0, translations = 0;
    uint64_t traceInstrs = 0, tracesCompiled = 0;
    uint64_t cycles = 0, instrs = 0;
    CycleBreakdown breakdown;
    /** One image per distinct (program, scheme), for the decode and
     *  image-size layers; images hold a pointer to their program. */
    std::set<std::pair<std::string, EncodingScheme>> imageKeys;
    std::vector<std::unique_ptr<DirProgram>> imagePrograms;
    std::vector<std::unique_ptr<EncodedDir>> images;

    /** Keep one image per distinct (source, scheme), outside any span. */
    void
    addImage(const std::string &name, const std::string &source,
             EncodingScheme scheme)
    {
        if (!imageKeys.insert({name, scheme}).second)
            return;
        imagePrograms.push_back(
            std::make_unique<DirProgram>(hlr::compileSource(source)));
        images.push_back(encodeDir(*imagePrograms.back(), scheme));
    }

    void
    addResult(const RunResult &r, MachineKind kind, int64_t run_ns)
    {
        auto &k = runByKind[machineKindName(kind)];
        k.first += run_ns;
        k.second += r.dirInstrs;
        auto c = [&](const char *name) {
            auto it = r.counters.find(name);
            return it == r.counters.end() ? 0 : it->second;
        };
        dtbHits += c("dtb.hits");
        dtbMisses += c("dtb.misses");
        translations += c("machine.translated_instrs");
        traceInstrs += c("tier.trace_dir_instrs");
        tracesCompiled += c("tier.traces_installed");
        cycles += r.cycles;
        instrs += r.dirInstrs;
        breakdown.decode += r.breakdown.decode;
        breakdown.translate += r.breakdown.translate +
            r.breakdown.translate2;
        breakdown.semantic += r.breakdown.semantic;
        breakdown.dispatch += r.breakdown.dispatch;
    }
};

/** Time @p m running @p input to HALT in slices, spanned under @p parent. */
RunResult
runSliced(SpanLog &log, uint32_t parent, Machine &m,
          const std::vector<int64_t> &input, uint64_t slice_cycles,
          LayerCounts &lc, MachineKind kind)
{
    {
        Scope sp(log, "begin", parent);
        m.beginRun(input);
    }
    int64_t run_ns = 0;
    while (!m.finished()) {
        Scope sp(log, "slice", parent);
        m.runSlice(slice_cycles);
        run_ns += sp.close();
        ++lc.slices;
    }
    Scope sp(log, "finish", parent);
    RunResult r = m.finishRun();
    sp.close();
    lc.addResult(r, kind, run_ns);
    return r;
}

/** Host time of one untraced warm run of @p m (first-run probe). */
int64_t
warmRunNs(Machine &m, const std::vector<int64_t> &input)
{
    const int64_t t0 = nowNs();
    m.run(input);
    return nowNs() - t0;
}

/** One session of the replay's cache: the chain SessionCache builds. */
struct ReplaySession
{
    DirProgram program;
    std::unique_ptr<EncodedDir> image;
    std::unique_ptr<Machine> machine;
    std::vector<int64_t> defaultInput;
    std::string label;
    uint64_t lastUse = 0;
};

/**
 * Replay @p ops serially in-process. The acquire step keys requests
 * with the public SessionCache::keyFor() and, on a miss, rebuilds the
 * chain SessionCache::build() makes — compile, serialize + hash,
 * encode, construct — from the same public calls, each in its own
 * span; the idle-LRU bound is the daemon's max_sessions.
 */
void
replayServe(const std::vector<const Op *> &ops, const Config &cfg,
            const References &refs, SpanLog &log, LayerCounts &lc,
            Tally &tally)
{
    std::map<std::string, std::unique_ptr<ReplaySession>> cache;
    uint64_t tick = 0;
    for (const Op *op : ops) {
        Scope root(log, "request", noSpan);
        serve::Request req;
        {
            Scope sp(log, "parse", root.id);
            std::string err;
            if (!serve::parseRequest(op->line, req, err))
                fatal("replay: %s", err.c_str());
        }
        ReplaySession *session = nullptr;
        bool cached = false;
        {
            Scope acq(log, "acquire", root.id);
            const std::string key = serve::SessionCache::keyFor(req);
            auto it = cache.find(key);
            if (it != cache.end()) {
                session = it->second.get();
                cached = true;
            } else {
                auto fresh = std::make_unique<ReplaySession>();
                const workload::SampleProgram &sample =
                    workload::sampleByName(req.program);
                fresh->label = req.program;
                if (req.source.empty())
                    fresh->defaultInput = sample.input;
                {
                    Scope sp(log, "compile", acq.id);
                    fresh->program = hlr::compileSource(
                        req.source.empty() ? sample.source : req.source);
                }
                // The cache hashes the serialized program on each build.
                serializeDirProgram(fresh->program);
                {
                    Scope sp(log, "encode", acq.id);
                    fresh->image = encodeDir(fresh->program,
                                             req.machine.scheme);
                }
                {
                    Scope sp(log, "build", acq.id);
                    fresh->machine = std::make_unique<Machine>(
                        *fresh->image, req.machine.toConfig());
                }
                lc.addImage(req.program, req.source.empty() ?
                                sample.source : req.source,
                            req.machine.scheme);
                session = fresh.get();
                cache.emplace(key, std::move(fresh));
                while (cache.size() > cfg.daemon.maxSessions) {
                    auto victim = cache.end();
                    for (auto c = cache.begin(); c != cache.end(); ++c)
                        if (c->second.get() != session &&
                            (victim == cache.end() ||
                             c->second->lastUse < victim->second->lastUse))
                            victim = c;
                    cache.erase(victim);
                }
            }
            session->lastUse = ++tick;
        }
        (cached ? lc.hits : lc.misses)++;
        ++lc.requests;
        const std::vector<int64_t> &input =
            req.inputGiven ? req.input : session->defaultInput;
        const int64_t run0 = nowNs();
        RunResult r = runSliced(log, root.id, *session->machine, input,
                                cfg.daemon.sliceCycles, lc,
                                req.machine.kind);
        const int64_t first_ns = nowNs() - run0;

        serve::ResponseInfo info;
        info.id = req.id;
        info.verb = req.verb;
        info.hasCached = true;
        info.cached = cached;
        info.hasRunSummary = true;
        info.output = r.output;
        info.cycles = r.cycles;
        info.dirInstrs = r.dirInstrs;
        std::string payload;
        if (op->profile) {
            Scope sp(log, "emit", root.id);
            ProfileMeta meta;
            meta.program = session->label;
            meta.machine = machineKindName(req.machine.kind);
            meta.encoding = encodingName(req.machine.scheme);
            meta.imageBits = session->image->bitSize();
            payload = profileJsonl(meta, r);
        }
        {
            Scope sp(log, "header", root.id);
            serve::successHeader(
                info, static_cast<size_t>(std::count(
                          payload.begin(), payload.end(), '\n')));
        }
        root.close();
        const bool mismatch = r.output != refs.output.at(op->program);
        tally.record(!mismatch && (!op->profile || !payload.empty()),
                     mismatch);
        // First-run extra: this miss's run minus a warm run of the same
        // machine, outside the request's span tree.
        if (!cached)
            lc.firstRunExtraUs.push_back(
                static_cast<double>(first_ns -
                                    warmRunNs(*session->machine, input)) /
                1e3);
    }
}

/** Mean duration (µs) of the spans named @p name, 0 when none. */
struct SpanStats
{
    std::map<std::string, std::vector<double>> durUs;
    std::map<std::string, double> selfMs;
    std::map<std::string, uint64_t> count;
    std::vector<double> requestUs;
    std::vector<double> acquireHitUs, acquireMissUs;
    double totalMs = 0;

    explicit SpanStats(const SpanLog &log)
    {
        const auto &spans = log.spans();
        std::vector<int64_t> self = log.selfNs();
        std::vector<bool> hasChild(spans.size(), false);
        for (const Span &s : spans)
            if (s.parent != noSpan)
                hasChild[s.parent] = true;
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const double us = static_cast<double>(s.t1 - s.t0) / 1e3;
            durUs[s.name].push_back(us);
            selfMs[s.name] += static_cast<double>(self[i]) / 1e6;
            ++count[s.name];
            if (s.parent == noSpan) {
                requestUs.push_back(us);
                totalMs += us / 1e3;
            }
            if (std::strcmp(s.name, "acquire") == 0)
                (hasChild[i] ? acquireMissUs : acquireHitUs).push_back(us);
        }
    }

    double
    meanUs(const std::string &name) const
    {
        auto it = durUs.find(name);
        return it == durUs.end() ? 0.0 : mean(it->second);
    }
};

/** EncodedDir::decodeAll over every distinct image, ns per instruction. */
double
decodeNsPerInstr(const std::vector<std::unique_ptr<EncodedDir>> &images)
{
    std::vector<DecodeResult> out;
    int64_t ns = 0;
    uint64_t instrs = 0;
    for (const auto &img : images) {
        img->decodeAll(out);
        const int64_t t0 = nowNs();
        for (unsigned i = 0; i < decodeReps; ++i)
            img->decodeAll(out);
        ns += nowNs() - t0;
        instrs += static_cast<uint64_t>(decodeReps) * img->numInstrs();
    }
    return ratio(static_cast<double>(ns), static_cast<double>(instrs));
}

double
imageBitsPerInstr(const std::vector<std::unique_ptr<EncodedDir>> &images)
{
    double bits = 0, instrs = 0;
    for (const auto &img : images) {
        bits += static_cast<double>(img->bitSize());
        instrs += static_cast<double>(img->numInstrs());
    }
    return ratio(bits, instrs);
}

// ---------------------------------------------------------------------
// The layer ledger.
// ---------------------------------------------------------------------

/** Span name -> the layer the ledger files it under. */
const std::vector<std::pair<const char *, const char *>> &
ledgerLayers()
{
    static const std::vector<std::pair<const char *, const char *>> l = {
        {"parse", "serve.proto  parseRequest"},
        {"acquire", "serve.cache  acquire (self)"},
        {"compile", "hlr          compileSource"},
        {"encode", "dir          encodeDir"},
        {"build", "uhm          Machine()"},
        {"begin", "uhm          beginRun"},
        {"slice", "uhm          runSlice"},
        {"finish", "uhm          finishRun"},
        {"emit", "uhm          profileJsonl"},
        {"header", "serve.proto  successHeader"},
        {"request", "(unspanned)  request self"},
        {"point", "(unspanned)  point self"},
    };
    return l;
}

void
printLedger(const std::string &workload, const SpanStats &st,
            const LayerCounts &lc, const ServeResult *untraced)
{
    std::printf("\n# layer ledger: %s (traced in-process replay, %llu "
                "operations, %.1f ms traced)\n", workload.c_str(),
                static_cast<unsigned long long>(lc.requests), st.totalMs);
    std::printf("#   %-30s %10s %7s %9s %10s\n", "layer", "self ms",
                "share", "count", "mean us");
    for (const auto &[name, label] : ledgerLayers()) {
        auto it = st.selfMs.find(name);
        if (it == st.selfMs.end())
            continue;
        std::printf("#   %-30s %10.2f %6.1f%% %9llu %10.2f\n", label,
                    it->second, 100.0 * ratio(it->second, st.totalMs),
                    static_cast<unsigned long long>(st.count.at(name)),
                    1e3 * ratio(it->second,
                                static_cast<double>(st.count.at(name))));
    }
    std::printf("#   counts: hits %llu misses %llu slices %llu "
                "translations %llu traces_compiled %llu\n",
                static_cast<unsigned long long>(lc.hits),
                static_cast<unsigned long long>(lc.misses),
                static_cast<unsigned long long>(lc.slices),
                static_cast<unsigned long long>(lc.translations),
                static_cast<unsigned long long>(lc.tracesCompiled));
    for (const auto &[kind, v] : lc.runByKind)
        std::printf("#   runSlice on %-12s %8.2f ns/instr\n", kind.c_str(),
                    ratio(static_cast<double>(v.first),
                          static_cast<double>(v.second)));
    const double traced_p50 = quantile(st.requestUs, 0.5);
    std::printf("#   traced request p50 %.1f us", traced_p50);
    if (untraced != nullptr) {
        const double svc = quantile(untraced->serviceUs, 0.5);
        std::printf("; untraced server.service_us.p50 %.1f us; "
                    "difference %+.1f us (tracing overhead, work no span "
                    "covers, daemon queueing inside service)", svc,
                    traced_p50 - svc);
    }
    std::printf("\n");
    const std::pair<const char *, const char *> *top = nullptr;
    for (const auto &layer : ledgerLayers()) {
        auto it = st.selfMs.find(layer.first);
        if (it != st.selfMs.end() &&
            (top == nullptr || it->second > st.selfMs.at(top->first)))
            top = &layer;
    }
    if (top != nullptr)
        std::printf("#   dominant layer: %s (%.1f%% of traced time)\n",
                    top->second,
                    100.0 * ratio(st.selfMs.at(top->first), st.totalMs));
    if (lc.misses == 0)
        return;
    // The cold chain of a miss, ranked: which of compile, encode, build
    // and first-run translation owns cold start.
    std::vector<std::pair<double, const char *>> cold = {
        {st.meanUs("compile"), "hlr compile"},
        {st.meanUs("encode"), "dir encode"},
        {st.meanUs("build"), "uhm Machine build"},
        {mean(lc.firstRunExtraUs), "uhm first-run translation"},
    };
    std::sort(cold.rbegin(), cold.rend());
    double chain = 0;
    for (const auto &c : cold)
        chain += c.first;
    std::printf("#   cold chain per miss (%.1f us):", chain);
    for (const auto &[us, what] : cold)
        std::printf(" %s %.1f us (%.0f%%);", what, us,
                    100.0 * ratio(us, chain));
    std::printf("\n#   cold chain owner: %s%s\n", cold[0].second,
                cold[1].first > 0.9 * cold[0].first ?
                    ", within 10% of the runner-up" : "");
}

// ---------------------------------------------------------------------
// batch_sweep.
// ---------------------------------------------------------------------

bool
parseKind(const std::string &name, MachineKind &out)
{
    for (MachineKind k : allKinds)
        if (name == machineKindName(k)) {
            out = k;
            return true;
        }
    return false;
}

bool
parseScheme(const std::string &name, EncodingScheme &out)
{
    for (EncodingScheme s : allEncodingSchemes())
        if (name == encodingName(s)) {
            out = s;
            return true;
        }
    return false;
}

/**
 * The sweep jobs: each is one runSweep call over one program on every
 * encoding x organization of the grid.
 */
struct Batch
{
    std::vector<std::string> jobs;
    std::vector<EncodingScheme> schemes;
    std::vector<MachineKind> kinds;
    unsigned workers = 2;
};

Batch
makeBatch(const Config &cfg, uint64_t seed, double seconds,
          References &refs)
{
    const JsonValue &w = member(cfg.doc, "batch_sweep");
    Batch b;
    b.workers = static_cast<unsigned>(num(w, "workers"));
    for (const std::string &k : strings(w, "machines")) {
        MachineKind kind;
        if (!parseKind(k, kind))
            fatal("config: unknown machine '%s'", k.c_str());
        b.kinds.push_back(kind);
    }
    for (const std::string &e : strings(w, "encodings")) {
        EncodingScheme s;
        if (!parseScheme(e, s))
            fatal("config: unknown encoding '%s'", e.c_str());
        b.schemes.push_back(s);
    }
    const std::vector<std::string> programs = weighted(w, "programs");
    for (const std::string &p : programs)
        refs.add(p);
    const size_t passes = static_cast<size_t>(
        std::max(1.0, std::round(num(w, "passes_per_second") * seconds)));
    for (size_t pass = 0; pass < passes; ++pass)
        b.jobs.insert(b.jobs.end(), programs.begin(), programs.end());
    shuffleRounds(b.jobs, programs.size(), seed);
    return b;
}

/**
 * The grid inputs, built once per distinct program: its sweep points
 * (one compiled program, copied into each point) and the encoded
 * image of each scheme, whose sizes give image_bits_per_instr.
 */
struct Grid
{
    std::map<std::string, std::vector<bench::SweepPoint>> points;
    /** (image bits, static instructions) per program and scheme. */
    std::map<std::pair<std::string, EncodingScheme>,
             std::pair<double, double>> imageSize;
};

/** Set-up: compile and encode the grid inputs. */
Grid
buildGrid(const Batch &b)
{
    Grid g;
    for (const std::string &job : b.jobs) {
        if (g.points.count(job))
            continue;
        const workload::SampleProgram &s = workload::sampleByName(job);
        const DirProgram prog = hlr::compileSource(s.source);
        std::vector<bench::SweepPoint> &points = g.points[job];
        for (EncodingScheme scheme : b.schemes) {
            const auto img = encodeDir(prog, scheme);
            g.imageSize[{job, scheme}] = {
                static_cast<double>(img->bitSize()),
                static_cast<double>(img->numInstrs())};
            for (MachineKind kind : b.kinds) {
                bench::SweepPoint pt;
                pt.label = job;
                pt.program = prog;
                pt.scheme = scheme;
                pt.config.kind = kind;
                pt.input = s.input;
                points.push_back(std::move(pt));
            }
        }
    }
    return g;
}

/**
 * One sweep point, serially: runProgram's steps, each in its own span.
 * @p probe adds the first-run-extra measurement for this point.
 */
void
replayPoint(SpanLog &log, LayerCounts &lc,
            const workload::SampleProgram &s, EncodingScheme scheme,
            MachineKind kind, bool probe,
            const std::vector<int64_t> &reference, Tally &tally)
{
    Scope root(log, "point", noSpan);
    DirProgram prog;
    {
        Scope sp(log, "compile", root.id);
        prog = hlr::compileSource(s.source);
    }
    std::unique_ptr<EncodedDir> img;
    {
        Scope sp(log, "encode", root.id);
        img = encodeDir(prog, scheme);
    }
    MachineConfig mc;
    mc.kind = kind;
    std::unique_ptr<Machine> machine;
    {
        Scope sp(log, "build", root.id);
        machine = std::make_unique<Machine>(*img, mc);
    }
    const int64_t run0 = nowNs();
    RunResult r = runSliced(log, root.id, *machine, s.input, UINT64_MAX,
                            lc, kind);
    const int64_t first_ns = nowNs() - run0;
    root.close();
    ++lc.requests;
    ++lc.misses;
    const bool mismatch = r.output != reference;
    tally.record(!mismatch, mismatch);
    if (probe)
        lc.firstRunExtraUs.push_back(
            static_cast<double>(first_ns - warmRunNs(*machine, s.input)) /
            1e3);
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

/** Print the set-up times of a run, in order, above the result. */
void
printSetups(const std::vector<double> &setup_s)
{
    std::printf("# set-up CPU ms:");
    for (double t : setup_s)
        std::printf(" %.3f", t * 1e3);
    std::printf("\n");
}

struct Metrics
{
    std::vector<std::tuple<std::string, double, std::string>> items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.emplace_back(name, value, unit);
    }
};

void
printResult(bool correct, const Tally &t, const Metrics &m)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(t.attempted);
    out += ", \"failed\": " + std::to_string(t.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value, unit] : m.items) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12g",
                      std::isfinite(value) ? value : 0.0);
        out += (first ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/** The per-layer metrics every workload reports (0 = not exercised). */
void
addLayerMetrics(Metrics &m, const SpanStats &st, const LayerCounts &lc,
                const ServeResult *sr)
{
    const double req = static_cast<double>(lc.requests);
    m.add("proto.parse_us", st.meanUs("parse"), "us");
    m.add("proto.header_us", st.meanUs("header"), "us");
    m.add("cache.hit_ratio",
          sr ? ratio(static_cast<double>(sr->cached),
                     static_cast<double>(sr->serviceUs.size())) : 0.0,
          "ratio");
    m.add("cache.acquire_hit_us", mean(st.acquireHitUs), "us");
    m.add("cache.acquire_miss_us", mean(st.acquireMissUs), "us");
    m.add("cache.evictions", sr ? static_cast<double>(sr->evictions) : 0,
          "count");
    m.add("server.wait_us.p50", sr ? quantile(sr->waitUs, 0.5) : 0, "us");
    m.add("server.wait_us.p99", sr ? quantile(sr->waitUs, 0.99) : 0, "us");
    m.add("server.service_us.p50", sr ? quantile(sr->serviceUs, 0.5) : 0,
          "us");
    m.add("server.service_us.p99", sr ? quantile(sr->serviceUs, 0.99) : 0,
          "us");
    m.add("server.overloaded", sr ? static_cast<double>(sr->overloaded) : 0,
          "count");
    m.add("hlr.compile_us", st.meanUs("compile"), "us");
    m.add("dir.encode_us", st.meanUs("encode"), "us");
    m.add("dir.decode_ns_per_instr", decodeNsPerInstr(lc.images),
          "ns/instr");
    m.add("dir.image_bits_per_instr", imageBitsPerInstr(lc.images),
          "bits/instr");
    m.add("uhm.build_us", st.meanUs("build"), "us");
    m.add("uhm.begin_us", st.meanUs("begin"), "us");
    m.add("uhm.finish_us", st.meanUs("finish"), "us");
    int64_t run_ns = 0;
    uint64_t run_instrs = 0;
    for (const auto &[kind, v] : lc.runByKind) {
        run_ns += v.first;
        run_instrs += v.second;
    }
    m.add("uhm.run_ns_per_instr", ratio(static_cast<double>(run_ns),
                                        static_cast<double>(run_instrs)),
          "ns/instr");
    for (MachineKind k : allKinds) {
        auto it = lc.runByKind.find(machineKindName(k));
        m.add(std::string("uhm.run_ns_per_instr.") + machineKindName(k),
              it == lc.runByKind.end() ? 0.0 :
                  ratio(static_cast<double>(it->second.first),
                        static_cast<double>(it->second.second)),
              "ns/instr");
    }
    m.add("uhm.slices_per_request",
          ratio(static_cast<double>(lc.slices), req), "count");
    m.add("uhm.first_run_extra_us", mean(lc.firstRunExtraUs), "us");
    m.add("uhm.emit_us", st.meanUs("emit"), "us");
    m.add("core.dtb_hit_ratio",
          ratio(static_cast<double>(lc.dtbHits),
                static_cast<double>(lc.dtbHits + lc.dtbMisses)), "ratio");
    m.add("core.translations", ratio(static_cast<double>(lc.translations),
                                     req), "count");
    const double cyc = static_cast<double>(lc.cycles);
    m.add("uhm.cycles.decode_frac",
          ratio(static_cast<double>(lc.breakdown.decode), cyc), "ratio");
    m.add("uhm.cycles.translate_frac",
          ratio(static_cast<double>(lc.breakdown.translate), cyc), "ratio");
    m.add("uhm.cycles.semantic_frac",
          ratio(static_cast<double>(lc.breakdown.semantic), cyc), "ratio");
    m.add("uhm.cycles.dispatch_frac",
          ratio(static_cast<double>(lc.breakdown.dispatch), cyc), "ratio");
    m.add("tier.trace_coverage",
          ratio(static_cast<double>(lc.traceInstrs),
                static_cast<double>(lc.instrs)), "ratio");
    m.add("tier.traces_compiled", static_cast<double>(lc.tracesCompiled),
          "count");
}

/** Image bits per static instruction, weighted by @p programs' uses. */
double
weightedImageBits(const std::vector<std::pair<std::string,
                                              EncodingScheme>> &uses)
{
    std::map<std::pair<std::string, EncodingScheme>,
             std::pair<double, double>> memo;
    double bits = 0, instrs = 0;
    for (const auto &use : uses) {
        auto it = memo.find(use);
        if (it == memo.end()) {
            DirProgram prog = hlr::compileSource(
                workload::sampleByName(use.first).source);
            auto img = encodeDir(prog, use.second);
            it = memo.emplace(use, std::make_pair(
                                       static_cast<double>(img->bitSize()),
                                       static_cast<double>(
                                           img->numInstrs()))).first;
        }
        bits += it->second.first;
        instrs += it->second.second;
    }
    return ratio(bits, instrs);
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string config;
    std::string serveBin;
    std::string runDir;
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto val = [&](const char *flag) -> const char * {
            size_t n = std::strlen(flag);
            return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
        };
        if (const char *v = val("--workload="))
            a.workload = v;
        else if (const char *v = val("--seed=")) {
            a.seed = std::stoull(v);
            have_seed = true;
        } else if (const char *v = val("--seconds="))
            a.seconds = std::stod(v);
        else if (const char *v = val("--trace="))
            a.trace = std::string(v) == "1";
        else if (const char *v = val("--config="))
            a.config = v;
        else if (const char *v = val("--serve-bin="))
            a.serveBin = v;
        else if (const char *v = val("--run-dir="))
            a.runDir = v;
        else if (const char *v = val("--spans="))
            a.spans = v;
        else
            fatal("unknown argument '%s'", arg.c_str());
    }
    if (a.workload.empty() || !have_seed || a.seconds <= 0 ||
        a.config.empty() || a.serveBin.empty() || a.runDir.empty())
        fatal("usage: uhm_perfbench --workload=W --seed=N --seconds=S "
              "--trace=0|1 --config=FILE --serve-bin=PATH --run-dir=DIR "
              "[--spans=FILE]");
    return a;
}

/**
 * The measured phase cut by due time into windows of about
 * windowRequests requests. A window is scored only if its sender kept
 * to the schedule: lateness p99 within one period. Otherwise its
 * latencies would time the generator, or the host stalling it, rather
 * than the daemon.
 */
struct Windows
{
    size_t total = 0;
    /** Sender lateness p99 of every window. */
    std::vector<double> lateP99Ms;
    /** Latency p99 and sample count of every scored window. */
    std::vector<double> p99Ms;
    std::vector<size_t> samples;
    /** Every latency sample of the scored windows. */
    std::vector<double> scoredMs;
};

Windows
scoreWindows(const ServeResult &sr, double period_ms)
{
    Windows w;
    const size_t n = sr.latencyMs.size();
    w.total = windowCount(n);
    for (size_t k = 0; k < w.total; ++k) {
        const size_t lo = k ? windowEnd(k - 1, n) : 0, hi = windowEnd(k, n);
        const double late_p99 = quantile(
            {sr.lateMs.begin() + lo, sr.lateMs.begin() + hi}, 0.99);
        w.lateP99Ms.push_back(late_p99);
        if (late_p99 > period_ms)
            continue;
        std::vector<double> lat;
        for (size_t i = lo; i < hi; ++i)
            if (!std::isnan(sr.latencyMs[i]))
                lat.push_back(sr.latencyMs[i]);
        w.p99Ms.push_back(quantile(lat, 0.99));
        w.samples.push_back(lat.size());
        w.scoredMs.insert(w.scoredMs.end(), lat.begin(), lat.end());
    }
    return w;
}

int
runServeWorkload(const Args &a, const Config &cfg)
{
    References refs;
    ServeStream stream = makeServeStream(a.workload, cfg, a.seed,
                                         a.seconds, refs);
    const std::string socket = a.runDir + "/uhm-" +
        std::to_string(::getpid()) + ".sock";
    ServeResult sr = runServe(stream, cfg, setupRepeats(cfg, a.workload),
                              refs, a.serveBin, socket);

    const double period_ms = 1e3 / stream.rate;
    std::printf("# %s seed %llu: %zu requests at %.0f rps offered "
                "(period %.3f ms), %.1f rps achieved; generator lateness "
                "p50 %.3f ms p99 %.3f ms max %.3f ms\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), stream.ops.size(),
                stream.rate, period_ms, sr.achievedRps,
                quantile(sr.lateMs, 0.5), quantile(sr.lateMs, 0.99),
                quantile(sr.lateMs, 1.0));
    std::printf("# operations at %.0f rps: attempted %llu failed %llu "
                "(mismatched %llu, overloaded %llu, missing %llu)\n",
                stream.rate,
                static_cast<unsigned long long>(sr.tally.attempted),
                static_cast<unsigned long long>(sr.tally.failed),
                static_cast<unsigned long long>(sr.tally.mismatches),
                static_cast<unsigned long long>(sr.overloaded),
                static_cast<unsigned long long>(sr.missing));
    if (sr.lateMs.size() < stream.ops.size()) {
        std::fprintf(stderr, "run invalid: sends failed; not scored\n");
        return 3;
    }
    const Windows win = scoreWindows(sr, period_ms);
    std::printf("# windows: %zu scored of %zu (a window whose sender "
                "lateness p99 exceeds one period is not scored)\n",
                win.p99Ms.size(), win.total);
    for (size_t k = 0, v = 0; k < win.total; ++k) {
        const bool scored = win.lateP99Ms[k] <= period_ms;
        std::printf("#   window %zu: host steal %llu ticks, lateness p99 "
                    "%.3f ms, latency p99 ", k,
                    static_cast<unsigned long long>(
                        k + 1 < sr.stealTicks.size() ?
                            sr.stealTicks[k + 1] - sr.stealTicks[k] : 0),
                    win.lateP99Ms[k]);
        if (scored) {
            std::printf("%.3f ms over %zu samples\n", win.p99Ms[v],
                        win.samples[v]);
            ++v;
        }
        else
            std::printf("not scored\n");
    }
    std::map<std::string, std::vector<double>> by_program;
    for (size_t i = 0; i < stream.ops.size(); ++i)
        if (!std::isnan(sr.latencyMs[i]))
            by_program[stream.ops[i].program].push_back(sr.latencyMs[i]);
    std::printf("# latency ms by program (n p50 p90 p99):");
    for (const auto &[program, lat] : by_program)
        std::printf(" %s %zu %.2f %.2f %.2f;", program.c_str(), lat.size(),
                    quantile(lat, 0.5), quantile(lat, 0.9),
                    quantile(lat, 0.99));
    std::printf("\n");
    // Latency is scored only if the sender kept to its schedule.
    const bool latency_valid = 2 * win.p99Ms.size() >= win.total;
    if (!latency_valid)
        std::printf("# latency invalid: the generator fell behind its "
                    "schedule in more than half of the windows; "
                    "latency.* reported as 0\n");

    Tally tally = sr.tally;
    Metrics m;
    if (!a.trace) {
        // Requests carry no machine fields: the daemon's default encoding.
        std::vector<std::pair<std::string, EncodingScheme>> uses;
        for (const Op &op : stream.ops)
            uses.emplace_back(op.program, serve::MachineSettings{}.scheme);
        m.add("sim_minstr_per_s",
              ratio(static_cast<double>(sr.instrs), sr.cpuS * 1e6),
              "Minstr/s");
        printSetups(sr.setupS);
        m.add("setup_s", quantile(sr.setupS, 0.5), "s");
        m.add("peak_rss_mb", sr.peakRssMb, "MB");
        m.add("sim_cycles_per_instr",
              ratio(static_cast<double>(sr.cycles),
                    static_cast<double>(sr.instrs)), "cycles/instr");
        m.add("image_bits_per_instr", weightedImageBits(uses), "bits/instr");
    } else {
        const JsonValue &w = member(cfg.doc, a.workload);
        const size_t replay = std::min(
            stream.ops.size(),
            static_cast<size_t>(num(w, "replay_rounds")) *
                weighted(w, "programs").size());
        SpanLog log;
        LayerCounts lc;
        std::vector<const Op *> ops;
        for (const Op &op : stream.warmup)
            ops.push_back(&op);
        for (size_t i = 0; i < replay; ++i)
            ops.push_back(&stream.ops[i]);
        replayServe(ops, cfg, refs, log, lc, tally);
        SpanStats st(log);
        printLedger(a.workload, st, lc, &sr);
        addLayerMetrics(m, st, lc, &sr);
        m.add("latency.p50_ms",
              latency_valid ? quantile(win.scoredMs, 0.5) : 0.0, "ms");
        m.add("latency.p99_ms",
              latency_valid ? quantile(win.p99Ms, 0.5) : 0.0, "ms");
        log.write(a.spans);
    }
    const bool correct = tally.mismatches == 0 && refs.badReferences == 0;
    printResult(correct, tally, m);
    return 0;
}

int
runBatchWorkload(const Args &a, const Config &cfg)
{
    References refs;
    Batch b = makeBatch(cfg, a.seed, a.seconds, refs);
    Tally tally;
    Metrics m;
    if (!a.trace) {
        std::vector<double> setup_s;
        Grid grid;
        auto set_up = [&] {
            grid = Grid{}; // free the old grid first: RSS holds one
            const double t0 = cpuClockS(CLOCK_THREAD_CPUTIME_ID);
            grid = buildGrid(b);
            setup_s.push_back(cpuClockS(CLOCK_THREAD_CPUTIME_ID) - t0);
        };
        // The set-ups are spread evenly over the measured phase, between
        // sweep jobs; each one replaces the grid with an identical one.
        const unsigned repeats = setupRepeats(cfg, a.workload);
        bench::SweepRunner runner(b.workers);
        std::vector<double> latency_ms;
        uint64_t cycles = 0, instrs = 0;
        const int64_t t0 = nowNs();
        const double cpu0 = cpuClockS(CLOCK_PROCESS_CPUTIME_ID);
        for (size_t j = 0, rep = 0; j < b.jobs.size(); ++j) {
            if (rep < repeats && j >= rep * b.jobs.size() / repeats) {
                set_up();
                ++rep;
            }
            const int64_t j0 = nowNs();
            bench::SweepReport report =
                bench::runSweep(runner, grid.points.at(b.jobs[j]));
            latency_ms.push_back(static_cast<double>(nowNs() - j0) / 1e6);
            for (const RunResult &r : report.results) {
                const bool mismatch =
                    r.output != refs.output.at(b.jobs[j]);
                tally.record(!mismatch, mismatch);
                cycles += r.cycles;
                instrs += r.dirInstrs;
            }
        }
        const double wall_us = static_cast<double>(nowNs() - t0) / 1e3;
        double cpu_s = cpuClockS(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
        for (double t : setup_s)
            cpu_s -= t;
        const double peak_rss_mb = peakRssMb(::getpid());
        // Every job runs each scheme on the same number of organizations,
        // so weighting by job and scheme weights by point.
        double bits = 0, static_instrs = 0;
        for (const std::string &job : b.jobs)
            for (EncodingScheme scheme : b.schemes) {
                const auto &[img_bits, img_instrs] =
                    grid.imageSize.at({job, scheme});
                bits += img_bits;
                static_instrs += img_instrs;
            }
        std::printf("# batch_sweep seed %llu: %zu sweep jobs of %zu points "
                    "on %u workers in %.2f s; points attempted %llu "
                    "failed %llu\n",
                    static_cast<unsigned long long>(a.seed), b.jobs.size(),
                    b.kinds.size() * b.schemes.size(), b.workers,
                    wall_us / 1e6,
                    static_cast<unsigned long long>(tally.attempted),
                    static_cast<unsigned long long>(tally.failed));
        std::printf("# sweep job wall ms: p50 %.3f p99 %.3f over %zu jobs; "
                    "sweep CPU %.3f s\n", quantile(latency_ms, 0.5),
                    quantile(latency_ms, 0.99), latency_ms.size(), cpu_s);
        m.add("sim_minstr_per_s", ratio(static_cast<double>(instrs),
                                        cpu_s * 1e6), "Minstr/s");
        printSetups(setup_s);
        m.add("setup_s", quantile(setup_s, 0.5), "s");
        m.add("peak_rss_mb", peak_rss_mb, "MB");
        m.add("sim_cycles_per_instr",
              ratio(static_cast<double>(cycles),
                    static_cast<double>(instrs)), "cycles/instr");
        m.add("image_bits_per_instr", ratio(bits, static_instrs),
              "bits/instr");
    } else {
        const JsonValue &w = member(cfg.doc, "batch_sweep");
        const size_t replay = std::min(
            b.jobs.size(), static_cast<size_t>(num(w, "replay_rounds")) *
                               weighted(w, "programs").size());
        SpanLog log;
        LayerCounts lc;
        std::set<std::tuple<std::string, EncodingScheme, MachineKind>>
            probed;
        for (size_t j = 0; j < replay; ++j) {
            const std::string &job = b.jobs[j];
            const workload::SampleProgram &s = workload::sampleByName(job);
            for (EncodingScheme scheme : b.schemes) {
                lc.addImage(job, s.source, scheme);
                for (MachineKind kind : b.kinds) {
                    const bool probe =
                        probed.insert({job, scheme, kind}).second;
                    replayPoint(log, lc, s, scheme, kind, probe,
                                refs.output.at(job), tally);
                }
            }
        }
        SpanStats st(log);
        printLedger(a.workload, st, lc, nullptr);
        addLayerMetrics(m, st, lc, nullptr);
        // No request latency: batch_sweep has no daemon.
        m.add("latency.p50_ms", 0.0, "ms");
        m.add("latency.p99_ms", 0.0, "ms");
        log.write(a.spans);
    }
    const bool correct = tally.mismatches == 0 && refs.badReferences == 0;
    printResult(correct, tally, m);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        const Config cfg = loadConfig(a.config);
        if (a.workload == "serve_warm" || a.workload == "serve_cold")
            return runServeWorkload(a, cfg);
        if (a.workload == "batch_sweep")
            return runBatchWorkload(a, cfg);
        fatal("unknown workload '%s'", a.workload.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "uhm_perfbench: %s\n", e.what());
        return 1;
    }
}
