#include "serve/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "bench_common.hh"
#include "dir/serialize.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "uhm/profile.hh"

namespace uhm::serve
{

namespace
{

/** Payload lines = '\n' count (every payload line is terminated). */
size_t
countLines(const std::string &payload)
{
    size_t n = 0;
    for (char c : payload)
        if (c == '\n')
            ++n;
    return n;
}

/** The program_hash compile and encode replies carry: FNV-1a of the
 *  serialized program. Computed per reply, since no other reply and no
 *  cache lookup reads it. */
uint64_t
programHash(const DirProgram &program)
{
    std::vector<uint8_t> bytes = serializeDirProgram(program);
    return fnv1a(bytes.data(), bytes.size());
}

} // anonymous namespace

Connection::~Connection()
{
    ::close(fd);
}

void
Connection::writeBlock(const std::string &text,
                       const std::vector<obs::Event> *events)
{
    std::lock_guard<std::mutex> lock(writeMutex);
    sendLocked(text);
    if (events != nullptr)
        obs::writeEventsJsonl(*events, [this](const std::string &chunk) {
            sendLocked(chunk);
        });
}

void
Connection::sendLocked(const std::string &text)
{
    if (dead.load())
        return;
    size_t off = 0;
    while (off < text.size()) {
        ssize_t n = ::send(fd, text.data() + off, text.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            dead.store(true);
            return;
        }
        off += static_cast<size_t>(n);
    }
}

Server::Server(ServerConfig config)
    : config_(std::move(config)), cache_(config_.maxSessions),
      epoch_(std::chrono::steady_clock::now()),
      window_(config_.windowUs)
{
    tracer_.enable(config_.eventCapacity);
}

Server::~Server()
{
    stop();
}

uint64_t
Server::nowUs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
Server::start()
{
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("socket: %s", std::strerror(errno));

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socketPath.size() >= sizeof(addr.sun_path))
        fatal("socket path '%s' too long", config_.socketPath.c_str());
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        fatal("bind '%s': %s", config_.socketPath.c_str(),
              std::strerror(errno));
    if (::listen(listenFd_, 64) < 0)
        fatal("listen: %s", std::strerror(errno));

    pool_ = std::make_unique<ThreadPool>(config_.workers);
    acceptor_ = std::thread([this] { acceptLoop(); });
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Connection>(fd);
        std::lock_guard<std::mutex> lock(connMutex_);
        conns_.push_back(conn);
        readers_.emplace_back(
            [this, conn = std::move(conn)]() mutable {
                readerLoop(std::move(conn));
            });
    }
}

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
    std::string buffer;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        buffer.append(chunk, static_cast<size_t>(n));
        size_t start = 0;
        for (;;) {
            size_t eol = buffer.find('\n', start);
            // A line past the bound is refused without waiting for
            // its end; the reader then stops and the connection closes.
            const size_t end =
                eol == std::string::npos ? buffer.size() : eol;
            if (end - start > maxRequestLineBytes) {
                refuseLine(*conn, 0, "bad_request",
                           "request line longer than " +
                               std::to_string(maxRequestLineBytes) +
                               " bytes");
                return;
            }
            if (eol == std::string::npos)
                break;
            std::string line = buffer.substr(start, eol - start);
            start = eol + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                admitLine(conn, line);
        }
        buffer.erase(0, start);
    }
}

void
Server::refuseLine(Connection &conn, uint64_t id, const std::string &code,
                   const std::string &message)
{
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++requests_;
        ++errors_;
    }
    conn.writeBlock(errorHeader(id, code, message) + "\n");
}

void
Server::admitLine(const std::shared_ptr<Connection> &conn,
                  const std::string &line)
{
    Request req;
    std::string err;
    if (!parseRequest(line, req, err)) {
        refuseLine(*conn, req.id, "bad_request", err);
        return;
    }
    if (stopping_.load()) {
        refuseLine(*conn, req.id, "shutting_down", "the server is stopping");
        return;
    }
    // Monitoring verbs bypass the workload ledger *and* the admission
    // bound: the overload path must stay observable from outside.
    const bool monitoring =
        req.verb == Verb::Stats || req.verb == Verb::Metrics;
    const uint64_t now = nowUs();
    bool rejected = false;
    uint64_t rid = 0;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++requests_;
        rid = ++nextRid_;
        if (monitoring) {
            ++monitoringRequests_;
            ++monitoringInflight_;
        } else {
            ++verbCounts_[verbName(req.verb)];
            window_.count("requests", now);
            window_.count(std::string("verb.") + verbName(req.verb),
                          now);
            if (inflight_ >= config_.maxQueue) {
                ++overloaded_;
                ++errors_;
                tracer_.record(obs::EventKind::ServeReject, now, rid,
                               inflight_);
                window_.count("overloaded", now);
                window_.count("errors", now);
                rejected = true;
            } else {
                ++inflight_;
                queueDepth_.record(inflight_);
                window_.record("queue_depth", now, inflight_);
                tracer_.record(
                    obs::EventKind::ServeEnqueue, now, rid,
                    (static_cast<uint64_t>(inflight_) << 8) |
                        static_cast<uint64_t>(req.verb));
            }
        }
    }
    if (rejected) {
        conn->writeBlock(errorHeader(
            req.id, "overloaded",
            "request queue is full (max " +
                std::to_string(config_.maxQueue) + ")") + "\n");
        return;
    }
    auto p = std::make_shared<Pending>();
    p->conn = conn;
    p->req = std::move(req);
    p->rid = rid;
    p->monitoring = monitoring;
    p->enqueueUs = now;
    pool_->submit([this, p] { startRequest(p); });
}

void
Server::startRequest(std::shared_ptr<Pending> p)
{
    p->beginUs = nowUs();
    if (!p->monitoring) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        tracer_.record(obs::EventKind::ServeBegin, p->beginUs,
                       p->rid, p->beginUs - p->enqueueUs);
    }
    try {
        switch (p->req.verb) {
          case Verb::Ping: {
            finishRequest(p, ResponseInfo{}, "");
            return;
          }
          case Verb::Shutdown: {
            finishRequest(p, ResponseInfo{}, "");
            stopping_.store(true);
            stopCv_.notify_all();
            return;
          }
          case Verb::Stats: {
            // The event lines stream to the socket after the head.
            obs::ProfileData profile = statsProfile(p->req.resetStats);
            finishRequest(p, ResponseInfo{}, obs::toJsonlHead(profile),
                          &profile.events);
            return;
          }
          case Verb::Metrics: {
            finishRequest(p, ResponseInfo{},
                          p->req.format == "prometheus" ?
                              metricsProm() : metricsJson());
            return;
          }
          case Verb::Compile:
          case Verb::Encode: {
            p->session = cache_.acquire(p->req, p->cached);
            recordAcquire(p);
            ResponseInfo info;
            info.hasCached = true;
            info.cached = p->cached;
            info.hasProgramSummary = true;
            info.instrs = p->session->program.size();
            info.programHash = programHash(p->session->program);
            if (p->req.verb == Verb::Encode)
                info.imageBits = p->session->image->bitSize();
            if (p->req.disasm)
                info.disasm = p->session->program.disassemble();
            cache_.release(p->session);
            p->session.reset();
            finishRequest(p, info, "");
            return;
          }
          case Verb::Run:
          case Verb::Profile: {
            p->session = cache_.acquire(p->req, p->cached);
            recordAcquire(p);
            const std::vector<int64_t> &input = p->req.inputGiven ?
                p->req.input : p->session->defaultInput;
            p->session->machine->beginRun(input);
            runSliceStep(std::move(p));
            return;
          }
          case Verb::Sweep: {
            // One sweep request = one pool task; the report is built
            // by a single-worker runner so its bytes match
            // `uhm_cli sweep` for any server parallelism.
            bench::SweepRunner runner(1);
            bench::SweepReport report = bench::runSweep(
                runner, bench::sweepPoints(p->req.programs,
                                           p->req.machine, p->req.seed));
            finishRequest(p, ResponseInfo{}, report.jsonl);
            return;
          }
        }
        failRequest(p, "bad_request", "unhandled verb");
    } catch (const FatalError &e) {
        failRequest(p, "bad_request", e.what());
    } catch (const std::exception &e) {
        failRequest(p, "internal_error", e.what(), true);
    }
}

void
Server::recordAcquire(const std::shared_ptr<Pending> &p)
{
    const uint64_t now = nowUs();
    std::lock_guard<std::mutex> lock(statsMutex_);
    tracer_.record(obs::EventKind::ServeAcquire, now, p->rid,
                   (p->session->keyHash << 1) |
                       static_cast<uint64_t>(p->cached ? 1 : 0));
    window_.count(p->cached ? "cache.hits" : "cache.misses", now);
}

void
Server::runSliceStep(std::shared_ptr<Pending> p)
{
    const uint64_t sliceStartUs = nowUs();
    try {
        uint64_t consumed =
            p->session->machine->runSlice(config_.sliceCycles);
        {
            const uint64_t end = nowUs();
            const uint64_t sliceUs = end - sliceStartUs;
            // arg packing: low 20 bits wall microseconds, high 44 bits
            // simulated cycles, both saturating.
            const uint64_t cyc =
                std::min<uint64_t>(consumed, (uint64_t{1} << 44) - 1);
            std::lock_guard<std::mutex> lock(statsMutex_);
            tracer_.record(obs::EventKind::ServeSlice, end, p->rid,
                           (cyc << 20) |
                               std::min<uint64_t>(sliceUs, 0xFFFFF));
            window_.record("slice_us", end, sliceUs);
        }
        if (!p->session->machine->finished()) {
            pool_->submit([this, p] { runSliceStep(p); });
            return;
        }
        RunResult r = p->session->machine->finishRun();

        ProfileMeta meta;
        meta.program = p->session->label;
        meta.machine = machineKindName(p->req.machine.kind);
        meta.encoding = encodingName(p->req.machine.scheme);
        meta.imageBits = p->session->image->bitSize();

        ResponseInfo info;
        info.hasCached = true;
        info.cached = p->cached;
        info.hasRunSummary = true;
        info.output = r.output;
        info.cycles = r.cycles;
        info.dirInstrs = r.dirInstrs;

        std::string payload;
        if (p->req.profile)
            payload = profileJsonl(meta, r);

        cache_.release(p->session);
        p->session.reset();
        finishRequest(p, info, payload);
    } catch (const FatalError &e) {
        failRequest(p, "bad_request", e.what());
    } catch (const std::exception &e) {
        failRequest(p, "internal_error", e.what(), true);
    }
}

void
Server::finishRequest(const std::shared_ptr<Pending> &p,
                      ResponseInfo info, const std::string &payload,
                      const std::vector<obs::Event> *events)
{
    uint64_t end = nowUs();
    info.id = p->req.id;
    info.verb = p->req.verb;
    info.waitUs = p->beginUs - p->enqueueUs;
    info.serviceUs = end - p->beginUs;
    // One line per event: event lines carry no escaped newlines.
    const size_t lines =
        countLines(payload) + (events != nullptr ? events->size() : 0);
    std::string text = successHeader(info, lines) + "\n" + payload;
    // Record before writing: once a client holds the response, the
    // request's latency is visible in stats/metrics — the ordering the
    // serve tests lean on.
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++responses_;
        if (p->monitoring) {
            ++monitoringResponses_;
        } else {
            waitUs_.record(info.waitUs);
            serviceUs_.record(info.serviceUs);
            window_.count("responses", end);
            window_.record("wait_us", end, info.waitUs);
            window_.record("service_us", end, info.serviceUs);
            tracer_.record(obs::EventKind::ServeDone, end, p->rid,
                           info.serviceUs);
        }
        maybeWarnDropsLocked();
        // Release the slot with the stats, not after the write: a
        // client holding its response must find the daemon's ledger
        // fully settled (the metrics byte-identity contract). The
        // writing_ count keeps stop()'s drain honest about the send.
        retireLocked(p->monitoring);
    }
    p->conn->writeBlock(text, events);
    writeDone();
}

void
Server::failRequest(const std::shared_ptr<Pending> &p,
                    const std::string &code, const std::string &message,
                    bool poisoned)
{
    if (p->session) {
        if (poisoned)
            cache_.discard(p->session);
        else
            cache_.release(p->session);
        p->session.reset();
    }
    const uint64_t end = nowUs();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++errors_;
        if (!p->monitoring) {
            window_.count("errors", end);
            tracer_.record(obs::EventKind::ServeDone, end, p->rid, 0);
        }
        maybeWarnDropsLocked();
        retireLocked(p->monitoring);
    }
    p->conn->writeBlock(errorHeader(p->req.id, code, message) + "\n");
    writeDone();
}

void
Server::retireLocked(bool monitoring)
{
    if (monitoring)
        --monitoringInflight_;
    else
        --inflight_;
    ++writing_;
}

void
Server::writeDone()
{
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        --writing_;
    }
    drainCv_.notify_all();
}

void
Server::maybeWarnDropsLocked()
{
    if (dropWarned_ || tracer_.dropped() == 0)
        return;
    dropWarned_ = true;
    std::fprintf(stderr,
                 "# uhm_serve: timeline ring dropped %llu of %llu "
                 "events (capacity %zu); raise --timeline-events=N "
                 "for complete request traces\n",
                 static_cast<unsigned long long>(tracer_.dropped()),
                 static_cast<unsigned long long>(tracer_.seen()),
                 tracer_.capacity());
}

void
Server::waitForStop()
{
    std::unique_lock<std::mutex> lock(stopMutex_);
    stopCv_.wait(lock, [this] { return stopping_.load(); });
}

void
Server::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    stopping_.store(true);
    stopCv_.notify_all();
    if (acceptor_.joinable())
        acceptor_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // Drain in-flight requests before tearing down the connections
    // their responses go to.
    {
        std::unique_lock<std::mutex> lock(statsMutex_);
        drainCv_.wait(lock, [this] {
            return inflight_ == 0 && monitoringInflight_ == 0 &&
                writing_ == 0;
        });
    }
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const auto &weak : conns_) {
            if (auto conn = weak.lock())
                ::shutdown(conn->fd, SHUT_RDWR);
        }
    }
    for (std::thread &reader : readers_)
        reader.join();
    readers_.clear();
    conns_.clear();
    pool_.reset();
    ::unlink(config_.socketPath.c_str());
}

obs::ProfileData
Server::statsProfile(bool reset)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    obs::ProfileData profile;
    profile.meta.emplace_back("program", "serve");
    profile.meta.emplace_back("machine", "daemon");
    profile.meta.emplace_back("encoding", "jsonl");

    CacheStats cache = cache_.stats();
    profile.counters["serve.requests"] = requests_;
    profile.counters["serve.responses"] = responses_;
    profile.counters["serve.errors"] = errors_;
    profile.counters["serve.overloaded"] = overloaded_;
    profile.counters["serve.inflight"] = inflight_;
    profile.counters["serve.monitoring.requests"] = monitoringRequests_;
    profile.counters["serve.monitoring.responses"] =
        monitoringResponses_;
    profile.counters["serve.cache.size"] = cache_.size();
    profile.counters["serve.cache.hits"] = cache.hits;
    profile.counters["serve.cache.misses"] = cache.misses;
    profile.counters["serve.cache.evictions"] = cache.evictions;
    profile.counters["serve.cache.evict_rejected"] = cache.evictRejected;
    profile.counters["serve.cache.busy_bypass"] = cache.busyBypass;
    for (const auto &[name, count] : verbCounts_)
        profile.counters["serve.verb." + name] = count;

    profile.histograms["serve.wait_us"] = waitUs_.snapshot();
    profile.histograms["serve.service_us"] = serviceUs_.snapshot();
    profile.histograms["serve.queue_depth"] = queueDepth_.snapshot();

    profile.ratios.emplace_back(
        "events.drop_rate",
        tracer_.seen() == 0 ?
            0.0 :
            static_cast<double>(tracer_.dropped()) /
                static_cast<double>(tracer_.seen()));

    profile.events = tracer_.events();
    profile.eventsSeen = tracer_.seen();
    profile.eventsDropped = tracer_.dropped();

    if (reset) {
        requests_ = responses_ = errors_ = overloaded_ = 0;
        // The monitoring side resets with the ledger it shadows, so
        // the (requests - monitoring) differences stay consistent.
        monitoringRequests_ = monitoringResponses_ = 0;
        verbCounts_.clear();
        waitUs_.reset();
        serviceUs_.reset();
        queueDepth_.reset();
        window_.reset();
    }
    return profile;
}

namespace
{

/** One latency/depth quantile summary object for the metrics line. */
void
writeQuantiles(JsonWriter &jw, const obs::HistogramSnapshot &h)
{
    jw.beginObject();
    jw.key("p50").value(obs::histogramPercentile(h, 0.50));
    jw.key("p95").value(obs::histogramPercentile(h, 0.95));
    jw.key("p99").value(obs::histogramPercentile(h, 0.99));
    jw.key("mean").value(
        h.count == 0 ? 0.0 :
            static_cast<double>(h.sum) / static_cast<double>(h.count));
    jw.key("max").value(h.max);
    jw.key("count").value(h.count);
    jw.endObject();
}

/** hits/(hits+misses); 0.0 on no traffic. */
double
hitRate(uint64_t hits, uint64_t misses)
{
    return hits + misses == 0 ?
        0.0 :
        static_cast<double>(hits) / static_cast<double>(hits + misses);
}

} // anonymous namespace

std::string
Server::metricsJson()
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    obs::WindowSnapshot w = window_.snapshot();
    CacheStats cache = cache_.stats();

    JsonWriter jw;
    jw.beginObject();
    jw.key("type").value("metrics");
    jw.key("window_us").value(w.windowUs);
    jw.key("span_us").value(w.spanUs);

    jw.key("window").beginObject();
    jw.key("requests").value(w.counter("requests"));
    jw.key("responses").value(w.counter("responses"));
    jw.key("errors").value(w.counter("errors"));
    jw.key("overloaded").value(w.counter("overloaded"));
    jw.key("rps").value(
        w.spanUs == 0 ?
            0.0 :
            static_cast<double>(w.counter("responses")) * 1e6 /
                static_cast<double>(w.spanUs));
    jw.key("wait_us");
    writeQuantiles(jw, w.histograms["wait_us"]);
    jw.key("service_us");
    writeQuantiles(jw, w.histograms["service_us"]);
    jw.key("slice_us");
    writeQuantiles(jw, w.histograms["slice_us"]);
    jw.key("queue_depth");
    writeQuantiles(jw, w.histograms["queue_depth"]);
    const uint64_t whits = w.counter("cache.hits");
    const uint64_t wmisses = w.counter("cache.misses");
    jw.key("cache").beginObject();
    jw.key("hits").value(whits);
    jw.key("misses").value(wmisses);
    jw.key("hit_rate").value(hitRate(whits, wmisses));
    jw.endObject();
    jw.key("verbs").beginObject();
    for (const auto &[name, count] : w.counters) {
        if (name.rfind("verb.", 0) == 0)
            jw.key(name.substr(5)).value(count);
    }
    jw.endObject();
    jw.endObject();

    jw.key("lifetime").beginObject();
    jw.key("requests").value(requests_ - monitoringRequests_);
    jw.key("responses").value(responses_ - monitoringResponses_);
    jw.key("errors").value(errors_);
    jw.key("overloaded").value(overloaded_);
    jw.key("inflight").value(static_cast<uint64_t>(inflight_));
    jw.key("wait_us");
    writeQuantiles(jw, waitUs_.snapshot());
    jw.key("service_us");
    writeQuantiles(jw, serviceUs_.snapshot());
    jw.key("queue_depth");
    writeQuantiles(jw, queueDepth_.snapshot());
    jw.key("cache").beginObject();
    jw.key("hits").value(cache.hits);
    jw.key("misses").value(cache.misses);
    jw.key("hit_rate").value(hitRate(cache.hits, cache.misses));
    jw.key("evictions").value(cache.evictions);
    jw.key("sessions").value(static_cast<uint64_t>(cache_.size()));
    jw.endObject();
    jw.key("verbs").beginObject();
    for (const auto &[name, count] : verbCounts_)
        jw.key(name).value(count);
    jw.endObject();
    jw.endObject();

    jw.key("events").beginObject();
    jw.key("seen").value(tracer_.seen());
    jw.key("dropped").value(tracer_.dropped());
    jw.key("drop_rate").value(
        tracer_.seen() == 0 ?
            0.0 :
            static_cast<double>(tracer_.dropped()) /
                static_cast<double>(tracer_.seen()));
    jw.endObject();
    jw.endObject();
    return jw.str() + "\n";
}

std::string
Server::metricsProm()
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    obs::WindowSnapshot w = window_.snapshot();
    CacheStats cache = cache_.stats();

    std::string out;
    auto fmt = [](double v) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        return std::string(buf);
    };
    auto head = [&out](const std::string &name, const char *type,
                       const char *help) {
        out += "# HELP " + name + " " + help + "\n";
        out += "# TYPE " + name + " " + type + "\n";
    };
    auto counter = [&](const std::string &name, const char *help,
                       uint64_t v) {
        head(name, "counter", help);
        out += name + " " + std::to_string(v) + "\n";
    };
    auto gauge = [&](const std::string &name, const char *help,
                     double v) {
        head(name, "gauge", help);
        out += name + " " + fmt(v) + "\n";
    };
    // Summaries report the rolling window, not the lifetime: a scrape
    // wants "now", and the _total counters already carry forever.
    auto summary = [&](const std::string &name, const char *help,
                       const obs::HistogramSnapshot &h, double scale) {
        head(name, "summary", help);
        const std::pair<const char *, double> quantiles[] = {
            {"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}};
        for (const auto &[label, q] : quantiles)
            out += name + "{quantile=\"" + label + "\"} " +
                fmt(obs::histogramPercentile(h, q) * scale) + "\n";
        out += name + "_sum " +
            fmt(static_cast<double>(h.sum) * scale) + "\n";
        out += name + "_count " + std::to_string(h.count) + "\n";
    };

    counter("uhm_serve_requests_total",
            "Workload requests admitted or rejected.",
            requests_ - monitoringRequests_);
    counter("uhm_serve_responses_total",
            "Successful workload responses written.",
            responses_ - monitoringResponses_);
    counter("uhm_serve_errors_total", "Error responses written.",
            errors_);
    counter("uhm_serve_overloaded_total",
            "Requests rejected by admission control.", overloaded_);
    head("uhm_serve_requests_by_verb_total",
         "counter", "Workload requests by verb.");
    for (const auto &[name, count] : verbCounts_)
        out += "uhm_serve_requests_by_verb_total{verb=\"" + name +
            "\"} " + std::to_string(count) + "\n";
    gauge("uhm_serve_inflight", "Workload requests in flight.",
          static_cast<double>(inflight_));
    gauge("uhm_serve_requests_per_second",
          "Windowed response rate.",
          w.spanUs == 0 ?
              0.0 :
              static_cast<double>(w.counter("responses")) * 1e6 /
                  static_cast<double>(w.spanUs));
    counter("uhm_serve_cache_hits_total", "Session-cache hits.",
            cache.hits);
    counter("uhm_serve_cache_misses_total", "Session-cache misses.",
            cache.misses);
    counter("uhm_serve_cache_evictions_total",
            "Session-cache evictions.", cache.evictions);
    gauge("uhm_serve_cache_hit_rate", "Windowed session-cache hit rate.",
          hitRate(w.counter("cache.hits"), w.counter("cache.misses")));
    gauge("uhm_serve_cache_sessions", "Sessions currently cached.",
          static_cast<double>(cache_.size()));
    summary("uhm_serve_wait_seconds", "Windowed queue wait.",
            w.histograms["wait_us"], 1e-6);
    summary("uhm_serve_service_seconds", "Windowed service time.",
            w.histograms["service_us"], 1e-6);
    summary("uhm_serve_queue_depth", "Windowed queue depth at admission.",
            w.histograms["queue_depth"], 1.0);
    counter("uhm_serve_events_seen_total",
            "Serve-track events recorded.", tracer_.seen());
    counter("uhm_serve_events_dropped_total",
            "Serve-track events lost to ring overwrite.",
            tracer_.dropped());
    gauge("uhm_serve_event_drop_rate",
          "Fraction of serve-track events dropped.",
          tracer_.seen() == 0 ?
              0.0 :
              static_cast<double>(tracer_.dropped()) /
                  static_cast<double>(tracer_.seen()));
    return out;
}

} // namespace uhm::serve
