/**
 * @file
 * The uhm_serve daemon core: a unix-domain JSONL request server over
 * the session cache and the work-stealing thread pool.
 *
 * Thread structure:
 *
 *  - one acceptor thread (poll + accept, so stop() is noticed),
 *  - one reader thread per connection: frames request lines, performs
 *    admission control, and submits admitted requests to the pool —
 *    never touches a machine, so admission latency stays in
 *    microseconds even under load,
 *  - the ThreadPool workers execute requests. A run executes as a
 *    chain of bounded Machine::runSlice() calls, the job resubmitting
 *    itself between slices, so a long run shares the workers with
 *    short requests instead of starving them (the PR-6 slice API as a
 *    fairness device).
 *
 * Backpressure: at most ServerConfig::maxQueue requests may be in
 * flight (admitted, not yet responded). Beyond that the reader writes
 * an explicit `overloaded` error response immediately — the client
 * always learns its request's fate; nothing queues unboundedly.
 *
 * Responses are written under a per-connection mutex as one atomic
 * block (header + payload), in completion order. Profile payloads come
 * from uhm::profileJsonl on the machine's RunResult — the same bytes a
 * cold `uhm_cli --profile` run emits. A `stats` reply streams its
 * event lines to the socket in bounded chunks under that mutex, so no
 * reply holds the rendered event ring.
 */

#ifndef UHM_SERVE_SERVER_HH
#define UHM_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <map>

#include "obs/report.hh"
#include "obs/window.hh"
#include "serve/cache.hh"
#include "support/pool.hh"

namespace uhm::serve
{

/** Daemon knobs. */
struct ServerConfig
{
    /** Largest serve-track event ring --timeline-events accepts. The
     *  capacity is a ceiling: the ring grows as events arrive. */
    static constexpr size_t maxEventCapacity = size_t{1} << 24;

    std::string socketPath = "/tmp/uhm_serve.sock";
    /** Pool worker count (0 = defaultJobs()). */
    unsigned workers = 0;
    /** Session-cache capacity. */
    size_t maxSessions = 32;
    /** Max in-flight requests before `overloaded` rejections. */
    size_t maxQueue = 128;
    /** Cycle budget per runSlice() call (fairness granule). */
    uint64_t sliceCycles = 50'000;
    /** serve-track event ring ceiling (--timeline-events). */
    size_t eventCapacity = 1 << 20;
    /** Rolling metrics window width in microseconds (--window). */
    uint64_t windowUs = 60'000'000;
};

/** One accepted connection (shared by its reader and its jobs). */
struct Connection
{
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /**
     * Write one atomic response block; errors mark the peer dead. When
     * @p events is set, its JSONL event lines follow @p text in the
     * same block, rendered and sent a bounded chunk at a time.
     */
    void writeBlock(const std::string &text,
                    const std::vector<obs::Event> *events = nullptr);

    const int fd;
    std::mutex writeMutex;
    std::atomic<bool> dead{false};

  private:
    /** Send all of @p text; called with writeMutex held. */
    void sendLocked(const std::string &text);
};

/** The daemon. */
class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and start the acceptor. Fatal on bind failure. */
    void start();

    /** True once a shutdown request (or stop()) has been seen. */
    bool stopRequested() const { return stopping_.load(); }

    /** Block until stopRequested() (the daemon main loop's wait). */
    void waitForStop();

    /**
     * Stop accepting, drain in-flight requests, join every thread and
     * close the socket. Idempotent.
     */
    void stop();

    /**
     * The serve.* observability snapshot: request/cache counters,
     * wait/service/queue-depth histograms, and the serve-track event
     * trace. @p reset zeroes the counters and histograms after the
     * snapshot (the event ring always keeps accumulating).
     */
    obs::ProfileData statsProfile(bool reset);

    const ServerConfig &config() const { return config_; }

  private:
    /** One admitted request mid-flight. */
    struct Pending
    {
        std::shared_ptr<Connection> conn;
        Request req;
        std::shared_ptr<Session> session;
        bool cached = false;
        /** Server-assigned monotonic request id: the `addr` of every
         *  serve-track event this request emits, which is what the
         *  timeline exporter keys its per-request span trees on. */
        uint64_t rid = 0;
        /** Monitoring verbs (stats/metrics) stay out of the latency
         *  ledger they report — see proto.hh. */
        bool monitoring = false;
        uint64_t enqueueUs = 0;
        uint64_t beginUs = 0;
    };

    /** Microseconds since the server started. */
    uint64_t nowUs() const;

    void acceptLoop();
    void readerLoop(std::shared_ptr<Connection> conn);

    /** Reader-side: answer a line that is never admitted (malformed,
     *  overlong, or sent while stopping) with an error response. */
    void refuseLine(Connection &conn, uint64_t id, const std::string &code,
                    const std::string &message);

    /** Reader-side: admit or reject one raw request line. */
    void admitLine(const std::shared_ptr<Connection> &conn,
                   const std::string &line);

    /** First pool step: resolve the session and start the verb. */
    void startRequest(std::shared_ptr<Pending> p);

    /** One bounded execution slice; resubmits itself until HALT. */
    void runSliceStep(std::shared_ptr<Pending> p);

    /** Write the final response and retire the request. The payload
     *  is @p payload, then the JSONL lines of @p events when set. */
    void finishRequest(const std::shared_ptr<Pending> &p,
                       ResponseInfo info, const std::string &payload,
                       const std::vector<obs::Event> *events = nullptr);

    /**
     * Write an error response and retire the request. A session the
     * request holds goes back to the cache, or — when @p poisoned (an
     * unexpected exception left its machine in an unknown state) — is
     * discarded so no later request reuses it.
     */
    void failRequest(const std::shared_ptr<Pending> &p,
                     const std::string &code, const std::string &message,
                     bool poisoned = false);

    /** Drop one in-flight slot and open its response write. Called
     *  with statsMutex_ held, in the same critical section that
     *  records the request's stats: once a client holds a response
     *  the ledger is settled (the metrics byte-identity contract). */
    void retireLocked(bool monitoring);

    /** Close a response write opened by retireLocked(); wakes the
     *  drain wait once nothing is in flight or mid-send. */
    void writeDone();

    /** Stamp the session-acquire event for @p p (post-acquire). */
    void recordAcquire(const std::shared_ptr<Pending> &p);

    /** One-shot stderr warning when the event ring starts dropping. */
    void maybeWarnDropsLocked();

    /** The `metrics` verb payloads (self-locking). */
    std::string metricsJson();
    std::string metricsProm();

    ServerConfig config_;
    int listenFd_ = -1;
    std::thread acceptor_;
    std::atomic<bool> stopping_{false};
    bool stopped_ = false;

    std::mutex connMutex_;
    std::vector<std::thread> readers_;
    std::vector<std::weak_ptr<Connection>> conns_;

    std::unique_ptr<ThreadPool> pool_;
    SessionCache cache_;

    std::chrono::steady_clock::time_point epoch_;

    /** Guards the counters, histograms, tracer and inflight_. */
    mutable std::mutex statsMutex_;
    std::condition_variable drainCv_;
    size_t inflight_ = 0;
    uint64_t requests_ = 0;
    uint64_t responses_ = 0;
    uint64_t errors_ = 0;
    uint64_t overloaded_ = 0;
    /** Next request id (rids start at 1; 0 = never admitted). */
    uint64_t nextRid_ = 0;
    /** Monitoring-verb traffic, tracked apart from the workload ledger
     *  so the ledger the `metrics` verb reports is invariant under the
     *  act of reading it (the byte-identity contract). */
    uint64_t monitoringRequests_ = 0;
    uint64_t monitoringResponses_ = 0;
    size_t monitoringInflight_ = 0;
    /** Responses being written right now (slot already released);
     *  stop() drains these too, so teardown never races a send. */
    size_t writing_ = 0;
    /** Lifetime workload requests per verb name. */
    std::map<std::string, uint64_t> verbCounts_;
    obs::Histogram waitUs_;
    obs::Histogram serviceUs_;
    obs::Histogram queueDepth_;
    obs::RollingWindow window_;
    obs::Tracer tracer_;
    /** The drop warning fired (it is one-shot). */
    bool dropWarned_ = false;

    std::mutex stopMutex_;
    std::condition_variable stopCv_;
};

} // namespace uhm::serve

#endif // UHM_SERVE_SERVER_HH
