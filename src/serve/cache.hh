/**
 * @file
 * The session cache: warm compiled/encoded/instantiated state, keyed
 * by what the request asked to run.
 *
 * A Session is the full artifact chain for one (program, machine
 * settings) pair — the compiled DirProgram, its encoded image (the
 * decode memo lives inside the image's decoder state), and a
 * constructed Machine. Machine::beginRun() fully resets the machine,
 * so re-running a warm session is byte-identical to a cold one; the
 * cache only skips the compile/encode/construct work, never the reset.
 *
 * Keying: MachineSettings::fingerprint() × what to run — a sample's
 * name, the synthetic seed, or an inline source's full text (never a
 * hash of it, which two sources could share). The run input is
 * deliberately NOT part of the key — beginRun() takes the input per
 * run, so one warm session serves every input.
 *
 * Eviction: bounded LRU over *idle* sessions. A session that is
 * executing a request is busy and pinned — an eviction that would
 * select it is rejected (serve.cache.evict_rejected) rather than
 * tearing a machine out from under a run. When the cache is full of
 * busy sessions, or a second request arrives for a busy session, the
 * requester gets a private transient session (serve.cache.busy_bypass)
 * that is dropped after the run instead of inserted.
 */

#ifndef UHM_SERVE_CACHE_HH
#define UHM_SERVE_CACHE_HH

#include <map>
#include <memory>
#include <mutex>

#include "serve/proto.hh"

namespace uhm::serve
{

/** One warm artifact chain; owned by the cache (or one request). */
struct Session
{
    /** Cache key (empty for transient sessions). */
    std::string key;
    /** FNV-1a of the cache key — the session tag serve-track acquire
     *  events carry (stable even for transient sessions, whose key is
     *  cleared on the losing side of a build race). */
    uint64_t keyHash = 0;
    /** Program name for profile meta (mirrors uhm_cli's). */
    std::string label;
    DirProgram program;
    /** The sample's canonical input (empty for synthetic/source). */
    std::vector<int64_t> defaultInput;
    std::unique_ptr<EncodedDir> image;
    std::unique_ptr<Machine> machine;
    /** Executing a request right now (pinned against eviction). */
    bool busy = false;
    /** Logical LRU clock value of the last acquire. */
    uint64_t lastUse = 0;
};

/** Cache traffic counters (served under serve.cache.*). */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /** Evictions refused because every candidate was busy. */
    uint64_t evictRejected = 0;
    /** Requests served by a transient session (target was busy). */
    uint64_t busyBypass = 0;
};

/** Bounded LRU map of warm sessions. Thread-safe. */
class SessionCache
{
  public:
    /** @param max_sessions capacity in sessions (min 1). */
    explicit SessionCache(size_t max_sessions);

    /**
     * Get a session for @p req, building one on a miss. The returned
     * session is marked busy until release(). @p cached is true when
     * the session was already warm (and idle) in the cache. Throws
     * FatalError for unresolvable programs / malformed source.
     */
    std::shared_ptr<Session> acquire(const Request &req, bool &cached);

    /** Mark @p session idle again. */
    void release(const std::shared_ptr<Session> &session);

    /**
     * Drop @p session instead of releasing it: remove it from the cache
     * (if it is the cached one for its key) so no later request is
     * served by its machine. For sessions whose run threw something
     * other than FatalError and left the machine in an unknown state.
     */
    void discard(const std::shared_ptr<Session> &session);

    CacheStats stats() const;

    /** Sessions currently cached. */
    size_t size() const;

    /** The cache key acquire() would use for @p req. */
    static std::string keyFor(const Request &req);

  private:
    /** Compile/encode/construct the chain for @p req (no lock held). */
    static std::shared_ptr<Session> build(const Request &req,
                                          const std::string &key);

    /** Evict idle-LRU entries until size <= capacity. Lock held. */
    void shrinkLocked();

    mutable std::mutex mutex_;
    size_t maxSessions_;
    uint64_t tick_ = 0;
    std::map<std::string, std::shared_ptr<Session>> sessions_;
    CacheStats stats_;
};

} // namespace uhm::serve

#endif // UHM_SERVE_CACHE_HH
