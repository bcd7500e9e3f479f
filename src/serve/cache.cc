#include "serve/cache.hh"

#include <algorithm>

#include "bench_common.hh"
#include "hlr/compiler.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "workload/samples.hh"

namespace uhm::serve
{

SessionCache::SessionCache(size_t max_sessions)
    : maxSessions_(std::max<size_t>(max_sessions, 1))
{
}

std::string
SessionCache::keyFor(const Request &req)
{
    std::string source_id;
    if (!req.source.empty()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "source:%016llx",
                      static_cast<unsigned long long>(
                          fnv1a(req.source.data(), req.source.size())));
        source_id = buf;
    } else if (req.program == "synthetic") {
        source_id = "synthetic:" + std::to_string(req.seed);
    } else {
        source_id = "sample:" + req.program;
    }
    return source_id + "|" + req.machine.fingerprint();
}

std::shared_ptr<Session>
SessionCache::build(const Request &req, const std::string &key)
{
    auto session = std::make_shared<Session>();
    session->key = key;
    session->keyHash = fnv1a(key.data(), key.size());
    if (!req.source.empty()) {
        session->label = req.program;
        session->program = hlr::compileSource(req.source);
    } else if (req.program == "synthetic") {
        session->label = "synthetic";
        // The same generator call uhm_cli's sweep subcommand makes, so
        // a served synthetic run diffs clean against a cold sweep.
        session->program = bench::gridWorkload(2, req.seed);
    } else {
        const workload::SampleProgram &sample =
            workload::sampleByName(req.program);
        session->label = sample.name;
        session->defaultInput = sample.input;
        session->program = hlr::compileSource(sample.source);
    }
    session->image = encodeDir(session->program, req.machine.scheme);
    session->machine = std::make_unique<Machine>(
        *session->image, req.machine.toConfig());
    return session;
}

std::shared_ptr<Session>
SessionCache::acquire(const Request &req, bool &cached)
{
    const std::string key = keyFor(req);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = sessions_.find(key);
        if (it != sessions_.end()) {
            if (!it->second->busy) {
                it->second->busy = true;
                it->second->lastUse = ++tick_;
                ++stats_.hits;
                cached = true;
                return it->second;
            }
            // Warm but executing someone else's request: serve this
            // one from a private chain instead of waiting.
            ++stats_.busyBypass;
        } else {
            ++stats_.misses;
        }
    }

    // Build outside the lock — compiles are the slow path and must not
    // serialize against cache hits.
    std::shared_ptr<Session> session = build(req, key);
    session->busy = true;
    cached = false;

    std::lock_guard<std::mutex> lock(mutex_);
    session->lastUse = ++tick_;
    // Insert only when the slot is free; losing a build race (or a
    // busy bypass) makes this session transient.
    if (sessions_.find(key) == sessions_.end()) {
        sessions_.emplace(key, session);
        shrinkLocked();
    } else {
        session->key.clear();
    }
    return session;
}

void
SessionCache::release(const std::shared_ptr<Session> &session)
{
    std::lock_guard<std::mutex> lock(mutex_);
    session->busy = false;
    // An earlier insert may have been refused its eviction because
    // every candidate was pinned; finish the deferred shrink now.
    shrinkLocked();
}

void
SessionCache::discard(const std::shared_ptr<Session> &session)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(session->key);
    if (it != sessions_.end() && it->second == session)
        sessions_.erase(it);
    // Dropping a pinned session may make room a refused eviction wanted.
    shrinkLocked();
}

void
SessionCache::shrinkLocked()
{
    while (sessions_.size() > maxSessions_) {
        auto victim = sessions_.end();
        for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
            if (it->second->busy)
                continue;
            if (victim == sessions_.end() ||
                it->second->lastUse < victim->second->lastUse)
                victim = it;
        }
        if (victim == sessions_.end()) {
            // Everything is pinned mid-run; refuse rather than tear.
            ++stats_.evictRejected;
            return;
        }
        ++stats_.evictions;
        sessions_.erase(victim);
    }
}

CacheStats
SessionCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

size_t
SessionCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

} // namespace uhm::serve
