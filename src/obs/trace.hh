/**
 * @file
 * Typed event tracing over a bounded ring buffer.
 *
 * Counters say how often; the tracer says *when*. Each event is a fixed
 * 32-byte record — kind, the machine cycle at which it happened, the
 * DIR bit address involved and one kind-specific argument — recorded
 * into a ring whose capacity is a ceiling, not an allocation: the ring
 * grows as events arrive, so a tracer holds only what it recorded and
 * enabling one costs nothing. When the ring reaches its capacity, the
 * oldest events are overwritten and counted as dropped, so tracing a
 * long run costs a bounded amount of memory and stops reallocating
 * once full. Recording into a disabled tracer is a single predictable
 * branch.
 */

#ifndef UHM_OBS_TRACE_HH
#define UHM_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uhm::obs
{

/** What happened. The argument's meaning depends on the kind. */
enum class EventKind : uint8_t
{
    Fetch,     ///< DIR bits fetched; arg = level-2/cache word refs
    Decode,    ///< DIR instruction decoded; arg = decode cycles
    DtbHit,    ///< INTERP found the translation resident
    DtbMiss,   ///< INTERP missed in the DTB
    DtbEvict,  ///< a resident translation was replaced; addr = its tag
    DtbReject, ///< translation not retained; arg = units it needed
    Trap,      ///< DTRPOINT trap to the translator; arg = trap cycles
    Translate, ///< PSDER generated; arg = short instructions emitted
    Promote,   ///< translation copied into the first-level buffer (Dtb2)
    TraceRecord,     ///< tier recording started; addr = trace head
    TraceAbort,      ///< recording abandoned; addr = offending pc
    Translate2,      ///< trace compiled; addr = head, arg = short instrs
    TraceEnter,      ///< trace dispatched; addr = head, arg = DIR instrs/pass
    TraceExit,       ///< trace left; addr = exit pc, arg = iterations run
    TraceEvict,      ///< trace displaced from the trace cache; addr = head
    TraceInvalidate, ///< anchoring DTB entry evicted; addr = head
    Sample,          ///< occupancy sample taken; addr = sample index,
                     ///< arg = resident DTB entries
    DtbFlush,        ///< whole-DTB flush; arg = entries destroyed
    SchedSlice,      ///< tenant slice ended; addr = tenant id,
                     ///< arg = cycles consumed
    SchedSwitch,     ///< scheduler switched tenants; addr = tenant id
    // Serving events (src/serve). The server has no simulated clock, so
    // these are stamped with microseconds since server start instead of
    // machine cycles; the addr is always the server-assigned monotonic
    // request id (rid), which is what lets the timeline exporter stitch
    // one request's events into a single span tree.
    ServeEnqueue,    ///< request admitted;
                     ///< arg = (queue depth << 8) | verb index
    ServeBegin,      ///< first slice dispatched; arg = wait in us
    ServeDone,       ///< response written; arg = service time in us
    ServeReject,     ///< backpressure rejection; arg = requests in flight
    ServeAcquire,    ///< session resolved; arg = (session key hash << 1)
                     ///< | cache-hit bit
    ServeSlice,      ///< one runSlice() finished; arg = (cycles consumed
                     ///< << 20) | slice wall time in us (both saturating)
};

/** Number of distinct EventKind values. */
inline constexpr size_t numEventKinds =
    static_cast<size_t>(EventKind::ServeSlice) + 1;

/**
 * Every EventKind, in declaration order. The timeline exporter's
 * kind->track mapping and the exhaustiveness test iterate this; a new
 * kind that is not appended here fails ObsTracer.EventKindNames*.
 */
inline constexpr EventKind allEventKinds[numEventKinds] = {
    EventKind::Fetch,       EventKind::Decode,
    EventKind::DtbHit,      EventKind::DtbMiss,
    EventKind::DtbEvict,    EventKind::DtbReject,
    EventKind::Trap,        EventKind::Translate,
    EventKind::Promote,     EventKind::TraceRecord,
    EventKind::TraceAbort,  EventKind::Translate2,
    EventKind::TraceEnter,  EventKind::TraceExit,
    EventKind::TraceEvict,  EventKind::TraceInvalidate,
    EventKind::Sample,      EventKind::DtbFlush,
    EventKind::SchedSlice,  EventKind::SchedSwitch,
    EventKind::ServeEnqueue, EventKind::ServeBegin,
    EventKind::ServeDone,    EventKind::ServeReject,
    EventKind::ServeAcquire, EventKind::ServeSlice,
};

/** Stable lowercase name of @p kind ("dtb_miss"). */
const char *eventKindName(EventKind kind);

/** One trace record. */
struct Event
{
    uint64_t cycle = 0; ///< machine cycle counter at the event
    uint64_t addr = 0;  ///< DIR bit address involved
    uint64_t arg = 0;   ///< kind-specific argument
    EventKind kind = EventKind::Fetch;

    bool operator==(const Event &) const = default;
};

/** Bounded ring-buffer event recorder. */
class Tracer
{
  public:
    /** Default ring capacity (events). */
    static constexpr size_t defaultCapacity = 65536;

    /**
     * Start recording into a ring of at most @p capacity events. Drops
     * what was recorded but allocates nothing: the ring grows on
     * record() up to the capacity.
     */
    void enable(size_t capacity = defaultCapacity);

    /** Stop recording and release the ring. */
    void disable();

    bool enabled() const { return enabled_; }

    /** Ring capacity in events (0 when disabled). */
    size_t capacity() const { return capacity_; }

    /** Record one event; a no-op (one branch) when disabled. */
    void
    record(EventKind kind, uint64_t cycle, uint64_t addr,
           uint64_t arg = 0)
    {
        if (!enabled_)
            return;
        const Event e{cycle, addr, arg, kind};
        if (ring_.size() < capacity_) {
            // Still filling: the oldest event stays at slot 0, which
            // is where overwriting starts once the ring is full.
            if (ring_.size() == ring_.capacity())
                grow();
            ring_.push_back(e);
        } else {
            ring_[next_] = e;
            next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
        }
        ++seen_;
    }

    /** Events recorded since enable()/clear(), including dropped ones. */
    uint64_t seen() const { return seen_; }

    /** Events overwritten because the ring filled. */
    uint64_t
    dropped() const
    {
        return seen_ > capacity_ ? seen_ - capacity_ : 0;
    }

    /** The retained events, oldest first. */
    std::vector<Event> events() const;

    /**
     * events(), moved out instead of copied: a wrapped ring is unrolled
     * in place. Leaves the tracer as clear() does, with no storage; the
     * next grow() reserves room for as many events as were taken, so a
     * rerun that records as many allocates its ring once.
     */
    std::vector<Event> take();

    /** Drop all recorded events, keeping the capacity and enablement. */
    void clear();

  private:
    /** Make room for the next event: double the storage, or reserve
     *  what the last take() handed out if that is more, never past the
     *  capacity. Off the hot path (once per doubling). */
    void grow();

    /** The retained events; slot order once full, record order before. */
    std::vector<Event> ring_;
    /** Ceiling on ring_.size(). */
    size_t capacity_ = 0;
    /** The slot the next event overwrites once the ring is full. */
    size_t next_ = 0;
    /** Events the last take() handed out: grow() reserves at least
     *  this many. */
    size_t taken_ = 0;
    uint64_t seen_ = 0;
    bool enabled_ = false;
};

} // namespace uhm::obs

#endif // UHM_OBS_TRACE_HH
