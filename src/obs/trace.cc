#include "obs/trace.hh"

#include <algorithm>

#include "support/logging.hh"

namespace uhm::obs
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Fetch:     return "fetch";
      case EventKind::Decode:    return "decode";
      case EventKind::DtbHit:    return "dtb_hit";
      case EventKind::DtbMiss:   return "dtb_miss";
      case EventKind::DtbEvict:  return "dtb_evict";
      case EventKind::DtbReject: return "dtb_reject";
      case EventKind::Trap:      return "trap";
      case EventKind::Translate: return "translate";
      case EventKind::Promote:   return "promote";
      case EventKind::TraceRecord:     return "trace_record";
      case EventKind::TraceAbort:      return "trace_abort";
      case EventKind::Translate2:      return "translate2";
      case EventKind::TraceEnter:      return "trace_enter";
      case EventKind::TraceExit:       return "trace_exit";
      case EventKind::TraceEvict:      return "trace_evict";
      case EventKind::TraceInvalidate: return "trace_invalidate";
      case EventKind::Sample:          return "sample";
      case EventKind::DtbFlush:        return "dtb_flush";
      case EventKind::SchedSlice:      return "sched_slice";
      case EventKind::SchedSwitch:     return "sched_switch";
      case EventKind::ServeEnqueue:    return "serve_enqueue";
      case EventKind::ServeBegin:      return "serve_begin";
      case EventKind::ServeDone:       return "serve_done";
      case EventKind::ServeReject:     return "serve_reject";
      case EventKind::ServeAcquire:    return "serve_acquire";
      case EventKind::ServeSlice:      return "serve_slice";
    }
    return "?";
}

void
Tracer::enable(size_t capacity)
{
    uhm_assert(capacity >= 1, "tracer ring needs at least one slot");
    ring_.clear();
    capacity_ = capacity;
    next_ = 0;
    seen_ = 0;
    enabled_ = true;
}

void
Tracer::disable()
{
    ring_.clear();
    ring_.shrink_to_fit();
    capacity_ = 0;
    next_ = 0;
    taken_ = 0;
    seen_ = 0;
    enabled_ = false;
}

void
Tracer::grow()
{
    // 128 events = one 4 KiB page to start with.
    ring_.reserve(std::min(capacity_,
                           std::max({2 * ring_.size(), taken_,
                                     size_t{128}})));
}

std::vector<Event>
Tracer::events() const
{
    std::vector<Event> out;
    if (seen_ == 0)
        return out;
    if (seen_ <= ring_.size()) {
        out.assign(ring_.begin(),
                   ring_.begin() + static_cast<ptrdiff_t>(seen_));
        return out;
    }
    // Ring wrapped: the oldest retained event is at next_.
    out.reserve(ring_.size());
    out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<ptrdiff_t>(next_));
    return out;
}

std::vector<Event>
Tracer::take()
{
    // Before the ring wraps it holds exactly seen_ events, in order.
    if (seen_ > ring_.size())
        std::rotate(ring_.begin(),
                    ring_.begin() + static_cast<ptrdiff_t>(next_),
                    ring_.end());
    std::vector<Event> out = std::move(ring_);
    ring_ = {};
    taken_ = out.size();
    next_ = 0;
    seen_ = 0;
    return out;
}

void
Tracer::clear()
{
    ring_.clear();
    next_ = 0;
    seen_ = 0;
}

} // namespace uhm::obs
