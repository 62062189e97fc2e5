#include "obs/trace.h"

#include <algorithm>
#include <stdexcept>

namespace specontext {
namespace obs {

const char *
eventTypeName(EventType t)
{
    switch (t) {
      case EventType::Enqueue: return "Enqueue";
      case EventType::Admit: return "Admit";
      case EventType::PrefillStart: return "PrefillStart";
      case EventType::PrefillEnd: return "PrefillEnd";
      case EventType::DecodeWindow: return "DecodeWindow";
      case EventType::Preempt: return "Preempt";
      case EventType::Restore: return "Restore";
      case EventType::Complete: return "Complete";
      case EventType::Reject: return "Reject";
      case EventType::RouterPlace: return "RouterPlace";
      case EventType::PrefixHit: return "PrefixHit";
      case EventType::PrefixInsert: return "PrefixInsert";
      case EventType::PrefixEvict: return "PrefixEvict";
      case EventType::KvClamp: return "KvClamp";
      case EventType::FleetScale: return "FleetScale";
    }
    return "?";
}

Trace::Trace(TraceConfig cfg) : cfg_(cfg)
{
    if (cfg_.capacity == 0)
        throw std::invalid_argument("Trace: zero capacity");
}

void
Trace::addChunk()
{
    const size_t events = std::min(kChunkEvents, cfg_.capacity - size_);
    chunks_.push_back(std::make_unique<TraceEvent[]>(events));
}

std::vector<TraceEvent>
Trace::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    for (size_t i = 0; i < size_; ++i)
        out.push_back(at(i));
    return out;
}

void
Trace::clear()
{
    chunks_.clear();
    size_ = 0;
    head_ = 0;
    emitted_ = 0;
}

} // namespace obs
} // namespace specontext
