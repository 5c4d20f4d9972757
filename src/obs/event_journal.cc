#include "src/obs/event_journal.h"

#include <utility>

#include "src/obs/exposition.h"

namespace ausdb {
namespace obs {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kRungEscalation:
      return "rung_escalation";
    case EventType::kRungRelaxation:
      return "rung_relaxation";
    case EventType::kBreakerTrip:
      return "breaker_trip";
    case EventType::kBreakerReclose:
      return "breaker_reclose";
    case EventType::kCostRechoice:
      return "cost_rechoice";
    case EventType::kLateRevision:
      return "late_revision";
    case EventType::kCheckpoint:
      return "checkpoint";
    case EventType::kRestore:
      return "restore";
  }
  return "unknown";
}

void EventJournal::Append(EventType type, uint64_t epoch, std::string scope,
                          std::string detail) {
  std::lock_guard<std::mutex> lock(mu_);
  EventRecord record{recorded_, epoch, type, std::move(scope),
                     std::move(detail)};
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::vector<EventRecord> EventJournal::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EventRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

uint64_t EventJournal::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

uint64_t EventJournal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ - ring_.size();
}

std::string EventJournal::ToJson() const {
  // One coherent snapshot under the lock, then render outside it.
  std::vector<EventRecord> events;
  uint64_t recorded = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    recorded = recorded_;
    events.reserve(ring_.size());
    if (ring_.size() < capacity_) {
      events = ring_;
    } else {
      for (size_t i = 0; i < ring_.size(); ++i) {
        events.push_back(ring_[(next_ + i) % capacity_]);
      }
    }
  }
  std::string out = "{\"capacity\":" + std::to_string(capacity_) +
                    ",\"recorded\":" + std::to_string(recorded) +
                    ",\"dropped\":" +
                    std::to_string(recorded - events.size()) +
                    ",\"events\":[";
  bool first = true;
  for (const EventRecord& e : events) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"seq\":" + std::to_string(e.seq) +
           ",\"epoch\":" + std::to_string(e.epoch) + ",\"type\":\"" +
           EventTypeName(e.type) +
           "\",\"scope\":" + JsonEscape(e.scope) +
           ",\"detail\":" + JsonEscape(e.detail) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace ausdb
