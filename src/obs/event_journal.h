#ifndef AUSDB_OBS_EVENT_JOURNAL_H_
#define AUSDB_OBS_EVENT_JOURNAL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ausdb {
namespace obs {

/// \brief What kind of consequential accuracy decision an event records.
///
/// Every entry corresponds to a decision the engine used to make
/// invisibly: the governor shedding or restoring precision, the breaker
/// quarantining a plan, the cost model re-choosing an annotation method,
/// a late tuple forcing a window revision, or recovery rewriting pipeline
/// state. The journal is how a query-facing surface (EXPLAIN ANALYZE, a
/// future server) answers "why did my intervals widen?".
enum class EventType {
  kRungEscalation,   ///< governor shed one precision rung
  kRungRelaxation,   ///< governor restored one precision rung
  kBreakerTrip,      ///< circuit breaker opened (persistent overload)
  kBreakerReclose,   ///< breaker cooldown elapsed; half-open re-admit
  kCostRechoice,     ///< cost model put a new MethodSpec in force
  kLateRevision,     ///< late tuple re-emitted already-emitted windows
  kCheckpoint,       ///< recovery manager wrote a checkpoint generation
  kRestore,          ///< recovery manager restored a generation
};

/// Stable lower_snake_case name used in the JSON exposition.
const char* EventTypeName(EventType type);

/// \brief One journal entry. `epoch` is logical time — a pull-count
/// epoch, an input-tuple count, a checkpoint generation — never wall
/// clock, so two identical runs journal identical bytes. `scope` names
/// the emitting component ("governor", "cost_model", ...); `detail` is a
/// canonical byte-stable rendering of the decision (rung transition,
/// MethodSpec::ToString(), ...).
struct EventRecord {
  uint64_t seq = 0;  ///< journal-assigned monotonic sequence number
  uint64_t epoch = 0;
  EventType type = EventType::kRungEscalation;
  std::string scope;
  std::string detail;

  bool operator==(const EventRecord& other) const = default;
};

/// \brief Fixed-capacity structured event ring — the flight recorder of
/// accuracy decisions: it records *decisions* on logical time, never
/// wall time.
///
/// When full, the oldest event is overwritten and `dropped()` advances:
/// overflow is loud, never silent. Thread-safe; Append is one short
/// critical section and only ever fires on decision boundaries (epoch
/// ticks, breaker trips, revisions), far off the per-tuple hot path.
/// Per the obs contract the journal is write-only for the engine:
/// nothing on the data path ever reads it back, so journaling cannot
/// perturb delivered output.
class EventJournal {
 public:
  explicit EventJournal(size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Appends one event; assigns its sequence number.
  void Append(EventType type, uint64_t epoch, std::string scope,
              std::string detail);

  /// Events currently retained, oldest first.
  std::vector<EventRecord> Events() const;

  /// Total events ever appended (>= Events().size() once wrapped).
  uint64_t recorded() const;

  /// Events lost to ring overflow (recorded() - retained).
  uint64_t dropped() const;

  size_t capacity() const { return capacity_; }

  /// \brief Byte-deterministic JSON exposition, the journal's sibling of
  /// ToPrometheusText/ToJson:
  ///   {"capacity":N,"recorded":N,"dropped":N,"events":[
  ///     {"seq":0,"epoch":3,"type":"rung_escalation",
  ///      "scope":"governor","detail":"rung 0 -> 1"},...]}
  /// Two runs that made the same decisions expose identical bytes —
  /// the EXPLAIN ANALYZE determinism harness compares this string
  /// across thread counts, prefetch depths, and metrics settings.
  std::string ToJson() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<EventRecord> ring_;
  size_t next_ = 0;
  uint64_t recorded_ = 0;
};

}  // namespace obs
}  // namespace ausdb

#endif  // AUSDB_OBS_EVENT_JOURNAL_H_
