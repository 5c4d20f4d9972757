#ifndef AUSDB_GOVERN_GOVERNOR_GATE_H_
#define AUSDB_GOVERN_GOVERNOR_GATE_H_

#include <cstdint>
#include <memory>

#include "src/common/result.h"
#include "src/engine/operator.h"
#include "src/govern/governor.h"
#include "src/govern/signals.h"

namespace ausdb {
namespace govern {

/// \brief The operator that puts the governor in the plan: wraps a
/// source (or any subtree), ticks a decision epoch every
/// `epoch_interval` Next() calls, and enforces the decision in force —
/// stamping each admitted tuple with the current precision rung,
/// refusing admission with kOverloaded past the accuracy floor, and
/// failing with kUnavailable while the circuit breaker is open (which
/// the wrapping SupervisedScan turns into retry/backoff/quarantine).
///
/// Epochs are counted in Next() calls — including refused ones — never
/// in wall-clock time, so the rung a given pull sees is a pure function
/// of (call index, snapshot script). The per-tuple rung stamp then makes
/// every downstream precision decision buffering-independent.
class GovernorGate final : public engine::Operator {
 public:
  /// Validates options.ladder; kInvalidArgument on a malformed ladder.
  static Result<std::unique_ptr<GovernorGate>> Make(
      engine::OperatorPtr child, std::unique_ptr<SignalSource> signals,
      GovernorOptions options);

  const engine::Schema& schema() const override { return child_->schema(); }
  Result<std::optional<engine::Tuple>> Next() override;
  Status Reset() override;
  Status Close() override { return child_->Close(); }

  const OverloadGovernor& governor() const { return governor_; }

  /// Pulls refused with kOverloaded (admission control).
  uint64_t rejected_overloaded() const { return rejected_overloaded_; }
  /// Pulls refused with kUnavailable (breaker open).
  uint64_t rejected_unavailable() const { return rejected_unavailable_; }
  /// Tuples admitted (and rung-stamped).
  uint64_t admitted() const { return admitted_; }

 private:
  GovernorGate(engine::OperatorPtr child,
               std::unique_ptr<SignalSource> signals,
               GovernorOptions options);

  engine::OperatorPtr child_;
  std::unique_ptr<SignalSource> signals_;
  GovernorOptions options_;
  OverloadGovernor governor_;
  GovernorDecision decision_;

  uint64_t calls_ = 0;       ///< Next() calls, refused ones included
  uint64_t next_epoch_ = 0;  ///< decision epochs ticked so far
  uint64_t rejected_overloaded_ = 0;
  uint64_t rejected_unavailable_ = 0;
  uint64_t admitted_ = 0;
};

}  // namespace govern
}  // namespace ausdb

#endif  // AUSDB_GOVERN_GOVERNOR_GATE_H_
