#ifndef AUSDB_ENGINE_RECOVERY_MANAGER_H_
#define AUSDB_ENGINE_RECOVERY_MANAGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/replayable.h"
#include "src/obs/clock.h"
#include "src/obs/event_journal.h"
#include "src/obs/metrics.h"
#include "src/serde/checkpoint_file.h"

namespace ausdb {
namespace engine {

/// Options of RecoveryManager.
struct RecoveryManagerOptions {
  /// Checkpoint generations retained (>= 2 gives corruption fallback).
  size_t keep_generations = 3;

  /// Crash sites injected into checkpoint writes; nullptr in production.
  CrashPointInjector* crash_points = nullptr;

  /// When non-null, checkpoint/restore activity is recorded as
  /// `ausdb_recovery_*` metrics (and `ausdb_checkpoint_*` in the
  /// underlying store). Write-only: recovery decisions never consult a
  /// metric. The registry and clock must outlive the manager.
  obs::MetricRegistry* metrics = nullptr;
  const obs::Clock* clock = obs::SteadyClock::Instance();

  /// When non-null, each successful Checkpoint() (kCheckpoint) and
  /// Restore() (kRestore) is journaled with the checkpoint generation
  /// as logical time. Write-only per the obs contract.
  obs::EventJournal* journal = nullptr;
};

/// \brief Whole-pipeline crash recovery: one durable manifest per
/// checkpoint, holding every registered operator's state blob, every
/// registered source's replay position, and the consumer's delivery
/// count.
///
/// The recovery contract has three legs, and the manager owns their
/// composition:
///   1. operators restore their internal state bit-for-bit
///      (Operator::SaveCheckpoint/RestoreCheckpoint),
///   2. sources re-seek to the recorded position and replay the exact
///      input stream (ReplayableSource::SeekTo),
///   3. the consumer, which survives outside the crashed process,
///      compares its own delivered count against the manifest's
///      `outputs_delivered` and discards the re-emitted overlap.
/// A pipeline restored this way produces output bit-identical to an
/// uninterrupted run — the property the crash-point sweep test asserts
/// for every possible crash instant.
///
/// All state is snapshotted into ONE manifest written atomically
/// (serde::CheckpointStorage), so recovery never sees operator state
/// from one instant and source positions from another. Restore() walks
/// generations newest-first and applies the first manifest that both
/// decodes intact and restores cleanly; corrupt or torn newer
/// generations degrade recovery (more replay), never break it.
///
/// Register operators in a fixed order and with stable names; a
/// restarted process must register the identically configured pipeline
/// before calling Restore().
class RecoveryManager {
 public:
  RecoveryManager(std::string directory,
                  RecoveryManagerOptions options = {});

  /// Registers a replayable source under a stable unique name.
  /// The pointer must outlive the manager.
  Status RegisterSource(std::string name, ReplayableSource* source);

  /// Registers a checkpointable operator under a stable unique name.
  /// The pointer must outlive the manager. Stateless operators (filters,
  /// projections) need no registration: they are pure functions of the
  /// replayed stream.
  Status RegisterOperator(std::string name, Operator* op);

  /// Snapshots every registered source position and operator state plus
  /// the consumer's `outputs_delivered` into the next durable
  /// checkpoint generation. Returns the generation number.
  Result<uint64_t> Checkpoint(uint64_t outputs_delivered);

  /// What Restore() recovered.
  struct RecoveredState {
    uint64_t generation = 0;
    /// Outputs the consumer had already received when the checkpoint was
    /// taken; the pipeline re-emits exactly the outputs from this count
    /// onward (after the consumer discards the re-emitted overlap).
    uint64_t outputs_delivered = 0;
  };

  /// Restores the newest recoverable checkpoint: walks generations
  /// newest-first, and for each one that decodes intact restores all
  /// operator states and re-seeks all sources. Returns nullopt when no
  /// generation is recoverable (fresh start: nothing was modified).
  /// Failed attempts never leave mixed state behind, because the next
  /// attempt (or a fresh start after Reset) overwrites everything a
  /// manifest touches.
  Result<std::optional<RecoveredState>> Restore();

  /// The underlying generation store (tests corrupt files through it).
  serde::CheckpointStorage& storage() { return storage_; }

  /// \brief Accounting hook for the recovery contract's third leg: the
  /// consumer calls this once per re-emitted output it discards as
  /// already delivered (its own count minus the manifest's
  /// `outputs_delivered`). Feeds `ausdb_recovery_replayed_outputs_total`
  /// so a snapshot shows exactly how much replay a restore cost; no-op
  /// without a registry.
  void NoteReplayedOutput(uint64_t count = 1);

 private:
  Result<std::string> EncodeManifest(uint64_t outputs_delivered) const;
  Status ApplyManifest(std::string_view payload,
                       uint64_t* outputs_delivered);

  serde::CheckpointStorage storage_;
  std::vector<std::pair<std::string, ReplayableSource*>> sources_;
  std::vector<std::pair<std::string, Operator*>> operators_;

  RecoveryManagerOptions options_;
  /// Registry-owned; all null when options_.metrics is null.
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_restores_ = nullptr;
  obs::Counter* m_restore_fallbacks_ = nullptr;
  obs::Counter* m_replayed_outputs_ = nullptr;
  obs::Histogram* m_checkpoint_seconds_ = nullptr;
  obs::Histogram* m_restore_seconds_ = nullptr;
  obs::Gauge* m_outputs_delivered_ = nullptr;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_RECOVERY_MANAGER_H_
