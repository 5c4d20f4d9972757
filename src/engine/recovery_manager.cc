#include "src/engine/recovery_manager.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/serde/checkpoint.h"

namespace ausdb {
namespace engine {

namespace {

constexpr std::string_view kManifestVersion = "manifest.v1";

serde::CheckpointStorageOptions StorageOptions(
    const RecoveryManagerOptions& options) {
  serde::CheckpointStorageOptions storage;
  storage.keep_generations = options.keep_generations;
  storage.crash_points = options.crash_points;
  storage.metrics = options.metrics;
  storage.clock = options.clock;
  return storage;
}

}  // namespace

RecoveryManager::RecoveryManager(std::string directory,
                                 RecoveryManagerOptions options)
    : storage_(std::move(directory), "pipeline", StorageOptions(options)),
      options_(options) {
  if (options_.metrics != nullptr) {
    obs::MetricRegistry* reg = options_.metrics;
    m_checkpoints_ =
        reg->GetCounter("ausdb_recovery_checkpoints_total", {},
                        "Pipeline manifests durably checkpointed.");
    m_restores_ = reg->GetCounter(
        "ausdb_recovery_restores_total", {},
        "Successful pipeline restores from a manifest generation.");
    m_restore_fallbacks_ = reg->GetCounter(
        "ausdb_recovery_restore_fallbacks_total", {},
        "Manifest generations skipped during restore (corrupt or "
        "inapplicable).");
    m_replayed_outputs_ = reg->GetCounter(
        "ausdb_recovery_replayed_outputs_total", {},
        "Re-emitted outputs the consumer discarded as already delivered.");
    m_checkpoint_seconds_ = reg->GetHistogram(
        "ausdb_recovery_checkpoint_seconds", {},
        obs::DefaultLatencySecondsBoundaries(),
        "End-to-end Checkpoint() latency (encode + durable write).");
    m_restore_seconds_ = reg->GetHistogram(
        "ausdb_recovery_restore_seconds", {},
        obs::DefaultLatencySecondsBoundaries(),
        "End-to-end Restore() latency across all attempted generations.");
    m_outputs_delivered_ = reg->GetGauge(
        "ausdb_recovery_outputs_delivered", {},
        "Consumer delivery count recorded by the latest checkpoint or "
        "restore.");
  }
}

void RecoveryManager::NoteReplayedOutput(uint64_t count) {
  if (m_replayed_outputs_) m_replayed_outputs_->Increment(count);
}

Status RecoveryManager::RegisterSource(std::string name,
                                       ReplayableSource* source) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must not be null");
  }
  for (const auto& [existing, unused] : sources_) {
    if (existing == name) {
      return Status::AlreadyExists("source '" + name +
                                   "' already registered");
    }
  }
  sources_.emplace_back(std::move(name), source);
  return Status::OK();
}

Status RecoveryManager::RegisterOperator(std::string name, Operator* op) {
  if (op == nullptr) {
    return Status::InvalidArgument("operator must not be null");
  }
  for (const auto& [existing, unused] : operators_) {
    if (existing == name) {
      return Status::AlreadyExists("operator '" + name +
                                   "' already registered");
    }
  }
  operators_.emplace_back(std::move(name), op);
  return Status::OK();
}

Result<std::string> RecoveryManager::EncodeManifest(
    uint64_t outputs_delivered) const {
  serde::CheckpointWriter w;
  w.Token(kManifestVersion);
  w.Uint(outputs_delivered);
  w.Uint(sources_.size());
  for (const auto& [name, source] : sources_) {
    w.Bytes(name);
    w.Uint(source->position());
  }
  w.Uint(operators_.size());
  for (const auto& [name, op] : operators_) {
    w.Bytes(name);
    AUSDB_ASSIGN_OR_RETURN(std::string blob, op->SaveCheckpoint());
    w.Bytes(blob);
  }
  return std::move(w).Finish();
}

Result<uint64_t> RecoveryManager::Checkpoint(uint64_t outputs_delivered) {
  const uint64_t start_nanos =
      m_checkpoint_seconds_ ? options_.clock->NowNanos() : 0;
  AUSDB_ASSIGN_OR_RETURN(std::string manifest,
                         EncodeManifest(outputs_delivered));
  AUSDB_ASSIGN_OR_RETURN(uint64_t generation, storage_.Write(manifest));
  if (m_checkpoint_seconds_) {
    m_checkpoint_seconds_->Record(
        obs::NanosToSeconds(options_.clock->NowNanos() - start_nanos));
  }
  if (m_checkpoints_) m_checkpoints_->Increment();
  if (m_outputs_delivered_) {
    m_outputs_delivered_->Set(static_cast<int64_t>(outputs_delivered));
  }
  if (options_.journal != nullptr) {
    options_.journal->Append(
        obs::EventType::kCheckpoint, generation, "recovery",
        std::to_string(outputs_delivered) + " outputs delivered");
  }
  return generation;
}

Status RecoveryManager::ApplyManifest(std::string_view payload,
                                      uint64_t* outputs_delivered) {
  serde::CheckpointReader r(payload);
  AUSDB_RETURN_NOT_OK(r.ExpectToken(kManifestVersion));
  AUSDB_ASSIGN_OR_RETURN(*outputs_delivered, r.NextUint());

  // Decode fully before touching any live object, so a manifest whose
  // tail is unreadable does not half-apply.
  AUSDB_ASSIGN_OR_RETURN(uint64_t nsources, r.NextCount(4));
  std::vector<std::pair<std::string, uint64_t>> positions;
  for (uint64_t i = 0; i < nsources; ++i) {
    AUSDB_ASSIGN_OR_RETURN(std::string name, r.NextBytes());
    AUSDB_ASSIGN_OR_RETURN(uint64_t position, r.NextUint());
    positions.emplace_back(std::move(name), position);
  }
  AUSDB_ASSIGN_OR_RETURN(uint64_t nops, r.NextCount(4));
  std::vector<std::pair<std::string, std::string>> blobs;
  for (uint64_t i = 0; i < nops; ++i) {
    AUSDB_ASSIGN_OR_RETURN(std::string name, r.NextBytes());
    AUSDB_ASSIGN_OR_RETURN(std::string blob, r.NextBytes());
    blobs.emplace_back(std::move(name), std::move(blob));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("manifest has trailing tokens");
  }
  if (positions.size() != sources_.size() ||
      blobs.size() != operators_.size()) {
    return Status::InvalidArgument(
        "manifest was taken from a differently shaped pipeline (" +
        std::to_string(positions.size()) + " sources, " +
        std::to_string(blobs.size()) + " operators)");
  }

  for (size_t i = 0; i < sources_.size(); ++i) {
    if (positions[i].first != sources_[i].first) {
      return Status::InvalidArgument("manifest source '" +
                                     positions[i].first +
                                     "' does not match registered '" +
                                     sources_[i].first + "'");
    }
  }
  for (size_t i = 0; i < operators_.size(); ++i) {
    if (blobs[i].first != operators_[i].first) {
      return Status::InvalidArgument("manifest operator '" +
                                     blobs[i].first +
                                     "' does not match registered '" +
                                     operators_[i].first + "'");
    }
  }

  for (size_t i = 0; i < operators_.size(); ++i) {
    AUSDB_RETURN_NOT_OK(
        operators_[i].second->RestoreCheckpoint(blobs[i].second));
  }
  for (size_t i = 0; i < sources_.size(); ++i) {
    AUSDB_RETURN_NOT_OK(sources_[i].second->SeekTo(positions[i].second));
  }
  return Status::OK();
}

Result<std::optional<RecoveryManager::RecoveredState>>
RecoveryManager::Restore() {
  const uint64_t start_nanos =
      m_restore_seconds_ ? options_.clock->NowNanos() : 0;
  std::vector<uint64_t> generations = storage_.ListGenerations();
  std::optional<RecoveredState> recovered;
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    Result<std::string> payload = storage_.ReadGeneration(*it);
    if (!payload.ok()) {
      // torn/corrupt: fall back a generation
      if (m_restore_fallbacks_) m_restore_fallbacks_->Increment();
      AUSDB_LOG(WARN) << "manifest generation " << *it
                      << " unreadable, falling back: "
                      << payload.status().ToString();
      continue;
    }
    RecoveredState state;
    state.generation = *it;
    const Status applied =
        ApplyManifest(payload.ValueOrDie(), &state.outputs_delivered);
    if (applied.ok()) {
      recovered = state;
      break;
    }
    // A manifest that decodes but does not apply (e.g. an operator blob
    // from an incompatible configuration) falls back the same way; any
    // later successful attempt rewrites every piece of state it touched.
    if (m_restore_fallbacks_) m_restore_fallbacks_->Increment();
    AUSDB_LOG(WARN) << "manifest generation " << *it
                    << " did not apply, falling back: "
                    << applied.ToString();
  }
  if (m_restore_seconds_) {
    m_restore_seconds_->Record(
        obs::NanosToSeconds(options_.clock->NowNanos() - start_nanos));
  }
  if (recovered.has_value()) {
    if (m_restores_) m_restores_->Increment();
    if (m_outputs_delivered_) {
      m_outputs_delivered_->Set(
          static_cast<int64_t>(recovered->outputs_delivered));
    }
    if (options_.journal != nullptr) {
      options_.journal->Append(
          obs::EventType::kRestore, recovered->generation, "recovery",
          "resumed after " +
              std::to_string(recovered->outputs_delivered) +
              " delivered outputs");
    }
  }
  return recovered;
}

}  // namespace engine
}  // namespace ausdb
