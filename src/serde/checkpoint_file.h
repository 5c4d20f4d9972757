#ifndef AUSDB_SERDE_CHECKPOINT_FILE_H_
#define AUSDB_SERDE_CHECKPOINT_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/result.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"

namespace ausdb {
namespace serde {

/// \brief Durable checkpoint *file* format and generation store.
///
/// A checkpoint that never reaches disk durably, or that decodes garbage
/// after a torn write, is worse than no checkpoint: recovery would
/// silently resume from corrupt state. The file layer therefore wraps
/// every checkpoint payload in a checksummed envelope and only ever
/// publishes complete files:
///
/// ```
/// offset  size  field
/// ------  ----  ------------------------------------------------------
///      0     8  magic "AUSDBCKP"
///      8     4  format version (little-endian u32, currently 1)
///     12     8  payload length (little-endian u64)
///     20     4  CRC32C over bytes [0, 20) + payload (little-endian u32)
///     24     n  payload
/// ```
///
/// The CRC covers the header fields as well as the payload, so a bit
/// flip anywhere in the file — including in the length field itself — is
/// detected. Decode rejects, with StatusCode::kCorruption: short files,
/// bad magic, unknown versions, a declared length exceeding the bytes
/// present, trailing garbage, and any checksum mismatch.

/// Serializes `payload` into the envelope above.
std::string EncodeCheckpointFile(std::string_view payload);

/// Validates the envelope and returns the payload, or kCorruption.
Result<std::string> DecodeCheckpointFile(std::string_view file_bytes);

/// \brief Writes `bytes` to `path` durably and atomically: temp file in
/// the same directory, write, fsync, rename over `path`, fsync the
/// directory. Readers never observe a partial file at `path`.
///
/// `crash` marks the write's crash sites for recovery tests (see
/// CrashPointInjector): before any I/O, mid-write (a torn temp file is
/// left behind), after fsync but before the rename, and after the
/// rename. Production callers pass nullptr.
Status AtomicWriteFile(const std::string& path, std::string_view bytes,
                       CrashPointInjector* crash = nullptr);

/// One checkpoint read back from the store.
struct LoadedCheckpoint {
  uint64_t generation = 0;
  std::string payload;
};

/// Options of CheckpointStorage.
struct CheckpointStorageOptions {
  /// Generations retained on disk. Older generations are the fallback
  /// when the newest is corrupt, so keep at least 2; rotation deletes
  /// beyond this count after each successful write.
  size_t keep_generations = 3;

  /// Crash sites for recovery tests; nullptr in production.
  CrashPointInjector* crash_points = nullptr;

  /// When non-null, the store records `ausdb_checkpoint_*` metrics
  /// labeled `{store=prefix}`: bytes written, write-duration histogram
  /// (timed on `clock`), generations written, and corrupt generations
  /// skipped by the fallback walk. Write-only; the registry and clock
  /// must outlive the store.
  obs::MetricRegistry* metrics = nullptr;
  const obs::Clock* clock = obs::SteadyClock::Instance();
};

/// \brief Rotated store of checkpoint generations in one directory.
///
/// Generation g lives at `<directory>/<prefix>.<g, zero-padded>.ckpt`;
/// writes go through AtomicWriteFile, so a crash at any instant leaves
/// either the complete new generation or the previous state (plus,
/// at worst, a torn `.tmp` file that readers ignore and the next write
/// overwrites). ReadNewestIntact walks generations newest-first and
/// returns the first one whose envelope decodes cleanly — the
/// generation-by-generation fallback that makes a corrupt or torn
/// newest checkpoint a degradation, not a recovery failure.
class CheckpointStorage {
 public:
  /// `directory` must exist. `prefix` distinguishes multiple stores
  /// sharing a directory.
  CheckpointStorage(std::string directory, std::string prefix,
                    CheckpointStorageOptions options = {});

  /// Durably writes `payload` as the next generation and rotates old
  /// generations out. Returns the new generation number.
  Result<uint64_t> Write(std::string_view payload);

  /// Generation numbers currently on disk, ascending. Unreadable
  /// directories yield an empty list (a fresh store).
  std::vector<uint64_t> ListGenerations() const;

  /// Reads and validates one generation; kNotFound if the file is
  /// missing, kCorruption if it fails validation.
  Result<std::string> ReadGeneration(uint64_t generation) const;

  /// Newest generation that decodes intact, falling back generation by
  /// generation; kNotFound when no intact checkpoint exists.
  Result<LoadedCheckpoint> ReadNewestIntact() const;

  /// Path of generation `g` (for tests that corrupt files in place).
  std::string GenerationPath(uint64_t generation) const;

  const std::string& directory() const { return directory_; }

 private:
  std::string directory_;
  std::string prefix_;
  CheckpointStorageOptions options_;

  /// Registry-owned; all null when options_.metrics is null.
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_generations_ = nullptr;
  obs::Histogram* m_write_seconds_ = nullptr;
  obs::Counter* m_fallbacks_ = nullptr;
};

}  // namespace serde
}  // namespace ausdb

#endif  // AUSDB_SERDE_CHECKPOINT_FILE_H_
