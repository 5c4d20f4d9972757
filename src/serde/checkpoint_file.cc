#include "src/serde/checkpoint_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "src/common/crc32c.h"
#include "src/common/logging.h"

namespace ausdb {
namespace serde {

namespace {

constexpr char kMagic[8] = {'A', 'U', 'S', 'D', 'B', 'C', 'K', 'P'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderSize = 8 + 4 + 8;            // magic+version+length
constexpr size_t kEnvelopeSize = kHeaderSize + 4;    // + crc

void AppendLe32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void AppendLe64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t ReadLe32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t ReadLe64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path + "': " +
                          std::strerror(errno));
}

/// write(2) until everything is on its way to the kernel.
Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return ErrnoStatus("open for fsync", path);
  if (::fsync(fd) != 0) {
    const Status st = ErrnoStatus("fsync", path);
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

std::string EncodeCheckpointFile(std::string_view payload) {
  std::string out;
  out.reserve(kEnvelopeSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  AppendLe32(out, kFormatVersion);
  AppendLe64(out, payload.size());
  uint32_t crc = Crc32c(out.data(), kHeaderSize);
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  AppendLe32(out, crc);
  out.append(payload);
  return out;
}

Result<std::string> DecodeCheckpointFile(std::string_view file_bytes) {
  if (file_bytes.size() < kEnvelopeSize) {
    return Status::Corruption(
        "checkpoint file truncated: " + std::to_string(file_bytes.size()) +
        " bytes, envelope needs " + std::to_string(kEnvelopeSize));
  }
  if (std::memcmp(file_bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("checkpoint file has bad magic");
  }
  const uint32_t version = ReadLe32(file_bytes.data() + 8);
  if (version != kFormatVersion) {
    return Status::Corruption("unknown checkpoint file version " +
                              std::to_string(version));
  }
  const uint64_t declared = ReadLe64(file_bytes.data() + 12);
  const uint64_t present = file_bytes.size() - kEnvelopeSize;
  if (declared != present) {
    // Covers both truncation (declared > present) and trailing garbage;
    // checked before any payload-sized work so a corrupt length field
    // cannot drive a huge allocation.
    return Status::Corruption(
        "checkpoint payload length mismatch: header declares " +
        std::to_string(declared) + " bytes, file carries " +
        std::to_string(present));
  }
  const uint32_t stored_crc = ReadLe32(file_bytes.data() + kHeaderSize);
  uint32_t crc = Crc32c(file_bytes.data(), kHeaderSize);
  crc = Crc32cExtend(crc, file_bytes.data() + kEnvelopeSize, declared);
  if (crc != stored_crc) {
    return Status::Corruption("checkpoint CRC32C mismatch");
  }
  return std::string(file_bytes.substr(kEnvelopeSize));
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes,
                       CrashPointInjector* crash) {
  if (crash) AUSDB_RETURN_NOT_OK(crash->CrashIf("before-write"));

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);

  if (crash && crash->AtCrashPoint("mid-write")) {
    // A real crash mid-write leaves a torn temp file. Emulate the worst
    // case: half the bytes, then death before rename.
    const Status st = WriteAll(fd, bytes.data(), bytes.size() / 2, tmp);
    ::close(fd);
    if (!st.ok()) return st;
    return CrashPointInjector::CrashStatus("mid-write");
  }

  Status st = WriteAll(fd, bytes.data(), bytes.size(), tmp);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoStatus("fsync", tmp);
  ::close(fd);
  if (!st.ok()) return st;

  if (crash) AUSDB_RETURN_NOT_OK(crash->CrashIf("pre-rename"));

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoStatus("rename to", path);
  }
  // The rename is durable only once the directory entry is; fsync the
  // parent directory.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  AUSDB_RETURN_NOT_OK(FsyncPath(dir.empty() ? "." : dir,
                                O_RDONLY | O_DIRECTORY));

  if (crash) AUSDB_RETURN_NOT_OK(crash->CrashIf("post-rename"));
  return Status::OK();
}

CheckpointStorage::CheckpointStorage(std::string directory,
                                     std::string prefix,
                                     CheckpointStorageOptions options)
    : directory_(std::move(directory)),
      prefix_(std::move(prefix)),
      options_(options) {
  if (options_.metrics != nullptr) {
    obs::MetricRegistry* reg = options_.metrics;
    const std::vector<obs::Label> labels = {{"store", prefix_}};
    m_bytes_ =
        reg->GetCounter("ausdb_checkpoint_written_bytes_total", labels,
                        "Envelope bytes durably written (payload + header).");
    m_generations_ =
        reg->GetCounter("ausdb_checkpoint_generations_total", labels,
                        "Checkpoint generations successfully written.");
    m_write_seconds_ = reg->GetHistogram(
        "ausdb_checkpoint_write_seconds", labels,
        obs::DefaultLatencySecondsBoundaries(),
        "Durable checkpoint write latency (encode + write + fsync + "
        "rename), in seconds.");
    m_fallbacks_ = reg->GetCounter(
        "ausdb_checkpoint_fallbacks_total", labels,
        "Generations skipped as corrupt/unreadable during recovery.");
  }
}

std::string CheckpointStorage::GenerationPath(uint64_t generation) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%010llu",
                static_cast<unsigned long long>(generation));
  return directory_ + "/" + prefix_ + "." + buf + ".ckpt";
}

std::vector<uint64_t> CheckpointStorage::ListGenerations() const {
  std::vector<uint64_t> generations;
  std::error_code ec;
  std::filesystem::directory_iterator it(directory_, ec);
  if (ec) return generations;
  const std::string head = prefix_ + ".";
  const std::string tail = ".ckpt";
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= head.size() + tail.size()) continue;
    if (name.compare(0, head.size(), head) != 0) continue;
    if (name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(head.size(), name.size() - head.size() - tail.size());
    uint64_t g = 0;
    bool numeric = !digits.empty();
    for (char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      g = g * 10 + static_cast<uint64_t>(c - '0');
    }
    if (numeric) generations.push_back(g);
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

Result<uint64_t> CheckpointStorage::Write(std::string_view payload) {
  const std::vector<uint64_t> existing = ListGenerations();
  const uint64_t generation = existing.empty() ? 1 : existing.back() + 1;

  const uint64_t start_nanos =
      m_write_seconds_ ? options_.clock->NowNanos() : 0;
  const std::string encoded = EncodeCheckpointFile(payload);
  AUSDB_RETURN_NOT_OK(AtomicWriteFile(GenerationPath(generation), encoded,
                                      options_.crash_points));
  if (m_write_seconds_) {
    m_write_seconds_->Record(
        obs::NanosToSeconds(options_.clock->NowNanos() - start_nanos));
  }
  if (m_bytes_) m_bytes_->Increment(encoded.size());
  if (m_generations_) m_generations_->Increment();

  // Rotate: the new generation is durable, so generations beyond the
  // retention window can go. A crash between rename and this point only
  // leaves extra old generations behind — never fewer.
  const size_t keep = std::max<size_t>(1, options_.keep_generations);
  if (existing.size() + 1 > keep) {
    const size_t drop = existing.size() + 1 - keep;
    for (size_t i = 0; i < drop; ++i) {
      std::error_code ec;
      std::filesystem::remove(GenerationPath(existing[i]), ec);
    }
  }
  return generation;
}

Result<std::string> CheckpointStorage::ReadGeneration(
    uint64_t generation) const {
  const std::string path = GenerationPath(generation);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("checkpoint generation file '" + path + "'");
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("read of '" + path + "' failed");
  }
  return DecodeCheckpointFile(bytes);
}

Result<LoadedCheckpoint> CheckpointStorage::ReadNewestIntact() const {
  const std::vector<uint64_t> generations = ListGenerations();
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    Result<std::string> payload = ReadGeneration(*it);
    if (payload.ok()) {
      return LoadedCheckpoint{*it, std::move(payload).ValueOrDie()};
    }
    // Corrupt or vanished: fall back to the previous generation.
    if (m_fallbacks_) m_fallbacks_->Increment();
    AUSDB_LOG(WARN) << "checkpoint generation " << *it << " of '" << prefix_
                    << "' unusable, falling back: "
                    << payload.status().ToString();
  }
  return Status::NotFound("no intact checkpoint generation under '" +
                          directory_ + "' with prefix '" + prefix_ + "'");
}

}  // namespace serde
}  // namespace ausdb
