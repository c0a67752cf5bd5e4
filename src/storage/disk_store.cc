#include "storage/disk_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "common/hash.h"
#include "storage/serialization.h"

namespace hyppo::storage {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kManifestMagic = 0x4859504D;  // "HYPM"
constexpr uint32_t kManifestVersion = 1;

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IoError("error while reading '" + path + "'");
  }
  return bytes;
}

/// Crash-safe file write: bytes land in `<path>.tmp` and are renamed into
/// place, so `path` only ever holds a complete old or new version.
Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open '" + tmp + "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return Status::IoError("error while writing '" + tmp + "'");
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::IoError("cannot rename '" + tmp + "' into place: " +
                           ec.message());
  }
  return Status::OK();
}

/// Payload file name for a key: canonical names are filesystem-safe hex
/// already; anything else falls back to a hash-derived name.
std::string FileNameForKey(const std::string& key) {
  bool safe = !key.empty() && key.size() <= 80;
  for (char c : key) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      safe = false;
      break;
    }
  }
  if (safe) {
    return key + ".bin";
  }
  return "h-" + HashToHex(Fnv1a64(key)) + ".bin";
}

}  // namespace

DiskArtifactStore::DiskArtifactStore(std::string directory, StorageTier tier)
    : directory_(std::move(directory)), tier_(tier) {
  init_status_ = Recover();
}

DiskArtifactStore::~DiskArtifactStore() {
  (void)Flush();  // best effort for write-behind changes
  if (lock_fd_ >= 0) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
  }
}

Status DiskArtifactStore::AcquireDirectoryLock() {
  const std::string path = (fs::path(directory_) / "store.lock").string();
  lock_fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd_ < 0) {
    return Status::IoError("cannot open store lock file '" + path + "'");
  }
  // flock locks are per open file description, so two stores in one
  // process conflict just like stores in different processes — and the
  // kernel releases the lock when the holder closes or dies, so a crash
  // never strands the directory.
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    return Status::FailedPrecondition(
        "store directory '" + directory_ +
        "' is locked by another live session (store.lock is held); a "
        "store_dir must back exactly one runtime at a time — close the "
        "other session or point this one at a different directory");
  }
  return Status::OK();
}

std::string DiskArtifactStore::PayloadPath(const std::string& file) const {
  return (fs::path(directory_) / "payloads" / file).string();
}

std::string DiskArtifactStore::ManifestPath() const {
  return (fs::path(directory_) / "store.manifest").string();
}

Status DiskArtifactStore::Recover() {
  std::error_code ec;
  fs::create_directories(fs::path(directory_) / "payloads", ec);
  if (ec) {
    return Status::IoError("cannot create store directory '" + directory_ +
                           "': " + ec.message());
  }
  // Claim exclusive ownership before reading anything: a second live
  // store over the same directory must fail fast here, not race the
  // manifest. store.lock lives at the directory root, outside payloads/,
  // so recovery GC below never touches it.
  HYPPO_RETURN_NOT_OK(AcquireDirectoryLock());
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  used_bytes_ = 0;
  payload_bytes_ = 0;
  if (fs::exists(ManifestPath())) {
    HYPPO_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(ManifestPath()));
    if (bytes.size() < 8) {
      return Status::ParseError("store manifest truncated");
    }
    // The trailing u64 checksums the manifest body, so a corrupted index
    // is rejected as a whole rather than trusted entry by entry.
    const std::string body = bytes.substr(0, bytes.size() - 8);
    BinaryReader trailer_reader(bytes);
    BinaryReader reader(body);
    HYPPO_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
    if (magic != kManifestMagic) {
      return Status::ParseError("bad store manifest magic");
    }
    HYPPO_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
    if (version != kManifestVersion) {
      return Status::ParseError("unsupported store manifest version " +
                                std::to_string(version));
    }
    uint64_t trailer = 0;
    for (size_t i = 0; i < 8; ++i) {
      trailer |= static_cast<uint64_t>(static_cast<unsigned char>(
                     bytes[bytes.size() - 8 + i]))
                 << (8 * i);
    }
    if (trailer != Fnv1a64(body)) {
      return Status::ParseError("store manifest checksum mismatch");
    }
    HYPPO_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
    for (uint64_t i = 0; i < count; ++i) {
      Entry entry;
      HYPPO_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
      HYPPO_ASSIGN_OR_RETURN(entry.file, reader.ReadString());
      HYPPO_ASSIGN_OR_RETURN(entry.size_bytes, reader.ReadI64());
      HYPPO_ASSIGN_OR_RETURN(entry.payload_bytes, reader.ReadI64());
      HYPPO_ASSIGN_OR_RETURN(entry.checksum, reader.ReadU64());
      // Trust an entry only if its payload file is present with exactly
      // the recorded length; anything else is a torn leftover.
      std::error_code size_ec;
      const auto on_disk = fs::file_size(PayloadPath(entry.file), size_ec);
      if (size_ec ||
          static_cast<int64_t>(on_disk) != entry.payload_bytes) {
        continue;
      }
      entry.on_disk = true;
      used_bytes_ += entry.size_bytes;
      payload_bytes_ += entry.payload_bytes;
      entries_.emplace(std::move(key), std::move(entry));
    }
    if (!reader.AtEnd()) {
      return Status::ParseError("trailing bytes in store manifest");
    }
  }
  // Garbage-collect: *.tmp leftovers from interrupted writes and payload
  // files no live manifest entry names.
  std::set<std::string> live_files;
  for (const auto& [key, entry] : entries_) {
    live_files.insert(entry.file);
  }
  for (const auto& dir_entry :
       fs::directory_iterator(fs::path(directory_) / "payloads", ec)) {
    const std::string name = dir_entry.path().filename().string();
    if (live_files.count(name) == 0) {
      std::error_code rm_ec;
      fs::remove(dir_entry.path(), rm_ec);
    }
  }
  // Entries were dropped or files collected: rewrite the index so the
  // directory and the manifest agree again.
  return WriteManifestLocked();
}

Status DiskArtifactStore::WriteManifestLocked() {
  BinaryWriter writer;
  writer.WriteU32(kManifestMagic);
  writer.WriteU32(kManifestVersion);
  uint64_t count = 0;
  for (const auto& [key, entry] : entries_) {
    count += entry.on_disk ? 1 : 0;
  }
  writer.WriteU64(count);
  for (const auto& [key, entry] : entries_) {
    if (!entry.on_disk) {
      continue;  // write-behind version not flushed yet
    }
    writer.WriteString(key);
    writer.WriteString(entry.file);
    writer.WriteI64(entry.size_bytes);
    writer.WriteI64(entry.payload_bytes);
    writer.WriteU64(entry.checksum);
  }
  std::string bytes = writer.Take();
  BinaryWriter trailer;
  trailer.WriteU64(Fnv1a64(bytes));
  bytes += trailer.Take();
  const Status written = WriteFileAtomic(ManifestPath(), bytes);
  manifest_stale_ = !written.ok();
  return written;
}

Status DiskArtifactStore::Put(const std::string& key, ArtifactPayload payload,
                              int64_t size_bytes) {
  HYPPO_RETURN_NOT_OK(init_status_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (write_behind_) {
      auto [it, inserted] = entries_.try_emplace(key);
      Entry& entry = it->second;
      if (inserted) {
        entry.file = FileNameForKey(key);
      }
      used_bytes_ += size_bytes - entry.size_bytes;
      entry.size_bytes = size_bytes;
      entry.has_pending = true;
      entry.pending = std::move(payload);
      entry.version = ++next_version_;
      return Status::OK();
    }
  }
  HYPPO_ASSIGN_OR_RETURN(std::string bytes, SerializePayload(payload));
  const uint64_t checksum = Fnv1a64(bytes);

  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.file = FileNameForKey(key);
  entry.size_bytes = size_bytes;
  entry.payload_bytes = static_cast<int64_t>(bytes.size());
  entry.checksum = checksum;
  entry.on_disk = true;
  HYPPO_RETURN_NOT_OK(WriteFileAtomic(PayloadPath(entry.file), bytes));
  evicted_files_.erase(entry.file);

  auto it = entries_.find(key);
  const bool existed = it != entries_.end();
  const Entry previous = existed ? it->second : Entry{};
  if (existed) {
    used_bytes_ -= previous.size_bytes;
    payload_bytes_ -= previous.payload_bytes;
    it->second = entry;
  } else {
    entries_.emplace(key, entry);
  }
  used_bytes_ += entry.size_bytes;
  payload_bytes_ += entry.payload_bytes;

  Status manifest = WriteManifestLocked();
  if (!manifest.ok()) {
    // Roll the index back so a failed Put leaves the store exactly as it
    // was (the payload file may linger; recovery collects it).
    used_bytes_ -= entry.size_bytes;
    payload_bytes_ -= entry.payload_bytes;
    if (existed) {
      entries_[key] = previous;
      used_bytes_ += previous.size_bytes;
      payload_bytes_ += previous.payload_bytes;
    } else {
      entries_.erase(key);
    }
    return manifest;
  }
  RemoveEvictedFilesLocked();
  return Status::OK();
}

void DiskArtifactStore::EnableWriteBehind() {
  std::lock_guard<std::mutex> lock(mutex_);
  write_behind_ = true;
}

Status DiskArtifactStore::Flush() {
  std::lock_guard<std::mutex> flush_lock(flush_mutex_);
  struct Write {
    std::string key;
    std::string file;
    ArtifactPayload payload;
    uint64_t version = 0;
    int64_t payload_bytes = 0;
    uint64_t checksum = 0;
  };
  std::vector<Write> writes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, entry] : entries_) {
      if (entry.has_pending) {
        writes.push_back({key, entry.file, entry.pending, entry.version});
      }
    }
    if (writes.empty() && evicted_files_.empty() && !manifest_stale_) {
      return Status::OK();
    }
  }
  // Encode and write without the index lock: reads, Puts and Evicts go
  // on meanwhile, and whatever they change is settled below.
  Status status;
  std::vector<Write> written;
  for (Write& write : writes) {
    Result<std::string> bytes = SerializePayload(write.payload);
    Status wrote = bytes.status();
    if (wrote.ok()) {
      wrote = WriteFileAtomic(PayloadPath(write.file), *bytes);
    }
    if (!wrote.ok()) {
      if (status.ok()) {
        status = wrote;  // stays pending for the next Flush()
      }
      continue;
    }
    write.payload_bytes = static_cast<int64_t>(bytes->size());
    write.checksum = Fnv1a64(*bytes);
    written.push_back(std::move(write));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  for (const Write& write : written) {
    auto it = entries_.find(write.key);
    if (it == entries_.end()) {
      evicted_files_.insert(write.file);  // evicted while being written
      continue;
    }
    // The file holds this version now, even if a newer one is pending.
    Entry& entry = it->second;
    payload_bytes_ += write.payload_bytes - entry.payload_bytes;
    entry.on_disk = true;
    entry.payload_bytes = write.payload_bytes;
    entry.checksum = write.checksum;
    evicted_files_.erase(entry.file);
    if (entry.version == write.version) {
      entry.has_pending = false;
      entry.pending = ArtifactPayload();
    }
  }
  HYPPO_RETURN_NOT_OK(WriteManifestLocked());
  RemoveEvictedFilesLocked();
  return status;
}

void DiskArtifactStore::RemoveEvictedFilesLocked() {
  // Losing the race to delete a file only leaves an orphan for the next
  // recovery pass.
  std::error_code ec;
  for (const std::string& file : evicted_files_) {
    fs::remove(PayloadPath(file), ec);
  }
  evicted_files_.clear();
}

Result<std::string> DiskArtifactStore::ReadPayloadLocked(
    const std::string& key, const Entry& entry) const {
  HYPPO_ASSIGN_OR_RETURN(std::string bytes,
                         ReadFileBytes(PayloadPath(entry.file)));
  if (static_cast<int64_t>(bytes.size()) != entry.payload_bytes) {
    return Status::IoError("artifact '" + key + "' payload file has " +
                           std::to_string(bytes.size()) + " bytes, expected " +
                           std::to_string(entry.payload_bytes));
  }
  if (Fnv1a64(bytes) != entry.checksum) {
    return Status::IoError("artifact '" + key +
                           "' payload failed its checksum");
  }
  return bytes;
}

Result<ArtifactPayload> DiskArtifactStore::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("artifact '" + key + "' is not materialized");
  }
  if (it->second.has_pending) {
    return it->second.pending;
  }
  HYPPO_ASSIGN_OR_RETURN(std::string bytes,
                         ReadPayloadLocked(key, it->second));
  return DeserializePayload(bytes);
}

Result<ArtifactStore::Loaded> DiskArtifactStore::Load(
    const std::string& key) const {
  const Stopwatch watch(clock_);
  HYPPO_ASSIGN_OR_RETURN(ArtifactPayload payload, Get(key));
  return Loaded{std::move(payload), watch.Elapsed()};
}

bool DiskArtifactStore::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(key) > 0;
}

Status DiskArtifactStore::Evict(const std::string& key) {
  HYPPO_RETURN_NOT_OK(init_status_);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("artifact '" + key + "' is not materialized");
  }
  const Entry entry = it->second;
  entries_.erase(it);
  used_bytes_ -= entry.size_bytes;
  payload_bytes_ -= entry.payload_bytes;
  if (entry.on_disk) {
    evicted_files_.insert(entry.file);
  }
  if (write_behind_) {
    return Status::OK();
  }
  Status manifest = WriteManifestLocked();
  if (!manifest.ok()) {
    evicted_files_.erase(entry.file);
    entries_.emplace(key, entry);
    used_bytes_ += entry.size_bytes;
    payload_bytes_ += entry.payload_bytes;
    return manifest;
  }
  // The manifest no longer names the entry: its file may go.
  RemoveEvictedFilesLocked();
  return Status::OK();
}

Result<int64_t> DiskArtifactStore::SizeOf(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("artifact '" + key + "' is not materialized");
  }
  return it->second.size_bytes;
}

int64_t DiskArtifactStore::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_bytes_;
}

int64_t DiskArtifactStore::payload_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return payload_bytes_;
}

size_t DiskArtifactStore::num_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::string> DiskArtifactStore::Keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    keys.push_back(key);
  }
  return keys;
}

}  // namespace hyppo::storage
