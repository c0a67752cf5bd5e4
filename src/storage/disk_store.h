#ifndef HYPPO_STORAGE_DISK_STORE_H_
#define HYPPO_STORAGE_DISK_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "storage/artifact_store.h"

namespace hyppo::storage {

/// \brief Durable artifact store backed by a directory on disk.
///
/// Layout under the store directory:
///   store.manifest          index of every live entry ("HYPM" binary)
///   store.lock              advisory flock(2) guard (see below)
///   payloads/<file>.bin     one encoded payload per entry (HYP1 codec)
///
/// Exclusive-ownership contract: a store directory backs exactly one
/// live DiskArtifactStore at a time. The constructor takes an exclusive
/// advisory lock on `store.lock` (non-blocking) and fails fast through
/// init_status() when another live store — in this process or any other
/// — already holds it, instead of letting two sessions race the
/// manifest. The lock dies with the owning store (or its process), so
/// crashes never leave a stale lock behind.
///
/// Durability contract:
///  - Every Put serializes the payload (storage/serialization.h), writes
///    it to a temporary file, renames it into place, and then rewrites
///    the manifest the same way. A crash at any point leaves either the
///    old entry or the new one — never a torn payload: readers only trust
///    files the manifest names, with the recorded byte count and FNV-1a
///    checksum.
///  - Evict removes the manifest entry first and the payload file second,
///    so a crash in between leaves an orphan file (garbage-collected on
///    the next open), never a manifest entry without bytes.
///  - In write-behind mode (EnableWriteBehind), Put and Evict only update
///    the in-memory index: a new version stays in memory, readable at
///    once, and an evicted entry's file stays on disk. Flush() encodes
///    and writes the new versions without holding the index lock, then
///    rewrites the manifest once and deletes the evicted files. A crash
///    before Flush() leaves the last flushed state.
///  - Opening a store recovers from whatever a previous session left:
///    manifest entries whose payload file is missing or has the wrong
///    length are dropped, `*.tmp` leftovers and orphan payload files are
///    deleted.
///
/// Accounting is byte-accurate on two axes: `used_bytes()` charges the
/// caller-declared logical `size_bytes` (what the materializer budgets
/// against, matching `ArtifactInfo::size_bytes`), while
/// `payload_bytes()` reports the physical encoded bytes on disk.
///
/// Load() reports *measured* wall-clock seconds for the read + decode —
/// the disk tier charges real costs, not the StorageTier simulation
/// (the tier model still answers cost *estimates* for planning).
///
/// Thread-safe: a single mutex guards the index; file writes happen
/// under it (writers serialize, matching InMemoryArtifactStore's
/// coarse-grained contract), except Flush()'s payload writes, which
/// serialize on their own mutex.
class DiskArtifactStore final : public ArtifactStore {
 public:
  /// Opens (or creates) the store rooted at `directory`, acquires its
  /// exclusive directory lock, and recovers the index from the manifest.
  /// Errors — including the directory being locked by another live store
  /// — are reported through init_status(); a store that failed to open
  /// behaves as empty and rejects Puts.
  explicit DiskArtifactStore(std::string directory,
                             StorageTier tier = StorageTier::Local());
  ~DiskArtifactStore() override;

  /// OK when the directory was opened/recovered successfully.
  const Status& init_status() const { return init_status_; }

  const std::string& directory() const { return directory_; }

  Status Put(const std::string& key, ArtifactPayload payload,
             int64_t size_bytes) override;
  Result<ArtifactPayload> Get(const std::string& key) const override;
  bool Contains(const std::string& key) const override;
  Status Evict(const std::string& key) override;
  Result<int64_t> SizeOf(const std::string& key) const override;
  int64_t used_bytes() const override;
  size_t num_entries() const override;
  std::vector<std::string> Keys() const override;
  const StorageTier& tier() const override { return tier_; }

  /// Reads + decodes the payload and charges the measured wall-clock
  /// seconds of the disk round-trip.
  Result<Loaded> Load(const std::string& key) const override;

  void EnableWriteBehind() override;
  Status Flush() override;

  /// Physical bytes of all encoded payloads on disk (vs. the logical
  /// used_bytes() the budget is charged in).
  int64_t payload_bytes() const;

 private:
  struct Entry {
    std::string file;        ///< payload file name under payloads/
    int64_t size_bytes = 0;  ///< logical size charged against the budget
    /// The file holds a complete version, the one the manifest names.
    bool on_disk = false;
    int64_t payload_bytes = 0;  ///< encoded bytes on disk
    uint64_t checksum = 0;      ///< FNV-1a64 of the encoded payload
    /// Write-behind: the current version when the file does not hold it.
    bool has_pending = false;
    ArtifactPayload pending;
    /// Bumped by every write-behind Put, so Flush() can tell whether the
    /// version it wrote is still the current one.
    uint64_t version = 0;
  };

  /// Takes the exclusive advisory lock on `<directory>/store.lock`;
  /// FailedPrecondition when another live store holds it.
  Status AcquireDirectoryLock();
  /// Scans the manifest + payload directory, drops unreadable entries,
  /// and deletes *.tmp and orphan files. Called once from the ctor.
  Status Recover();
  /// Atomically rewrites store.manifest from entries_ (caller holds
  /// mutex_).
  Status WriteManifestLocked();
  /// Deletes the payload files of evicted entries once the manifest no
  /// longer names them (caller holds mutex_).
  void RemoveEvictedFilesLocked();
  /// Reads + verifies one entry's payload bytes (caller holds mutex_).
  Result<std::string> ReadPayloadLocked(const std::string& key,
                                        const Entry& entry) const;

  std::string PayloadPath(const std::string& file) const;
  std::string ManifestPath() const;

  std::string directory_;
  StorageTier tier_;
  WallClock clock_;
  Status init_status_;
  /// File descriptor holding the advisory directory lock; -1 when the
  /// lock was never acquired (init failure).
  int lock_fd_ = -1;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  int64_t used_bytes_ = 0;
  int64_t payload_bytes_ = 0;
  bool write_behind_ = false;
  /// The last manifest write failed, so the file lags the index.
  bool manifest_stale_ = false;
  uint64_t next_version_ = 0;
  /// Files of evicted entries that a manifest on disk may still name.
  std::set<std::string> evicted_files_;
  /// Serializes Flush() calls, whose file writes run outside mutex_.
  std::mutex flush_mutex_;
};

}  // namespace hyppo::storage

#endif  // HYPPO_STORAGE_DISK_STORE_H_
