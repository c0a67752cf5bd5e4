#ifndef HYPPO_STORAGE_TIERED_STORE_H_
#define HYPPO_STORAGE_TIERED_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/artifact_store.h"

namespace hyppo::storage {

/// \brief Two-tier artifact store: a memory front cache over a durable
/// back store (typically DiskArtifactStore).
///
/// The back tier is authoritative for everything observable — Contains,
/// SizeOf, used_bytes, num_entries, Keys, and the budget the materializer
/// enforces all reflect the back store alone. The front is a write-through
/// cache: Put lands durably in the back first and only then mirrors into
/// memory; Load serves hot keys from the front (charged at the memory
/// tier's cost model) and promotes misses after the back's real,
/// measured load. Evict drops both copies. A crash therefore loses only
/// cache warmth, never data, and the decorator contract of the PR-3
/// interface is preserved: FaultInjectingStore wraps a TieredArtifactStore
/// exactly like it wraps the in-memory store.
class TieredArtifactStore final : public ArtifactStore {
 public:
  /// An effectively-free tier for front-cache hits (DRAM bandwidth,
  /// sub-microsecond latency).
  static StorageTier MemoryTier();

  explicit TieredArtifactStore(std::unique_ptr<ArtifactStore> back);

  Status Put(const std::string& key, ArtifactPayload payload,
             int64_t size_bytes) override;
  Result<ArtifactPayload> Get(const std::string& key) const override;
  bool Contains(const std::string& key) const override;
  Status Evict(const std::string& key) override;
  Result<int64_t> SizeOf(const std::string& key) const override;
  int64_t used_bytes() const override;
  size_t num_entries() const override;
  std::vector<std::string> Keys() const override;
  /// The back tier: cost estimates stay conservative (planning assumes a
  /// load may have to go to disk).
  const StorageTier& tier() const override;
  Result<Loaded> Load(const std::string& key) const override;
  void EnableWriteBehind() override { back_->EnableWriteBehind(); }
  Status Flush() override { return back_->Flush(); }

  ArtifactStore& back() { return *back_; }
  const ArtifactStore& back() const { return *back_; }

  /// Entries currently mirrored in the memory front (for tests and
  /// telemetry).
  size_t front_entries() const { return front_.num_entries(); }

 private:
  std::unique_ptr<ArtifactStore> back_;
  /// Write-through cache; mutable so Load can promote on a miss.
  mutable InMemoryArtifactStore front_;
};

}  // namespace hyppo::storage

#endif  // HYPPO_STORAGE_TIERED_STORE_H_
