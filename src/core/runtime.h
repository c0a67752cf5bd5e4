#ifndef HYPPO_CORE_RUNTIME_H_
#define HYPPO_CORE_RUNTIME_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/augmenter.h"
#include "core/batch_planner.h"
#include "core/cost_model.h"
#include "core/dictionary.h"
#include "core/executor.h"
#include "core/history.h"
#include "core/monitor.h"
#include "storage/artifact_store.h"
#include "storage/fault_injection.h"

namespace hyppo::core {

/// \brief Options shared by every optimization method in an experiment.
struct RuntimeOptions {
  /// Storage budget B in bytes for materialized artifacts.
  int64_t storage_budget_bytes = 64ll << 20;
  /// Simulation mode: tasks charge estimated durations instead of
  /// executing (see Executor::Options::simulate).
  bool simulate = false;
  /// Worker threads for real execution (see Executor::Options) and for
  /// the optimizer's parallel plan-search engine (HyppoMethod forwards
  /// this into PlanGenerator::Options::num_threads). Use
  /// DefaultParallelism() to size it to the machine.
  int parallelism = 1;
  /// One worker per hardware thread (at least 1 when the hardware
  /// concurrency is unknown).
  static int DefaultParallelism();
  /// Thread bound for intra-task kernel parallelism (ml/kernels): the
  /// executor installs it around every operator call. 0 (default)
  /// inherits `parallelism`. Kernels invoked from the parallel
  /// executor's pool workers fall back to serial regardless, so this
  /// composes with task-level parallelism without oversubscription.
  int kernel_threads = 0;
  PricingModel pricing;
  Augmenter::Objective objective = Augmenter::Objective::kTime;
  /// Debug-mode invariant verification: every plan is checked by the
  /// analysis verifier before execution, and methods that honor the flag
  /// (HyppoMethod) also verify plans as the search returns them. Tests
  /// and the workload scenarios enable this. The recovery loop also
  /// verifies every degraded augmentation before re-planning.
  bool verify_plans = false;
  /// Submit-time static analysis (analysis/static): pipelines are
  /// shape-checked and determinism-linted before any planning, rejecting
  /// malformed submissions fail-fast with source-located diagnostics.
  /// Plan verification is `verify_plans` alone; this flag does not touch
  /// it.
  bool static_checks = true;
  /// Self-healing bound: how many degrade-and-re-plan rounds that produce
  /// no new payload one execution may take after task failures before the
  /// first failure surfaces as an error. Rounds that do produce one are not
  /// counted (each adds a payload, so they are finitely many). 0 disables
  /// recovery entirely.
  int max_recovery_attempts = 3;
  /// History growth bound: when the history holds more than this many
  /// artifacts after an execution, Pareto compaction (History::Compact)
  /// trims it back to the bound, keeping materialized, recently accessed,
  /// expensive-to-recompute, and frequently reused artifacts. <= 0
  /// (default) disables compaction — the history grows without bound.
  int32_t history_max_artifacts = 0;
  /// Fraction of `history_max_artifacts` that survives one compaction
  /// (hysteresis: compacting below the trigger keeps compaction from
  /// firing on every subsequent execution).
  double history_retain_fraction = 0.75;
  /// Directory of a durable artifact store. Empty (default) keeps the
  /// session in memory; non-empty opens/creates a disk-backed tiered
  /// store there (storage/disk_store.h behind a memory front cache) and
  /// reloads the previous session's history + materialized set on
  /// construction — check Runtime::session_status() before use.
  std::string store_dir;
  /// Batch multi-query optimization (core/batch_planner.h): when a set of
  /// pipelines is submitted together (HyppoSystem::RunBatch, a serving
  /// sweep request), fold them into one merged hypergraph, augment and
  /// bound once, and execute members with cross-member payload seeding so
  /// shared prefixes run once per batch. Off = each member is planned and
  /// executed independently (the sequential baseline the sweep bench
  /// compares against).
  bool batch_planning = true;
  /// Calibrate formula-based cost estimates against the machine's actual
  /// kernel throughput: at construction the runtime times a small GEMM
  /// through the kernel dispatcher (ml::kernels::MeasureGemmGflops) and
  /// installs measured/baseline as the estimator's throughput scale, so
  /// CostHint-based plan costs track the active kernel tier (simd vs
  /// blocked) instead of assuming the blocked-tier plateau the formulas
  /// were tuned on. Off by default: the probe costs tens of milliseconds
  /// and makes plan costs machine-dependent, which deterministic tests
  /// and simulations do not want.
  bool calibrate_kernel_costs = false;
};

/// \brief Shared execution state: catalog (dictionary + history), cost
/// estimator, monitor, artifact store, executor, and dataset sources.
///
/// HYPPO and every baseline method operate against the same Runtime, so
/// experiment comparisons differ only in planning and materialization
/// policy — exactly the paper's setup.
class Runtime {
 public:
  /// Produces a fresh plan for a degraded augmentation during recovery.
  /// Typically Method::ReplanAugmentation bound to the active method, so
  /// recovery re-optimizes with the same strategy that planned the
  /// original run.
  using Replanner = std::function<Result<Plan>(const Augmentation&)>;

  explicit Runtime(RuntimeOptions options = RuntimeOptions(),
                   Dictionary dictionary = Dictionary::FromRegistry(
                       ml::OperatorRegistry::Global()));

  const RuntimeOptions& options() const { return options_; }
  const Dictionary& dictionary() const { return dictionary_; }
  History& history() { return history_; }
  const History& history() const { return history_; }
  CostEstimator& estimator() { return estimator_; }
  Monitor& monitor() { return monitor_; }
  const Monitor& monitor() const { return monitor_; }
  storage::ArtifactStore& store() { return *store_; }
  const storage::ArtifactStore& store() const { return *store_; }

  /// OK unless opening the durable store or restoring the previous
  /// session failed (constructors cannot return a Status). An in-memory
  /// runtime is always OK.
  const Status& session_status() const { return session_status_; }
  const Augmenter& augmenter() const { return augmenter_; }
  const Executor& executor() const { return *executor_; }

  /// Registers a raw dataset the executor can resolve by id.
  void RegisterDataset(const std::string& dataset_id, ml::DatasetPtr data);

  /// Registers a lazy dataset source (generated on first load).
  void RegisterDatasetGenerator(
      const std::string& dataset_id,
      std::function<Result<ml::DatasetPtr>()> generator);

  /// Arms chaos mode: wraps the store in a storage::FaultInjectingStore
  /// and hands the injector to the executor's operator/resolver hooks.
  /// Idempotent per runtime; call before executing. Persistence and the
  /// materializer keep talking to the undecorated store.
  void EnableFaultInjection(const storage::FaultPlan& plan);

  /// The active injector, or null when fault injection is disabled.
  storage::FaultInjector* fault_injector() { return fault_injector_.get(); }

  /// Serving hook (serving::SessionManager): when set, every
  /// catalog-mutating section of ExecuteAndRecord — pipeline-structure
  /// recording, post-execution history/estimator observations, recovery
  /// degradation, and Pareto compaction — takes the writer side of this
  /// lock. Concurrent sessions plan under the reader side against a
  /// consistent history snapshot while executions commit serially; task
  /// execution itself (operator runs, store I/O) stays outside the lock.
  /// Null (default): single-owner, no locking. The mutex must outlive
  /// every execution.
  void set_catalog_mutex(std::shared_mutex* mutex) { catalog_mutex_ = mutex; }
  std::shared_mutex* catalog_mutex() const { return catalog_mutex_; }

  struct ExecutionRecord {
    /// Charged execution time of the plan in seconds (including recovery
    /// attempts — failed work is billed like the paper's monetary model
    /// bills retried cloud tasks).
    double seconds = 0.0;
    /// Payloads of every artifact produced or loaded, by canonical name.
    std::map<std::string, ArtifactPayload> payloads_by_name;
    /// Degrade-and-re-plan rounds this execution needed (0 = clean run).
    int replans = 0;
    /// Task-level failures absorbed across all attempts.
    int64_t failed_tasks = 0;
    /// Tasks recovery attempts skipped because their payloads survived.
    int64_t recovered_tasks = 0;
    /// Tasks skipped on the first attempt because a batch seed already
    /// held their outputs (cross-member shared-prefix reuse; only set by
    /// RunBatch).
    int64_t seeded_tasks = 0;
  };

  /// Executes `plan` and records everything into the history: artifact
  /// observations (sizes), task observations (durations), access counts
  /// for the pipeline's artifacts, and source-data registrations. The
  /// pipeline's *structure* is recorded even for tasks the plan skipped,
  /// so future augmentations can splice these derivations.
  ///
  /// When tasks fail and `replan` is provided, the runtime self-heals: it
  /// drops the dead load edges from a copy of the augmentation, purges the
  /// rotten artifacts from the store and the history, re-plans over the
  /// degraded augmentation, and re-executes reusing every payload that
  /// survived — bounded by RuntimeOptions::max_recovery_attempts rounds
  /// without progress, after which the first failure's Status is
  /// returned. Without a replanner the first failure surfaces immediately.
  Result<ExecutionRecord> ExecuteAndRecord(const Pipeline& pipeline,
                                           const Augmentation& aug,
                                           const Plan& plan,
                                           const Replanner& replan = nullptr);

  /// Variant for retrieval requests (no defining pipeline; only the plan's
  /// own artifacts are recorded/accessed).
  Result<ExecutionRecord> ExecutePlanOnly(const Augmentation& aug,
                                          const Plan& plan,
                                          const Replanner& replan = nullptr);

  struct BatchExecutionRecord {
    /// Per-member records, in submission order.
    std::vector<ExecutionRecord> members;
    /// Total charged seconds across the batch.
    double seconds = 0.0;
    /// Tasks skipped because an earlier member of the SAME batch already
    /// produced their outputs (in-memory shared-prefix reuse; also
    /// recorded as Monitor::num_shared_prefix_hits).
    int64_t shared_prefix_skips = 0;
  };

  /// Executes a batch planned by BatchPlanner::PlanBatch: member plans run
  /// in submission order over the shared merged augmentation, each seeded
  /// with every payload earlier members produced, so shared-prefix tasks
  /// execute exactly once per batch. Every member reads `merged` by
  /// reference with its own MemberPlan::targets; a successful batch copies
  /// no Augmentation, and a failing member's recovery copies `merged` once
  /// with that member's targets. Every member pipeline's structure is
  /// recorded up front (per-member access counts are what give shared
  /// artifacts their batch-wide fan-out in the materializer's scoring),
  /// and all artifacts of the merged augmentation are pinned against
  /// History::Compact until the batch commits — a concurrent session's
  /// compaction must not drop statistics an in-flight batch still needs.
  /// `pipelines` are the original members, aligned with `members`.
  Result<BatchExecutionRecord> RunBatch(
      const std::vector<Pipeline>& pipelines, const Augmentation& merged,
      const std::vector<BatchPlanner::MemberPlan>& members,
      const Replanner& replan = nullptr);

  /// Cumulative charged seconds so far — the experiment's logical clock
  /// (drives LRU timestamps). Atomic so concurrent sessions can read it
  /// while one commits.
  double now_seconds() const {
    return cumulative_seconds_.load(std::memory_order_relaxed);
  }

  /// Persists the catalog (history + materialized payloads) to a
  /// directory; a later session — or another user's — can LoadCatalog and
  /// reuse everything (across-experiments reuse, paper §I).
  Status SaveCatalog(const std::string& directory) const;

  /// Replaces this runtime's history and store with a saved catalog.
  Status LoadCatalog(const std::string& directory);

  /// Writes the history snapshot into the durable store directory
  /// (atomically), so a restarted session reloads its materialized set.
  /// Payloads are already durable — the materializer's Puts land on disk
  /// as they happen. No-op for in-memory runtimes.
  Status PersistSession();

 private:
  /// Reloads `<store_dir>/history.hyppo` (if present) and reconciles it
  /// with the recovered store: history entries without a store payload
  /// are evicted, store entries the history does not claim (or whose
  /// size drifted) are dropped.
  Status RestoreSession();
  /// Executes `plan` over `aug` on behalf of a caller whose goal is
  /// `targets`: the executor's plan verification requires exactly these
  /// targets, not `aug.targets`. Single-pipeline
  /// callers pass `aug.targets`; a batch member passes its own targets
  /// while reading the shared merged augmentation by const reference.
  /// Only recovery copies `aug`: the degraded copy takes `targets` before
  /// it is handed to `replan`.
  ///
  /// `batch_payloads`, when non-null, is the batch accumulator: its
  /// entries seed the first attempt (tasks whose outputs are all present
  /// are skipped and counted into ExecutionRecord::seeded_tasks), and on
  /// success it is replaced with the union of seed and produced payloads.
  /// Keys are node ids of `aug`, so every member of a batch must execute
  /// against the same merged augmentation's id space.
  Result<ExecutionRecord> ExecuteInternal(
      const Augmentation& aug, const std::vector<NodeId>& targets,
      const Plan& plan, const Replanner& replan,
      std::map<NodeId, ArtifactPayload>* batch_payloads = nullptr);
  /// Pins canonical artifact names against History::Compact for the
  /// lifetime of an in-flight batch (multiset: overlapping batches pin
  /// independently).
  void PinArtifacts(const std::vector<std::string>& names);
  void UnpinArtifacts(const std::vector<std::string>& names);
  /// Mirrors the pipeline structure into the history without durations.
  Status RecordPipelineStructure(const Pipeline& pipeline);
  /// Degrades `aug` in place after `failures`: dead materialized-artifact
  /// loads lose their load edge and the rotten copies are purged from the
  /// store and the history; everything else is transient and retried.
  Status DegradeAfterFailures(
      const std::vector<Executor::TaskFailure>& failures, Augmentation* aug);

  RuntimeOptions options_;
  Dictionary dictionary_;
  History history_;
  CostEstimator estimator_;
  Monitor monitor_;
  /// InMemoryArtifactStore, or a TieredArtifactStore over a
  /// DiskArtifactStore when options_.store_dir is set. Never replaced
  /// after construction (the executor and fault decorator hold pointers).
  std::unique_ptr<storage::ArtifactStore> store_;
  Status session_status_;
  /// Chaos-mode decorations (EnableFaultInjection); null when disabled.
  std::unique_ptr<storage::FaultInjector> fault_injector_;
  std::unique_ptr<storage::FaultInjectingStore> fault_store_;
  Augmenter augmenter_;
  std::unique_ptr<Executor> executor_;
  std::map<std::string, std::function<Result<ml::DatasetPtr>()>> sources_;
  std::map<std::string, ml::DatasetPtr> resolved_sources_;
  /// Guards the lazy source cache: parallel plan execution may resolve
  /// raw loads concurrently.
  std::mutex sources_mutex_;
  /// Serving catalog lock (see set_catalog_mutex); null = single-owner.
  std::shared_mutex* catalog_mutex_ = nullptr;
  /// Artifact names of in-flight batches, protected from history
  /// compaction (see PinArtifacts). Guarded by pinned_mutex_ because
  /// concurrent sessions' batches pin/unpin while another session's
  /// ExecuteInternal snapshots the set for its compaction call.
  mutable std::mutex pinned_mutex_;
  std::multiset<std::string> pinned_artifacts_;
  /// Mutated only under the catalog writer lock (when one is installed);
  /// atomic so readers need no lock.
  std::atomic<double> cumulative_seconds_{0.0};
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_RUNTIME_H_
