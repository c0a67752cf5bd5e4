#include "core/runtime.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>

#include "ml/kernels/kernels.h"
#include "analysis/static/static_analyzer.h"
#include "core/history_io.h"
#include "storage/disk_store.h"
#include "storage/tiered_store.h"

namespace hyppo::core {

namespace {

// Writer-side guard of the serving catalog lock (see
// Runtime::set_catalog_mutex); a no-op when no lock is installed, so the
// single-owner path stays lock-free.
class CatalogWriteLock {
 public:
  explicit CatalogWriteLock(std::shared_mutex* mutex) : mutex_(mutex) {
    if (mutex_ != nullptr) {
      mutex_->lock();
    }
  }
  ~CatalogWriteLock() {
    if (mutex_ != nullptr) {
      mutex_->unlock();
    }
  }
  CatalogWriteLock(const CatalogWriteLock&) = delete;
  CatalogWriteLock& operator=(const CatalogWriteLock&) = delete;

 private:
  std::shared_mutex* mutex_;
};

}  // namespace

int RuntimeOptions::DefaultParallelism() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

Runtime::Runtime(RuntimeOptions options, Dictionary dictionary)
    : options_(std::move(options)),
      dictionary_(std::move(dictionary)),
      estimator_(&ml::OperatorRegistry::Global()),
      monitor_(&estimator_),
      augmenter_(&dictionary_, &estimator_, storage::StorageTier::Local(),
                 storage::StorageTier::Remote(), options_.pricing) {
  augmenter_.set_monitor(&monitor_);
  if (options_.calibrate_kernel_costs) {
    // One-shot throughput probe through the kernel dispatcher; clamped so
    // a noisy reading cannot distort estimates by more than ~30x.
    const double measured = ml::kernels::MeasureGemmGflops();
    const double scale =
        std::clamp(measured / ml::kernels::kCalibrationBaselineGflops,
                   1.0 / 32.0, 32.0);
    estimator_.SetComputeThroughputScale(scale);
  }
  if (options_.store_dir.empty()) {
    store_ = std::make_unique<storage::InMemoryArtifactStore>(
        storage::StorageTier::Local());
  } else {
    auto disk =
        std::make_unique<storage::DiskArtifactStore>(options_.store_dir);
    session_status_ = disk->init_status();
    store_ = std::make_unique<storage::TieredArtifactStore>(std::move(disk));
    if (session_status_.ok()) {
      session_status_ = RestoreSession();
    }
  }
  executor_ = std::make_unique<Executor>(
      store_.get(),
      [this](const std::string& dataset_id) -> Result<ml::DatasetPtr> {
        std::lock_guard<std::mutex> lock(sources_mutex_);
        auto cached = resolved_sources_.find(dataset_id);
        if (cached != resolved_sources_.end()) {
          return cached->second;
        }
        auto it = sources_.find(dataset_id);
        if (it == sources_.end()) {
          return Status::NotFound("no registered dataset '" + dataset_id +
                                  "'");
        }
        HYPPO_ASSIGN_OR_RETURN(ml::DatasetPtr data, it->second());
        resolved_sources_.emplace(dataset_id, data);
        return data;
      },
      &monitor_);
}

void Runtime::RegisterDataset(const std::string& dataset_id,
                              ml::DatasetPtr data) {
  sources_[dataset_id] = [data]() -> Result<ml::DatasetPtr> { return data; };
}

void Runtime::RegisterDatasetGenerator(
    const std::string& dataset_id,
    std::function<Result<ml::DatasetPtr>()> generator) {
  sources_[dataset_id] = std::move(generator);
}

void Runtime::EnableFaultInjection(const storage::FaultPlan& plan) {
  fault_injector_ = std::make_unique<storage::FaultInjector>(plan);
  fault_store_ = std::make_unique<storage::FaultInjectingStore>(
      store_.get(), fault_injector_.get());
  executor_->set_store(fault_store_.get());
}

Status Runtime::DegradeAfterFailures(
    const std::vector<Executor::TaskFailure>& failures, Augmentation* aug) {
  for (const Executor::TaskFailure& failure : failures) {
    const TaskInfo& task = aug->graph.task(failure.edge);
    if (task.type != TaskType::kLoad) {
      continue;  // operator fault: transient, the retry re-runs it
    }
    const NodeId head = aug->graph.ordered_head(failure.edge)[0];
    const ArtifactInfo& artifact = aug->graph.artifact(head);
    if (artifact.kind == ArtifactKind::kRaw) {
      continue;  // resolver outage: transient, the source is not ours
    }
    // The materialized copy is dead: drop the load edge so no re-plan
    // trusts it, and purge the entry from the store and the history.
    HYPPO_RETURN_NOT_OK(aug->graph.RemoveTask(failure.edge));
    (void)store_->Evict(artifact.name);
    Result<NodeId> h_node = history_.graph().FindArtifact(artifact.name);
    if (h_node.ok()) {
      (void)history_.EvictMaterialized(*h_node);
    }
  }
  return Status::OK();
}

Result<Runtime::ExecutionRecord> Runtime::ExecuteInternal(
    const Augmentation& aug, const std::vector<NodeId>& targets,
    const Plan& plan, const Replanner& replan,
    std::map<NodeId, ArtifactPayload>* batch_payloads) {
  Executor::Options exec_options;
  exec_options.simulate = options_.simulate;
  exec_options.parallelism = options_.parallelism;
  exec_options.kernel_threads = options_.kernel_threads;
  exec_options.verify_plans = options_.verify_plans;
  exec_options.targets = &targets;
  exec_options.fault_injector = fault_injector_.get();

  const int64_t faults_before =
      fault_injector_ ? fault_injector_->counters().total() : 0;

  ExecutionRecord record;
  std::vector<Executor::TaskRun> all_runs;
  std::map<NodeId, ArtifactPayload> surviving;
  double total_seconds = 0.0;

  // Batch seeding: earlier members' payloads pre-populate the surviving
  // map, so the first attempt already skips every task whose outputs a
  // batch sibling produced (shared prefixes execute once per batch).
  if (batch_payloads != nullptr && !batch_payloads->empty()) {
    surviving = *batch_payloads;
    exec_options.seed_payloads = &surviving;
  }

  // Attempt 0 runs the caller's plan. On failures, recovery degrades a
  // copy of the augmentation that takes the caller's `targets` (node/edge
  // ids stay stable under edge removal, so payloads and task runs keep
  // referring to `aug`), re-plans, and re-executes seeded with every
  // surviving payload.
  //
  // Only recovery attempts that add no new payload to `surviving` count
  // toward max_recovery_attempts: an attempt that got further is not a
  // retry of the same failure. The loop stays bounded, because each
  // uncounted attempt adds at least one of the augmentation's finitely
  // many payloads.
  Augmentation degraded;
  const Augmentation* current_aug = &aug;
  Plan current_plan = plan;
  int stalled_attempts = 0;
  for (int attempt = 0;; ++attempt) {
    HYPPO_ASSIGN_OR_RETURN(
        Executor::ExecutionResult result,
        executor_->Execute(*current_aug, current_plan, exec_options));
    total_seconds += result.total_seconds;
    all_runs.insert(all_runs.end(), result.task_runs.begin(),
                    result.task_runs.end());
    const size_t surviving_before = surviving.size();
    for (auto& [node, payload] : result.payloads) {
      surviving[node] = std::move(payload);
    }
    if (attempt > 0) {
      if (surviving.size() == surviving_before) {
        ++stalled_attempts;
      }
      record.recovered_tasks += result.reused_tasks;
      monitor_.RecordRecoveredTasks(result.reused_tasks);
    } else if (batch_payloads != nullptr && !batch_payloads->empty()) {
      record.seeded_tasks = result.reused_tasks;
    }
    if (result.complete()) {
      break;
    }
    record.failed_tasks += static_cast<int64_t>(result.failures.size());
    monitor_.RecordTaskFailures(static_cast<int64_t>(result.failures.size()));
    if (!replan || stalled_attempts >= options_.max_recovery_attempts) {
      if (!result.failures.empty()) {
        return result.failures.front().status;
      }
      return Status::Internal(
          "execution left " + std::to_string(result.skipped_edges.size()) +
          " tasks unexecuted with no failure to recover from");
    }
    if (attempt == 0) {
      degraded = aug;
      degraded.targets = targets;
      current_aug = &degraded;
    }
    {
      // Degradation purges rotten history/store entries: a catalog
      // mutation, serialized against concurrent sessions' planning.
      CatalogWriteLock commit(catalog_mutex_);
      HYPPO_RETURN_NOT_OK(DegradeAfterFailures(result.failures, &degraded));
    }
    if (options_.verify_plans) {
      HYPPO_RETURN_NOT_OK(VerifyAugmentationStructure(degraded));
    }
    ++record.replans;
    monitor_.RecordReplan();
    HYPPO_ASSIGN_OR_RETURN(current_plan, replan(degraded));
    exec_options.seed_payloads = &surviving;
  }
  if (fault_injector_) {
    monitor_.RecordInjectedFaults(fault_injector_->counters().total() -
                                  faults_before);
  }

  record.seconds = total_seconds;

  // Commit phase: everything below mutates the shared catalog (history
  // records + estimator feedback via the monitor already landed, clock,
  // compaction), so it runs under the writer lock while concurrent
  // sessions' planners wait on the reader side.
  CatalogWriteLock commit(catalog_mutex_);
  cumulative_seconds_.store(
      cumulative_seconds_.load(std::memory_order_relaxed) + total_seconds,
      std::memory_order_relaxed);

  // Refresh artifact metadata with observed payload sizes, then record
  // artifacts, tasks, and durations into the history.
  const PipelineGraph& graph = aug.graph;
  std::map<NodeId, NodeId> to_history;
  for (const auto& [node, payload] : surviving) {
    ArtifactInfo info = graph.artifact(node);
    const int64_t observed = storage::PayloadSizeBytes(payload);
    if (observed > 0) {
      info.size_bytes = observed;
      if (const auto* dataset = std::get_if<ml::DatasetPtr>(&payload)) {
        info.rows = (*dataset)->rows();
        info.cols = (*dataset)->cols();
      }
    }
    const NodeId h_node = history_.Observe(info);
    to_history[node] = h_node;
    history_.RecordAccess(h_node, now_seconds());
    if (info.kind == ArtifactKind::kRaw) {
      HYPPO_RETURN_NOT_OK(history_.RegisterSourceData(h_node).status());
    }
    record.payloads_by_name[info.name] = payload;
  }
  for (const Executor::TaskRun& run : all_runs) {
    const TaskInfo& task = graph.task(run.edge);
    if (task.type == TaskType::kLoad) {
      continue;  // load edges are managed by materialization state
    }
    std::vector<NodeId> tails;
    for (NodeId t : graph.ordered_tail(run.edge)) {
      if (t == graph.source()) {
        continue;
      }
      auto it = to_history.find(t);
      if (it == to_history.end()) {
        to_history[t] = history_.Observe(graph.artifact(t));
        it = to_history.find(t);
      }
      tails.push_back(it->second);
    }
    std::vector<NodeId> heads;
    for (NodeId h : graph.ordered_head(run.edge)) {
      auto it = to_history.find(h);
      if (it == to_history.end()) {
        to_history[h] = history_.Observe(graph.artifact(h));
        it = to_history.find(h);
      }
      heads.push_back(it->second);
      history_.RecordComputeSeconds(it->second, run.seconds);
      const ArtifactInfo& produced = history_.graph().artifact(it->second);
      monitor_.RecordArtifact(produced.kind, produced.size_bytes,
                              run.seconds);
    }
    HYPPO_RETURN_NOT_OK(
        history_.ObserveTask(task, tails, heads, run.seconds).status());
  }

  // Bound history growth: compaction runs after all of this execution's
  // observations landed, so the Pareto criteria see fresh access times and
  // durations. The materializer only consumes canonical names (never node
  // ids) after this returns, so rebuilding the history here is safe.
  if (options_.history_max_artifacts > 0 &&
      history_.num_artifacts() > options_.history_max_artifacts) {
    // In-flight batches keep referring to their merged augmentation's
    // artifacts (and their accumulated statistics) until the batch-wide
    // materialization decision commits; compaction must not drop them.
    std::set<std::string> pinned;
    {
      std::lock_guard<std::mutex> lock(pinned_mutex_);
      pinned.insert(pinned_artifacts_.begin(), pinned_artifacts_.end());
    }
    History::CompactionOptions copts;
    copts.max_nodes = options_.history_max_artifacts;
    copts.retain_fraction = options_.history_retain_fraction;
    copts.protect_names = pinned.empty() ? nullptr : &pinned;
    HYPPO_ASSIGN_OR_RETURN(History::CompactionStats cstats,
                           history_.Compact(copts, now_seconds()));
    monitor_.RecordHistoryCompacted(cstats.nodes_dropped);
  }
  if (batch_payloads != nullptr) {
    *batch_payloads = std::move(surviving);
  }
  return record;
}

Status Runtime::RecordPipelineStructure(const Pipeline& pipeline) {
  const PipelineGraph& graph = pipeline.graph;
  std::map<NodeId, NodeId> to_history;
  for (NodeId v = 1; v < graph.num_artifacts(); ++v) {
    const ArtifactInfo& info = graph.artifact(v);
    const NodeId h_node = history_.Observe(info);
    to_history[v] = h_node;
    history_.RecordAccess(h_node, now_seconds());
    if (info.kind == ArtifactKind::kRaw) {
      HYPPO_RETURN_NOT_OK(history_.RegisterSourceData(h_node).status());
    }
  }
  for (EdgeId e : graph.hypergraph().LiveEdges()) {
    const TaskInfo& task = graph.task(e);
    if (task.type == TaskType::kLoad) {
      continue;
    }
    std::vector<NodeId> tails;
    for (NodeId t : graph.ordered_tail(e)) {
      if (t != graph.source()) {
        tails.push_back(to_history[t]);
      }
    }
    std::vector<NodeId> heads;
    for (NodeId h : graph.ordered_head(e)) {
      heads.push_back(to_history[h]);
    }
    HYPPO_RETURN_NOT_OK(
        history_.ObserveTask(task, tails, heads, /*seconds=*/-1.0).status());
  }
  return Status::OK();
}

Result<Runtime::ExecutionRecord> Runtime::ExecuteAndRecord(
    const Pipeline& pipeline, const Augmentation& aug, const Plan& plan,
    const Replanner& replan) {
  // Fail-fast admission check: a malformed pipeline is rejected before it
  // touches the history, the planner, or shared-store budget. Bitwise
  // reproduction becomes a hard requirement once fault injection is
  // armed (recovery re-executes tasks and must reproduce payloads).
  if (options_.static_checks) {
    analysis::StaticAnalyzerOptions sa_options;
    sa_options.require_bitwise = fault_injector_ != nullptr;
    const analysis::StaticAnalyzer analyzer(sa_options);
    const analysis::AnalysisReport report = analyzer.AnalyzePipeline(
        pipeline.graph, dictionary_, ml::OperatorRegistry::Global());
    if (!report.ok()) {
      return Status::InvalidArgument(
          "static analysis rejected pipeline '" + pipeline.id + "' (" +
          report.Summary() + "):\n" + report.ToString());
    }
  }
  {
    // Structure recording mutates the history; commit it under the
    // serving catalog writer lock (no-op single-owner).
    CatalogWriteLock commit(catalog_mutex_);
    HYPPO_RETURN_NOT_OK(RecordPipelineStructure(pipeline));
  }
  return ExecuteInternal(aug, aug.targets, plan, replan);
}

Result<Runtime::ExecutionRecord> Runtime::ExecutePlanOnly(
    const Augmentation& aug, const Plan& plan, const Replanner& replan) {
  return ExecuteInternal(aug, aug.targets, plan, replan);
}

void Runtime::PinArtifacts(const std::vector<std::string>& names) {
  std::lock_guard<std::mutex> lock(pinned_mutex_);
  for (const std::string& name : names) {
    pinned_artifacts_.insert(name);
  }
}

void Runtime::UnpinArtifacts(const std::vector<std::string>& names) {
  std::lock_guard<std::mutex> lock(pinned_mutex_);
  for (const std::string& name : names) {
    const auto it = pinned_artifacts_.find(name);
    if (it != pinned_artifacts_.end()) {
      pinned_artifacts_.erase(it);
    }
  }
}

Result<Runtime::BatchExecutionRecord> Runtime::RunBatch(
    const std::vector<Pipeline>& pipelines, const Augmentation& merged,
    const std::vector<BatchPlanner::MemberPlan>& members,
    const Replanner& replan) {
  if (pipelines.empty()) {
    return Status::InvalidArgument("cannot execute an empty batch");
  }
  if (pipelines.size() != members.size()) {
    return Status::InvalidArgument(
        "batch has " + std::to_string(pipelines.size()) + " pipelines but " +
        std::to_string(members.size()) + " member plans");
  }
  if (options_.static_checks) {
    analysis::StaticAnalyzerOptions sa_options;
    sa_options.require_bitwise = fault_injector_ != nullptr;
    const analysis::StaticAnalyzer analyzer(sa_options);
    for (const Pipeline& pipeline : pipelines) {
      const analysis::AnalysisReport report = analyzer.AnalyzePipeline(
          pipeline.graph, dictionary_, ml::OperatorRegistry::Global());
      if (!report.ok()) {
        return Status::InvalidArgument(
            "static analysis rejected batch member '" + pipeline.id + "' (" +
            report.Summary() + "):\n" + report.ToString());
      }
    }
  }
  {
    // Per-member structure recording is deliberate: each member accesses
    // its full prefix, so a shared artifact accumulates fan-out-many
    // access counts before the batch-wide materialization decision.
    CatalogWriteLock commit(catalog_mutex_);
    for (const Pipeline& pipeline : pipelines) {
      HYPPO_RETURN_NOT_OK(RecordPipelineStructure(pipeline));
    }
  }

  // Pin the merged augmentation's artifacts against compaction for the
  // whole batch: member plans and the end-of-batch materializer keep
  // consuming their statistics long after an individual execution commits,
  // and a concurrent session's compaction must not drop them mid-batch.
  std::vector<std::string> pinned_names;
  pinned_names.reserve(static_cast<size_t>(merged.graph.num_artifacts()));
  for (NodeId v = 1; v < merged.graph.num_artifacts(); ++v) {
    pinned_names.push_back(merged.graph.artifact(v).name);
  }
  PinArtifacts(pinned_names);
  struct PinGuard {
    Runtime* runtime;
    const std::vector<std::string>* names;
    ~PinGuard() { runtime->UnpinArtifacts(*names); }
  } pin_guard{this, &pinned_names};

  BatchExecutionRecord batch;
  batch.members.reserve(members.size());
  // Payloads accumulated across members, keyed by merged-graph node id
  // (every member plan shares that id space).
  std::map<NodeId, ArtifactPayload> accumulated;
  for (size_t i = 0; i < members.size(); ++i) {
    // Every member runs against `merged` itself (so node/edge ids and the
    // seed map carry over) with its own targets — plan verification and
    // recovery re-planning must only require THIS member's work.
    // Seed only payloads the member's plan actually touches: the commit
    // phase records an access per surviving payload, and an unrelated
    // sibling artifact must not inherit this member's access.
    std::map<NodeId, ArtifactPayload> seed;
    for (EdgeId e : members[i].plan.edges) {
      for (NodeId t : merged.graph.ordered_tail(e)) {
        const auto it = accumulated.find(t);
        if (it != accumulated.end()) {
          seed.insert(*it);
        }
      }
      for (NodeId h : merged.graph.ordered_head(e)) {
        const auto it = accumulated.find(h);
        if (it != accumulated.end()) {
          seed.insert(*it);
        }
      }
    }
    HYPPO_ASSIGN_OR_RETURN(
        ExecutionRecord record,
        ExecuteInternal(merged, members[i].targets, members[i].plan, replan,
                        &seed));
    for (auto& [node, payload] : seed) {
      accumulated[node] = std::move(payload);
    }
    batch.seconds += record.seconds;
    batch.shared_prefix_skips += record.seeded_tasks;
    batch.members.push_back(std::move(record));
  }
  monitor_.RecordSharedPrefixHits(batch.shared_prefix_skips);
  return batch;
}

Status Runtime::SaveCatalog(const std::string& directory) const {
  return core::SaveCatalog(history_, *store_, directory);
}

Status Runtime::LoadCatalog(const std::string& directory) {
  // Stage into a scratch store first so a failed load leaves the runtime
  // untouched; the live store object must survive (the executor and the
  // fault decorator hold pointers to it), so commit by refilling it.
  History history;
  storage::InMemoryArtifactStore scratch(store_->tier());
  HYPPO_RETURN_NOT_OK(core::LoadCatalog(directory, &history, &scratch));
  for (const std::string& key : store_->Keys()) {
    HYPPO_RETURN_NOT_OK(store_->Evict(key));
  }
  for (const std::string& key : scratch.Keys()) {
    HYPPO_ASSIGN_OR_RETURN(storage::ArtifactPayload payload,
                           scratch.Get(key));
    HYPPO_ASSIGN_OR_RETURN(int64_t size_bytes, scratch.SizeOf(key));
    HYPPO_RETURN_NOT_OK(store_->Put(key, std::move(payload), size_bytes));
  }
  history_ = std::move(history);
  return Status::OK();
}

Status Runtime::RestoreSession() {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::path(options_.store_dir) / "history.hyppo").string();
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    return Status::OK();  // fresh store: nothing to restore
  }
  HYPPO_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  HYPPO_ASSIGN_OR_RETURN(History loaded, DeserializeHistory(bytes));
  // Reconcile with what the disk store actually recovered: the history
  // snapshot and the payload files land independently, so a crash can
  // leave either side ahead. The store <-> history consistency invariant
  // (analysis CheckStoreConsistency) must hold when we are done.
  std::set<std::string> claimed;
  for (NodeId v : loaded.MaterializedArtifacts()) {
    const ArtifactInfo& info = loaded.graph().artifact(v);
    const Result<int64_t> stored_size = store_->SizeOf(info.name);
    if (stored_size.ok() && *stored_size == info.size_bytes) {
      claimed.insert(info.name);
    } else {
      // Payload missing or its size drifted: the entry is not trustworthy.
      HYPPO_RETURN_NOT_OK(loaded.EvictMaterialized(v));
      if (stored_size.ok()) {
        HYPPO_RETURN_NOT_OK(store_->Evict(info.name));
      }
    }
  }
  for (const std::string& key : store_->Keys()) {
    if (claimed.count(key) == 0) {
      HYPPO_RETURN_NOT_OK(store_->Evict(key));  // orphan payload
    }
  }
  history_ = std::move(loaded);
  return Status::OK();
}

Status Runtime::PersistSession() {
  if (options_.store_dir.empty()) {
    return Status::OK();
  }
  HYPPO_RETURN_NOT_OK(session_status_);
  namespace fs = std::filesystem;
  HYPPO_ASSIGN_OR_RETURN(std::string bytes, SerializeHistory(history_));
  return AtomicWriteFile(
      (fs::path(options_.store_dir) / "history.hyppo").string(), bytes);
}

}  // namespace hyppo::core
