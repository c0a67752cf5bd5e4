#include "serving/session_manager.h"

#include <algorithm>
#include <set>
#include <thread>
#include <utility>

#include "common/clock.h"

namespace hyppo::serving {

SessionManager::SessionManager(ServingOptions options)
    : options_(std::move(options)),
      runtime_(std::make_unique<core::Runtime>(options_.runtime)) {
  runtime_->set_catalog_mutex(&catalog_mutex_);
  // Commits under the catalog writer lock only touch the store's index;
  // each session writes its payloads to disk after releasing the lock
  // (see RunSession).
  runtime_->store().EnableWriteBehind();
  if (options_.fault_rate > 0.0) {
    runtime_->EnableFaultInjection(storage::FaultPlan::Uniform(
        options_.fault_seed, options_.fault_rate));
  }
}

SessionManager::~SessionManager() = default;

std::unique_ptr<core::Method> SessionManager::MakeMethod() {
  if (options_.make_method) {
    return options_.make_method(runtime_.get());
  }
  return std::make_unique<core::HyppoMethod>(runtime_.get(),
                                             options_.method);
}

void SessionManager::Admit(SessionReport* report) {
  const WallClock clock;
  const Stopwatch wait(clock);
  std::unique_lock<std::mutex> lock(admission_mutex_);
  const uint64_t ticket = next_ticket_++;
  const int max_in_flight = options_.max_in_flight_sessions;
  bool queued = false;
  // FIFO by ticket: a session runs once every earlier ticket has been
  // admitted and a slot is free, so the gate cannot starve anyone.
  while (ticket != serving_ticket_ ||
         (max_in_flight > 0 && in_flight_ >= max_in_flight)) {
    queued = true;
    admission_cv_.wait(lock);
  }
  ++serving_ticket_;
  ++in_flight_;
  stats_.max_observed_in_flight =
      std::max(stats_.max_observed_in_flight, in_flight_);
  if (queued) {
    ++stats_.sessions_queued;
    report->queue_seconds = wait.Elapsed();
  }
  // The next ticket may already be admissible (gate not full).
  admission_cv_.notify_all();
}

void SessionManager::Release() {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  --in_flight_;
  admission_cv_.notify_all();
}

void SessionManager::CountReuseLocked(const core::Method::Planned& planned,
                                      const std::string& session_id,
                                      SessionReport* report) const {
  CountPlanReuseLocked(planned.aug, planned.plan, session_id, report);
}

void SessionManager::CountPlanReuseLocked(const core::Augmentation& aug,
                                          const core::Plan& plan,
                                          const std::string& session_id,
                                          SessionReport* report) const {
  for (EdgeId e : plan.edges) {
    const core::TaskInfo& task = aug.graph.task(e);
    if (task.type != core::TaskType::kLoad) {
      continue;
    }
    const NodeId head = aug.graph.ordered_head(e)[0];
    const core::ArtifactInfo& info = aug.graph.artifact(head);
    if (info.kind == core::ArtifactKind::kRaw) {
      continue;  // raw dataset loads are sources, not reused work
    }
    ++report->reuse_loads;
    auto owner = materialized_by_.find(info.name);
    if (owner != materialized_by_.end() && owner->second != session_id) {
      ++report->cross_session_loads;
    }
  }
}

void SessionManager::RecordNewMaterializationsLocked(
    const std::vector<std::string>& before_names,
    const std::string& session_id) {
  const std::set<std::string> before(before_names.begin(),
                                     before_names.end());
  for (NodeId v : runtime_->history().MaterializedArtifacts()) {
    const std::string& name = runtime_->history().graph().artifact(v).name;
    if (before.count(name) == 0) {
      // emplace keeps the first materializer on re-materialization after
      // an eviction by the same name — ownership is first-writer-wins.
      materialized_by_.emplace(name, session_id);
    }
  }
}

bool SessionManager::RunSweep(const SessionRequest& request,
                              core::Method* method, SessionReport* report) {
  if (!options_.runtime.batch_planning) {
    return false;
  }
  // PLAN the whole sweep under the reader side: one merged augmentation
  // against a consistent history snapshot. Reuse is counted per member
  // plan inside the same critical section so the counts and the plans
  // describe the same catalog state.
  SessionReport reuse_counts;
  Result<core::BatchPlanner::Planned> planned = [&] {
    std::shared_lock<std::shared_mutex> plan_lock(catalog_mutex_);
    Result<core::BatchPlanner::Planned> p =
        method->PlanPipelineBatch(request.pipelines);
    if (p.ok()) {
      for (const core::BatchPlanner::MemberPlan& member : p->members) {
        CountPlanReuseLocked(p->merged, member.plan, request.session_id,
                             &reuse_counts);
      }
    }
    return p;
  }();
  if (!planned.ok()) {
    if (planned.status().IsNotImplemented()) {
      return false;  // the method has no batch path; run sequentially
    }
    report->status = planned.status();
    return true;
  }
  report->reuse_loads += reuse_counts.reuse_loads;
  report->cross_session_loads += reuse_counts.cross_session_loads;
  report->optimize_seconds += planned->optimize_seconds;
  // EXECUTE outside the lock, with cross-member shared-prefix seeding;
  // the runtime pins the batch's artifact names against concurrent
  // compaction and takes the writer side around each commit.
  Result<core::Runtime::BatchExecutionRecord> record = runtime_->RunBatch(
      request.pipelines, planned->merged, planned->members,
      method->MakeReplanner());
  if (!record.ok()) {
    report->status = record.status();
    return true;
  }
  for (const core::Runtime::ExecutionRecord& member : record->members) {
    report->per_pipeline_seconds.push_back(member.seconds);
    report->charged_seconds += member.seconds;
    report->replans += member.replans;
    report->failed_tasks += member.failed_tasks;
    report->recovered_tasks += member.recovered_tasks;
  }
  {
    // MATERIALIZE once for the whole batch under the writer side.
    std::unique_lock<std::shared_mutex> commit_lock(catalog_mutex_);
    std::vector<std::string> before;
    for (NodeId v : runtime_->history().MaterializedArtifacts()) {
      before.push_back(runtime_->history().graph().artifact(v).name);
    }
    const Status materialized =
        method->AfterBatchExecution(request.pipelines, *planned, *record);
    if (!materialized.ok()) {
      report->status = materialized;
      return true;
    }
    RecordNewMaterializationsLocked(before, request.session_id);
  }
  for (size_t i = 0; i < request.pipelines.size(); ++i) {
    const core::Pipeline& pipeline = request.pipelines[i];
    for (NodeId t : pipeline.targets) {
      const std::string& name = pipeline.graph.artifact(t).name;
      auto it = record->members[i].payloads_by_name.find(name);
      if (it != record->members[i].payloads_by_name.end()) {
        report->target_payloads[name] = it->second;
      }
    }
    ++report->pipelines_completed;
  }
  return true;
}

SessionReport SessionManager::RunSession(const SessionRequest& request) {
  SessionReport report;
  report.session_id = request.session_id;
  const WallClock clock;
  const Stopwatch total(clock);
  if (!session_status().ok()) {
    report.status = session_status();
    return report;
  }
  Admit(&report);
  std::unique_ptr<core::Method> method = MakeMethod();
  bool handled = false;
  if (request.as_sweep && request.pipelines.size() >= 2) {
    handled = RunSweep(request, method.get(), &report);
  }
  for (const core::Pipeline& pipeline : request.pipelines) {
    if (handled) {
      break;
    }
    // PLAN under the reader side of the catalog lock: the method sees a
    // consistent history snapshot, concurrently with other planners.
    Result<core::Method::Planned> planned = [&] {
      std::shared_lock<std::shared_mutex> plan_lock(catalog_mutex_);
      Result<core::Method::Planned> p = method->PlanPipeline(pipeline);
      if (p.ok()) {
        CountReuseLocked(*p, request.session_id, &report);
      }
      return p;
    }();
    if (!planned.ok()) {
      report.status = planned.status();
      break;
    }
    report.optimize_seconds += planned->optimize_seconds;
    // EXECUTE outside the lock; the runtime takes the writer side
    // internally around each catalog commit. A plan gone stale under us
    // (another session evicted an artifact it loads) fails the load and
    // is healed by the runtime's degrade-and-re-plan recovery.
    Result<core::Runtime::ExecutionRecord> record =
        runtime_->ExecuteAndRecord(pipeline, planned->aug, planned->plan,
                                   method->MakeReplanner());
    if (!record.ok()) {
      report.status = record.status();
      break;
    }
    report.per_pipeline_seconds.push_back(record->seconds);
    report.charged_seconds += record->seconds;
    report.replans += record->replans;
    report.failed_tasks += record->failed_tasks;
    report.recovered_tasks += record->recovered_tasks;
    {
      // MATERIALIZE under the writer side: the policy reads history
      // statistics and mutates the store + materialized set.
      std::unique_lock<std::shared_mutex> commit_lock(catalog_mutex_);
      std::vector<std::string> before;
      for (NodeId v : runtime_->history().MaterializedArtifacts()) {
        before.push_back(runtime_->history().graph().artifact(v).name);
      }
      const Status materialized =
          method->AfterExecution(pipeline, *planned, *record);
      if (!materialized.ok()) {
        report.status = materialized;
        break;
      }
      RecordNewMaterializationsLocked(before, request.session_id);
    }
    for (NodeId t : pipeline.targets) {
      const std::string& name = pipeline.graph.artifact(t).name;
      auto it = record->payloads_by_name.find(name);
      if (it != record->payloads_by_name.end()) {
        report.target_payloads[name] = it->second;
      }
    }
    ++report.pipelines_completed;
  }
  // DURABLE: the session's store writes, outside the catalog lock, so a
  // disk write never stalls other sessions' planning and commits.
  const Status flushed = runtime_->store().Flush();
  if (report.status.ok() && !flushed.ok()) {
    report.status = flushed;
  }
  Release();
  report.wall_seconds = total.Elapsed();
  runtime_->monitor().RecordReuseLoads(report.reuse_loads);
  runtime_->monitor().RecordCrossSessionLoads(report.cross_session_loads);
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    ++stats_.sessions_completed;
    stats_.pipelines_completed += report.pipelines_completed;
    stats_.reuse_loads += report.reuse_loads;
    stats_.cross_session_loads += report.cross_session_loads;
  }
  return report;
}

std::vector<SessionReport> SessionManager::RunSessions(
    const std::vector<SessionRequest>& requests) {
  std::vector<SessionReport> reports(requests.size());
  std::vector<std::thread> threads;
  threads.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    threads.emplace_back([this, &requests, &reports, i] {
      reports[i] = RunSession(requests[i]);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  if (!options_.runtime.store_dir.empty() && session_status().ok()) {
    const Status persisted = runtime_->PersistSession();
    if (!persisted.ok()) {
      for (SessionReport& report : reports) {
        if (report.status.ok()) {
          report.status = persisted;
        }
      }
    }
  }
  return reports;
}

SessionManager::Stats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return stats_;
}

}  // namespace hyppo::serving
