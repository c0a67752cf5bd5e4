// Batch recovery under fault injection: a sweep executed by
// Runtime::RunBatch whose members hit injected compute and store-load
// faults must self-heal to payloads byte-identical to the fault-free
// batch, and every re-plan must be scoped to the failing member's own
// targets (members share one merged augmentation whose targets are the
// union over all members).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/batch_planner.h"
#include "core/hyppo.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/sweep_generator.h"

namespace hyppo {
namespace {

constexpr double kScale = 0.005;  // ~400-row datasets: fast real execution
constexpr int kMaxRecoveryAttempts = 6;

workload::SweepGenerator MakeGenerator() {
  return workload::SweepGenerator(workload::UseCase::Higgs(), kScale, 11);
}

struct BatchOutcome {
  /// Serialized target payloads of the second (possibly faulted) batch.
  std::map<std::string, std::string> payload_bytes;
  int64_t replans = 0;
  int64_t injected_faults = 0;
  /// Whether some member plan of the second batch loads a materialized
  /// artifact (the premise for store-load faults to strike).
  bool plans_load = false;
};

// Runs a fault-free warm-up sweep that materializes the shared trunk, then
// a second sweep over the same trunk with new model configs. With
// `fault_seed` > 0, the second batch runs under seeded compute and
// store-load faults, and the first load of every stored artifact comes
// back corrupt, so recovery is exercised on every seed.
Result<BatchOutcome> RunFaultedSweep(int parallelism, uint64_t fault_seed) {
  core::HyppoSystem::Options options;
  options.runtime.simulate = false;
  options.runtime.parallelism = parallelism;
  options.runtime.verify_plans = true;
  options.runtime.storage_budget_bytes = 1 << 20;
  options.runtime.batch_planning = true;
  // A chain starved by an upstream fault can need up to twice its depth
  // in attempts under the transient cap (see chaos_test).
  options.runtime.max_recovery_attempts = kMaxRecoveryAttempts;
  // Pinned implementations: byte equality across runs.
  options.method.augment.use_equivalences = false;
  core::HyppoSystem system(options);
  const workload::UseCase use_case = workload::UseCase::Higgs();
  system.runtime().RegisterDatasetGenerator(
      use_case.DatasetId(kScale), [use_case]() {
        return workload::GenerateUseCase(use_case, kScale, 7);
      });

  auto generator = MakeGenerator();
  HYPPO_ASSIGN_OR_RETURN(workload::SweepWorkload warm,
                         generator.DemoSweep(4, "warm"));
  HYPPO_RETURN_NOT_OK(system.RunBatch(warm.pipelines).status());

  if (fault_seed > 0) {
    storage::FaultPlan plan;
    plan.seed = fault_seed;
    plan.compute_failure_rate = 0.15;
    plan.load_not_found_rate = 0.1;
    plan.load_corrupt_rate = 0.1;
    for (const std::string& key : system.runtime().store().Keys()) {
      plan.schedule.push_back({storage::FaultSite::kStoreLoad, key, 0,
                               storage::FaultKind::kCorrupt});
    }
    system.runtime().EnableFaultInjection(plan);
  }

  std::vector<workload::SweepAxis> axes(1);
  axes[0].stage = workload::SweepAxis::Stage::kModel;
  axes[0].param = "max_depth";
  axes[0].values = {"20", "21", "22"};
  HYPPO_ASSIGN_OR_RETURN(
      workload::SweepWorkload sweep,
      generator.Generate(generator.DemoBaseSpec(), axes,
                         workload::SweepOptions(), "faulted"));
  HYPPO_ASSIGN_OR_RETURN(core::BatchPlanner::Planned planned,
                         system.method().PlanPipelineBatch(sweep.pipelines));
  const core::Augmentation& merged = planned.merged;

  BatchOutcome outcome;
  for (const core::BatchPlanner::MemberPlan& member : planned.members) {
    for (EdgeId e : member.plan.edges) {
      outcome.plans_load |=
          merged.graph.task(e).type == core::TaskType::kLoad;
    }
  }

  // Every re-plan must be asked for exactly one member's targets and must
  // derive those targets and no other member's.
  std::vector<size_t> replanned_members;
  Status replan_check = Status::OK();
  const core::Runtime::Replanner inner = system.method().MakeReplanner();
  const core::Runtime::Replanner replan =
      [&](const core::Augmentation& degraded) -> Result<core::Plan> {
    HYPPO_ASSIGN_OR_RETURN(core::Plan plan, inner(degraded));
    std::set<NodeId> produced;
    for (EdgeId e : plan.edges) {
      for (NodeId v : degraded.graph.ordered_head(e)) {
        produced.insert(v);
      }
    }
    size_t owner = planned.members.size();
    for (size_t i = 0; i < planned.members.size(); ++i) {
      const std::vector<NodeId>& targets = planned.members[i].targets;
      if (targets == degraded.targets) {
        owner = i;
        continue;
      }
      for (NodeId t : targets) {
        if (produced.count(t) > 0 && replan_check.ok()) {
          replan_check = Status::Internal(
              "re-plan derives another member's target " +
              degraded.graph.artifact(t).name);
        }
      }
    }
    if (owner == planned.members.size() && replan_check.ok()) {
      replan_check =
          Status::Internal("re-plan targets match no single member");
    }
    for (NodeId t : degraded.targets) {
      if (produced.count(t) == 0 && replan_check.ok()) {
        replan_check = Status::Internal("re-plan misses target " +
                                        degraded.graph.artifact(t).name);
      }
    }
    replanned_members.push_back(owner);
    return plan;
  };

  HYPPO_ASSIGN_OR_RETURN(
      core::Runtime::BatchExecutionRecord record,
      system.runtime().RunBatch(sweep.pipelines, merged, planned.members,
                                replan));
  HYPPO_RETURN_NOT_OK(replan_check);
  HYPPO_RETURN_NOT_OK(
      system.method().AfterBatchExecution(sweep.pipelines, planned, record));

  // Members execute in submission order, so re-plans arrive grouped by
  // member, and each member's count is the replans its record reports.
  if (!std::is_sorted(replanned_members.begin(), replanned_members.end())) {
    return Status::Internal("re-plans arrived out of member order");
  }
  for (size_t i = 0; i < planned.members.size(); ++i) {
    const auto count = std::count(replanned_members.begin(),
                                  replanned_members.end(), i);
    if (count != record.members[i].replans) {
      return Status::Internal(
          "member " + std::to_string(i) + " reports " +
          std::to_string(record.members[i].replans) + " replans but " +
          std::to_string(count) + " re-plans carried its targets");
    }
  }

  for (size_t i = 0; i < sweep.pipelines.size(); ++i) {
    const core::Pipeline& pipeline = sweep.pipelines[i];
    for (NodeId t : pipeline.targets) {
      const std::string& name = pipeline.graph.artifact(t).name;
      const auto it = record.members[i].payloads_by_name.find(name);
      if (it == record.members[i].payloads_by_name.end()) {
        return Status::Internal("member " + std::to_string(i) +
                                " produced no payload for " + name);
      }
      HYPPO_ASSIGN_OR_RETURN(std::string bytes,
                             storage::SerializePayload(it->second));
      outcome.payload_bytes[name] = std::move(bytes);
    }
  }
  const core::Monitor& monitor = system.runtime().monitor();
  outcome.replans = monitor.num_replans();
  outcome.injected_faults = monitor.num_injected_faults();
  return outcome;
}

TEST(SweepChaosTest, BatchRecoveryMatchesFaultFreeBatch) {
  for (int parallelism : {1, 4}) {
    auto baseline = RunFaultedSweep(parallelism, /*fault_seed=*/0);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    EXPECT_EQ(baseline->replans, 0);
    EXPECT_EQ(baseline->injected_faults, 0);
    ASSERT_TRUE(baseline->plans_load)
        << "test premise broken: the second sweep loads nothing";
    ASSERT_FALSE(baseline->payload_bytes.empty());

    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                   " seed=" + std::to_string(seed));
      auto chaotic = RunFaultedSweep(parallelism, seed);
      ASSERT_TRUE(chaotic.ok()) << chaotic.status();
      EXPECT_GT(chaotic->replans, 0);
      EXPECT_GT(chaotic->injected_faults, 0);
      EXPECT_EQ(chaotic->payload_bytes, baseline->payload_bytes);
    }
  }
}

}  // namespace
}  // namespace hyppo
