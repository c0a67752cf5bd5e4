// Batch multi-query optimization of hyperparameter sweeps: the sweep
// generator's ground truth, the batch planner's merge/augment-once/plan
// semantics, byte-identity of batch-planned execution against the
// sequential baseline, the serving as_sweep path, and compaction safety
// for in-flight batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "baselines/no_optimization.h"
#include "core/batch_planner.h"
#include "core/executor.h"
#include "core/hyppo.h"
#include "serving/session_manager.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/sweep_generator.h"

namespace hyppo {
namespace {

constexpr double kScale = 0.005;  // ~400-row datasets: fast real execution

workload::SweepGenerator MakeGenerator(uint64_t seed = 11) {
  return workload::SweepGenerator(workload::UseCase::Higgs(), kScale, seed);
}

void RegisterSweepDataset(core::Runtime* runtime) {
  const workload::UseCase use_case = workload::UseCase::Higgs();
  runtime->RegisterDatasetGenerator(
      use_case.DatasetId(kScale), [use_case]() {
        return workload::GenerateUseCase(use_case, kScale, 7);
      });
}

core::HyppoSystem::Options SystemOptions(bool batch_planning) {
  core::HyppoSystem::Options options;
  options.runtime.simulate = false;
  options.runtime.verify_plans = true;
  options.runtime.storage_budget_bytes = 1 << 20;
  options.runtime.batch_planning = batch_planning;
  // Byte-identity comparisons need pinned implementations: equivalence
  // augmentation may legally swap in an equivalent-but-not-bitwise impl,
  // and history state (which differs between batch and sequential modes)
  // steers that choice. Same convention as the serving suites.
  options.method.augment.use_equivalences = false;
  return options;
}

Result<std::map<std::string, std::string>> PayloadBytes(
    const std::map<std::string, storage::ArtifactPayload>& payloads) {
  std::map<std::string, std::string> bytes;
  for (const auto& [name, payload] : payloads) {
    HYPPO_ASSIGN_OR_RETURN(std::string serialized,
                           storage::SerializePayload(payload));
    bytes[name] = std::move(serialized);
  }
  return bytes;
}

// Union of per-member target payload bytes across a batch report.
Result<std::map<std::string, std::string>> ReportBytes(
    const core::HyppoSystem::BatchRunReport& report) {
  std::map<std::string, std::string> bytes;
  for (const core::HyppoSystem::RunReport& member : report.reports) {
    HYPPO_ASSIGN_OR_RETURN(auto member_bytes,
                           PayloadBytes(member.target_payloads));
    for (auto& [name, value] : member_bytes) {
      bytes[name] = std::move(value);
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Sweep generator: determinism, grid semantics, and ground truth.

TEST(SweepGeneratorTest, DemoSweepIsDeterministicAndStageTreeShaped) {
  auto g1 = MakeGenerator();
  auto g2 = MakeGenerator();
  auto w1 = g1.DemoSweep(12, "sweep");
  auto w2 = g2.DemoSweep(12, "sweep");
  ASSERT_TRUE(w1.ok()) << w1.status();
  ASSERT_TRUE(w2.ok()) << w2.status();
  ASSERT_EQ(w1->pipelines.size(), 12u);
  ASSERT_EQ(w1->specs.size(), 12u);
  // One preprocessing trunk: every member shares the prefix signature.
  EXPECT_EQ(w1->distinct_prefixes, 1);
  for (const std::string& sig : w1->prefix_signatures) {
    EXPECT_EQ(sig, w1->prefix_signatures[0]);
  }
  // The trunk folds: merging must remove a positive number of tasks.
  EXPECT_GT(w1->expected_merged_tasks, 0);
  // Determinism: identical specs and graphs from identical seeds.
  for (size_t i = 0; i < w1->specs.size(); ++i) {
    EXPECT_EQ(w1->specs[i].model.Signature(), w2->specs[i].model.Signature());
    EXPECT_EQ(w1->pipelines[i].graph.num_artifacts(),
              w2->pipelines[i].graph.num_artifacts());
    EXPECT_EQ(w1->pipelines[i].id, w2->pipelines[i].id);
  }
  // Configs are distinct: a sweep never submits duplicate members.
  std::set<std::string> model_signatures;
  for (const auto& spec : w1->specs) {
    model_signatures.insert(spec.model.Signature());
  }
  EXPECT_EQ(model_signatures.size(), 12u);
}

TEST(SweepGeneratorTest, GridTruncationAndRandomDedup) {
  auto generator = MakeGenerator();
  const workload::PipelineSpec base = generator.DemoBaseSpec();
  std::vector<workload::SweepAxis> axes(2);
  axes[0].stage = workload::SweepAxis::Stage::kModel;
  axes[0].param = "n_estimators";
  axes[0].values = {"8", "12", "16"};
  axes[1].stage = workload::SweepAxis::Stage::kModel;
  axes[1].param = "max_depth";
  axes[1].values = {"3", "5"};

  workload::SweepOptions full;  // num_configs = 0: full cross product
  auto w_full = generator.Generate(base, axes, full, "full");
  ASSERT_TRUE(w_full.ok()) << w_full.status();
  EXPECT_EQ(w_full->pipelines.size(), 6u);

  workload::SweepOptions truncated;
  truncated.num_configs = 4;
  auto w_trunc = generator.Generate(base, axes, truncated, "trunc");
  ASSERT_TRUE(w_trunc.ok()) << w_trunc.status();
  ASSERT_EQ(w_trunc->pipelines.size(), 4u);
  // Lexicographic truncation: the first 4 of the full grid.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w_trunc->specs[i].model.Signature(),
              w_full->specs[i].model.Signature());
  }

  workload::SweepOptions random;
  random.mode = workload::SweepOptions::Mode::kRandom;
  random.num_configs = 5;
  random.seed = 99;
  auto w_random = generator.Generate(base, axes, random, "rand");
  ASSERT_TRUE(w_random.ok()) << w_random.status();
  EXPECT_EQ(w_random->pipelines.size(), 5u);
  std::set<std::string> distinct;
  for (const auto& spec : w_random->specs) {
    distinct.insert(spec.model.Signature());
  }
  EXPECT_EQ(distinct.size(), 5u);  // joint draws are deduplicated

  // Requesting more configs than the joint space holds returns the
  // space, not an infinite loop.
  random.num_configs = 50;
  auto w_exhausted = generator.Generate(base, axes, random, "exhaust");
  ASSERT_TRUE(w_exhausted.ok()) << w_exhausted.status();
  EXPECT_EQ(w_exhausted->pipelines.size(), 6u);
}

// ---------------------------------------------------------------------------
// Batch planner: signature-dedup merge and per-member planning.

TEST(BatchPlannerTest, MergeFoldsSharedPrefixToGroundTruth) {
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(8, "merge");
  ASSERT_TRUE(workload.ok()) << workload.status();
  std::vector<std::vector<NodeId>> member_targets;
  core::BatchPlanner::Stats stats;
  auto merged = core::BatchPlanner::MergePipelines(workload->pipelines,
                                                   &member_targets, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  // The merge folds exactly the tasks the generator's ground truth says
  // are duplicated across members.
  EXPECT_EQ(stats.merged_tasks, workload->expected_merged_tasks);
  ASSERT_EQ(member_targets.size(), workload->pipelines.size());
  // Every member's targets map to merged nodes carrying the same
  // canonical names.
  for (size_t i = 0; i < workload->pipelines.size(); ++i) {
    const core::Pipeline& member = workload->pipelines[i];
    ASSERT_EQ(member_targets[i].size(), member.targets.size());
    for (size_t t = 0; t < member.targets.size(); ++t) {
      EXPECT_EQ(merged->graph.artifact(member_targets[i][t]).name,
                member.graph.artifact(member.targets[t]).name);
    }
  }
  // Merging one pipeline is the identity on task count.
  std::vector<core::Pipeline> solo;
  solo.push_back(workload->pipelines[0]);
  core::BatchPlanner::Stats solo_stats;
  auto solo_merged =
      core::BatchPlanner::MergePipelines(solo, nullptr, &solo_stats);
  ASSERT_TRUE(solo_merged.ok()) << solo_merged.status();
  EXPECT_EQ(solo_stats.merged_tasks, 0);
}

TEST(BatchPlannerTest, PlanBatchCoversEveryMembersTargets) {
  core::HyppoSystem::Options options = SystemOptions(true);
  options.runtime.simulate = true;  // planning-only: no real execution
  core::HyppoSystem system(options);
  RegisterSweepDataset(&system.runtime());
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(6, "plan");
  ASSERT_TRUE(workload.ok()) << workload.status();

  auto planned = system.method().PlanPipelineBatch(workload->pipelines);
  ASSERT_TRUE(planned.ok()) << planned.status();
  ASSERT_EQ(planned->members.size(), workload->pipelines.size());
  EXPECT_EQ(planned->stats.merged_tasks, workload->expected_merged_tasks);
  // Shared-prefix plan edges: with one trunk, most members select the
  // same prefix tasks, so the planner must report cross-member sharing.
  EXPECT_GT(planned->stats.shared_prefix_hits, 0);
  // Each member plan produces each of its targets.
  for (const core::BatchPlanner::MemberPlan& member : planned->members) {
    ASSERT_FALSE(member.plan.edges.empty());
    std::set<NodeId> produced;
    for (EdgeId e : member.plan.edges) {
      for (NodeId v : planned->merged.graph.ordered_head(e)) {
        produced.insert(v);
      }
    }
    for (NodeId target : member.targets) {
      EXPECT_TRUE(produced.count(target) > 0)
          << "target " << planned->merged.graph.artifact(target).name
          << " not produced by its member plan";
    }
  }
  // Monitor plumbing: the batch counters moved.
  EXPECT_GT(system.runtime().monitor().num_batch_merged_tasks(), 0);
  EXPECT_GT(system.runtime().monitor().batch_plan_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// Member targets: a batch member runs against the shared merged
// augmentation, whose own targets are the union over all members, so
// plan verification must be handed the member's targets explicitly.

// `plan` without the edges that produce `target`, with its claimed cost and
// seconds re-summed so the missing target is its only defect.
core::Plan DropProducer(const core::Augmentation& aug, const core::Plan& plan,
                        NodeId target) {
  core::Plan broken;
  for (EdgeId e : plan.edges) {
    const std::vector<NodeId>& heads = aug.graph.ordered_head(e);
    if (std::find(heads.begin(), heads.end(), target) != heads.end()) {
      continue;
    }
    broken.edges.push_back(e);
    broken.cost += aug.edge_weight[static_cast<size_t>(e)];
    broken.seconds += aug.edge_seconds[static_cast<size_t>(e)];
  }
  return broken;
}

TEST(BatchTargetsTest, MemberTargetsReachExecutorAndStaticPrecheck) {
  core::HyppoSystem::Options options = SystemOptions(true);
  options.runtime.simulate = true;  // verification runs before any task
  ASSERT_TRUE(options.runtime.verify_plans);
  ASSERT_TRUE(options.runtime.static_checks);
  core::HyppoSystem system(options);
  RegisterSweepDataset(&system.runtime());
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(3, "targets");
  ASSERT_TRUE(workload.ok()) << workload.status();
  auto planned = system.method().PlanPipelineBatch(workload->pipelines);
  ASSERT_TRUE(planned.ok()) << planned.status();
  const core::Augmentation& merged = planned->merged;
  const core::BatchPlanner::MemberPlan& member = planned->members[0];
  // Test premise: the merged augmentation's own targets are the union
  // over all members, a strict superset of this member's.
  ASSERT_GT(merged.targets.size(), member.targets.size());
  const core::Plan broken = DropProducer(merged, member.plan,
                                         member.targets.front());
  ASSERT_LT(broken.edges.size(), member.plan.edges.size());

  // Executor: Options::targets overrides the augmentation's targets.
  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  core::Executor executor(&store, /*resolver=*/nullptr, &monitor);
  core::Executor::Options exec_options;
  exec_options.simulate = true;
  exec_options.verify_plans = true;
  exec_options.targets = &member.targets;
  auto covered = executor.Execute(merged, member.plan, exec_options);
  EXPECT_TRUE(covered.ok()) << covered.status();
  auto missing = executor.Execute(merged, broken, exec_options);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsInternal()) << missing.status();
  EXPECT_NE(missing.status().ToString().find("missing-target"),
            std::string::npos)
      << missing.status();
  // Without the override the executor checks the merged targets, which
  // one member's plan cannot cover.
  exec_options.targets = nullptr;
  EXPECT_FALSE(executor.Execute(merged, member.plan, exec_options).ok());

  // Runtime: the executor verifies every member's plan against the
  // member's own targets.
  auto batch = system.runtime().RunBatch(workload->pipelines, merged,
                                         planned->members);
  ASSERT_TRUE(batch.ok()) << batch.status();

  // A member plan missing one of its targets is rejected by the executor's
  // verification before anything runs.
  std::vector<core::BatchPlanner::MemberPlan> members = planned->members;
  members[0].plan = broken;
  auto rejected =
      system.runtime().RunBatch(workload->pipelines, merged, members);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInternal()) << rejected.status();
  EXPECT_NE(rejected.status().ToString().find("missing-target"),
            std::string::npos)
      << rejected.status();
}

// ---------------------------------------------------------------------------
// Differential: batch-planned execution is byte-identical to the
// sequentially planned baseline, serial and 8-thread.

void RunBatchVsSequential(int parallelism) {
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(6, "diff");
  ASSERT_TRUE(workload.ok()) << workload.status();

  core::HyppoSystem::Options batch_options = SystemOptions(true);
  batch_options.runtime.parallelism = parallelism;
  core::HyppoSystem batch_system(batch_options);
  RegisterSweepDataset(&batch_system.runtime());
  auto batch_report = batch_system.RunBatch(workload->pipelines);
  ASSERT_TRUE(batch_report.ok()) << batch_report.status();
  EXPECT_TRUE(batch_report->batched);
  EXPECT_EQ(batch_report->merged_tasks, workload->expected_merged_tasks);
  // Cross-member seeding: shared prefixes execute once, later members
  // skip them.
  EXPECT_GT(batch_report->shared_prefix_skips, 0);
  ASSERT_EQ(batch_report->reports.size(), workload->pipelines.size());

  core::HyppoSystem::Options seq_options = SystemOptions(false);
  seq_options.runtime.parallelism = parallelism;
  core::HyppoSystem seq_system(seq_options);
  RegisterSweepDataset(&seq_system.runtime());
  auto seq_report = seq_system.RunBatch(workload->pipelines);
  ASSERT_TRUE(seq_report.ok()) << seq_report.status();
  EXPECT_FALSE(seq_report->batched);

  auto batch_bytes = ReportBytes(*batch_report);
  auto seq_bytes = ReportBytes(*seq_report);
  ASSERT_TRUE(batch_bytes.ok()) << batch_bytes.status();
  ASSERT_TRUE(seq_bytes.ok()) << seq_bytes.status();
  ASSERT_FALSE(batch_bytes->empty());
  ASSERT_EQ(batch_bytes->size(), seq_bytes->size());
  for (const auto& [name, bytes] : *batch_bytes) {
    auto it = seq_bytes->find(name);
    ASSERT_NE(it, seq_bytes->end()) << name;
    EXPECT_EQ(bytes, it->second) << "payload diverged: " << name;
  }
  // Both histories stay internally consistent.
  const analysis::Verifier verifier;
  EXPECT_TRUE(verifier.VerifyHistory(batch_system.runtime().history()).ok());
  EXPECT_TRUE(verifier.VerifyHistory(seq_system.runtime().history()).ok());
}

TEST(SweepDifferentialTest, BatchMatchesSequentialSerial) {
  RunBatchVsSequential(1);
}

TEST(SweepDifferentialTest, BatchMatchesSequentialEightThreads) {
  RunBatchVsSequential(8);
}

// ---------------------------------------------------------------------------
// Serving: a session submitting its pipelines as a sweep.

TEST(SweepServingTest, AsSweepSessionMatchesSequentialSession) {
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(5, "serve");
  ASSERT_TRUE(workload.ok()) << workload.status();

  serving::ServingOptions sweep_options;
  sweep_options.runtime = SystemOptions(true).runtime;
  sweep_options.method = SystemOptions(true).method;
  serving::SessionManager sweep_manager(sweep_options);
  RegisterSweepDataset(&sweep_manager.runtime());
  serving::SessionRequest sweep_request;
  sweep_request.session_id = "sweeper";
  sweep_request.pipelines = workload->pipelines;
  sweep_request.as_sweep = true;
  const serving::SessionReport sweep_report =
      sweep_manager.RunSession(sweep_request);
  ASSERT_TRUE(sweep_report.status.ok()) << sweep_report.status;
  EXPECT_EQ(sweep_report.pipelines_completed,
            static_cast<int32_t>(workload->pipelines.size()));
  EXPECT_EQ(sweep_report.per_pipeline_seconds.size(),
            workload->pipelines.size());
  // The runtime observed the cross-member prefix skips.
  EXPECT_GT(sweep_manager.runtime().monitor().num_shared_prefix_hits(), 0);

  serving::ServingOptions seq_options;
  seq_options.runtime = SystemOptions(true).runtime;
  seq_options.method = SystemOptions(true).method;
  serving::SessionManager seq_manager(seq_options);
  RegisterSweepDataset(&seq_manager.runtime());
  serving::SessionRequest seq_request;
  seq_request.session_id = "sequential";
  seq_request.pipelines = workload->pipelines;  // as_sweep stays false
  const serving::SessionReport seq_report =
      seq_manager.RunSession(seq_request);
  ASSERT_TRUE(seq_report.status.ok()) << seq_report.status;

  auto sweep_bytes = PayloadBytes(sweep_report.target_payloads);
  auto seq_bytes = PayloadBytes(seq_report.target_payloads);
  ASSERT_TRUE(sweep_bytes.ok()) << sweep_bytes.status();
  ASSERT_TRUE(seq_bytes.ok()) << seq_bytes.status();
  ASSERT_FALSE(sweep_bytes->empty());
  EXPECT_EQ(*sweep_bytes, *seq_bytes);
}

TEST(SweepServingTest, BaselineMethodsFallBackToSequentialLoop) {
  // A method without PlanPipelineBatch (here the no-optimization straw
  // man, which inherits the base Method's NotImplemented default) must
  // still serve an as_sweep request via the ordered sequential loop.
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(3, "fallback");
  ASSERT_TRUE(workload.ok()) << workload.status();

  serving::ServingOptions options;
  options.runtime = SystemOptions(true).runtime;
  options.make_method = [](core::Runtime* runtime) {
    return std::make_unique<baselines::NoOptimizationMethod>(runtime);
  };
  serving::SessionManager manager(options);
  RegisterSweepDataset(&manager.runtime());
  serving::SessionRequest request;
  request.session_id = "no-batch";
  request.pipelines = workload->pipelines;
  request.as_sweep = true;
  const serving::SessionReport report = manager.RunSession(request);
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.pipelines_completed,
            static_cast<int32_t>(workload->pipelines.size()));
  ASSERT_FALSE(report.target_payloads.empty());
}

// ---------------------------------------------------------------------------
// Compaction safety: a batch in flight pins the merged augmentation's
// artifact names, so Pareto compaction firing mid-batch (tiny growth
// bound) cannot drop artifacts later members still load. Regression for
// the pre-compaction-snapshot contract on the batch path.

TEST(SweepServingTest, CompactionDuringBatchKeepsPinnedArtifacts) {
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(6, "compact");
  ASSERT_TRUE(workload.ok()) << workload.status();

  serving::ServingOptions options;
  options.runtime = SystemOptions(true).runtime;
  options.method = SystemOptions(true).method;
  // Each member adds ~14 artifacts: the batch pushes the history well
  // over this bound, so compaction runs while members are still
  // executing — and must drop nothing, because the whole merged graph is
  // pinned for the duration of the batch.
  options.runtime.history_max_artifacts = 20;
  serving::SessionManager manager(options);
  RegisterSweepDataset(&manager.runtime());
  serving::SessionRequest request;
  request.session_id = "compacting-sweeper";
  request.pipelines = workload->pipelines;
  request.as_sweep = true;
  const serving::SessionReport report = manager.RunSession(request);
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.pipelines_completed,
            static_cast<int32_t>(workload->pipelines.size()));
  // Pinning held: every artifact of every member is still in the
  // history, which therefore could not be trimmed back under the bound.
  ASSERT_GT(manager.runtime().history().num_artifacts(),
            options.runtime.history_max_artifacts)
      << "test premise broken: the batch never exceeded the bound";
  for (const core::Pipeline& pipeline : workload->pipelines) {
    // Node 0 is the virtual source; every other artifact was pinned.
    for (NodeId v = 1; v < pipeline.graph.num_artifacts(); ++v) {
      EXPECT_TRUE(manager.runtime()
                      .history()
                      .FindArtifact(pipeline.graph.artifact(v).name)
                      .ok())
          << "dropped mid-batch: " << pipeline.graph.artifact(v).name;
    }
  }

  // Once the batch's pins are gone, the same bound must engage: a
  // follow-up session with fresh configs triggers compaction that now
  // drops nodes.
  auto churn_generator = MakeGenerator();
  std::vector<workload::SweepAxis> churn_axes(1);
  churn_axes[0].stage = workload::SweepAxis::Stage::kModel;
  churn_axes[0].param = "max_depth";
  churn_axes[0].values = {"20", "21", "22"};
  auto churn_workload =
      churn_generator.Generate(churn_generator.DemoBaseSpec(), churn_axes,
                               workload::SweepOptions(), "churn");
  ASSERT_TRUE(churn_workload.ok()) << churn_workload.status();
  serving::SessionRequest churn;
  churn.session_id = "churn";
  churn.pipelines = churn_workload->pipelines;
  ASSERT_TRUE(manager.RunSession(churn).status.ok());
  EXPECT_GT(manager.runtime().monitor().num_history_compacted(), 0)
      << "test premise broken: compaction never dropped nodes after unpin";

  // Byte-identity against an isolated run with no compaction pressure.
  core::HyppoSystem reference_system(SystemOptions(true));
  RegisterSweepDataset(&reference_system.runtime());
  auto reference = reference_system.RunBatch(workload->pipelines);
  ASSERT_TRUE(reference.ok()) << reference.status();
  auto reference_bytes = ReportBytes(*reference);
  auto report_bytes = PayloadBytes(report.target_payloads);
  ASSERT_TRUE(reference_bytes.ok()) << reference_bytes.status();
  ASSERT_TRUE(report_bytes.ok()) << report_bytes.status();
  ASSERT_FALSE(report_bytes->empty());
  EXPECT_EQ(*report_bytes, *reference_bytes);

  const analysis::Verifier verifier;
  EXPECT_TRUE(verifier.VerifyHistory(manager.runtime().history()).ok());
}

}  // namespace
}  // namespace hyppo
