#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "hypergraph/algorithms.h"
#include "storage/fault_injection.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/pipeline_generator.h"

namespace hyppo {
namespace {

// ---------------------------------------------------------------------------
// Differential test: one worker and eight workers are the same machine.
// Over randomized exploratory pipelines, both must produce byte-identical
// payload maps, the same task and failure sequences (topological position
// order), and, with estimate charging enabled, bitwise-equal charged
// totals (wall-clock noise excluded).

core::Augmentation AsAugmentation(const core::Pipeline& pipeline) {
  core::Augmentation aug;
  aug.graph = pipeline.graph;
  aug.targets = pipeline.targets;
  const size_t slots =
      static_cast<size_t>(aug.graph.hypergraph().num_edge_slots());
  aug.edge_weight.assign(slots, 1.0);
  aug.edge_seconds.assign(slots, 1.0);
  // Distinct, non-dyadic per-edge estimates: an aggregation bug cannot
  // hide behind uniform durations, and the floating-point sum depends on
  // the order it is taken in.
  for (size_t e = 0; e < slots; ++e) {
    aug.edge_seconds[e] = 0.1 * static_cast<double>(e + 1);
  }
  return aug;
}

core::Plan FullPlan(const core::Augmentation& aug) {
  core::Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();
  for (EdgeId e : plan.edges) {
    plan.cost += aug.edge_weight[static_cast<size_t>(e)];
    plan.seconds += aug.edge_seconds[static_cast<size_t>(e)];
  }
  return plan;
}

// Serializes every payload so comparison is bytewise, not structural.
Result<std::map<NodeId, std::string>> PayloadBytes(
    const std::map<NodeId, storage::ArtifactPayload>& payloads) {
  std::map<NodeId, std::string> bytes;
  for (const auto& [node, payload] : payloads) {
    HYPPO_ASSIGN_OR_RETURN(bytes[node], storage::SerializePayload(payload));
  }
  return bytes;
}

struct Run {
  core::Executor::ExecutionResult result;
  int64_t task_records = 0;
};

// Executes `plan` with `workers` workers against a fresh store and monitor,
// charging estimates. A non-null `faults` arms a fresh injector, so both
// worker counts draw the same faults.
Result<Run> ExecuteWith(const core::Augmentation& aug, const core::Plan& plan,
                        const core::DatasetResolver& resolver, int workers,
                        const storage::FaultPlan* faults = nullptr) {
  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  core::Executor executor(&store, resolver, &monitor);
  std::unique_ptr<storage::FaultInjector> injector;
  core::Executor::Options options;
  options.charge_estimates = true;
  options.parallelism = workers;
  if (faults != nullptr) {
    injector = std::make_unique<storage::FaultInjector>(*faults);
    options.fault_injector = injector.get();
  }
  HYPPO_ASSIGN_OR_RETURN(core::Executor::ExecutionResult result,
                         executor.Execute(aug, plan, options));
  return Run{std::move(result), monitor.num_task_records()};
}

std::vector<EdgeId> RunEdges(const core::Executor::ExecutionResult& result) {
  std::vector<EdgeId> edges;
  for (const auto& run : result.task_runs) {
    edges.push_back(run.edge);
  }
  return edges;
}

std::vector<std::pair<EdgeId, std::string>> FailureList(
    const core::Executor::ExecutionResult& result) {
  std::vector<std::pair<EdgeId, std::string>> failures;
  for (const auto& failure : result.failures) {
    failures.emplace_back(failure.edge, failure.status.ToString());
  }
  return failures;
}

// The parts of two runs that must agree whatever the worker count.
void ExpectSameRun(const Run& one, const Run& many) {
  auto one_bytes = PayloadBytes(one.result.payloads);
  ASSERT_TRUE(one_bytes.ok()) << one_bytes.status();
  auto many_bytes = PayloadBytes(many.result.payloads);
  ASSERT_TRUE(many_bytes.ok()) << many_bytes.status();
  EXPECT_EQ(*one_bytes, *many_bytes);
  // Both sum the same per-task charges in the same order.
  EXPECT_EQ(one.result.total_seconds, many.result.total_seconds);
  EXPECT_EQ(RunEdges(one.result), RunEdges(many.result));
  EXPECT_EQ(FailureList(one.result), FailureList(many.result));
  EXPECT_EQ(one.result.skipped_edges, many.result.skipped_edges);
  EXPECT_EQ(one.task_records, many.task_records);
}

TEST(ExecutorDifferentialTest, SerialAndParallelAgreeOnRandomizedPlans) {
  // The minimum dataset scale (RowsAt clamps at 400 rows) keeps real ML
  // execution fast enough for the sanitizer jobs.
  constexpr double kScale = 1e-9;
  workload::PipelineGenerator generator(workload::UseCase::Higgs(), kScale,
                                        /*seed=*/99);
  core::DatasetResolver resolver =
      [](const std::string&) -> Result<ml::DatasetPtr> {
    return workload::GenerateUseCase(workload::UseCase::Higgs(), kScale, 3);
  };
  for (int i = 0; i < 12; ++i) {
    SCOPED_TRACE("pipeline " + std::to_string(i));
    auto pipeline = generator.Next();
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    core::Augmentation aug = AsAugmentation(*pipeline);
    core::Plan plan = FullPlan(aug);

    auto one = ExecuteWith(aug, plan, resolver, 1);
    ASSERT_TRUE(one.ok()) << one.status();
    ASSERT_TRUE(one->result.complete());
    auto many = ExecuteWith(aug, plan, resolver, 8);
    ASSERT_TRUE(many.ok()) << many.status();
    ASSERT_TRUE(many->result.complete());
    ExpectSameRun(*one, *many);

    // One worker runs the plan in exactly its topological order.
    auto order = BTopologicalEdgeOrder(aug.graph.hypergraph(), plan.edges,
                                       {aug.graph.source()});
    ASSERT_TRUE(order.ok()) << order.status();
    EXPECT_EQ(RunEdges(one->result), *order);
  }
}

TEST(ExecutorDifferentialTest, SerialAndParallelAgreeUnderComputeFaults) {
  constexpr double kScale = 1e-9;
  workload::PipelineGenerator generator(workload::UseCase::Higgs(), kScale,
                                        /*seed=*/41);
  core::DatasetResolver resolver =
      [](const std::string&) -> Result<ml::DatasetPtr> {
    return workload::GenerateUseCase(workload::UseCase::Higgs(), kScale, 5);
  };
  storage::FaultPlan faults;
  faults.seed = 2024;
  faults.compute_failure_rate = 0.25;
  size_t total_failures = 0;
  size_t total_skipped = 0;
  for (int i = 0; i < 8; ++i) {
    SCOPED_TRACE("pipeline " + std::to_string(i));
    auto pipeline = generator.Next();
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    core::Augmentation aug = AsAugmentation(*pipeline);
    core::Plan plan = FullPlan(aug);

    auto one = ExecuteWith(aug, plan, resolver, 1, &faults);
    ASSERT_TRUE(one.ok()) << one.status();
    auto many = ExecuteWith(aug, plan, resolver, 8, &faults);
    ASSERT_TRUE(many.ok()) << many.status();
    ExpectSameRun(*one, *many);
    total_failures += one->result.failures.size();
    total_skipped += one->result.skipped_edges.size();
  }
  // Test premise: the fault plan failed tasks and starved dependants.
  EXPECT_GT(total_failures, 0u);
  EXPECT_GT(total_skipped, 0u);
}

TEST(ExecutorDifferentialTest, SerialAndParallelAgreeWithTwoProducers) {
  constexpr double kScale = 1e-9;
  workload::PipelineGenerator generator(workload::UseCase::Higgs(), kScale,
                                        /*seed=*/23);
  core::DatasetResolver resolver =
      [](const std::string&) -> Result<ml::DatasetPtr> {
    return workload::GenerateUseCase(workload::UseCase::Higgs(), kScale, 9);
  };
  auto pipeline = generator.Next();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  // A load edge for the first computed artifact that is read again: the
  // plan then holds two producers of that node, and the load fails (the
  // store is empty) before the compute producer runs.
  core::PipelineGraph& graph = pipeline->graph;
  NodeId twice = kInvalidNode;
  for (NodeId v = 1; v < graph.num_artifacts() && twice == kInvalidNode;
       ++v) {
    const core::ArtifactKind kind = graph.artifact(v).kind;
    if (kind != core::ArtifactKind::kRaw &&
        kind != core::ArtifactKind::kSource &&
        !graph.hypergraph().fstar(v).empty()) {
      twice = v;
    }
  }
  ASSERT_NE(twice, kInvalidNode);
  auto load = graph.AddLoadTask(twice);
  ASSERT_TRUE(load.ok()) << load.status();
  core::Augmentation aug = AsAugmentation(*pipeline);
  core::Plan plan = FullPlan(aug);

  auto one = ExecuteWith(aug, plan, resolver, 1);
  ASSERT_TRUE(one.ok()) << one.status();
  auto many = ExecuteWith(aug, plan, resolver, 8);
  ASSERT_TRUE(many.ok()) << many.status();
  ExpectSameRun(*one, *many);
  // Only the load failed; the computed copy fed every consumer.
  ASSERT_EQ(one->result.failures.size(), 1u);
  EXPECT_EQ(one->result.failures[0].edge, *load);
  EXPECT_TRUE(one->result.skipped_edges.empty());
}

TEST(ExecutorDifferentialTest, ChargedEstimatesMatchPlanSeconds) {
  constexpr double kScale = 1e-9;
  workload::PipelineGenerator generator(workload::UseCase::Higgs(), kScale,
                                        /*seed=*/17);
  core::DatasetResolver resolver =
      [](const std::string&) -> Result<ml::DatasetPtr> {
    return workload::GenerateUseCase(workload::UseCase::Higgs(), kScale, 7);
  };
  auto pipeline = generator.Next();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  core::Augmentation aug = AsAugmentation(*pipeline);
  core::Plan plan = FullPlan(aug);
  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  core::Executor executor(&store, resolver, &monitor);
  core::Executor::Options options;
  options.charge_estimates = true;
  auto result = executor.Execute(aug, plan, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Compute tasks are billed at their estimates; load tasks charge the
  // storage model. This plan is loads + computes, so the total equals the
  // sum over executed tasks of those charges — which the plan summed too.
  double expected = 0.0;
  for (const auto& run : result->task_runs) {
    expected += run.seconds;
  }
  EXPECT_DOUBLE_EQ(result->total_seconds, expected);
}

}  // namespace
}  // namespace hyppo
