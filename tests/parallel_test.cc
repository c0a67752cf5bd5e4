#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/hyppo.h"
#include "core/pipeline_builder.h"
#include "hypergraph/algorithms.h"
#include "workload/datagen.h"

namespace hyppo {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter]() { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter]() { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter]() { counter.fetch_add(1); });
  pool.Submit([&counter]() { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(3);
  pool.Wait();  // no deadlock
  EXPECT_EQ(pool.num_threads(), 3);
}

TEST(ThreadPoolTest, SingleThreadDegenerate) {
  ThreadPool pool(0);  // clamped to 1
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter]() { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

// ---------------------------------------------------------------------------
// Parallel plan execution: identical results to serial execution, and no
// barrier between independent branches.

class ParallelExecutorTest : public ::testing::Test {
 protected:
  // A pipeline with independent branches: two models fitted on the same
  // scaled train data, each predicting and evaluating independently.
  core::Pipeline BuildBranchyPipeline() {
    core::PipelineBuilder builder("branchy");
    NodeId data = *builder.LoadDataset("par-unit", 800, 6);
    auto split = *builder.Split(data);
    ml::Config impute;
    impute.Set("strategy", "mean");
    NodeId imputer = *builder.Fit("SimpleImputer", "skl.SimpleImputer",
                                  split.first, impute);
    NodeId train_i = *builder.Transform(imputer, split.first);
    NodeId test_i = *builder.Transform(imputer, split.second);
    NodeId scaler =
        *builder.Fit("StandardScaler", "skl.StandardScaler", train_i);
    NodeId train_s = *builder.Transform(scaler, train_i);
    NodeId test_s = *builder.Transform(scaler, test_i);
    ml::Config tree;
    tree.SetInt("max_depth", 5);
    NodeId model_a = *builder.Fit("DecisionTreeClassifier",
                                  "skl.DecisionTreeClassifier", train_s, tree);
    ml::Config logistic;
    logistic.SetDouble("alpha", 0.001);
    NodeId model_b = *builder.Fit("LogisticRegression",
                                  "skl.LogisticRegression", train_s, logistic);
    NodeId preds_a = *builder.Predict(model_a, test_s);
    NodeId preds_b = *builder.Predict(model_b, test_s);
    *builder.Evaluate(preds_a, test_s, "accuracy");
    *builder.Evaluate(preds_b, test_s, "f1");
    return *std::move(builder).Build();
  }

  core::Augmentation AsAugmentation(const core::Pipeline& pipeline) {
    core::Augmentation aug;
    aug.graph = pipeline.graph;
    aug.targets = pipeline.targets;
    const size_t slots =
        static_cast<size_t>(aug.graph.hypergraph().num_edge_slots());
    aug.edge_weight.assign(slots, 1.0);
    aug.edge_seconds.assign(slots, 1.0);
    return aug;
  }

  core::DatasetResolver Resolver() {
    return [](const std::string&) -> Result<ml::DatasetPtr> {
      return workload::GenerateHiggs(800, 6, 17);
    };
  }
};

TEST_F(ParallelExecutorTest, MatchesSerialResults) {
  core::Pipeline pipeline = BuildBranchyPipeline();
  core::Augmentation aug = AsAugmentation(pipeline);
  core::Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();

  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  core::Executor executor(&store, Resolver(), &monitor);

  core::Executor::Options serial;
  auto serial_result = executor.Execute(aug, plan, serial);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status();

  core::Executor::Options parallel;
  parallel.parallelism = 4;
  auto parallel_result = executor.Execute(aug, plan, parallel);
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status();

  // Same artifacts produced with identical values.
  ASSERT_EQ(parallel_result->payloads.size(),
            serial_result->payloads.size());
  for (const auto& [node, payload] : serial_result->payloads) {
    auto it = parallel_result->payloads.find(node);
    ASSERT_NE(it, parallel_result->payloads.end());
    if (const double* value = std::get_if<double>(&payload)) {
      EXPECT_DOUBLE_EQ(*value, std::get<double>(it->second));
    }
    if (const auto* preds = std::get_if<ml::PredictionsPtr>(&payload)) {
      EXPECT_EQ(**preds, **std::get_if<ml::PredictionsPtr>(&it->second));
    }
  }
  EXPECT_EQ(parallel_result->task_runs.size(),
            serial_result->task_runs.size());
}

TEST_F(ParallelExecutorTest, FailureInOneBranchSurfaces) {
  core::Pipeline pipeline = BuildBranchyPipeline();
  core::Augmentation aug = AsAugmentation(pipeline);
  // Corrupt one model's impl so its branch fails.
  for (EdgeId e : aug.graph.hypergraph().LiveEdges()) {
    if (aug.graph.task(e).logical_op == "LogisticRegression") {
      aug.graph.task(e).impl = "nope.LogisticRegression";
    }
  }
  core::Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();
  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  core::Executor executor(&store, Resolver(), &monitor);
  core::Executor::Options parallel;
  parallel.parallelism = 4;
  auto result = executor.Execute(aug, plan, parallel);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_TRUE(result->failures[0].status.IsNotFound())
      << result->failures[0].status;
  EXPECT_FALSE(result->complete());
  // The healthy branch still produced its payloads.
  EXPECT_FALSE(result->payloads.empty());
}

// Opens once. Waiters give up after a timeout, so an executor that holds
// one branch back until the other finishes fails the test instead of
// hanging it.
class Latch {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    opened_.notify_all();
  }
  bool WaitFor(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return opened_.wait_for(lock, timeout, [this]() { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable opened_;
  bool open_ = false;
};

// "test.<logical_op>": fit yields an empty state, transform passes its
// dataset through. The waiting fit blocks on the latch; the opening
// transform opens it.
class LatchOp final : public ml::PhysicalOperator {
 public:
  enum class Role { kWaitInFit, kOpenInTransform };
  LatchOp(std::string logical_op, Latch* latch, Role role)
      : PhysicalOperator(std::move(logical_op), "test"),
        latch_(latch),
        role_(role) {}

  bool SupportsTask(ml::MlTask task) const override {
    return task == ml::MlTask::kFit || task == ml::MlTask::kTransform;
  }

  Result<ml::TaskOutputs> Execute(ml::MlTask task,
                                  const ml::TaskInputs& inputs,
                                  const ml::Config&) const override {
    ml::TaskOutputs outputs;
    if (task == ml::MlTask::kFit) {
      if (role_ == Role::kWaitInFit &&
          !latch_->WaitFor(std::chrono::seconds(10))) {
        return Status::Internal("latch never opened");
      }
      outputs.states.push_back(std::make_shared<ml::VectorState>(logical_op()));
      return outputs;
    }
    if (role_ == Role::kOpenInTransform) {
      latch_->Open();
    }
    outputs.datasets.push_back(inputs.datasets.at(0));
    return outputs;
  }

 private:
  Latch* latch_;
  Role role_;
};

// Branch A is one fit that waits for branch B's second task (a transform
// consuming B's fit). An executor that runs ready tasks in waves puts A and
// B's fit in one wave, so B's transform cannot start until A gives up; with
// a shared ready queue the second worker runs B through while A waits. B
// thus finishes before A, yet the result still lists tasks, and sums their
// charges, in topological position order.
TEST_F(ParallelExecutorTest, NoBarrierBetweenIndependentBranches) {
  Latch latch;
  ml::OperatorRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<LatchOp>(
                      "Waiter", &latch, LatchOp::Role::kWaitInFit))
                  .ok());
  ASSERT_TRUE(registry
                  .Register(std::make_unique<LatchOp>(
                      "Opener", &latch, LatchOp::Role::kOpenInTransform))
                  .ok());
  core::PipelineBuilder builder("no-barrier");
  const NodeId data = *builder.LoadDataset("latch-data", 100, 4);
  ASSERT_TRUE(builder.Fit("Waiter", "test.Waiter", data).ok());
  const NodeId opener = *builder.Fit("Opener", "test.Opener", data);
  ASSERT_TRUE(builder.Transform(opener, data).ok());
  const core::Pipeline pipeline = *std::move(builder).Build();
  core::Augmentation aug = AsAugmentation(pipeline);
  // Charges whose sum differs between position order and B-before-A
  // completion order.
  for (size_t e = 0; e < aug.edge_seconds.size(); ++e) {
    aug.edge_seconds[e] = 0.1 / static_cast<double>(e + 1);
  }
  core::Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();

  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  core::Executor executor(
      &store,
      [](const std::string&) -> Result<ml::DatasetPtr> {
        return workload::GenerateHiggs(100, 4, 3);
      },
      &monitor, &registry);
  core::Executor::Options options;
  options.parallelism = 2;
  options.charge_estimates = true;
  auto result = executor.Execute(aug, plan, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->failures.empty()) << result->failures[0].status;
  EXPECT_TRUE(result->complete());

  auto order = BTopologicalEdgeOrder(aug.graph.hypergraph(), plan.edges,
                                     {aug.graph.source()});
  ASSERT_TRUE(order.ok()) << order.status();
  std::vector<EdgeId> ran;
  double position_sum = 0.0;
  for (const auto& run : result->task_runs) {
    ran.push_back(run.edge);
    position_sum += run.seconds;
  }
  EXPECT_EQ(ran, *order);
  EXPECT_EQ(result->total_seconds, position_sum);
}

TEST_F(ParallelExecutorTest, RuntimeLevelParallelismEndToEnd) {
  core::RuntimeOptions options;
  options.storage_budget_bytes = 1 << 20;
  options.parallelism = 4;
  core::Runtime runtime(options);
  runtime.RegisterDatasetGenerator(
      "par-unit", []() { return workload::GenerateHiggs(800, 6, 17); });
  core::HyppoMethod method(&runtime);
  core::Pipeline pipeline = BuildBranchyPipeline();
  auto planned = method.PlanPipeline(pipeline);
  ASSERT_TRUE(planned.ok()) << planned.status();
  auto record =
      runtime.ExecuteAndRecord(pipeline, planned->aug, planned->plan);
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_GT(record->seconds, 0.0);
  // Both evaluation targets were produced.
  int values = 0;
  for (const auto& [name, payload] : record->payloads_by_name) {
    values += std::get_if<double>(&payload) != nullptr ? 1 : 0;
  }
  EXPECT_EQ(values, 2);
}

}  // namespace
}  // namespace hyppo
