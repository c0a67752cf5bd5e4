#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "analysis/diagnostic.h"
#include "analysis/json_diagnostics.h"
#include "analysis/static/static_analyzer.h"
#include "core/dictionary.h"
#include "core/hyppo.h"
#include "core/parser.h"
#include "core/pipeline_builder.h"
#include "ml/registry.h"

namespace hyppo::analysis {
namespace {

using core::ArtifactInfo;
using core::ArtifactKind;
using core::Pipeline;
using core::PipelineBuilder;
using core::PipelineGraph;
using core::TaskInfo;
using core::TaskType;

ArtifactInfo MakeArtifact(const std::string& name, ArtifactKind kind,
                          int64_t rows, int64_t cols) {
  ArtifactInfo info;
  info.name = name;
  info.kind = kind;
  info.rows = rows;
  info.cols = cols;
  info.size_bytes = rows * (cols + 1) * 8;
  return info;
}

TaskInfo MakeTask(const std::string& logical_op, TaskType type,
                  const std::string& impl, int source_line) {
  TaskInfo task;
  task.logical_op = logical_op;
  task.type = type;
  task.impl = impl;
  task.source_line = source_line;
  return task;
}

const Diagnostic* FindCheck(const AnalysisReport& report,
                            const std::string& check) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.check == check) {
      return &d;
    }
  }
  return nullptr;
}

// Registry probe: a fit/transform estimator whose tolerance/determinism
// contracts are injectable, for seeding catalog defects.
class ProbeOp final : public ml::Estimator {
 public:
  ProbeOp(std::string logical_op, std::string framework, ml::Tolerance tol,
          ml::Determinism det)
      : Estimator(std::move(logical_op), std::move(framework),
                  /*transforms=*/true, /*predicts=*/false) {
    set_tolerance(tol);
    set_determinism(det);
  }

 protected:
  Result<ml::OpStatePtr> DoFit(const ml::Dataset& /*data*/,
                               const ml::Config& /*config*/) const override {
    return Status::Internal("probe operator is not executable");
  }
};

// ---------------------------------------------------------------------------
// Pass 1: shape & schema inference.

// Seeded defect: evaluate with a missing dataset input (bad arity).
TEST(StaticShapeTest, BadArityIsErrorWithSourceLocation) {
  PipelineGraph g;
  const NodeId preds =
      *g.AddArtifact(MakeArtifact("p", ArtifactKind::kPredictions, 100, 1));
  const NodeId value =
      *g.AddArtifact(MakeArtifact("v", ArtifactKind::kValue, 1, 1));
  ASSERT_TRUE(g.AddTask(MakeTask("Evaluator", TaskType::kEvaluate,
                                 "skl.Evaluator", /*source_line=*/4),
                        {preds}, {value})
                  .ok());
  const StaticAnalyzer analyzer;
  const AnalysisReport report = analyzer.CheckPipelineShapes(g);
  EXPECT_FALSE(report.ok());
  const Diagnostic* d = FindCheck(report, "shape.bad-arity");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 4);
  EXPECT_EQ(d->entity, EntityKind::kEdge);
  EXPECT_NE(d->ToString().find("(line 4)"), std::string::npos);
}

// Seeded defect: a state fitted on 10 columns applied to 5-column data.
TEST(StaticShapeTest, DimensionMismatchIsErrorWithSourceLocation) {
  PipelineGraph g;
  const NodeId train =
      *g.AddArtifact(MakeArtifact("train", ArtifactKind::kTrain, 100, 10));
  const NodeId state =
      *g.AddArtifact(MakeArtifact("state", ArtifactKind::kOpState, 1, 10));
  const NodeId narrow =
      *g.AddArtifact(MakeArtifact("narrow", ArtifactKind::kTest, 50, 5));
  const NodeId preds =
      *g.AddArtifact(MakeArtifact("p", ArtifactKind::kPredictions, 50, 1));
  ASSERT_TRUE(g.AddTask(MakeTask("DecisionTreeClassifier", TaskType::kFit,
                                 "skl.DecisionTreeClassifier", 2),
                        {train}, {state})
                  .ok());
  ASSERT_TRUE(g.AddTask(MakeTask("DecisionTreeClassifier", TaskType::kPredict,
                                 "skl.DecisionTreeClassifier", 3),
                        {state, narrow}, {preds})
                  .ok());
  const StaticAnalyzer analyzer;
  const AnalysisReport report = analyzer.CheckPipelineShapes(g);
  EXPECT_FALSE(report.ok());
  const Diagnostic* d = FindCheck(report, "shape.dim-mismatch");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 3);
  EXPECT_NE(d->message.find("10"), std::string::npos);
  EXPECT_NE(d->message.find("5"), std::string::npos);
}

// Split heads must be (train, test); transposing them is a kind error.
TEST(StaticShapeTest, KindMismatchOnSplitHeads) {
  PipelineGraph g;
  const NodeId data =
      *g.AddArtifact(MakeArtifact("d", ArtifactKind::kRaw, 100, 4));
  const NodeId a =
      *g.AddArtifact(MakeArtifact("a", ArtifactKind::kTest, 75, 4));
  const NodeId b =
      *g.AddArtifact(MakeArtifact("b", ArtifactKind::kTrain, 25, 4));
  ASSERT_TRUE(g.AddTask(MakeTask("TrainTestSplit", TaskType::kSplit,
                                 "skl.TrainTestSplit", 1),
                        {data}, {a, b})
                  .ok());
  const StaticAnalyzer analyzer;
  const AnalysisReport report = analyzer.CheckPipelineShapes(g);
  EXPECT_TRUE(FindCheck(report, "shape.kind-mismatch") != nullptr);
  EXPECT_FALSE(report.ok());
}

TEST(StaticShapeTest, SplitTestSizeOutsideUnitIntervalIsError) {
  PipelineGraph g;
  const NodeId data =
      *g.AddArtifact(MakeArtifact("d", ArtifactKind::kRaw, 100, 4));
  const NodeId tr =
      *g.AddArtifact(MakeArtifact("tr", ArtifactKind::kTrain, 75, 4));
  const NodeId te =
      *g.AddArtifact(MakeArtifact("te", ArtifactKind::kTest, 25, 4));
  TaskInfo task =
      MakeTask("TrainTestSplit", TaskType::kSplit, "skl.TrainTestSplit", 2);
  task.config.Set("test_size", "1.5");
  ASSERT_TRUE(g.AddTask(task, {data}, {tr, te}).ok());
  const StaticAnalyzer analyzer;
  const AnalysisReport report = analyzer.CheckPipelineShapes(g);
  const Diagnostic* d = FindCheck(report, "shape.bad-config");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 2);
}

// Evaluate comparing predictions against a differently-sized dataset.
TEST(StaticShapeTest, EvaluateRowMismatchIsError) {
  PipelineGraph g;
  const NodeId preds =
      *g.AddArtifact(MakeArtifact("p", ArtifactKind::kPredictions, 100, 1));
  const NodeId test =
      *g.AddArtifact(MakeArtifact("t", ArtifactKind::kTest, 40, 4));
  const NodeId value =
      *g.AddArtifact(MakeArtifact("v", ArtifactKind::kValue, 1, 1));
  ASSERT_TRUE(g.AddTask(MakeTask("Evaluator", TaskType::kEvaluate,
                                 "skl.Evaluator", 6),
                        {preds, test}, {value})
                  .ok());
  const StaticAnalyzer analyzer;
  const AnalysisReport report = analyzer.CheckPipelineShapes(g);
  const Diagnostic* d = FindCheck(report, "shape.dim-mismatch");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 6);
}

// Every shape a PipelineBuilder can legally produce must pass: ensembles,
// transforms, predicts, evaluates.
TEST(StaticShapeTest, WellFormedBuilderPipelineIsClean) {
  PipelineBuilder b("clean");
  const NodeId data = *b.LoadDataset("unit", 600, 6);
  const auto split = *b.Split(data);
  const NodeId scaler =
      *b.Fit("StandardScaler", "skl.StandardScaler", split.first);
  const NodeId train_s = *b.Transform(scaler, split.first);
  const NodeId test_s = *b.Transform(scaler, split.second);
  const NodeId m1 =
      *b.Fit("DecisionTreeClassifier", "skl.DecisionTreeClassifier", train_s);
  const NodeId m2 = *b.Fit("SGDRegressor", "skl.SGDRegressor", train_s);
  const NodeId ens = *b.FitEnsemble("VotingRegressor", "skl.VotingRegressor",
                                    {m1, m2}, kInvalidNode);
  const NodeId preds = *b.Predict(ens, test_s);
  ASSERT_TRUE(b.Evaluate(preds, test_s, "accuracy").ok());
  const Pipeline pipeline = *std::move(b).Build();
  const StaticAnalyzer analyzer;
  const AnalysisReport report =
      analyzer.CheckPipelineShapes(pipeline.graph);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// The DSL parser stamps statement lines, so a defect written in DSL
// surfaces with its source line end to end.
TEST(StaticShapeTest, DslDimensionMismatchCarriesSourceLine) {
  const char* code = R"(wide   = load("d10", rows=100, cols=10)
narrow = load("d5", rows=100, cols=5)
tr, te = sk.TrainTestSplit.split(wide)
sc     = sk.StandardScaler.fit(tr)
oops   = sc.transform(narrow)
)";
  const core::Dictionary dictionary =
      core::Dictionary::FromRegistry(ml::OperatorRegistry::Global());
  const Result<Pipeline> pipeline =
      core::ParsePipeline(code, "located", dictionary);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  const StaticAnalyzer analyzer;
  const AnalysisReport report =
      analyzer.CheckPipelineShapes(pipeline->graph);
  const Diagnostic* d = FindCheck(report, "shape.dim-mismatch");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 5);
}

// ---------------------------------------------------------------------------
// Pass 2: equivalence soundness audit.

// Seeded defect: two implementations of one logical operator declaring
// different tolerance classes — an inconsistent equivalence class.
TEST(StaticCatalogTest, InconsistentEquivalenceClassIsError) {
  ml::OperatorRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<ProbeOp>(
                      "FakeScaler", "skl", ml::Tolerance::kExact,
                      ml::Determinism::kDeterministic))
                  .ok());
  ASSERT_TRUE(registry
                  .Register(std::make_unique<ProbeOp>(
                      "FakeScaler", "tfl", ml::Tolerance::kNumeric,
                      ml::Determinism::kDeterministic))
                  .ok());
  core::Dictionary dictionary;
  ASSERT_TRUE(
      dictionary.Register("FakeScaler", TaskType::kFit, "skl.FakeScaler")
          .ok());
  ASSERT_TRUE(
      dictionary.Register("FakeScaler", TaskType::kFit, "tfl.FakeScaler")
          .ok());
  const StaticAnalyzer analyzer;
  const AnalysisReport report = analyzer.CheckCatalog(dictionary, registry);
  EXPECT_FALSE(report.ok());
  const Diagnostic* d = FindCheck(report, "catalog.tolerance-mismatch");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(StaticCatalogTest, LogicalOpMismatchAndUnsupportedTaskAreErrors) {
  ml::OperatorRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<ProbeOp>(
                      "FakeScaler", "skl", ml::Tolerance::kNumeric,
                      ml::Determinism::kDeterministic))
                  .ok());
  core::Dictionary dictionary;
  // Entry binds an impl that implements a different logical operator.
  ASSERT_TRUE(
      dictionary.Register("OtherOp", TaskType::kFit, "skl.FakeScaler").ok());
  // Entry binds a task type the impl does not expose (probe cannot
  // predict).
  ASSERT_TRUE(
      dictionary.Register("FakeScaler", TaskType::kPredict, "skl.FakeScaler")
          .ok());
  const StaticAnalyzer analyzer;
  const AnalysisReport report = analyzer.CheckCatalog(dictionary, registry);
  EXPECT_TRUE(FindCheck(report, "catalog.logical-op-mismatch") != nullptr);
  EXPECT_TRUE(FindCheck(report, "catalog.unsupported-task") != nullptr);
}

// Impls outside the registry are legal single-implementation operators
// (paper §IV-C): warning, never error.
TEST(StaticCatalogTest, UnknownImplIsOnlyAWarning) {
  ml::OperatorRegistry registry;
  core::Dictionary dictionary;
  ASSERT_TRUE(
      dictionary.Register("Mystery", TaskType::kFit, "skl.Mystery").ok());
  const StaticAnalyzer analyzer;
  const AnalysisReport report = analyzer.CheckCatalog(dictionary, registry);
  EXPECT_TRUE(report.ok());
  const Diagnostic* d = FindCheck(report, "catalog.unknown-impl");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

// The shipped catalog must audit clean — every built-in equivalence class
// is internally consistent.
TEST(StaticCatalogTest, BuiltinCatalogIsSound) {
  const ml::OperatorRegistry& registry = ml::OperatorRegistry::Global();
  const core::Dictionary dictionary =
      core::Dictionary::FromRegistry(registry);
  const StaticAnalyzer analyzer;
  const AnalysisReport report = analyzer.CheckCatalog(dictionary, registry);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.num_warnings(), 0) << report.ToString();
}

// ---------------------------------------------------------------------------
// Pass 3: determinism lint.

// Seeded defect: a non-deterministic op on a bitwise-contract path.
TEST(StaticDeterminismTest, NonDeterministicOpOnBitwisePathIsError) {
  ml::OperatorRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<ProbeOp>(
                      "WallClockScaler", "skl", ml::Tolerance::kNumeric,
                      ml::Determinism::kNonDeterministic))
                  .ok());
  core::Dictionary dictionary;
  ASSERT_TRUE(dictionary
                  .Register("WallClockScaler", TaskType::kFit,
                            "skl.WallClockScaler")
                  .ok());
  PipelineGraph g;
  const NodeId train =
      *g.AddArtifact(MakeArtifact("train", ArtifactKind::kTrain, 100, 4));
  const NodeId state =
      *g.AddArtifact(MakeArtifact("state", ArtifactKind::kOpState, 1, 4));
  ASSERT_TRUE(g.AddTask(MakeTask("WallClockScaler", TaskType::kFit,
                                 "skl.WallClockScaler", 7),
                        {train}, {state})
                  .ok());

  StaticAnalyzerOptions bitwise;
  bitwise.require_bitwise = true;
  const AnalysisReport strict =
      StaticAnalyzer(bitwise).CheckDeterminism(g, dictionary, registry);
  EXPECT_FALSE(strict.ok());
  const Diagnostic* d = FindCheck(strict, "determinism.non-deterministic-op");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 7);

  // Off the bitwise path the same finding is advisory.
  const AnalysisReport lax =
      StaticAnalyzer().CheckDeterminism(g, dictionary, registry);
  EXPECT_TRUE(lax.ok());
  EXPECT_TRUE(FindCheck(lax, "determinism.non-deterministic-op") != nullptr);
}

// A deterministic impl whose dictionary-equivalent substitute is
// non-deterministic is just as dangerous: the augmenter may bind it.
TEST(StaticDeterminismTest, NonDeterministicSubstituteIsFlagged) {
  ml::OperatorRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<ProbeOp>(
                      "MixedScaler", "skl", ml::Tolerance::kNumeric,
                      ml::Determinism::kDeterministic))
                  .ok());
  ASSERT_TRUE(registry
                  .Register(std::make_unique<ProbeOp>(
                      "MixedScaler", "tfl", ml::Tolerance::kNumeric,
                      ml::Determinism::kNonDeterministic))
                  .ok());
  core::Dictionary dictionary;
  ASSERT_TRUE(
      dictionary.Register("MixedScaler", TaskType::kFit, "skl.MixedScaler")
          .ok());
  ASSERT_TRUE(
      dictionary.Register("MixedScaler", TaskType::kFit, "tfl.MixedScaler")
          .ok());
  PipelineGraph g;
  const NodeId train =
      *g.AddArtifact(MakeArtifact("train", ArtifactKind::kTrain, 100, 4));
  const NodeId state =
      *g.AddArtifact(MakeArtifact("state", ArtifactKind::kOpState, 1, 4));
  ASSERT_TRUE(g.AddTask(MakeTask("MixedScaler", TaskType::kFit,
                                 "skl.MixedScaler", 3),
                        {train}, {state})
                  .ok());
  StaticAnalyzerOptions bitwise;
  bitwise.require_bitwise = true;
  const AnalysisReport report =
      StaticAnalyzer(bitwise).CheckDeterminism(g, dictionary, registry);
  EXPECT_FALSE(report.ok());
  const Diagnostic* d = FindCheck(report, "determinism.non-deterministic-op");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("tfl.MixedScaler"), std::string::npos);
}

// Every built-in implementation honours the bitwise contract (the
// executor differential suite proves byte-identical payloads).
TEST(StaticDeterminismTest, BuiltinOpsAreDeterministic) {
  const ml::OperatorRegistry& registry = ml::OperatorRegistry::Global();
  for (const std::string& lop : registry.LogicalOps()) {
    for (const ml::PhysicalOperator* op : registry.ImplsFor(lop)) {
      EXPECT_EQ(op->determinism(), ml::Determinism::kDeterministic)
          << op->impl_name();
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 4: cost-model monotonicity.

TEST(StaticCostTest, NegativeAndNonFiniteWeightsAreErrors) {
  const StaticAnalyzer analyzer;
  EXPECT_TRUE(analyzer.CheckCostMonotonicity({0.0, 1.5}, {0.1}).ok());
  const AnalysisReport negative =
      analyzer.CheckCostMonotonicity({1.0, -2.0}, {});
  EXPECT_TRUE(FindCheck(negative, "cost.non-monotone") != nullptr);
  const AnalysisReport nan = analyzer.CheckCostMonotonicity(
      {std::nan("")}, {std::numeric_limits<double>::infinity()});
  EXPECT_EQ(nan.num_errors(), 2);
}

// ---------------------------------------------------------------------------
// Runtime wiring: fail-fast admission + verified CheckPlan skip.

core::HyppoSystem MakeSystem(bool static_checks, bool verify_plans) {
  core::HyppoSystem::Options options;
  options.runtime.simulate = true;
  options.runtime.static_checks = static_checks;
  options.runtime.verify_plans = verify_plans;
  return core::HyppoSystem(options);
}

Result<Pipeline> CleanPipeline(const std::string& id) {
  PipelineBuilder b(id);
  HYPPO_ASSIGN_OR_RETURN(NodeId data, b.LoadDataset("unit", 600, 6));
  HYPPO_ASSIGN_OR_RETURN(auto split, b.Split(data));
  HYPPO_ASSIGN_OR_RETURN(
      NodeId scaler, b.Fit("StandardScaler", "skl.StandardScaler",
                           split.first));
  HYPPO_ASSIGN_OR_RETURN(NodeId test_s, b.Transform(scaler, split.second));
  HYPPO_ASSIGN_OR_RETURN(
      NodeId model, b.Fit("DecisionTreeClassifier",
                          "skl.DecisionTreeClassifier", split.first));
  HYPPO_ASSIGN_OR_RETURN(NodeId preds, b.Predict(model, test_s));
  HYPPO_RETURN_NOT_OK(b.Evaluate(preds, test_s, "accuracy").status());
  return std::move(b).Build();
}

TEST(StaticRuntimeTest, MalformedPipelineIsRejectedAtSubmit) {
  core::HyppoSystem system = MakeSystem(/*static_checks=*/true,
                                        /*verify_plans=*/false);
  PipelineBuilder b("bad");
  const NodeId wide = *b.LoadDataset("d10", 100, 10);
  const NodeId narrow = *b.LoadDataset("d5", 100, 5);
  const auto split = *b.Split(wide);
  const NodeId scaler =
      *b.Fit("StandardScaler", "skl.StandardScaler", split.first);
  ASSERT_TRUE(b.Transform(scaler, narrow).ok());
  const Pipeline pipeline = *std::move(b).Build();
  const auto run = system.RunPipeline(pipeline);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status();
  EXPECT_NE(run.status().message().find("shape.dim-mismatch"),
            std::string::npos)
      << run.status();
  // Fail-fast: nothing was recorded or executed for the rejected submit.
  EXPECT_EQ(system.runtime().history().num_tasks(), 0);
}

// A clean pipeline runs with plan verification on, with and without the
// submit-time static checks.
TEST(StaticRuntimeTest, StaticallyClearedPlanSkipsRuntimeCheckPlan) {
  core::HyppoSystem system = MakeSystem(/*static_checks=*/true,
                                        /*verify_plans=*/true);
  const auto run = system.RunPipeline(*CleanPipeline("p1"));
  ASSERT_TRUE(run.ok()) << run.status();

  // With static checks off the executor verification runs as before.
  core::HyppoSystem baseline = MakeSystem(/*static_checks=*/false,
                                          /*verify_plans=*/true);
  const auto run2 = baseline.RunPipeline(*CleanPipeline("p1"));
  ASSERT_TRUE(run2.ok()) << run2.status();
}

// ---------------------------------------------------------------------------
// Shared JSON emitter.

TEST(JsonDiagnosticsTest, EmitsStableMachineReadableLayout) {
  AnalysisReport report;
  Diagnostic d;
  d.severity = Severity::kError;
  d.check = "shape.dim-mismatch";
  d.entity = EntityKind::kEdge;
  d.entity_id = 7;
  d.line = 5;
  d.column = 12;
  d.message = "a \"quoted\"\nmessage";
  report.Add(std::move(d));
  report.AddWarning("catalog.unknown-impl", "advisory");
  const std::string json = ReportToJson(report, "examples/p.hyppo");
  EXPECT_NE(json.find("\"target\": \"examples/p.hyppo\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1, \"warnings\": 1, \"clean\": false"),
            std::string::npos);
  EXPECT_NE(json.find("\"check\": \"shape.dim-mismatch\""),
            std::string::npos);
  EXPECT_NE(json.find("\"entity\": \"edge\", \"entity_id\": 7"),
            std::string::npos);
  EXPECT_NE(json.find("\"line\": 5, \"column\": 12"), std::string::npos);
  EXPECT_NE(json.find("a \\\"quoted\\\"\\nmessage"), std::string::npos);

  const AnalysisReport empty;
  const std::string clean = ReportToJson(empty, "t");
  EXPECT_NE(clean.find("\"clean\": true"), std::string::npos);
  EXPECT_NE(clean.find("\"diagnostics\": []"), std::string::npos);
}

}  // namespace
}  // namespace hyppo::analysis
