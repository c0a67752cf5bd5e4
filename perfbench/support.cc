#include "support.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>

#include "analysis/verifier.h"
#include "baselines/no_optimization.h"
#include "common/string_util.h"
#include "ml/registry.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double SafeRatio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string JsonString(const std::string& text) {
  return "\"" + hyppo::JsonEscape(text) + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Tracer::Record(const char* layer, int64_t request, double start,
                    double end) {
  std::lock_guard<std::mutex> lock(mutex_);
  durations_[layer].push_back(end - start);
  sink_->push_back(Span{layer, start, end, request, episode_});
}

double Tracer::Busy(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  const auto it = durations_.find(layer);
  if (it != durations_.end()) {
    for (double d : it->second) {
      sum += d;
    }
  }
  return sum;
}

double Tracer::P50(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = durations_.find(layer);
  return it == durations_.end() ? 0.0 : Median(it->second);
}

// ---------------------------------------------------------------------------
// Correctness gate.

ImplKey ExecutedImpls(const Pipeline& pipeline, const Lineage* lineage) {
  ImplKey key;
  const hyppo::core::PipelineGraph& graph = pipeline.graph;
  for (hyppo::EdgeId e = 0; e < graph.num_tasks(); ++e) {
    const hyppo::core::TaskInfo& task = graph.task(e);
    std::string impl =
        task.type == hyppo::core::TaskType::kLoad ? "" : task.impl;
    if (lineage != nullptr && !impl.empty()) {
      const auto it =
          lineage->find(graph.artifact(graph.ordered_head(e)[0]).name);
      if (it != lineage->end()) {
        impl = it->second;
      }
    }
    key += (e == 0 ? "" : ",") + impl;
  }
  return key;
}

Pipeline VariantOf(const Pipeline& pipeline, const ImplKey& impls) {
  Pipeline variant = pipeline;
  std::stringstream stream(impls);
  std::string impl;
  for (hyppo::EdgeId e = 0; e < variant.graph.num_tasks(); ++e) {
    std::getline(stream, impl, ',');
    if (!impl.empty()) {
      variant.graph.task(e).impl = impl;
    }
  }
  return variant;
}

bool ExactPath(const Pipeline& pipeline) {
  const hyppo::core::PipelineGraph& graph = pipeline.graph;
  for (hyppo::EdgeId e = 0; e < graph.num_tasks(); ++e) {
    const hyppo::core::TaskInfo& task = graph.task(e);
    if (task.type == hyppo::core::TaskType::kLoad) {
      continue;
    }
    auto op = hyppo::ml::OperatorRegistry::Global().Get(task.impl);
    if (!op.ok() || (*op)->tolerance() != hyppo::ml::Tolerance::kExact) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> ScoreNames(const Pipeline& pipeline) {
  std::vector<std::string> names;
  const hyppo::core::PipelineGraph& graph = pipeline.graph;
  for (hyppo::EdgeId e = 0; e < graph.num_tasks(); ++e) {
    if (graph.task(e).type == hyppo::core::TaskType::kEvaluate) {
      for (hyppo::NodeId v : graph.ordered_head(e)) {
        names.push_back(graph.artifact(v).name);
      }
    }
  }
  return names;
}

Result<std::vector<ScoreCheck>> ExtractScores(
    const ScoreOrigin& origin,
    const std::map<std::string, hyppo::storage::ArtifactPayload>& payloads) {
  const Pipeline& pipeline = *origin.pipeline;
  const std::vector<std::string> names = ScoreNames(pipeline);
  if (names.empty()) {
    return Status::Internal("pipeline '" + pipeline.id + "' has no score");
  }
  std::vector<ScoreCheck> scores;
  for (const std::string& name : names) {
    const auto it = payloads.find(name);
    if (it == payloads.end() || !std::holds_alternative<double>(it->second)) {
      return Status::Internal("pipeline '" + pipeline.id +
                              "' returned no score for " + name);
    }
    scores.push_back(ScoreCheck{name, std::get<double>(it->second), origin});
  }
  return scores;
}

bool ScoreMatches(double got, double reference, bool exact_path,
                  bool* bitwise) {
  *bitwise = std::memcmp(&got, &reference, sizeof(double)) == 0;
  if (*bitwise) {
    return true;
  }
  if (exact_path) {
    return false;
  }
  const double scale =
      std::max({std::fabs(got), std::fabs(reference), 1e-300});
  return std::fabs(got - reference) <= kScoreRelTolerance * scale;
}

Result<std::vector<std::map<std::string, double>>> ReferenceScores(
    const std::vector<Pipeline>& pipelines, const std::string& dataset_id,
    const hyppo::ml::DatasetPtr& dataset) {
  hyppo::core::Runtime runtime;
  HYPPO_RETURN_NOT_OK(runtime.session_status());
  runtime.RegisterDataset(dataset_id, dataset);
  hyppo::baselines::NoOptimizationMethod method(&runtime);
  std::vector<std::map<std::string, double>> reference;
  for (const Pipeline& pipeline : pipelines) {
    HYPPO_ASSIGN_OR_RETURN(hyppo::core::Method::Planned planned,
                           method.PlanPipeline(pipeline));
    HYPPO_ASSIGN_OR_RETURN(
        hyppo::core::Runtime::ExecutionRecord record,
        runtime.ExecuteAndRecord(pipeline, planned.aug, planned.plan));
    ScoreOrigin origin;
    origin.pipeline = &pipeline;
    HYPPO_ASSIGN_OR_RETURN(std::vector<ScoreCheck> scores,
                           ExtractScores(origin, record.payloads_by_name));
    std::map<std::string, double> by_name;
    for (const ScoreCheck& score : scores) {
      by_name[score.name] = score.value;
    }
    reference.push_back(std::move(by_name));
  }
  return reference;
}

Result<std::map<std::string, LineagePtr>> LineageTracker::Trace(
    const hyppo::core::Augmentation& aug,
    const hyppo::core::Plan& plan) const {
  const hyppo::core::PipelineGraph& graph = aug.graph;
  std::map<hyppo::NodeId, hyppo::EdgeId> producer;
  for (hyppo::EdgeId e : plan.edges) {
    for (hyppo::NodeId head : graph.ordered_head(e)) {
      producer[head] = e;
    }
  }
  std::map<hyppo::NodeId, LineagePtr> memo;
  std::function<Result<LineagePtr>(hyppo::NodeId)> visit =
      [&](hyppo::NodeId v) -> Result<LineagePtr> {
    const auto known = memo.find(v);
    if (known != memo.end()) {
      return known->second;
    }
    const hyppo::core::ArtifactInfo& info = graph.artifact(v);
    const auto edge = producer.find(v);
    if (edge == producer.end()) {
      return Status::Internal("plan does not derive " + info.name);
    }
    const hyppo::core::TaskInfo& task = graph.task(edge->second);
    auto lineage = std::make_shared<Lineage>();
    if (task.type != hyppo::core::TaskType::kLoad) {
      for (hyppo::NodeId tail : graph.ordered_tail(edge->second)) {
        HYPPO_ASSIGN_OR_RETURN(LineagePtr inputs, visit(tail));
        lineage->insert(inputs->begin(), inputs->end());
      }
      for (hyppo::NodeId head : graph.ordered_head(edge->second)) {
        (*lineage)[graph.artifact(head).name] = task.impl;
      }
    } else if (info.kind != hyppo::core::ArtifactKind::kRaw) {
      const auto stored = stored_.find(info.name);
      if (stored == stored_.end()) {
        return Status::Internal("load of untracked artifact " + info.name);
      }
      *lineage = *stored->second;
    }
    memo[v] = lineage;
    return LineagePtr(lineage);
  };
  std::map<std::string, LineagePtr> by_name;
  for (const auto& [node, edge] : producer) {
    HYPPO_ASSIGN_OR_RETURN(by_name[graph.artifact(node).name], visit(node));
  }
  return by_name;
}

void LineageTracker::Update(const hyppo::core::History& history,
                            const std::map<std::string, LineagePtr>& traced) {
  std::map<std::string, LineagePtr> next;
  for (hyppo::NodeId v : history.MaterializedArtifacts()) {
    const std::string& name = history.graph().artifact(v).name;
    const auto old = stored_.find(name);
    if (old != stored_.end()) {
      next[name] = old->second;
    } else if (const auto now = traced.find(name); now != traced.end()) {
      next[name] = now->second;
    }
  }
  stored_ = std::move(next);
}

Status CaptureScores(const ScoreOrigin& origin,
                     const hyppo::core::Method::Planned& planned,
                     const hyppo::core::Runtime::ExecutionRecord& record,
                     const hyppo::core::History& history,
                     LineageTracker* lineage, std::vector<ScoreCheck>* out) {
  HYPPO_ASSIGN_OR_RETURN(auto traced,
                         lineage->Trace(planned.aug, planned.plan));
  lineage->Update(history, traced);
  Lineage score_lineage;
  for (const std::string& name : ScoreNames(*origin.pipeline)) {
    const auto it = traced.find(name);
    if (it == traced.end()) {
      return Status::Internal("plan does not derive score " + name);
    }
    score_lineage.insert(it->second->begin(), it->second->end());
  }
  ScoreOrigin executed = origin;
  executed.impls = ExecutedImpls(*origin.pipeline, &score_lineage);
  HYPPO_ASSIGN_OR_RETURN(std::vector<ScoreCheck> scores,
                         ExtractScores(executed, record.payloads_by_name));
  out->insert(out->end(), scores.begin(), scores.end());
  return Status::OK();
}

Status VerifyCatalog(const hyppo::core::Runtime& runtime) {
  const hyppo::analysis::Verifier verifier;
  hyppo::analysis::AnalysisReport report = verifier.VerifyHistory(
      runtime.history(), &runtime.dictionary(),
      runtime.options().storage_budget_bytes);
  report.Merge(
      verifier.CheckStoreConsistency(runtime.history(), runtime.store()));
  if (!report.ok()) {
    return Status::Internal("catalog verification failed (" +
                            report.Summary() + ")");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Episodes and per-layer bookkeeping.

void Episode::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 5) {
    errors.push_back(what);
  }
}

void Episode::FailAll(const std::string& what) {
  failed = attempted;
  errors.push_back(what);
}

void LayerTotals::AddAugmentation(const hyppo::core::Augmentation& aug) {
  augmenter_edges += aug.graph.num_tasks();
}

void LayerTotals::AddPlan(const hyppo::core::Augmentation& aug,
                          const hyppo::core::Plan& plan) {
  plan_tasks += static_cast<double>(plan.edges.size());
  predicted_seconds += plan.seconds;
  for (hyppo::EdgeId e : plan.edges) {
    if (aug.graph.task(e).type == hyppo::core::TaskType::kLoad &&
        aug.graph.artifact(aug.graph.ordered_head(e)[0]).kind !=
            hyppo::core::ArtifactKind::kRaw) {
      load_tasks += 1.0;
    }
  }
}

void AddMonitorLayers(const hyppo::core::Runtime& runtime, bool simulate,
                      Episode* episode) {
  const hyppo::core::Monitor& monitor = runtime.monitor();
  static const std::pair<hyppo::core::TaskType, const char*> kCompute[] = {
      {hyppo::core::TaskType::kFit, "ml.fit_s"},
      {hyppo::core::TaskType::kTransform, "ml.transform_s"},
      {hyppo::core::TaskType::kPredict, "ml.predict_s"},
      {hyppo::core::TaskType::kEvaluate, "ml.evaluate_s"},
      {hyppo::core::TaskType::kSplit, "ml.split_s"}};
  auto seconds_of = [&](hyppo::core::TaskType type) {
    const auto it = monitor.by_task_type().find(type);
    return it == monitor.by_task_type().end() ? 0.0
                                              : it->second.total_seconds;
  };
  double measured = 0.0;
  double charged = 0.0;
  for (const auto& [type, name] : kCompute) {
    const double seconds = seconds_of(type);
    (simulate ? charged : measured) += seconds;
    episode->layers[name] = simulate ? 0.0 : seconds;
  }
  auto& layers = episode->layers;
  layers["ml.compute_s"] = measured;
  layers["charged.compute_s"] = charged;
  layers["charged.load_s"] = seconds_of(hyppo::core::TaskType::kLoad);
  layers["executor.tasks"] = static_cast<double>(monitor.num_task_records());
  layers["executor.replans"] = static_cast<double>(monitor.num_replans());
  layers["executor.failed_tasks"] =
      static_cast<double>(monitor.num_task_failures());
  layers["augmenter.index_hits"] =
      static_cast<double>(monitor.num_index_hits());
  layers["augmenter.index_misses"] =
      static_cast<double>(monitor.num_index_misses());
  layers["history.compacted"] =
      static_cast<double>(monitor.num_history_compacted());
  layers["history.artifacts"] =
      static_cast<double>(runtime.history().num_artifacts());
  layers["materializer.materialized"] =
      static_cast<double>(runtime.history().MaterializedArtifacts().size());
  layers["materializer.budget_used"] =
      SafeRatio(static_cast<double>(runtime.store().used_bytes()),
                static_cast<double>(runtime.options().storage_budget_bytes));
}

void AddSearchLayers(const hyppo::core::PlanGenerator::SearchStats& stats,
                     Episode* episode) {
  auto& layers = episode->layers;
  layers["optimizer.expansions"] = static_cast<double>(stats.expansions);
  layers["optimizer.plans_examined"] =
      static_cast<double>(stats.plans_examined);
  layers["optimizer.pruned"] =
      static_cast<double>(stats.pruned_by_bound + stats.pruned_by_dominance);
  layers["optimizer.threads_used"] = static_cast<double>(stats.threads_used);
}

void AddTimingLayers(const Tracer& tracer, const LayerTotals& totals,
                     double executor_busy, Episode* episode) {
  double request_busy = 0.0;
  for (double latency : episode->latencies) {
    request_busy += latency;
  }
  const double plan = tracer.Busy("plan");
  const double augment = tracer.Busy("augmenter");
  const double compute = episode->layers["ml.compute_s"];
  auto& layers = episode->layers;
  layers["analysis.static_s"] = tracer.Busy("analysis");
  layers["augmenter.busy_s"] = augment;
  layers["augmenter.edges"] = totals.augmenter_edges;
  layers["plan.busy_s"] = plan;
  layers["plan.p50_s"] = tracer.P50("plan");
  layers["plan.share"] = SafeRatio(plan, request_busy);
  layers["optimizer.busy_s"] = plan - augment;
  layers["optimizer.plan_tasks"] = totals.plan_tasks;
  layers["materializer.busy_s"] = tracer.Busy("materializer");
  layers["materializer.p50_s"] = tracer.P50("materializer");
  layers["executor.busy_s"] = executor_busy;
  layers["executor.share"] = SafeRatio(executor_busy, request_busy);
  layers["executor.load_tasks"] = totals.load_tasks;
  layers["executor.reuse_ratio"] =
      SafeRatio(totals.load_tasks, totals.plan_tasks);
  layers["executor.overhead_s"] = executor_busy - compute;
  layers["ml.compute_share"] = SafeRatio(compute, executor_busy);
  layers["cost_model.charged_over_wall"] =
      SafeRatio(totals.charged_seconds, executor_busy);
  layers["cost_model.predicted_over_wall"] =
      SafeRatio(totals.predicted_seconds, executor_busy);
  layers["charged.cet_s"] = totals.charged_seconds;
  layers["storage.persist_s"] = tracer.Busy("storage.persist");
}

}  // namespace perfbench
