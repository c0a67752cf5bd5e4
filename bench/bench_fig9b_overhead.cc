// Regenerates Fig. 9(b): optimization overhead — the wall time the
// planner itself takes — for various <#pipelines, #history nodes> pairs,
// HYPPO vs Collab. The history is grown by running pipelines; then a
// fresh pipeline is planned repeatedly and the planning time is measured.
//
// A second section measures the execution layer's fault-hook overhead:
// the per-execution cost of consulting an armed-but-silent FaultInjector
// (zero rates) at every load/resolver/compute site, versus running with
// no injector at all. The hooks must stay within noise of the baseline.
//
// A third section sweeps history sizes an order of magnitude past the
// execution-driven section (the history is grown synthetically from
// pipeline structure observations, no execution) and compares the
// augmenter's indexed equivalence-lookup path against the reference
// full-graph scan, asserting cost-identical plans along the way.
// Pass `--json <path>` to also dump the measurements as a JSON document
// (bench/BENCH_fig9b.json is a committed snapshot).

#include <cmath>
#include <map>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "core/augmenter.h"
#include "core/dictionary.h"
#include "core/hyppo.h"
#include "core/optimizer.h"
#include "storage/fault_injection.h"
#include "workload/pipeline_generator.h"
#include "workload/scenario.h"

namespace {

using namespace hyppo;
using namespace hyppo::bench;
using namespace hyppo::workload;

struct Overhead {
  double plan_seconds = 0.0;
  int history_nodes = 0;
};

Overhead MeasureOverhead(const MethodFactory& factory, int history_pipelines,
                         double multiplier) {
  core::RuntimeOptions options;
  options.storage_budget_bytes = 64ll << 20;
  options.simulate = true;
  core::Runtime runtime(options);
  const UseCase use_case = UseCase::Higgs();
  runtime.RegisterDatasetGenerator(
      use_case.DatasetId(multiplier),
      [use_case, multiplier]() {
        return GenerateUseCase(use_case, multiplier, 42);
      });
  std::unique_ptr<core::Method> method = factory(&runtime);
  PipelineGenerator generator(use_case, multiplier, 42);
  for (int i = 0; i < history_pipelines; ++i) {
    auto pipeline = generator.Next();
    pipeline.status().Abort("generate");
    auto planned = method->PlanPipeline(*pipeline);
    planned.status().Abort("plan");
    auto record =
        runtime.ExecuteAndRecord(*pipeline, planned->aug, planned->plan);
    record.status().Abort("execute");
    method->AfterExecution(*pipeline, *planned, *record).Abort("mat");
  }
  // Measure planning time of fresh pipelines (5 repetitions averaged).
  Overhead overhead;
  overhead.history_nodes = runtime.history().num_artifacts();
  const int repetitions = 5;
  for (int i = 0; i < repetitions; ++i) {
    auto pipeline = generator.Next();
    pipeline.status().Abort("generate");
    auto planned = method->PlanPipeline(*pipeline);
    planned.status().Abort("plan");
    overhead.plan_seconds += planned->optimize_seconds;
    // Execute + record so the history keeps growing realistically.
    auto record =
        runtime.ExecuteAndRecord(*pipeline, planned->aug, planned->plan);
    record.status().Abort("execute");
    method->AfterExecution(*pipeline, *planned, *record).Abort("mat");
  }
  overhead.plan_seconds /= repetitions;
  return overhead;
}

// Mean wall seconds per simulated plan execution, with the fault hooks
// disabled (no injector) or armed with an all-zero-rate plan (every site
// consults the injector, no fault ever fires).
double MeasureExecutionSeconds(bool with_injector, int executions,
                               double multiplier) {
  core::RuntimeOptions options;
  options.storage_budget_bytes = 64ll << 20;
  options.simulate = true;
  core::Runtime runtime(options);
  if (with_injector) {
    runtime.EnableFaultInjection(storage::FaultPlan::Uniform(42, 0.0));
  }
  const UseCase use_case = UseCase::Higgs();
  runtime.RegisterDatasetGenerator(
      use_case.DatasetId(multiplier),
      [use_case, multiplier]() {
        return GenerateUseCase(use_case, multiplier, 42);
      });
  core::HyppoMethod method(&runtime);
  PipelineGenerator generator(use_case, multiplier, 42);
  WallClock clock;
  double elapsed = 0.0;
  for (int i = 0; i < executions; ++i) {
    auto pipeline = generator.Next();
    pipeline.status().Abort("generate");
    auto planned = method.PlanPipeline(*pipeline);
    planned.status().Abort("plan");
    Stopwatch watch(clock);
    auto record =
        runtime.ExecuteAndRecord(*pipeline, planned->aug, planned->plan,
                                 method.MakeReplanner());
    elapsed += watch.Elapsed();
    record.status().Abort("execute");
    method.AfterExecution(*pipeline, *planned, *record).Abort("mat");
  }
  return elapsed / executions;
}

// Grows a history from pipeline structure alone — the exact observation
// sequence Runtime::RecordPipelineStructure performs after an execution
// (artifact observes + access stamps, raw-source registration, compute
// task observes), minus the execution. This reaches history sizes an
// order of magnitude beyond what the execution-driven sweep can afford.
void GrowHistorySynthetically(core::History& history,
                              PipelineGenerator& generator, int pipelines,
                              double* clock_seconds) {
  for (int i = 0; i < pipelines; ++i) {
    auto pipeline = generator.Next();
    pipeline.status().Abort("generate");
    const core::PipelineGraph& graph = pipeline->graph;
    std::map<NodeId, NodeId> to_history;
    for (NodeId v = 1; v < graph.num_artifacts(); ++v) {
      const core::ArtifactInfo& info = graph.artifact(v);
      const NodeId node = history.Observe(info);
      to_history[v] = node;
      history.RecordAccess(node, *clock_seconds);
      if (info.kind == core::ArtifactKind::kRaw) {
        history.RegisterSourceData(node).status().Abort("source");
      }
    }
    for (EdgeId e : graph.hypergraph().LiveEdges()) {
      const core::TaskInfo& task = graph.task(e);
      if (task.type == core::TaskType::kLoad) {
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
        history.RecordComputeSeconds(to_history[h], 0.1);
      }
      history.ObserveTask(task, tails, heads, 0.1).status().Abort("task");
    }
    *clock_seconds += 1.0;
  }
}

// Mean augmentation time over the probe pipelines with the equivalence
// lookups answered by the HistoryIndex (`use_index`) or by the reference
// full-graph scan. Plan costs are summed so the caller can assert the
// two paths produce cost-identical plans.
struct LookupOverhead {
  double augment_seconds = 0.0;
  double plan_cost_sum = 0.0;
};

LookupOverhead MeasureLookupOverhead(
    const core::History& history,
    const std::vector<core::Pipeline>& probes, bool use_index) {
  core::Dictionary dictionary =
      core::Dictionary::FromRegistry(ml::OperatorRegistry::Global());
  core::CostEstimator estimator;
  core::Augmenter augmenter(&dictionary, &estimator);
  core::Augmenter::Options options;
  options.use_index = use_index;
  core::PlanGenerator plan_generator;
  WallClock clock;
  LookupOverhead result;
  for (const core::Pipeline& probe : probes) {
    Stopwatch watch(clock);
    auto aug = augmenter.Augment(probe, history, options);
    result.augment_seconds += watch.Elapsed();
    aug.status().Abort("augment");
    auto plan = plan_generator.Optimize(*aug, core::PlanGenerator::Options());
    plan.status().Abort("plan");
    result.plan_cost_sum += plan->cost;
  }
  result.augment_seconds /= static_cast<double>(probes.size());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  JsonWriter json("fig9b_overhead");
  Banner("Optimization overhead vs history size", "Fig. 9(b)");
  const bool full = FullScale();
  const std::vector<int> histories =
      full ? std::vector<int>{10, 25, 50, 100, 200}
           : std::vector<int>{5, 10, 20, 40};
  const double multiplier = 0.01;
  Table table({"#pipelines in H", "#H nodes", "method", "plan time"});
  for (int history : histories) {
    for (const auto& [name, factory] :
         {std::pair<const char*, MethodFactory>{"Collab",
                                                MakeCollabFactory()},
          std::pair<const char*, MethodFactory>{"HYPPO",
                                                MakeHyppoFactory()}}) {
      Overhead overhead = MeasureOverhead(factory, history, multiplier);
      table.AddRow({std::to_string(history),
                    std::to_string(overhead.history_nodes), name,
                    FormatSeconds(overhead.plan_seconds)});
      json.AddRow("plan_overhead")
          .Set("history_pipelines", history)
          .Set("history_nodes", overhead.history_nodes)
          .Set("method", name)
          .Set("plan_seconds", overhead.plan_seconds);
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): HYPPO's planner stays in the milliseconds\n"
      "and scales gracefully with history size.\n");

  Banner("Fault-hook overhead (injection disabled)", "execution layer");
  const int executions = full ? 200 : 50;
  Table hooks({"fault hooks", "mean execute time", "vs baseline"});
  const double baseline =
      MeasureExecutionSeconds(/*with_injector=*/false, executions,
                              multiplier);
  const double hooked =
      MeasureExecutionSeconds(/*with_injector=*/true, executions, multiplier);
  hooks.AddRow({"off", FormatSeconds(baseline), "1.0x"});
  hooks.AddRow({"armed, zero rate", FormatSeconds(hooked),
                Speedup(hooked, baseline)});
  hooks.Print();
  json.AddRow("fault_hook_overhead")
      .Set("mode", "off")
      .Set("executions", executions)
      .Set("mean_execute_seconds", baseline);
  json.AddRow("fault_hook_overhead")
      .Set("mode", "armed_zero_rate")
      .Set("executions", executions)
      .Set("mean_execute_seconds", hooked);
  std::printf(
      "\nExpected shape: an armed-but-silent injector takes the cold-site\n"
      "fast path (one flag check per task) and stays within noise of the\n"
      "no-injector baseline.\n");

  Banner("Indexed equivalence lookup vs reference scan", "large history");
  const std::vector<int> big_histories =
      full ? std::vector<int>{50, 200, 500, 1000, 2000}
           : std::vector<int>{20, 80, 400};
  Table lookup(
      {"#pipelines in H", "#H nodes", "#H tasks", "mode", "augment time",
       "vs scan"});
  for (int history_pipelines : big_histories) {
    core::History history;
    PipelineGenerator generator(UseCase::Higgs(), multiplier, 42);
    double clock_seconds = 0.0;
    GrowHistorySynthetically(history, generator, history_pipelines,
                             &clock_seconds);
    std::vector<core::Pipeline> probes;
    for (int i = 0; i < 5; ++i) {
      auto probe = generator.Next();
      probe.status().Abort("probe");
      probes.push_back(std::move(*probe));
    }
    const LookupOverhead scan =
        MeasureLookupOverhead(history, probes, /*use_index=*/false);
    const LookupOverhead indexed =
        MeasureLookupOverhead(history, probes, /*use_index=*/true);
    if (std::fabs(scan.plan_cost_sum - indexed.plan_cost_sum) >
        1e-6 * (1.0 + std::fabs(scan.plan_cost_sum))) {
      std::fprintf(stderr,
                   "FATAL: indexed and scan plans diverged (%f vs %f)\n",
                   indexed.plan_cost_sum, scan.plan_cost_sum);
      return 1;
    }
    lookup.AddRow({std::to_string(history_pipelines),
                   std::to_string(history.num_artifacts()),
                   std::to_string(history.num_tasks()), "scan",
                   FormatSeconds(scan.augment_seconds), "1.0x"});
    lookup.AddRow({std::to_string(history_pipelines),
                   std::to_string(history.num_artifacts()),
                   std::to_string(history.num_tasks()), "indexed",
                   FormatSeconds(indexed.augment_seconds),
                   Speedup(scan.augment_seconds, indexed.augment_seconds)});
    for (const auto& [mode, measured] :
         {std::pair<const char*, const LookupOverhead*>{"scan", &scan},
          std::pair<const char*, const LookupOverhead*>{"indexed",
                                                        &indexed}}) {
      json.AddRow("indexed_lookup")
          .Set("history_pipelines", history_pipelines)
          .Set("history_nodes", history.num_artifacts())
          .Set("history_tasks", history.num_tasks())
          .Set("mode", mode)
          .Set("augment_seconds", measured->augment_seconds)
          .Set("plan_cost_sum", measured->plan_cost_sum);
    }
  }
  lookup.Print();
  std::printf(
      "\nExpected shape: the scan path's augmentation time grows linearly\n"
      "with total history size while the indexed path tracks only the\n"
      "backward-relevant subgraph, so the gap widens with history growth\n"
      "(plan costs are asserted identical between the two paths).\n");

  const std::string json_path =
      hyppo::bench::ResolveJsonPath(args, "BENCH_fig9b.json");
  if (!json.WriteTo(json_path)) {
    return 1;
  }
  return 0;
}
