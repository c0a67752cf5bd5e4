// Repository benchmark: runs one workload (explore, catalog, sweep
// or serve) against HYPPO's public API, times every call with a wall
// clock from outside the library, checks every score against a
// NoOptimization reference, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) as one JSON object on the
// last line of standard output:
//
//   hyppo_perfbench --workload explore --seed 1 --seconds 10 --trace 0
//
// Exit status: 0 when every check passed, 1 when a correctness check
// failed (the result line then says "correct": false), 2 on bad usage.
// Reports and span dumps go to .bench_build/perfbench-out/ under the
// working directory. See perfbench/README.md for the metric definitions.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ml/kernels/kernels.h"
#include "support.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Metric catalogue. `kind` labels where a number comes from: "measured"
// (the bench's wall clock), "program" (a wall clock read inside the
// library), "charged" (cost-model seconds), "derived" (arithmetic over
// the others), "count" or "ratio". Only metrics marked `in_json` go into
// the result line: the others are zero by construction on some workload
// (no batch, no sessions, no real compute) and are printed in the report
// only.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* kind;
  bool in_json;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "measured", true},
    {"cet_s", "s", "measured", true},
    {"requests_per_s", "1/s", "measured", true},
    {"request_p50_s", "s", "measured", true},
    {"request_tail_s", "s", "measured", true},
    {"peak_rss_mb", "MB", "measured", true},
    {"stored_mb", "MB", "program", true},
    // 0 on every clean run; the result line carries it as attempted /
    // failed.
    {"failed_frac", "ratio", "measured", false},
};

constexpr MetricSpec kLayers[] = {
    {"analysis.static_s", "s", "measured", true},
    {"augmenter.busy_s", "s", "measured", true},
    {"augmenter.edges", "count", "count", true},
    {"augmenter.index_hits", "count", "count", true},
    {"augmenter.index_misses", "count", "count", true},
    {"optimizer.busy_s", "s", "derived", true},
    {"optimizer.expansions", "count", "count", true},
    {"optimizer.plans_examined", "count", "count", true},
    {"optimizer.pruned", "count", "count", true},
    {"optimizer.threads_used", "count", "count", true},
    {"optimizer.plan_tasks", "count", "count", true},
    {"plan.busy_s", "s", "measured", true},
    {"plan.p50_s", "s", "measured", true},
    {"plan.share", "ratio", "derived", true},
    {"materializer.busy_s", "s", "measured", true},
    {"materializer.p50_s", "s", "measured", true},
    {"materializer.materialized", "count", "count", true},
    {"materializer.budget_used", "ratio", "ratio", true},
    {"history.artifacts", "count", "count", true},
    {"history.compacted", "count", "count", true},
    {"executor.busy_s", "s", "measured", true},
    {"executor.share", "ratio", "derived", true},
    {"executor.tasks", "count", "count", true},
    {"executor.load_tasks", "count", "count", true},
    {"executor.reuse_ratio", "ratio", "ratio", true},
    {"executor.replans", "count", "count", true},
    {"executor.failed_tasks", "count", "count", true},
    {"executor.overhead_s", "s", "derived", true},
    {"ml.compute_share", "ratio", "derived", true},
    {"ml.fit_s", "s", "program", false},
    {"ml.transform_s", "s", "program", false},
    {"ml.predict_s", "s", "program", false},
    {"ml.evaluate_s", "s", "program", false},
    {"ml.split_s", "s", "program", false},
    {"cost_model.charged_over_wall", "ratio", "derived", true},
    {"cost_model.predicted_over_wall", "ratio", "derived", true},
    {"charged.cet_s", "s", "charged", false},
    {"charged.compute_s", "s", "charged", false},
    {"charged.load_s", "s", "charged", false},
    {"batch_planner.plan_s", "s", "measured", false},
    {"batch_planner.execute_s", "s", "measured", false},
    {"batch_planner.materialize_s", "s", "measured", false},
    {"batch_planner.merged_tasks", "count", "count", true},
    {"batch_planner.shared_prefix_skips", "count", "count", true},
    {"batch_planner.skip_ratio", "ratio", "ratio", true},
    {"storage.persist_s", "s", "measured", true},
    {"storage.disk_mb", "MB", "measured", true},
    {"storage.disk_files", "count", "count", true},
    {"storage.bytes_per_user_byte", "ratio", "ratio", true},
    {"serving.queue_s", "s", "program", false},
    {"serving.reuse_loads", "count", "count", true},
    {"serving.cross_session_loads", "count", "count", true},
    {"serving.cross_session_ratio", "ratio", "ratio", true},
    {"serving.replans", "count", "count", true},
    {"serving.max_in_flight", "count", "count", true},
    {"tracing.overhead_s", "s", "derived", true},
};

// Counters the traced run's re-invocations bump; a traced run takes them
// from its untraced episodes.
const std::set<std::string> kUntracedCounters = {"augmenter.index_hits",
                                                 "augmenter.index_misses"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) {
    return false;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        args->trace = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

// Runs episodes until one more would overrun `budget_s` (at least
// `min_episodes`).
void RunPhase(Workload& workload, bool traced, double budget_s,
              int min_episodes, int* next_index, std::vector<Span>* spans,
              std::vector<Episode>* episodes) {
  const double start = Now();
  for (int done = 1;; ++done) {
    episodes->push_back(workload.RunEpisode((*next_index)++, traced, spans));
    const double elapsed = Now() - start;
    if (done >= min_episodes && elapsed * (done + 1) / done > budget_s) {
      break;
    }
  }
}

std::string SimdTier() {
  namespace k = hyppo::ml::kernels;
  if (!k::SimdEnabled()) {
    return std::string("blocked (simd off; build isa ") + k::SimdBuildIsa() +
           ")";
  }
  return std::string("simd ") + k::SimdBuildIsa() + " (" +
         k::simd::BackendName() + ")";
}

struct Value {
  double value = 0.0;
  size_t samples = 0;
};

// Median across episodes of one per-layer value.
Value LayerMedian(const std::vector<Episode>& episodes,
                  const std::string& name) {
  std::vector<double> values;
  for (const Episode& episode : episodes) {
    const auto it = episode.layers.find(name);
    if (it != episode.layers.end()) {
      values.push_back(it->second);
    }
  }
  return Value{Median(values), values.size()};
}

// Threads the correctness gate's reference runs may use.
constexpr size_t kReferenceThreads = 4;

struct GateResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t scores_checked = 0;
  int64_t scores_bitwise = 0;
  size_t variants = 0;
  std::vector<std::string> errors;
};

// The correctness gate: every distinct as-executed variant runs once
// under NoOptimization on its episode's data, and every score must match.
GateResult CheckScores(const Workload& workload,
                       const std::vector<const Episode*>& episodes) {
  GateResult gate;
  using Key = std::tuple<const Pipeline*, ImplKey, uint64_t>;
  std::map<Key, std::map<std::string, double>> reference;
  std::map<Key, bool> exact_path;
  for (const Episode* episode : episodes) {
    for (const ScoreCheck& score : episode->scores) {
      const ScoreOrigin& o = score.origin;
      reference[Key(o.pipeline, o.impls, o.data_seed)];
    }
  }
  for (const auto& [key, unused] : reference) {
    exact_path[key] =
        ExactPath(VariantOf(*std::get<0>(key), std::get<1>(key)));
  }
  gate.variants = reference.size();
  // Reference runs are independent: shard them over a few threads, each
  // with one NoOptimization runtime per dataset it needs.
  const size_t num_shards = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, kReferenceThreads);
  std::vector<std::map<uint64_t, std::vector<Key>>> shards(num_shards);
  size_t next = 0;
  for (const auto& [key, unused] : reference) {
    shards[next++ % num_shards][std::get<2>(key)].push_back(key);
  }
  std::vector<std::vector<std::string>> shard_errors(num_shards);
  auto run_shard = [&](size_t shard) {
    for (const auto& [data_seed, keys] : shards[shard]) {
      Result<hyppo::ml::DatasetPtr> dataset = workload.MakeDataset(data_seed);
      if (!dataset.ok()) {
        shard_errors[shard].push_back("reference dataset: " +
                                      dataset.status().ToString());
        continue;
      }
      std::vector<Pipeline> variants;
      for (const Key& key : keys) {
        variants.push_back(VariantOf(*std::get<0>(key), std::get<1>(key)));
      }
      Result<std::vector<std::map<std::string, double>>> scores =
          ReferenceScores(variants, workload.dataset_id(), *dataset);
      if (!scores.ok()) {
        shard_errors[shard].push_back("reference: " +
                                      scores.status().ToString());
        continue;
      }
      // Distinct keys: shards write disjoint, pre-existing map entries.
      for (size_t i = 0; i < keys.size(); ++i) {
        reference.at(keys[i]) = std::move((*scores)[i]);
      }
    }
  };
  {
    std::vector<std::thread> threads;
    for (size_t shard = 0; shard < num_shards; ++shard) {
      threads.emplace_back(run_shard, shard);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  for (const std::vector<std::string>& errors : shard_errors) {
    gate.errors.insert(gate.errors.end(), errors.begin(), errors.end());
  }
  for (const Episode* episode : episodes) {
    std::set<int64_t> mismatched_requests;
    for (const ScoreCheck& score : episode->scores) {
      ++gate.scores_checked;
      const ScoreOrigin& o = score.origin;
      const Key key(o.pipeline, o.impls, o.data_seed);
      const std::map<std::string, double>& expected = reference.at(key);
      const auto it = expected.find(score.name);
      bool bitwise = false;
      const bool ok =
          it != expected.end() &&
          ScoreMatches(score.value, it->second, exact_path.at(key), &bitwise);
      gate.scores_bitwise += bitwise ? 1 : 0;
      if (!ok) {
        mismatched_requests.insert(o.request);
        if (gate.errors.size() < 10) {
          gate.errors.push_back(
              "score " + score.name + " of " + o.pipeline->id + ": got " +
              JsonNumber(score.value) + ", reference " +
              (it == expected.end() ? "missing" : JsonNumber(it->second)));
        }
      }
    }
    // A request fails at most once, however many of its checks miss.
    gate.attempted += episode->attempted;
    gate.failed += std::min(
        episode->attempted,
        episode->failed + static_cast<int64_t>(mismatched_requests.size()));
    for (const std::string& error : episode->errors) {
      if (gate.errors.size() < 10) {
        gate.errors.push_back(error);
      }
    }
  }
  return gate;
}

std::string MetricJson(const MetricSpec& spec, const Value& value,
                       bool detailed) {
  std::string json = JsonString(spec.name) +
                     ": {\"value\": " + JsonNumber(value.value) +
                     ", \"unit\": " + JsonString(spec.unit);
  if (detailed) {
    json += ", \"kind\": " + JsonString(spec.kind) +
            ", \"samples\": " + std::to_string(value.samples);
  }
  return json + "}";
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Scratch space and reports stay inside the working directory.
  const fs::path out_dir = fs::path(".bench_build") / "perfbench-out";
  const fs::path work_dir = out_dir / "work";
  std::error_code ec;
  fs::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const Status prepared = workload->Prepare(args.seed, work_dir);
  if (!prepared.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 prepared.ToString().c_str());
    return 1;
  }

  // --- timed phase(s). A traced run splits its time between untraced
  // episodes (tracing overhead baseline, re-invocation-free counters)
  // and traced ones.
  std::vector<Span> spans;
  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  int next_index = 0;
  if (args.trace == 0) {
    RunPhase(*workload, false, args.seconds, workload->min_episodes(),
             &next_index, &spans, &untraced);
  } else {
    RunPhase(*workload, false, args.seconds / 2, 2, &next_index, &spans,
             &untraced);
    RunPhase(*workload, true, args.seconds / 2, 2, &next_index, &spans,
             &traced);
  }
  const double peak_rss_mb = PeakRssMb();
  const Status finished = workload->Finish();

  // --- correctness gate, outside the timed phase.
  std::vector<const Episode*> all;
  for (const std::vector<Episode>* phase : {&untraced, &traced}) {
    for (const Episode& episode : *phase) {
      all.push_back(&episode);
    }
  }
  GateResult gate = CheckScores(*workload, all);
  if (!finished.ok()) {
    gate.errors.push_back(finished.ToString());
  }
  const bool correct =
      gate.failed == 0 && gate.errors.empty() && gate.attempted > 0;

  // --- metrics.
  std::vector<double> setups;
  std::vector<double> cets;
  std::vector<double> rates;
  std::vector<double> stored;
  std::vector<double> latencies;
  for (const Episode& episode : untraced) {
    setups.push_back(episode.setup_s);
    cets.push_back(episode.cet_s);
    rates.push_back(SafeRatio(static_cast<double>(episode.latencies.size()),
                              episode.cet_s));
    stored.push_back(episode.stored_mb);
    latencies.insert(latencies.end(), episode.latencies.begin(),
                     episode.latencies.end());
  }
  const double tail_p = workload->tail_percentile();
  std::map<std::string, Value> metrics;
  metrics["setup_s"] = {Median(setups), setups.size()};
  metrics["cet_s"] = {Median(cets), cets.size()};
  metrics["requests_per_s"] = {Median(rates), rates.size()};
  metrics["request_p50_s"] = {Median(latencies), latencies.size()};
  metrics["request_tail_s"] = {Percentile(latencies, tail_p),
                               latencies.size()};
  metrics["peak_rss_mb"] = {peak_rss_mb, 1};
  metrics["stored_mb"] = {Median(stored), stored.size()};
  metrics["failed_frac"] = {SafeRatio(static_cast<double>(gate.failed),
                                      static_cast<double>(gate.attempted)),
                            static_cast<size_t>(gate.attempted)};
  if (args.trace == 1) {
    for (const MetricSpec& spec : kLayers) {
      metrics[spec.name] = LayerMedian(
          kUntracedCounters.count(spec.name) > 0 ? untraced : traced,
          spec.name);
    }
    std::vector<double> traced_cets;
    for (const Episode& episode : traced) {
      traced_cets.push_back(episode.cet_s);
    }
    metrics["tracing.overhead_s"] = {Median(traced_cets) - Median(cets),
                                     traced_cets.size()};
  }

  // --- run metadata.
  std::map<std::string, std::string> meta = workload->Meta();
  meta["workload"] = workload->name();
  meta["seed"] = std::to_string(args.seed);
  meta["seconds"] = JsonNumber(args.seconds);
  meta["trace"] = std::to_string(args.trace);
  meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  meta["simd_tier"] = SimdTier();
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  meta["episodes_untraced"] = std::to_string(untraced.size());
  meta["episodes_traced"] = std::to_string(traced.size());
  meta["request_samples"] = std::to_string(latencies.size());
  meta["request_tail_percentile"] = JsonNumber(tail_p);
  meta["request_tail_samples_beyond"] = std::to_string(static_cast<size_t>(
      std::floor(static_cast<double>(latencies.size()) *
                 (1.0 - tail_p / 100.0))));
  meta["scores_checked"] = std::to_string(gate.scores_checked);
  meta["scores_bitwise"] = std::to_string(gate.scores_bitwise);
  meta["reference_variants"] = std::to_string(gate.variants);
  meta["score_rel_tolerance"] = JsonNumber(kScoreRelTolerance);
  meta["latency_note"] =
      "wall-clock latencies of the machine that ran it, not a storage "
      "device's rated figures";
  std::string meta_json = "{";
  for (const auto& [key, value] : meta) {
    meta_json += (meta_json.size() > 1 ? ", " : "") + JsonString(key) +
                 ": " + JsonString(value);
  }
  meta_json += "}";

  // --- human-readable report, report file, span dump, result line.
  std::printf(
      "perfbench %s seed=%llu trace=%d correct=%s attempted=%lld "
      "failed=%lld\n",
      workload->name().c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, correct ? "true" : "false",
      static_cast<long long>(gate.attempted),
      static_cast<long long>(gate.failed));
  for (const std::string& error : gate.errors) {
    std::printf("  error: %s\n", error.c_str());
  }
  std::printf("meta %s\n", meta_json.c_str());
  std::string report_metrics;
  std::string result_metrics;
  const bool e2e = args.trace == 0;
  for (const MetricSpec* it = e2e ? std::begin(kEndToEnd) : std::begin(kLayers);
       it != (e2e ? std::end(kEndToEnd) : std::end(kLayers)); ++it) {
    const MetricSpec& spec = *it;
    const Value& value = metrics[spec.name];
    std::printf("  %-34s %16.9g %-6s %-9s n=%zu%s\n", spec.name, value.value,
                spec.unit, spec.kind, value.samples,
                spec.in_json ? "" : "  (report only)");
    report_metrics += (report_metrics.empty() ? "" : ", ") +
                      MetricJson(spec, value, /*detailed=*/true);
    if (spec.in_json) {
      result_metrics += (result_metrics.empty() ? "" : ", ") +
                        MetricJson(spec, value, /*detailed=*/false);
    }
  }
  const std::string counts = "\"correct\": " +
                             std::string(correct ? "true" : "false") +
                             ", \"attempted\": " +
                             std::to_string(gate.attempted) +
                             ", \"failed\": " + std::to_string(gate.failed);
  const std::string stem = workload->name() + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace);
  std::ofstream(out_dir / (stem + ".json"))
      << "{" << counts << ", \"meta\": " << meta_json << ", \"metrics\": {"
      << report_metrics << "}}\n";
  if (args.trace == 1) {
    std::ofstream dump(out_dir / (stem + "-spans.json"));
    dump << "[";
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      dump << (i == 0 ? "\n" : ",\n") << "{\"layer\": "
           << JsonString(span.layer) << ", \"start\": "
           << JsonNumber(span.start) << ", \"end\": " << JsonNumber(span.end)
           << ", \"request\": " << span.request
           << ", \"episode\": " << span.episode << "}";
    }
    dump << "\n]\n";
  }
  std::printf("{%s, \"metrics\": {%s}}\n", counts.c_str(),
              result_metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hyppo_perfbench --workload explore|catalog|sweep|"
                 "serve --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return perfbench::Run(args);
}
