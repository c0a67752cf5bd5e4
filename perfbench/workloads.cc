#include "workloads.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <shared_mutex>
#include <thread>

#include "analysis/static/static_analyzer.h"
#include "common/rng.h"
#include "core/batch_planner.h"
#include "core/hyppo.h"
#include "ml/registry.h"
#include "serving/session_manager.h"
#include "workload/pipeline_generator.h"
#include "workload/sweep_generator.h"

namespace perfbench {

namespace fs = std::filesystem;

Status Workload::Prepare(uint64_t seed, const fs::path& work_dir) {
  seed_ = seed;
  work_dir_ = work_dir;
  return PrepareInputs();
}

Result<hyppo::ml::DatasetPtr> Workload::MakeDataset(
    uint64_t data_seed) const {
  return hyppo::workload::GenerateUseCase(use_case_, multiplier_, data_seed);
}

uint64_t Workload::DataSeed(int episode) const {
  return Mix(seed_, 1000 + static_cast<uint64_t>(episode % data_seeds_));
}

int64_t Workload::DatasetBytes() const {
  return use_case_.RowsAt(multiplier_) * (use_case_.paper_cols + 1) * 8;
}

std::map<std::string, std::string> Workload::BaseMeta() const {
  return {{"use_case", use_case_.name},
          {"rows", std::to_string(use_case_.RowsAt(multiplier_))},
          {"data_seeds_per_run", std::to_string(data_seeds_)}};
}

namespace {

const hyppo::analysis::StaticAnalyzer& Analyzer() {
  static const hyppo::analysis::StaticAnalyzer analyzer;
  return analyzer;
}

// Times the pure const layer entry points alone on a request's inputs,
// just before the real call: static analysis of every pipeline, then one
// augmentation of `augment_input` against the current history. The
// augmentation runs once untimed first: the real call that follows runs
// on caches this one warmed, and a cold timing would overstate it.
void TimeConstLayers(Tracer* tracer, int64_t request,
                     const hyppo::core::Runtime& runtime,
                     const std::vector<const Pipeline*>& pipelines,
                     const Pipeline& augment_input,
                     const hyppo::core::Augmenter::Options& options) {
  {
    SpanScope span(tracer, "analysis", request);
    for (const Pipeline* pipeline : pipelines) {
      (void)Analyzer().AnalyzePipeline(pipeline->graph, runtime.dictionary(),
                                       hyppo::ml::OperatorRegistry::Global());
    }
  }
  (void)runtime.augmenter().Augment(augment_input, runtime.history(),
                                    options);
  SpanScope span(tracer, "augmenter", request);
  (void)runtime.augmenter().Augment(augment_input, runtime.history(),
                                    options);
}

// Method options of sweep and serve: implementations are pinned to the
// ones each pipeline declares (no equivalent-implementation edges), as in
// bench_sweep and the serving differential tests. Every score then has
// one implementation lineage and must match the as-written reference
// byte for byte, whatever another client materialized concurrently.
hyppo::core::HyppoMethod::Options PinnedMethodOptions(
    const hyppo::core::RuntimeOptions& runtime) {
  hyppo::core::HyppoMethod::Options options;
  options.augment.use_equivalences = false;
  options.augment.objective = runtime.objective;
  return options;
}

// Closes an episode: persists the session (a no-op in memory, timed as
// storage.persist), then records stored bytes, monitor layers and the
// catalog audit.
void FinishEpisode(hyppo::core::Runtime& runtime, bool simulate,
                   Tracer* tracer, Episode* episode) {
  {
    SpanScope span(tracer, "storage.persist", -1);
    const Status persisted = runtime.PersistSession();
    if (!persisted.ok()) {
      episode->Fail("persist: " + persisted.ToString());
    }
  }
  episode->stored_mb = static_cast<double>(runtime.store().used_bytes()) / 1e6;
  AddMonitorLayers(runtime, simulate, episode);
  const Status verified = VerifyCatalog(runtime);
  if (!verified.ok()) {
    episode->FailAll(verified.ToString());
  }
}

// ---------------------------------------------------------------------------
// explore and catalog: the Method::PlanPipeline ->
// Runtime::ExecuteAndRecord -> Method::AfterExecution loop of
// workload::DrivePipelines over PipelineGenerator sequences.

class SequenceWorkload final : public Workload {
 public:
  struct Shape {
    double multiplier = 0.01;
    bool simulate = false;
    // Generator seed of the one sequence every episode replays; 0 gives
    // each episode its own sequence drawn from the run seed (generated
    // before the episode's set-up, untimed).
    uint64_t sequence_seed = 0;
    int pipelines = 20;
    int parallelism = 1;
    int data_seeds = 1;
    double tail_percentile = 90.0;
    int min_episodes = 1;
    // Set-ups per episode; setup_s is their median and the last one
    // serves the episode.
    int setup_repeats = 1;
  };

  SequenceWorkload(std::string name, hyppo::workload::UseCase use_case,
                   const Shape& shape)
      : Workload(std::move(name), std::move(use_case), shape.multiplier,
                 shape.data_seeds, shape.tail_percentile, shape.min_episodes),
        shape_(shape) {}

  std::map<std::string, std::string> Meta() const override {
    std::map<std::string, std::string> meta = BaseMeta();
    meta["threads"] = std::to_string(shape_.parallelism);
    meta["clients"] = "1";
    meta["loop"] = "closed, 1 client";
    meta["pipelines_per_episode"] = std::to_string(shape_.pipelines);
    meta["sequence"] = shape_.sequence_seed != 0
                           ? "fixed, generator seed " +
                                 std::to_string(shape_.sequence_seed)
                           : "one per episode, from the run seed";
    meta["simulate"] = shape_.simulate ? "true" : "false";
    meta["store"] = "in-memory";
    return meta;
  }

  Episode RunEpisode(int index, bool traced,
                     std::vector<Span>* spans) override {
    Episode episode;
    if (shape_.sequence_seed == 0) {
      const Status generated =
          Generate(Mix(seed_, 100 + static_cast<uint64_t>(index)));
      if (!generated.ok()) {
        episode.Fail("inputs: " + generated.ToString());
        return episode;
      }
    }
    const std::vector<Pipeline>& pipelines = sequence_;
    const uint64_t data_seed = DataSeed(index);
    Tracer tracer(traced, index, spans);

    // --- set-up: runtime, method, dataset generated and registered.
    hyppo::core::RuntimeOptions options;
    options.storage_budget_bytes =
        static_cast<int64_t>(0.1 * static_cast<double>(DatasetBytes()));
    options.simulate = shape_.simulate;
    options.parallelism = shape_.parallelism;
    hyppo::core::HyppoMethod::Options method_options;
    method_options.augment.objective = options.objective;
    std::unique_ptr<hyppo::core::Runtime> runtime_ptr;
    std::unique_ptr<hyppo::core::HyppoMethod> method_ptr;
    std::vector<double> setups;
    for (int r = 0; r < shape_.setup_repeats; ++r) {
      method_ptr.reset();
      runtime_ptr.reset();
      const double setup_start = Now();
      runtime_ptr = std::make_unique<hyppo::core::Runtime>(options);
      if (!shape_.simulate) {
        Result<hyppo::ml::DatasetPtr> data = MakeDataset(data_seed);
        if (!data.ok()) {
          episode.Fail("dataset: " + data.status().ToString());
          return episode;
        }
        runtime_ptr->RegisterDataset(dataset_id(), *data);
      }
      method_ptr = std::make_unique<hyppo::core::HyppoMethod>(
          runtime_ptr.get(), method_options);
      setups.push_back(Now() - setup_start);
    }
    episode.setup_s = Median(setups);
    hyppo::core::Runtime& runtime = *runtime_ptr;
    hyppo::core::HyppoMethod& method = *method_ptr;
    if (!runtime.session_status().ok()) {
      episode.Fail("runtime: " + runtime.session_status().ToString());
      return episode;
    }

    // --- requests.
    LayerTotals totals;
    LineageTracker lineage;
    double bookkeeping = 0.0;  // score capture, excluded from cet
    const double first_submit = Now();
    for (size_t i = 0; i < pipelines.size(); ++i) {
      const Pipeline& pipeline = pipelines[i];
      const int64_t request = static_cast<int64_t>(i);
      ++episode.attempted;
      if (tracer.enabled()) {
        TimeConstLayers(&tracer, request, runtime, {&pipeline}, pipeline,
                        method_options.augment);
      }
      const double t0 = Now();
      Result<hyppo::core::Method::Planned> planned = [&] {
        SpanScope span(&tracer, "plan", request);
        return method.PlanPipeline(pipeline);
      }();
      if (!planned.ok()) {
        episode.Fail("plan: " + planned.status().ToString());
        continue;
      }
      Result<hyppo::core::Runtime::ExecutionRecord> record = [&] {
        SpanScope span(&tracer, "executor", request);
        return runtime.ExecuteAndRecord(pipeline, planned->aug, planned->plan,
                                        method.MakeReplanner());
      }();
      if (!record.ok()) {
        episode.Fail("execute: " + record.status().ToString());
        continue;
      }
      const Status materialized = [&] {
        SpanScope span(&tracer, "materializer", request);
        return method.AfterExecution(pipeline, *planned, *record);
      }();
      episode.latencies.push_back(Now() - t0);
      if (!materialized.ok()) {
        episode.Fail("materialize: " + materialized.ToString());
        continue;
      }
      totals.AddAugmentation(planned->aug);
      totals.AddPlan(planned->aug, planned->plan);
      totals.charged_seconds += record->seconds;
      if (!shape_.simulate) {
        const double capture_start = Now();
        const Status captured = CaptureScores(
            ScoreOrigin{&pipeline, ImplKey(), data_seed, request}, *planned,
            *record, runtime.history(), &lineage, &episode.scores);
        if (!captured.ok()) {
          episode.Fail(captured.ToString());
        }
        bookkeeping += Now() - capture_start;
      }
    }
    episode.cet_s = Now() - first_submit - bookkeeping;
    FinishEpisode(runtime, shape_.simulate, &tracer, &episode);
    AddSearchLayers(method.last_search_stats(), &episode);
    AddTimingLayers(tracer, totals, tracer.Busy("executor"), &episode);
    return episode;
  }

 protected:
  Status PrepareInputs() override {
    return shape_.sequence_seed != 0 ? Generate(shape_.sequence_seed)
                                     : Status::OK();
  }

 private:
  Status Generate(uint64_t generator_seed) {
    hyppo::workload::PipelineGenerator generator(use_case_, multiplier_,
                                                 generator_seed);
    sequence_.clear();
    for (int i = 0; i < shape_.pipelines; ++i) {
      HYPPO_ASSIGN_OR_RETURN(Pipeline pipeline, generator.Next());
      sequence_.push_back(std::move(pipeline));
    }
    return Status::OK();
  }

  const Shape shape_;
  std::vector<Pipeline> sequence_;
};

// ---------------------------------------------------------------------------
// sweep: successive hyperparameter sweeps (one shared trunk, a fresh
// ridge-alpha grid each) into one runtime, through the batch triple
// Method::PlanPipelineBatch -> Runtime::RunBatch ->
// Method::AfterBatchExecution. The first sweep of an episode is cold;
// later ones reuse the trunk.

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(double multiplier, int sweeps, int configs, int data_seeds,
                double tail_percentile, int min_episodes)
      : Workload("sweep", hyppo::workload::UseCase::Taxi(), multiplier,
                 data_seeds, tail_percentile, min_episodes),
        num_sweeps_(sweeps),
        num_configs_(configs) {}

  std::map<std::string, std::string> Meta() const override {
    std::map<std::string, std::string> meta = BaseMeta();
    meta["threads"] = "1";
    meta["clients"] = "1";
    meta["loop"] = "closed, 1 client";
    meta["sweeps_per_episode"] = std::to_string(num_sweeps_);
    meta["configs_per_sweep"] = std::to_string(num_configs_);
    meta["store"] = "in-memory";
    return meta;
  }

  Episode RunEpisode(int index, bool traced,
                     std::vector<Span>* spans) override {
    const uint64_t data_seed = DataSeed(index);
    Episode episode;
    Tracer tracer(traced, index, spans);
    const double setup_start = Now();
    hyppo::core::RuntimeOptions options;
    options.storage_budget_bytes =
        static_cast<int64_t>(0.1 * static_cast<double>(DatasetBytes()));
    options.parallelism = 1;
    hyppo::core::Runtime runtime(options);
    Result<hyppo::ml::DatasetPtr> data = MakeDataset(data_seed);
    if (!data.ok()) {
      episode.Fail("dataset: " + data.status().ToString());
      return episode;
    }
    runtime.RegisterDataset(dataset_id(), *data);
    const hyppo::core::HyppoMethod::Options method_options =
        PinnedMethodOptions(options);
    hyppo::core::HyppoMethod method(&runtime, method_options);
    episode.setup_s = Now() - setup_start;
    if (!runtime.session_status().ok()) {
      episode.Fail("runtime: " + runtime.session_status().ToString());
      return episode;
    }

    LayerTotals totals;
    double merged_tasks = 0.0;
    double prefix_skips = 0.0;
    double bookkeeping = 0.0;
    const double first_submit = Now();
    for (size_t s = 0; s < sweeps_.size(); ++s) {
      const std::vector<Pipeline>& members = sweeps_[s];
      const int64_t request = static_cast<int64_t>(s);
      ++episode.attempted;
      if (tracer.enabled()) {
        // The batch planner augments the merged pipeline once.
        Result<Pipeline> merged = hyppo::core::BatchPlanner::MergePipelines(
            members, nullptr, nullptr);
        std::vector<const Pipeline*> pointers;
        for (const Pipeline& member : members) {
          pointers.push_back(&member);
        }
        if (merged.ok()) {
          TimeConstLayers(&tracer, request, runtime, pointers, *merged,
                          method_options.augment);
        }
      }
      const double t0 = Now();
      Result<hyppo::core::BatchPlanner::Planned> planned = [&] {
        SpanScope span(&tracer, "plan", request);
        return method.PlanPipelineBatch(members);
      }();
      if (!planned.ok()) {
        episode.Fail("plan: " + planned.status().ToString());
        continue;
      }
      Result<hyppo::core::Runtime::BatchExecutionRecord> record = [&] {
        SpanScope span(&tracer, "executor", request);
        return runtime.RunBatch(members, planned->merged, planned->members,
                                method.MakeReplanner());
      }();
      if (!record.ok()) {
        episode.Fail("execute: " + record.status().ToString());
        continue;
      }
      const Status materialized = [&] {
        SpanScope span(&tracer, "materializer", request);
        return method.AfterBatchExecution(members, *planned, *record);
      }();
      episode.latencies.push_back(Now() - t0);
      if (!materialized.ok()) {
        episode.Fail("materialize: " + materialized.ToString());
        continue;
      }
      totals.AddAugmentation(planned->merged);
      for (const hyppo::core::BatchPlanner::MemberPlan& member :
           planned->members) {
        totals.AddPlan(planned->merged, member.plan);
      }
      totals.charged_seconds += record->seconds;
      merged_tasks += static_cast<double>(planned->stats.merged_tasks);
      prefix_skips += static_cast<double>(record->shared_prefix_skips);
      const double capture_start = Now();
      if (record->members.size() != members.size()) {
        episode.Fail("batch returned the wrong member count");
      } else {
        for (size_t m = 0; m < members.size(); ++m) {
          const ScoreOrigin origin{&members[m],
                                   ExecutedImpls(members[m], nullptr),
                                   data_seed, request};
          Result<std::vector<ScoreCheck>> scores =
              ExtractScores(origin, record->members[m].payloads_by_name);
          if (!scores.ok()) {
            episode.Fail(scores.status().ToString());
            break;
          }
          episode.scores.insert(episode.scores.end(), scores->begin(),
                                scores->end());
        }
      }
      bookkeeping += Now() - capture_start;
    }
    episode.cet_s = Now() - first_submit - bookkeeping;
    FinishEpisode(runtime, /*simulate=*/false, &tracer, &episode);
    AddSearchLayers(method.last_search_stats(), &episode);
    AddTimingLayers(tracer, totals, tracer.Busy("executor"), &episode);
    auto& layers = episode.layers;
    layers["batch_planner.plan_s"] = tracer.Busy("plan");
    layers["batch_planner.execute_s"] = tracer.Busy("executor");
    layers["batch_planner.materialize_s"] = tracer.Busy("materializer");
    layers["batch_planner.merged_tasks"] = merged_tasks;
    layers["batch_planner.shared_prefix_skips"] = prefix_skips;
    layers["batch_planner.skip_ratio"] =
        SafeRatio(prefix_skips, totals.plan_tasks);
    return episode;
  }

 protected:
  // The trunk-heavy TAXI shape of bench_sweep: impute -> scale -> KMeans
  // embedding, then a ridge model whose alpha the sweep varies.
  static hyppo::workload::PipelineSpec BaseSpec() {
    hyppo::workload::PipelineSpec spec;
    spec.imputer.logical_op = "SimpleImputer";
    spec.imputer.impl = "skl.SimpleImputer";
    spec.imputer.config.Set("strategy", "mean");
    spec.scaler.logical_op = "StandardScaler";
    spec.scaler.impl = "skl.StandardScaler";
    spec.feature.logical_op = "KMeans";
    spec.feature.impl = "skl.KMeans";
    spec.feature.config.SetInt("n_clusters", 8);
    spec.model.logical_op = "Ridge";
    spec.model.impl = "skl.Ridge";
    spec.metric = "rmse";
    spec.split_seed = 13;
    return spec;
  }

  Status PrepareInputs() override {
    hyppo::workload::SweepGenerator generator(use_case_, multiplier_, seed_);
    hyppo::Rng rng(Mix(seed_, 7));
    std::set<std::string> used;
    for (int s = 0; s < num_sweeps_; ++s) {
      // A fresh alpha grid per sweep: log-uniform draws in [1e-3, 10].
      hyppo::workload::SweepAxis alpha;
      alpha.stage = hyppo::workload::SweepAxis::Stage::kModel;
      alpha.param = "alpha";
      while (static_cast<int>(alpha.values.size()) < num_configs_) {
        char value[32];
        std::snprintf(value, sizeof(value), "%.6f",
                      std::pow(10.0, rng.Uniform(-3.0, 1.0)));
        if (used.insert(value).second) {
          alpha.values.push_back(value);
        }
      }
      hyppo::workload::SweepOptions options;
      options.mode = hyppo::workload::SweepOptions::Mode::kGrid;
      HYPPO_ASSIGN_OR_RETURN(
          hyppo::workload::SweepWorkload sweep,
          generator.Generate(BaseSpec(), {alpha}, options,
                             "sweep" + std::to_string(s)));
      sweeps_.push_back(std::move(sweep.pipelines));
    }
    return Status::OK();
  }

 private:
  const int num_sweeps_;
  const int num_configs_;
  std::vector<std::vector<Pipeline>> sweeps_;
};

// ---------------------------------------------------------------------------
// serve: a closed loop of C client threads sharing one SessionManager over
// a fresh disk-backed store_dir. Each client sends its next one-pipeline
// request (SessionManager::RunSession) only after the previous reply.
// Requests are drawn from 2 scalers x tree depth x leaf size over a shared
// HIGGS impute/scale prefix.

// Request id of the calling client thread, for spans recorded inside the
// instrumented method (RunSession plans and materializes on this thread).
thread_local int64_t current_request = -1;

// Plan and search totals the instrumented methods report back.
struct ServeTotals {
  std::mutex mutex;
  LayerTotals layer;
  hyppo::core::PlanGenerator::SearchStats search;

  void AddPlan(const hyppo::core::Method::Planned& planned) {
    std::lock_guard<std::mutex> lock(mutex);
    layer.AddAugmentation(planned.aug);
    layer.AddPlan(planned.aug, planned.plan);
  }
  void AddSearch(const hyppo::core::PlanGenerator::SearchStats& stats) {
    std::lock_guard<std::mutex> lock(mutex);
    search.expansions += stats.expansions;
    search.plans_examined += stats.plans_examined;
    search.pruned_by_bound += stats.pruned_by_bound;
    search.pruned_by_dominance += stats.pruned_by_dominance;
    search.threads_used = std::max(search.threads_used, stats.threads_used);
  }
};

// HyppoMethod with wall-clock spans around its public entry points; the
// traced serve run installs it through ServingOptions::make_method.
class TimedMethod final : public hyppo::core::Method {
 public:
  TimedMethod(hyppo::core::Runtime* runtime,
              const hyppo::core::HyppoMethod::Options& options,
              Tracer* tracer, ServeTotals* totals)
      : Method(runtime),
        inner_(runtime, options),
        tracer_(tracer),
        totals_(totals) {}
  ~TimedMethod() override { totals_->AddSearch(inner_.last_search_stats()); }

  std::string name() const override { return inner_.name(); }

  Result<Planned> PlanPipeline(const Pipeline& pipeline) override {
    Result<Planned> planned = [&] {
      SpanScope span(tracer_, "plan", current_request);
      return inner_.PlanPipeline(pipeline);
    }();
    if (planned.ok()) {
      totals_->AddPlan(*planned);
    }
    return planned;
  }

  Status AfterExecution(
      const Pipeline& pipeline, const Planned& planned,
      const hyppo::core::Runtime::ExecutionRecord& record) override {
    SpanScope span(tracer_, "materializer", current_request);
    return inner_.AfterExecution(pipeline, planned, record);
  }

  Result<hyppo::core::Plan> ReplanAugmentation(
      const hyppo::core::Augmentation& aug) override {
    return inner_.ReplanAugmentation(aug);
  }

 private:
  hyppo::core::HyppoMethod inner_;
  Tracer* tracer_;
  ServeTotals* totals_;
};

// Files and bytes under a directory.
void DirStats(const fs::path& dir, int64_t* files, int64_t* bytes) {
  *files = 0;
  *bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      ++*files;
      *bytes += static_cast<int64_t>(it->file_size(ec));
    }
  }
}

// The store's exclusive lock must be free once its owner is gone.
Status CheckUnlocked(const fs::path& store_dir) {
  const fs::path lock_path = store_dir / "store.lock";
  const int fd = ::open(lock_path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::OK();  // no lock file: nothing holds it
  }
  const bool free = ::flock(fd, LOCK_EX | LOCK_NB) == 0;
  if (free) {
    ::flock(fd, LOCK_UN);
  }
  ::close(fd);
  return free ? Status::OK()
              : Status::FailedPrecondition("store_dir still locked: " +
                                           store_dir.string());
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(double multiplier, int clients, int requests_per_client,
                double budget_factor, int data_seeds, double tail_percentile,
                int min_episodes)
      : Workload("serve", hyppo::workload::UseCase::Higgs(), multiplier,
                 data_seeds, tail_percentile, min_episodes),
        num_clients_(clients),
        requests_per_client_(requests_per_client),
        budget_factor_(budget_factor) {}

  std::map<std::string, std::string> Meta() const override {
    std::map<std::string, std::string> meta = BaseMeta();
    meta["threads"] = "1 per session";
    meta["clients"] = std::to_string(num_clients_);
    meta["loop"] = "closed, " + std::to_string(num_clients_) + " clients";
    meta["requests_per_client"] = std::to_string(requests_per_client_);
    meta["config_space"] = std::to_string(NumConfigs());
    meta["store"] = "disk store_dir: tmp + rename writes, no fsync";
    return meta;
  }

  Episode RunEpisode(int index, bool traced,
                     std::vector<Span>* spans) override {
    const uint64_t data_seed = DataSeed(index);
    Episode episode;
    Tracer tracer(traced, index, spans);
    ServeTotals totals;
    const fs::path store_dir =
        work_dir_ / ("serve-" + std::to_string(::getpid()) + "-" +
                     std::to_string(index));
    std::error_code ec;
    if (fs::exists(store_dir, ec)) {
      episode.Fail("store_dir already exists: " + store_dir.string());
      return episode;
    }

    const double setup_start = Now();
    hyppo::serving::ServingOptions options;
    options.runtime.store_dir = store_dir.string();
    options.runtime.storage_budget_bytes = static_cast<int64_t>(
        budget_factor_ * static_cast<double>(DatasetBytes()));
    options.runtime.parallelism = 1;
    options.max_in_flight_sessions = num_clients_;
    options.method = PinnedMethodOptions(options.runtime);
    if (traced) {
      const hyppo::core::HyppoMethod::Options method_options = options.method;
      options.make_method = [method_options, &tracer, &totals](
                                hyppo::core::Runtime* runtime)
          -> std::unique_ptr<hyppo::core::Method> {
        return std::make_unique<TimedMethod>(runtime, method_options,
                                             &tracer, &totals);
      };
    }
    auto manager = std::make_unique<hyppo::serving::SessionManager>(options);
    Result<hyppo::ml::DatasetPtr> data = MakeDataset(data_seed);
    if (data.ok()) {
      manager->runtime().RegisterDataset(dataset_id(), *data);
    }
    episode.setup_s = Now() - setup_start;
    if (!data.ok() || !manager->session_status().ok()) {
      episode.Fail("setup: " + (data.ok() ? manager->session_status()
                                          : data.status())
                                   .ToString());
      manager.reset();
      fs::remove_all(store_dir, ec);
      return episode;
    }

    // --- closed loop: one thread per client, each with its own seeded
    // request stream for this episode.
    struct ClientResult {
      std::vector<double> latencies;
      std::vector<ScoreCheck> scores;
      std::vector<std::string> errors;
      int64_t attempted = 0;
      int64_t failed = 0;
      double first_submit = 0.0;
      double last_done = 0.0;
      double queue_s = 0.0;
      double charged_s = 0.0;
      int64_t reuse_loads = 0;
      int64_t cross_session_loads = 0;
      int64_t replans = 0;
    };
    std::vector<ClientResult> results(static_cast<size_t>(num_clients_));
    hyppo::core::Runtime& runtime = manager->runtime();
    auto client = [&](int c) {
      ClientResult& out = results[static_cast<size_t>(c)];
      hyppo::Rng rng(Mix(seed_, static_cast<uint64_t>(index) * 64 +
                                    static_cast<uint64_t>(c) + 1));
      hyppo::serving::SessionRequest request;
      request.session_id = "client-" + std::to_string(c);
      for (int r = 0; r < requests_per_client_; ++r) {
        const Pipeline& pipeline =
            pipelines_[static_cast<size_t>(rng.NextBelow(pipelines_.size()))];
        current_request = static_cast<int64_t>(c) * requests_per_client_ + r;
        ++out.attempted;
        if (tracer.enabled()) {
          std::shared_lock<std::shared_mutex> read(*runtime.catalog_mutex());
          TimeConstLayers(&tracer, current_request, runtime, {&pipeline},
                          pipeline, options.method.augment);
        }
        request.pipelines = {pipeline};
        const double t0 = Now();
        if (r == 0) {
          out.first_submit = t0;
        }
        const hyppo::serving::SessionReport report =
            manager->RunSession(request);
        out.last_done = Now();
        out.latencies.push_back(out.last_done - t0);
        if (!report.status.ok() || report.pipelines_completed != 1) {
          ++out.failed;
          if (out.errors.size() < 3) {
            out.errors.push_back(report.status.ToString());
          }
          continue;
        }
        out.queue_s += report.queue_seconds;
        out.charged_s += report.charged_seconds;
        out.reuse_loads += report.reuse_loads;
        out.cross_session_loads += report.cross_session_loads;
        out.replans += report.replans;
        const ScoreOrigin origin{&pipeline, ExecutedImpls(pipeline, nullptr),
                                 data_seed, current_request};
        Result<std::vector<ScoreCheck>> scores =
            ExtractScores(origin, report.target_payloads);
        if (!scores.ok()) {
          ++out.failed;
          out.errors.push_back(scores.status().ToString());
          continue;
        }
        out.scores.insert(out.scores.end(), scores->begin(), scores->end());
      }
    };
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < num_clients_; ++c) {
        threads.emplace_back(client, c);
      }
      for (std::thread& thread : threads) {
        thread.join();
      }
    }
    double first_submit = results[0].first_submit;
    double last_done = results[0].last_done;
    double queue_s = 0.0;
    double reuse = 0.0;
    double cross = 0.0;
    double replans = 0.0;
    for (ClientResult& out : results) {
      first_submit = std::min(first_submit, out.first_submit);
      last_done = std::max(last_done, out.last_done);
      episode.attempted += out.attempted;
      episode.failed += out.failed;
      episode.latencies.insert(episode.latencies.end(), out.latencies.begin(),
                               out.latencies.end());
      episode.scores.insert(episode.scores.end(), out.scores.begin(),
                            out.scores.end());
      for (std::string& error : out.errors) {
        if (episode.errors.size() < 5) {
          episode.errors.push_back(std::move(error));
        }
      }
      queue_s += out.queue_s;
      totals.layer.charged_seconds += out.charged_s;
      reuse += static_cast<double>(out.reuse_loads);
      cross += static_cast<double>(out.cross_session_loads);
      replans += static_cast<double>(out.replans);
    }
    episode.cet_s = last_done - first_submit;

    FinishEpisode(runtime, /*simulate=*/false, &tracer, &episode);
    int64_t disk_files = 0;
    int64_t disk_bytes = 0;
    DirStats(store_dir, &disk_files, &disk_bytes);
    AddSearchLayers(totals.search, &episode);
    // RunSession's wall time minus the parts the bench sees separately
    // (admission queue, planning, materialization): execution plus
    // catalog-lock waits.
    double request_busy = 0.0;
    for (double latency : episode.latencies) {
      request_busy += latency;
    }
    AddTimingLayers(tracer, totals.layer,
                    request_busy - queue_s - tracer.Busy("plan") -
                        tracer.Busy("materializer"),
                    &episode);
    auto& layers = episode.layers;
    layers["serving.queue_s"] = queue_s;
    layers["serving.reuse_loads"] = reuse;
    layers["serving.cross_session_loads"] = cross;
    layers["serving.cross_session_ratio"] = SafeRatio(cross, reuse);
    layers["serving.replans"] = replans;
    layers["serving.max_in_flight"] =
        static_cast<double>(manager->stats().max_observed_in_flight);
    layers["storage.disk_mb"] = static_cast<double>(disk_bytes) / 1e6;
    layers["storage.disk_files"] = static_cast<double>(disk_files);
    layers["storage.bytes_per_user_byte"] =
        SafeRatio(static_cast<double>(disk_bytes),
                  static_cast<double>(runtime.store().used_bytes()));

    // --- storage hygiene: the lock dies with the manager. Directories
    // are removed in Finish(), after the timed phase: deleting them here
    // would put the filesystem's discard work into the next episode.
    manager.reset();
    const Status released = CheckUnlocked(store_dir);
    if (!released.ok()) {
      episode.Fail(released.ToString());
    }
    store_dirs_.push_back(store_dir);
    return episode;
  }

  Status Finish() override {
    Status status = Status::OK();
    for (const fs::path& store_dir : store_dirs_) {
      std::error_code ec;
      fs::remove_all(store_dir, ec);
      if (ec || fs::exists(store_dir)) {
        status = Status::IoError("store_dir left behind: " +
                                 store_dir.string());
      }
    }
    store_dirs_.clear();
    return status;
  }

 protected:
  Status PrepareInputs() override {
    hyppo::workload::PipelineGenerator builder(use_case_, multiplier_, seed_);
    for (size_t config = 0; config < NumConfigs(); ++config) {
      HYPPO_ASSIGN_OR_RETURN(
          Pipeline pipeline,
          builder.BuildFromSpec(SpecFor(config),
                                "serve-c" + std::to_string(config)));
      pipelines_.push_back(std::move(pipeline));
    }
    return Status::OK();
  }

 private:
  static inline const std::vector<std::string> kScalers = {"StandardScaler",
                                                           "MinMaxScaler"};
  static inline const std::vector<int64_t> kDepths = {3, 4, 5, 6, 7, 8};
  static inline const std::vector<int64_t> kLeaves = {1,  2,  3,  4,  6,  8,
                                                       12, 16, 24, 32, 48, 64};

  static size_t NumConfigs() {
    return kScalers.size() * kDepths.size() * kLeaves.size();
  }

  static hyppo::workload::PipelineSpec SpecFor(size_t config) {
    const size_t leaf = config % kLeaves.size();
    const size_t depth = (config / kLeaves.size()) % kDepths.size();
    const size_t scaler = config / (kLeaves.size() * kDepths.size());
    hyppo::workload::PipelineSpec spec;
    spec.imputer.logical_op = "SimpleImputer";
    spec.imputer.impl = "skl.SimpleImputer";
    spec.imputer.config.Set("strategy", "mean");
    spec.scaler.logical_op = kScalers[scaler];
    spec.scaler.impl = "skl." + kScalers[scaler];
    spec.model.logical_op = "DecisionTreeClassifier";
    spec.model.impl = "skl.DecisionTreeClassifier";
    spec.model.config.SetInt("max_depth", kDepths[depth]);
    spec.model.config.SetInt("min_samples_leaf", kLeaves[leaf]);
    spec.metric = "accuracy";
    spec.split_seed = 13;
    return spec;
  }

  const int num_clients_;
  const int requests_per_client_;
  const double budget_factor_;
  std::vector<Pipeline> pipelines_;
  std::vector<fs::path> store_dirs_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  using hyppo::workload::UseCase;
  if (name == "explore") {
    // Paper scenario 1 on the measured clock: the first 11 iterations of
    // the ScenarioConfig-default sequence (generator seed 42), executed
    // for real; the run seed draws the data. A per-run sequence made cet
    // vary 7x between seeds (the draw of models decides it). The
    // iterations' latencies are far apart, so the median lands on one of
    // them: at 11 it is a group of three similar model fits and the 95th
    // percentile is the one polynomial-feature SVM; at 17 the median
    // pipeline's plan flips with machine speed and p50 spread 28% over
    // ten seeds.
    SequenceWorkload::Shape shape;
    shape.multiplier = 0.01;
    shape.sequence_seed = 42;
    shape.pipelines = 11;
    shape.parallelism = 2;
    shape.data_seeds = 4;
    shape.tail_percentile = 95.0;
    shape.min_episodes = 20;
    return std::make_unique<SequenceWorkload>("explore", UseCase::Higgs(),
                                              shape);
  }
  if (name == "catalog") {
    // Paper-scale shape with simulate = true: HYPPO's own per-submission
    // overhead over a growing history, no compaction. Each episode draws
    // its own 1000-pipeline sequence. Parallelism 1: at 2 the parallel
    // plan search made per-run cet drift by 26% between identical runs.
    SequenceWorkload::Shape shape;
    shape.multiplier = 1.0;
    shape.simulate = true;
    shape.pipelines = 1000;
    shape.parallelism = 1;
    shape.tail_percentile = 99.0;
    shape.min_episodes = 2;
    // Set-up here is runtime construction alone (nothing to generate
    // under simulation), a fraction of a millisecond.
    shape.setup_repeats = 5;
    return std::make_unique<SequenceWorkload>("catalog", UseCase::Higgs(),
                                              shape);
  }
  if (name == "sweep") {
    // Three 50-config sweeps per episode at parallelism 1: one cold, two
    // that reuse the trunk. The tail percentile sits in the middle of the
    // cold third of the latencies, not at its edge.
    return std::make_unique<SweepWorkload>(
        /*multiplier=*/0.02, /*sweeps=*/3, /*configs=*/50, /*data_seeds=*/1,
        /*tail_percentile=*/85.0, /*min_episodes=*/25);
  }
  if (name == "serve") {
    // Four clients on a four-core box; 100 one-pipeline requests per
    // episode over 144 configurations, so most requests reuse the stored
    // prefix and fit a new tree, and about a quarter repeat a config.
    return std::make_unique<ServeWorkload>(
        /*multiplier=*/0.01, /*clients=*/4, /*requests_per_client=*/25,
        /*budget_factor=*/3.0, /*data_seeds=*/1, /*tail_percentile=*/90.0,
        /*min_episodes=*/1);
  }
  return nullptr;
}

}  // namespace perfbench
