// Shared pieces of the benchmark program: wall clock and statistics, the
// benchmark's own spans, per-episode bookkeeping, and the correctness
// gate (NoOptimization reference runs of each request's as-executed
// pipeline variant).
#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/graph.h"
#include "core/method.h"
#include "core/runtime.h"
#include "ml/dataset.h"

namespace perfbench {

using hyppo::Result;
using hyppo::Status;
using hyppo::core::Pipeline;

// Relative tolerance for scores whose path contains a kNumeric operator.
// Paths made only of kExact operators compare bytes.
inline constexpr double kScoreRelTolerance = 1e-9;

double Now();
double Median(std::vector<double> values);
// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);
// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();
double SafeRatio(double num, double den);
// splitmix64 of (a, b): derives per-episode seeds from the run seed.
uint64_t Mix(uint64_t a, uint64_t b);
std::string JsonString(const std::string& text);
std::string JsonNumber(double value);

// ---------------------------------------------------------------------------
// Spans: the benchmark's own records around each call it times.

struct Span {
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  int64_t request = 0;
  int episode = 0;
};

// Collects spans and per-layer durations for one episode. A disabled
// tracer never reads the clock.
class Tracer {
 public:
  Tracer(bool enabled, int episode, std::vector<Span>* sink)
      : enabled_(enabled), episode_(episode), sink_(sink) {}

  bool enabled() const { return enabled_; }
  void Record(const char* layer, int64_t request, double start, double end);
  // Sum and median of the layer's span durations.
  double Busy(const std::string& layer) const;
  double P50(const std::string& layer) const;

 private:
  const bool enabled_;
  const int episode_;
  mutable std::mutex mutex_;
  std::vector<Span>* sink_;
  std::map<std::string, std::vector<double>> durations_;
};

// RAII span: records [construction, destruction) when the tracer is on.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* layer, int64_t request)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        layer_(layer),
        request_(request),
        start_(tracer_ != nullptr ? Now() : 0.0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->Record(layer_, request_, start_, Now());
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  const char* layer_;
  int64_t request_;
  double start_;
};

// ---------------------------------------------------------------------------
// Correctness gate.
//
// Equivalent implementations share canonical artifact names, so a score
// HYPPO returns may come from implementations other than the ones the
// pipeline declares (an equivalent substitution, or a stored artifact
// another pipeline computed). The reference therefore runs the pipeline
// with the implementations that actually produced the score — its
// as-executed variant — under NoOptimization: as written, no reuse.

// One implementation name per pipeline task ("" for loads), joined with
// ',' in task order.
using ImplKey = std::string;

// artifact name -> implementation of the task that produced it, over an
// artifact's whole ancestry.
using Lineage = std::map<std::string, std::string>;
using LineagePtr = std::shared_ptr<const Lineage>;

// What produced a score: the pipeline variant, the data it read, and the
// request (index within its episode) it answered.
struct ScoreOrigin {
  const Pipeline* pipeline = nullptr;
  ImplKey impls;
  uint64_t data_seed = 0;
  int64_t request = 0;
};

struct ScoreCheck {
  std::string name;  // canonical name of the score artifact
  double value = 0.0;
  ScoreOrigin origin;
};

// The pipeline's implementations as declared, or as `lineage` says they
// ran (tasks the lineage does not cover keep their declared impl).
ImplKey ExecutedImpls(const Pipeline& pipeline, const Lineage* lineage);
// The pipeline with its task implementations replaced by `impls`.
Pipeline VariantOf(const Pipeline& pipeline, const ImplKey& impls);
// True when every operator of the pipeline is Tolerance::kExact.
bool ExactPath(const Pipeline& pipeline);
// Canonical names of the pipeline's evaluate-task outputs.
std::vector<std::string> ScoreNames(const Pipeline& pipeline);

// Pulls the origin pipeline's scores out of a payload map. A missing or
// non-scalar score is an error.
Result<std::vector<ScoreCheck>> ExtractScores(
    const ScoreOrigin& origin,
    const std::map<std::string, hyppo::storage::ArtifactPayload>& payloads);

// Byte equality, or the relative tolerance when `exact_path` is false.
// `bitwise` reports whether the bytes matched.
bool ScoreMatches(double got, double reference, bool exact_path,
                  bool* bitwise);

// Runs each pipeline once under NoOptimization in a fresh runtime reading
// `dataset`, and returns score-artifact name -> score per pipeline.
Result<std::vector<std::map<std::string, double>>> ReferenceScores(
    const std::vector<Pipeline>& pipelines, const std::string& dataset_id,
    const hyppo::ml::DatasetPtr& dataset);

// Follows which implementation produced each artifact of a single-owner
// runtime: computed artifacts take their task's impl, loads of stored
// artifacts the lineage recorded when the artifact was materialized.
class LineageTracker {
 public:
  // Lineage of every artifact the plan derives, by canonical name.
  Result<std::map<std::string, LineagePtr>> Trace(
      const hyppo::core::Augmentation& aug,
      const hyppo::core::Plan& plan) const;
  // Keeps the lineage of what is materialized now: newly stored
  // artifacts were produced by the traced request, evicted ones are
  // forgotten. The materializer only ever stores artifacts that are not
  // stored yet, so a stored copy's lineage never changes.
  void Update(const hyppo::core::History& history,
              const std::map<std::string, LineagePtr>& traced);

 private:
  std::map<std::string, LineagePtr> stored_;
};

// Records one executed request's scores, tagged with the implementations
// that produced them, and advances the lineage of the materialized set.
Status CaptureScores(const ScoreOrigin& origin,
                     const hyppo::core::Method::Planned& planned,
                     const hyppo::core::Runtime::ExecutionRecord& record,
                     const hyppo::core::History& history,
                     LineageTracker* lineage, std::vector<ScoreCheck>* out);

// End-of-episode catalog audit: history invariants (with a serialization
// round-trip and the budget bound) and store <-> history consistency.
Status VerifyCatalog(const hyppo::core::Runtime& runtime);

// ---------------------------------------------------------------------------
// Episodes and per-layer bookkeeping.

struct Episode {
  double setup_s = 0.0;
  double cet_s = 0.0;
  std::vector<double> latencies;
  int64_t attempted = 0;
  int64_t failed = 0;
  double stored_mb = 0.0;
  // Per-layer values of this episode, by metric name.
  std::map<std::string, double> layers;
  // Scores to check against the reference after the timed phase.
  std::vector<ScoreCheck> scores;
  std::vector<std::string> errors;

  void Fail(const std::string& what);
  // An inconsistent catalog fails every request that built it.
  void FailAll(const std::string& what);
};

// Sums over an episode's requests of what the bench observes per request.
struct LayerTotals {
  double augmenter_edges = 0.0;
  double plan_tasks = 0.0;
  double load_tasks = 0.0;         // loads of stored (non-raw) artifacts
  double charged_seconds = 0.0;    // Σ ExecutionRecord::seconds
  double predicted_seconds = 0.0;  // Σ Plan::seconds

  void AddAugmentation(const hyppo::core::Augmentation& aug);
  void AddPlan(const hyppo::core::Augmentation& aug,
               const hyppo::core::Plan& plan);
};

// Monitor-, history- and store-derived layer values. Compute task types
// are measured operator wall time in real mode and charged estimates
// under simulation; loads are always charged (StorageTier formulas or
// the store's reported seconds).
void AddMonitorLayers(const hyppo::core::Runtime& runtime, bool simulate,
                      Episode* episode);
void AddSearchLayers(const hyppo::core::PlanGenerator::SearchStats& stats,
                     Episode* episode);
// Timing layers from the tracer. `executor_busy` is the executor's
// measured (serve: derived) busy time.
void AddTimingLayers(const Tracer& tracer, const LayerTotals& totals,
                     double executor_busy, Episode* episode);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
