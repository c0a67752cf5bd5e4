#ifndef HYPPO_CORE_EXECUTOR_H_
#define HYPPO_CORE_EXECUTOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/monitor.h"
#include "core/optimizer.h"
#include "ml/registry.h"
#include "storage/artifact_store.h"
#include "storage/fault_injection.h"

namespace hyppo::core {

/// Resolves a raw dataset id (the artifact's display name) to its data —
/// the stand-in for the paper's remote storage locations. Called once per
/// raw-load task in real execution mode.
using DatasetResolver =
    std::function<Result<ml::DatasetPtr>(const std::string& dataset_id)>;

/// \brief Executes plans: topologically orders the plan's tasks, binds
/// artifact payloads to task inputs, runs physical operators (or simulates
/// them), and reports per-task timings for the monitor and the history.
///
/// One dataflow loop runs every plan: a task becomes ready once the tasks
/// it depends on have settled, and ready tasks are taken lowest
/// topological position first. Results are reported in position order, so
/// every worker count yields the same task runs, failures and total.
///
/// Failure model: a task that errors (a lost or corrupted store entry, a
/// resolver outage, an operator fault) does NOT abort the run. The
/// executor records the failure, skips the tasks that transitively
/// depended on the dead artifact, and finishes everything else, so the
/// caller sees exactly which load/compute edges failed and which payloads
/// survived. The runtime's recovery loop (core/runtime.h) uses that
/// report to degrade the augmentation and re-plan. Execute() itself only
/// returns a non-OK Status for structural errors (an inexecutable plan).
class Executor {
 public:
  struct Options {
    /// Simulation mode: no operator runs; each task charges its estimated
    /// duration (augmentation edge_seconds) and produces placeholder
    /// payloads. Used by the planner-scalability experiments and the
    /// paper-scale scenario sweeps.
    bool simulate = false;
    /// Worker threads for real execution. 1 runs the dataflow loop
    /// inline on the calling thread, in topological order. With N > 1, N
    /// pool workers share the ready queue, so a task starts as soon as its
    /// own inputs exist, whatever its siblings are still running.
    /// `total_seconds` stays the sum of per-task times (the billable
    /// compute the cost model prices) in every case. Ignored in
    /// simulation mode, which always runs one worker.
    int parallelism = 1;
    /// Thread bound handed to the ML kernel layer (ml/kernels) for the
    /// duration of each operator call: the executor installs a
    /// KernelScope{num_threads} around op fit/transform/predict so
    /// GEMM-shaped work inside operators can use intra-task parallelism.
    /// 0 (default) inherits `parallelism`. When tasks already run on
    /// pool workers (parallelism > 1) the kernels detect the nesting and
    /// stay serial, so the two levels compose without oversubscription.
    int kernel_threads = 0;
    /// Debug-mode assertion: structurally verify the plan against its
    /// augmentation (src/analysis) before executing anything. Fails with
    /// Internal on a broken plan instead of executing it.
    bool verify_plans = false;
    /// Targets `verify_plans` requires the plan to reach. Null checks the
    /// augmentation's own targets; a batch member points this at its own
    /// targets so it can run against the shared merged augmentation.
    const std::vector<NodeId>* targets = nullptr;
    /// Charge compute tasks their augmentation estimate (edge_seconds)
    /// instead of measured wall time, while still executing operators for
    /// real. Makes `total_seconds` bit-identical across runs and across
    /// serial/parallel schedules — the differential and chaos tests rely
    /// on it.
    bool charge_estimates = false;
    /// Fault-injection hooks for operator and resolver faults (and for
    /// simulated loads, which never reach the store). Store-load faults
    /// in real execution are injected by wrapping the store in a
    /// storage::FaultInjectingStore sharing this injector. Null disables
    /// the hooks.
    storage::FaultInjector* fault_injector = nullptr;
    /// Payloads that survived a previous attempt, keyed by node id of the
    /// SAME augmentation. Tasks whose outputs are all present are skipped
    /// (counted in `reused_tasks`), so a recovery re-execution only pays
    /// for what was actually lost.
    const std::map<NodeId, ArtifactPayload>* seed_payloads = nullptr;
  };

  struct TaskRun {
    EdgeId edge = kInvalidEdge;
    double seconds = 0.0;
  };

  /// One task that errored, with the edge it ran for.
  struct TaskFailure {
    EdgeId edge = kInvalidEdge;
    Status status;
  };

  struct ExecutionResult {
    /// Total charged time: wall-clock for computes, storage-model time for
    /// loads (estimates everywhere in simulation mode), summed in
    /// topological position order.
    double total_seconds = 0.0;
    std::vector<TaskRun> task_runs;
    /// Payload per produced/loaded artifact node (includes seeded
    /// payloads).
    std::map<NodeId, ArtifactPayload> payloads;
    /// Tasks that errored this run.
    std::vector<TaskFailure> failures;
    /// Tasks never attempted because an upstream failure starved their
    /// inputs.
    std::vector<EdgeId> skipped_edges;
    /// Tasks skipped because every output payload was seeded.
    int64_t reused_tasks = 0;

    bool complete() const { return failures.empty() && skipped_edges.empty(); }
  };

  Executor(storage::ArtifactStore* store, DatasetResolver resolver,
           Monitor* monitor,
           const ml::OperatorRegistry* registry =
               &ml::OperatorRegistry::Global())
      : store_(store),
        resolver_(std::move(resolver)),
        monitor_(monitor),
        registry_(registry) {}

  /// Executes `plan` over the augmentation it was derived from.
  Result<ExecutionResult> Execute(const Augmentation& aug, const Plan& plan,
                                  const Options& options) const;

  /// Re-points the executor at another store (used by the runtime when
  /// fault injection wraps the store in a decorator).
  void set_store(storage::ArtifactStore* store) { store_ = store; }

 private:
  /// Runs one task on private copies of its input payloads (`inputs`, in
  /// tail declaration order, source excluded) and returns what it produced
  /// in `outputs`, in head declaration order, so it needs no lock; the
  /// loop merges the outputs afterwards. Dispatches on task type and
  /// simulation mode and applies the fault hooks.
  Result<double> RunTask(const Augmentation& aug, EdgeId edge,
                         const std::vector<ArtifactPayload>& inputs,
                         std::vector<ArtifactPayload>* outputs,
                         const Options& options) const;

  Result<double> RunLoadTask(const PipelineGraph& graph, EdgeId edge,
                             std::vector<ArtifactPayload>* outputs,
                             const Options& options) const;
  Result<double> RunComputeTask(const PipelineGraph& graph, EdgeId edge,
                                const std::vector<ArtifactPayload>& inputs,
                                std::vector<ArtifactPayload>* outputs,
                                const Options& options) const;

  storage::ArtifactStore* store_;
  DatasetResolver resolver_;
  Monitor* monitor_;
  const ml::OperatorRegistry* registry_;
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_EXECUTOR_H_
