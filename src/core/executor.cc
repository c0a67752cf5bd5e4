#include "core/executor.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <utility>
#include <variant>

#include "common/thread_pool.h"
#include "hypergraph/algorithms.h"
#include "ml/kernels/kernels.h"

namespace hyppo::core {

namespace {

// Splits input payloads (in tail declaration order) by kind.
Result<ml::TaskInputs> BindInputs(
    const PipelineGraph& graph, EdgeId edge,
    const std::vector<ArtifactPayload>& payloads) {
  ml::TaskInputs inputs;
  for (const ArtifactPayload& payload : payloads) {
    if (const auto* dataset = std::get_if<ml::DatasetPtr>(&payload)) {
      inputs.datasets.push_back(*dataset);
    } else if (const auto* state = std::get_if<ml::OpStatePtr>(&payload)) {
      inputs.states.push_back(*state);
    } else if (const auto* preds =
                   std::get_if<ml::PredictionsPtr>(&payload)) {
      inputs.predictions.push_back(*preds);
    } else {
      return Status::Internal("unsupported input payload kind for task " +
                              graph.task(edge).logical_op);
    }
  }
  return inputs;
}

// Primary data shape of a task's inputs, for monitoring.
void InputShape(const PipelineGraph& graph, EdgeId edge, int64_t* rows,
                int64_t* cols) {
  *rows = 1;
  *cols = 1;
  for (NodeId in : graph.ordered_tail(edge)) {
    const ArtifactInfo& a = graph.artifact(in);
    if (a.kind != ArtifactKind::kOpState && a.kind != ArtifactKind::kSource) {
      *rows = a.rows;
      *cols = a.cols;
      return;
    }
  }
}

// Every head node already has a payload (recovered from a prior attempt).
bool AllHeadsPresent(const std::map<NodeId, ArtifactPayload>& payloads,
                     const std::vector<NodeId>& heads) {
  for (NodeId head : heads) {
    if (payloads.count(head) == 0) {
      return false;
    }
  }
  return true;
}

// Copies the payload of every non-source input into `inputs`, in tail
// declaration order; false means an upstream task failed and this one
// must be skipped.
bool GatherInputs(const PipelineGraph& graph, EdgeId edge,
                  const std::map<NodeId, ArtifactPayload>& payloads,
                  std::vector<ArtifactPayload>* inputs) {
  for (NodeId in : graph.ordered_tail(edge)) {
    if (in == graph.source()) {
      continue;
    }
    auto it = payloads.find(in);
    if (it == payloads.end()) {
      return false;
    }
    inputs->push_back(it->second);
  }
  return true;
}

}  // namespace

Result<double> Executor::RunLoadTask(
    const PipelineGraph& graph, EdgeId edge,
    std::vector<ArtifactPayload>* outputs, const Options& options) const {
  const NodeId head = graph.ordered_head(edge)[0];
  const ArtifactInfo& artifact = graph.artifact(head);
  const bool raw = artifact.kind == ArtifactKind::kRaw;
  if (options.simulate) {
    const storage::StorageTier tier = raw ? storage::StorageTier::Remote()
                                          : store_->tier();
    double seconds = tier.LoadSeconds(artifact.size_bytes);
    // Simulated loads never touch the store, so the fault hooks fire here
    // (real execution injects store faults through FaultInjectingStore).
    if (options.fault_injector != nullptr) {
      const storage::FaultSite site = raw ? storage::FaultSite::kResolver
                                          : storage::FaultSite::kStoreLoad;
      const std::string& key = raw ? artifact.display : artifact.name;
      const storage::FaultInjector::Decision decision =
          options.fault_injector->Decide(site, key);
      switch (decision.kind) {
        case storage::FaultKind::kNotFound:
          return Status::NotFound("injected fault: artifact '" +
                                  artifact.name +
                                  "' vanished from the store");
        case storage::FaultKind::kCorrupt:
          return Status::IoError("injected fault: corrupted payload for '" +
                                 artifact.display + "'");
        case storage::FaultKind::kFail:
          return Status::IoError("injected fault: resolver for '" +
                                 artifact.display + "' is unavailable");
        case storage::FaultKind::kSlowLoad:
          seconds *= decision.slow_multiplier;
          break;
        case storage::FaultKind::kNone:
          break;
      }
    }
    outputs->emplace_back(std::monostate{});
    return seconds;
  }
  if (raw) {
    if (!resolver_) {
      return Status::FailedPrecondition(
          "no dataset resolver registered for raw load of '" +
          artifact.display + "'");
    }
    if (options.fault_injector != nullptr &&
        options.fault_injector
                ->Decide(storage::FaultSite::kResolver, artifact.display)
                .kind != storage::FaultKind::kNone) {
      return Status::IoError("injected fault: resolver for '" +
                             artifact.display + "' is unavailable");
    }
    HYPPO_ASSIGN_OR_RETURN(ml::DatasetPtr dataset, resolver_(artifact.display));
    const int64_t bytes = dataset->SizeBytes();
    outputs->emplace_back(dataset);
    return storage::StorageTier::Remote().LoadSeconds(bytes);
  }
  HYPPO_ASSIGN_OR_RETURN(storage::ArtifactStore::Loaded loaded,
                         store_->Load(artifact.name));
  // A real-mode load must hold data; an empty payload means the store
  // entry rotted (or a fault decorator corrupted it).
  if (std::holds_alternative<std::monostate>(loaded.payload)) {
    return Status::IoError("corrupted payload for artifact '" +
                           artifact.display + "'");
  }
  outputs->push_back(std::move(loaded.payload));
  return loaded.seconds;
}

Result<double> Executor::RunComputeTask(
    const PipelineGraph& graph, EdgeId edge,
    const std::vector<ArtifactPayload>& inputs,
    std::vector<ArtifactPayload>* outputs, const Options& options) const {
  const TaskInfo& task = graph.task(edge);
  HYPPO_ASSIGN_OR_RETURN(const ml::PhysicalOperator* op,
                         registry_->Get(task.impl));
  HYPPO_ASSIGN_OR_RETURN(ml::MlTask ml_task, ToMlTask(task.type));
  HYPPO_ASSIGN_OR_RETURN(ml::TaskInputs bound,
                         BindInputs(graph, edge, inputs));
  // Grant the operator's kernels the runtime's parallelism for the span
  // of this call. On a pool worker (N-worker executor) the kernels see
  // the nesting and stay serial; results are bitwise identical either
  // way (see ml/kernels/kernels.h), so every worker count keeps
  // producing byte-identical payloads.
  ml::kernels::KernelOptions kernel_options;
  kernel_options.num_threads = options.kernel_threads > 0
                                   ? options.kernel_threads
                                   : options.parallelism;
  ml::kernels::KernelScope kernel_scope(kernel_options);
  WallClock clock;
  Stopwatch stopwatch(clock);
  HYPPO_ASSIGN_OR_RETURN(ml::TaskOutputs produced,
                         op->Execute(ml_task, bound, task.config));
  const double seconds = stopwatch.Elapsed();
  // Outputs flattened in (datasets, states, predictions, values) order,
  // which matches head declaration order for every operator in the
  // catalog (each task type emits one kind).
  std::vector<ArtifactPayload>& flat = *outputs;
  for (auto& dataset : produced.datasets) {
    flat.emplace_back(std::move(dataset));
  }
  for (auto& state : produced.states) {
    flat.emplace_back(std::move(state));
  }
  for (auto& preds : produced.predictions) {
    flat.emplace_back(std::move(preds));
  }
  for (double value : produced.values) {
    flat.emplace_back(value);
  }
  const std::vector<NodeId>& heads = graph.ordered_head(edge);
  if (flat.size() != heads.size()) {
    return Status::Internal(
        task.impl + "." + TaskTypeToString(task.type) + " produced " +
        std::to_string(flat.size()) + " outputs for " +
        std::to_string(heads.size()) + " declared artifacts");
  }
  return seconds;
}

Result<double> Executor::RunTask(
    const Augmentation& aug, EdgeId edge,
    const std::vector<ArtifactPayload>& inputs,
    std::vector<ArtifactPayload>* outputs, const Options& options) const {
  const PipelineGraph& graph = aug.graph;
  const TaskInfo& task = graph.task(edge);
  if (task.type == TaskType::kLoad) {
    return RunLoadTask(graph, edge, outputs, options);
  }
  if (options.fault_injector != nullptr &&
      options.fault_injector
              ->Decide(storage::FaultSite::kCompute, graph.TaskSignature(edge))
              .kind != storage::FaultKind::kNone) {
    return Status::Internal("injected fault: operator " + task.impl + "." +
                            TaskTypeToString(task.type) + " failed");
  }
  if (options.simulate) {
    outputs->assign(graph.ordered_head(edge).size(), std::monostate{});
    return aug.edge_seconds[static_cast<size_t>(edge)];
  }
  HYPPO_ASSIGN_OR_RETURN(double seconds,
                         RunComputeTask(graph, edge, inputs, outputs, options));
  if (options.charge_estimates) {
    return aug.edge_seconds[static_cast<size_t>(edge)];
  }
  return seconds;
}

Result<Executor::ExecutionResult> Executor::Execute(
    const Augmentation& aug, const Plan& plan,
    const Options& options) const {
  if (options.verify_plans) {
    HYPPO_RETURN_NOT_OK(VerifyPlanStructure(
        aug, options.targets != nullptr ? *options.targets : aug.targets,
        plan));
  }
  const PipelineGraph& graph = aug.graph;
  const Hypergraph& hg = graph.hypergraph();
  HYPPO_ASSIGN_OR_RETURN(
      std::vector<EdgeId> order,
      BTopologicalEdgeOrder(hg, plan.edges, {graph.source()}));
  const auto n = static_cast<int32_t>(order.size());

  enum class Outcome : uint8_t { kRan, kFailed, kReused, kSkipped };
  struct Slot {
    int32_t waiting = 0;     // unsettled tasks this one depends on
    int32_t first_arc = -1;  // this task's dependant list in `arcs`
    Outcome outcome = Outcome::kSkipped;
    double seconds = 0.0;
    Status status;
  };
  std::vector<Slot> slots(static_cast<size_t>(n));
  // Dependant lists as linked arcs: {dependant position, next arc}.
  std::vector<std::pair<int32_t, int32_t>> arcs;
  auto depend = [&](int32_t q, int32_t p) {
    int32_t& first = slots[static_cast<size_t>(q)].first_arc;
    arcs.emplace_back(p, first);
    first = static_cast<int32_t>(arcs.size()) - 1;
    ++slots[static_cast<size_t>(p)].waiting;
  };
  // A task depends on the producers of its inputs. With one producer per
  // node, it then sees the payload map exactly as a run in position order
  // would, whatever the worker count. A plan with two producers of a node
  // (verification allows it, with a warning) runs in position order.
  std::vector<int32_t> producer(static_cast<size_t>(hg.num_nodes()), -1);
  bool two_producers = false;
  for (int32_t p = 0; p < n; ++p) {
    const Hyperedge& edge = hg.edge(order[static_cast<size_t>(p)]);
    for (NodeId tail : edge.tail) {
      if (producer[static_cast<size_t>(tail)] >= 0) {
        depend(producer[static_cast<size_t>(tail)], p);
      }
    }
    for (NodeId head : edge.head) {
      two_producers = two_producers || producer[static_cast<size_t>(head)] >= 0;
      producer[static_cast<size_t>(head)] = p;
    }
  }
  for (int32_t p = 1; two_producers && p < n; ++p) {
    depend(p - 1, p);
  }

  // Ready tasks, lowest position first: one worker runs the plan in
  // exactly the topological order.
  std::priority_queue<int32_t, std::vector<int32_t>, std::greater<>> ready;
  for (int32_t p = 0; p < n; ++p) {
    if (slots[static_cast<size_t>(p)].waiting == 0) {
      ready.push(p);
    }
  }
  int32_t num_settled = 0;
  ExecutionResult result;
  if (options.seed_payloads != nullptr) {
    result.payloads = *options.seed_payloads;
  }
  const int workers = options.simulate ? 1 : std::max(1, options.parallelism);
  std::mutex mutex;
  std::condition_variable changed;
  // Every worker runs this loop: decide and gather inputs under the lock,
  // run the task outside it, then merge outputs and ready dependants.
  auto work = [&]() {
    std::vector<ArtifactPayload> inputs;
    std::vector<ArtifactPayload> outputs;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      changed.wait(lock, [&]() { return !ready.empty() || num_settled == n; });
      if (ready.empty()) {
        return;
      }
      const int32_t p = ready.top();
      ready.pop();
      const EdgeId edge = order[static_cast<size_t>(p)];
      Slot& slot = slots[static_cast<size_t>(p)];
      inputs.clear();
      outputs.clear();
      if (options.seed_payloads != nullptr &&
          AllHeadsPresent(result.payloads, graph.ordered_head(edge))) {
        // Recovered outputs make the task a no-op.
        slot.outcome = Outcome::kReused;
      } else if (!GatherInputs(graph, edge, result.payloads, &inputs)) {
        // An upstream failure starved this task's inputs: skip, don't
        // abort.
        slot.outcome = Outcome::kSkipped;
      } else {
        lock.unlock();
        Result<double> run = RunTask(aug, edge, inputs, &outputs, options);
        lock.lock();
        if (run.ok()) {
          slot.outcome = Outcome::kRan;
          slot.seconds = *run;
          const std::vector<NodeId>& heads = graph.ordered_head(edge);
          for (size_t i = 0; i < outputs.size(); ++i) {
            result.payloads[heads[i]] = std::move(outputs[i]);
          }
        } else {
          // The task died; its heads stay missing, so dependants starve
          // into skipped_edges instead of running on garbage.
          slot.outcome = Outcome::kFailed;
          slot.status = run.status();
        }
      }
      ++num_settled;
      for (int32_t a = slot.first_arc; a >= 0;
           a = arcs[static_cast<size_t>(a)].second) {
        const int32_t d = arcs[static_cast<size_t>(a)].first;
        if (--slots[static_cast<size_t>(d)].waiting == 0) {
          ready.push(d);
        }
      }
      changed.notify_all();
    }
  };
  if (workers == 1) {
    work();
  } else {
    ThreadPool pool(workers);
    for (int i = 0; i < workers; ++i) {
      pool.Submit(work);
    }
    pool.Wait();
  }

  // Report in position order, so every worker count gives the same
  // sequences and the same floating-point total.
  for (int32_t p = 0; p < n; ++p) {
    const EdgeId edge = order[static_cast<size_t>(p)];
    const Slot& slot = slots[static_cast<size_t>(p)];
    switch (slot.outcome) {
      case Outcome::kReused:
        ++result.reused_tasks;
        break;
      case Outcome::kSkipped:
        result.skipped_edges.push_back(edge);
        break;
      case Outcome::kFailed:
        result.failures.push_back(TaskFailure{edge, slot.status});
        break;
      case Outcome::kRan:
        result.total_seconds += slot.seconds;
        result.task_runs.push_back(TaskRun{edge, slot.seconds});
        if (monitor_ != nullptr) {
          const TaskInfo& task = graph.task(edge);
          int64_t rows = 1;
          int64_t cols = 1;
          InputShape(graph, edge, &rows, &cols);
          monitor_->RecordTask(task.impl, task.type, rows, cols,
                               slot.seconds);
        }
        break;
    }
  }
  return result;
}

}  // namespace hyppo::core
