#include "core/augmenter.h"

#include <set>
#include <string>

#include "hypergraph/algorithms.h"

namespace hyppo::core {

namespace {

// Hit/miss telemetry of one augmentation's probes against the history
// index, flushed to the monitor at the end.
struct ProbeCounts {
  int64_t hits = 0;
  int64_t misses = 0;

  void Count(bool hit) { hit ? ++hits : ++misses; }
};

// Copies a history node's label into the augmentation if absent; returns
// the augmentation node id.
NodeId ImportNode(PipelineGraph& aug, const PipelineGraph& src, NodeId node) {
  return aug.GetOrAddArtifact(src.artifact(node));
}

// Reference O(V + E) relevance pass over the whole history — the
// pre-index behaviour, kept as the `use_index = false` baseline and the
// validation oracle for the indexed path.
std::vector<EdgeId> ScanRelevantEdges(const PipelineGraph& hist,
                                      const std::vector<NodeId>& matched) {
  std::vector<EdgeId> relevant;
  RelevanceClosure closure = BackwardRelevance(hist.hypergraph(), matched);
  for (EdgeId e = 0; e < hist.hypergraph().num_edge_slots(); ++e) {
    if (hist.hypergraph().IsLiveEdge(e) &&
        closure.edge_relevant[static_cast<size_t>(e)]) {
      relevant.push_back(e);
    }
  }
  return relevant;
}

// Live history edges backward-relevant to `matched`, ascending. Both
// paths return the same list; the indexed one only visits the relevant
// sub-hypergraph.
Result<std::vector<EdgeId>> RelevantEdges(const History& history,
                                          const std::vector<NodeId>& matched,
                                          const Augmenter::Options& options) {
  if (!options.use_index) {
    return ScanRelevantEdges(history.graph(), matched);
  }
  std::vector<EdgeId> relevant = history.CollectBackwardRelevantEdges(matched);
  if (options.validate_index) {
    const std::vector<EdgeId> reference =
        ScanRelevantEdges(history.graph(), matched);
    if (relevant != reference) {
      return Status::Internal(
          "history index diverged from reference scan: indexed backward "
          "relevance found " +
          std::to_string(relevant.size()) + " edge(s), the scan found " +
          std::to_string(reference.size()));
    }
  }
  return relevant;
}

// Splices the backward-relevant part of the history rooted at `matched`
// (history node ids) into `aug`, deduplicating by task signature.
Status SpliceHistory(PipelineGraph& aug, const History& history,
                     const std::vector<NodeId>& matched,
                     std::set<std::string>& signatures,
                     const Augmenter::Options& options) {
  if (matched.empty()) {
    return Status::OK();
  }
  const PipelineGraph& hist = history.graph();
  HYPPO_ASSIGN_OR_RETURN(std::vector<EdgeId> relevant,
                         RelevantEdges(history, matched, options));
  for (EdgeId e : relevant) {
    const TaskInfo& task = hist.task(e);
    if (task.type == TaskType::kLoad) {
      continue;  // load edges are added uniformly later
    }
    std::vector<NodeId> tails;
    for (NodeId t : hist.ordered_tail(e)) {
      tails.push_back(ImportNode(aug, hist, t));
    }
    std::vector<NodeId> heads;
    for (NodeId h : hist.ordered_head(e)) {
      heads.push_back(ImportNode(aug, hist, h));
    }
    TaskInfo copy = task;
    HYPPO_ASSIGN_OR_RETURN(EdgeId added, aug.AddTask(copy, tails, heads));
    if (!signatures.insert(aug.TaskSignature(added)).second) {
      HYPPO_RETURN_NOT_OK(aug.RemoveTask(added));
    }
  }
  return Status::OK();
}

// Adds parallel hyperedges for alternative physical implementations from
// the dictionary (equivalent tasks, paper §III-C2 case (b)).
Status AddDictionaryAlternatives(PipelineGraph& aug,
                                 const Dictionary& dictionary,
                                 std::set<std::string>& signatures) {
  const std::vector<EdgeId> existing = aug.hypergraph().LiveEdges();
  for (EdgeId e : existing) {
    // Copy: AddTask below grows the label vectors, which would invalidate
    // a reference into them.
    const TaskInfo task = aug.task(e);
    if (task.type == TaskType::kLoad) {
      continue;
    }
    for (const std::string& impl :
         dictionary.ImplsFor(task.logical_op, task.type)) {
      if (impl == task.impl) {
        continue;
      }
      TaskInfo alternative = task;
      alternative.impl = impl;
      std::vector<NodeId> tails = aug.ordered_tail(e);
      std::vector<NodeId> heads = aug.ordered_head(e);
      HYPPO_ASSIGN_OR_RETURN(
          EdgeId added, aug.AddTask(std::move(alternative), std::move(tails),
                                    std::move(heads)));
      if (!signatures.insert(aug.TaskSignature(added)).second) {
        HYPPO_RETURN_NOT_OK(aug.RemoveTask(added));
      }
    }
  }
  return Status::OK();
}

// Adds load edges for raw sources and (optionally) artifacts the history
// has materialized.
Status AddLoadEdges(PipelineGraph& aug, const History& history,
                    const Augmenter::Options& options, ProbeCounts* counts) {
  for (NodeId v = 1; v < aug.num_artifacts(); ++v) {
    const ArtifactInfo& artifact = aug.artifact(v);
    bool loadable = artifact.kind == ArtifactKind::kRaw;
    if (!loadable && options.use_materialized) {
      Result<NodeId> h_node = options.use_index
                                  ? history.FindArtifact(artifact.name)
                                  : history.graph().FindArtifact(artifact.name);
      if (options.use_index) {
        counts->Count(h_node.ok());
      }
      if (h_node.ok() && history.IsMaterialized(*h_node)) {
        loadable = true;
      }
    }
    if (!loadable) {
      continue;
    }
    bool has_load = false;
    for (EdgeId e : aug.hypergraph().bstar(v)) {
      if (aug.task(e).type == TaskType::kLoad) {
        has_load = true;
        break;
      }
    }
    if (!has_load) {
      HYPPO_RETURN_NOT_OK(aug.AddLoadTask(v).status());
    }
  }
  return Status::OK();
}

// Collects the compute edges of `graph` whose signature the history has
// not seen. The indexed path probes History::HasTaskSignature per edge;
// the scan path materializes every history signature per submission (the
// dominant pre-index cost at large histories).
Status CollectNewTasks(const PipelineGraph& graph, const History& history,
                       const Augmenter::Options& options,
                       std::vector<EdgeId>& new_tasks, ProbeCounts* counts) {
  std::set<std::string> scan_signatures;
  if (!options.use_index || options.validate_index) {
    for (EdgeId e : history.graph().hypergraph().LiveEdges()) {
      scan_signatures.insert(history.graph().TaskSignature(e));
    }
  }
  for (EdgeId e : graph.hypergraph().LiveEdges()) {
    if (graph.task(e).type == TaskType::kLoad) {
      continue;
    }
    const std::string signature = graph.TaskSignature(e);
    bool known;
    if (options.use_index) {
      known = history.HasTaskSignature(signature);
      counts->Count(known);
      if (options.validate_index &&
          known != (scan_signatures.count(signature) > 0)) {
        return Status::Internal(
            "history index diverged from reference scan on task signature '" +
            signature + "'");
      }
    } else {
      known = scan_signatures.count(signature) > 0;
    }
    if (!known) {
      new_tasks.push_back(e);
    }
  }
  return Status::OK();
}

}  // namespace

double Augmenter::EdgeSeconds(const PipelineGraph& graph, EdgeId edge,
                              const History& history) const {
  const TaskInfo& task = graph.task(edge);
  if (task.type == TaskType::kLoad) {
    const auto& heads = graph.ordered_head(edge);
    const ArtifactInfo& artifact = graph.artifact(heads[0]);
    const bool raw = artifact.kind == ArtifactKind::kRaw;
    const storage::StorageTier& tier = raw ? remote_tier_ : local_tier_;
    return tier.LoadSeconds(artifact.size_bytes);
  }
  // Compute edge. Prefer the history's observation for the identical task
  // (matched by head name + impl: the head name fully determines the
  // logical op, type, config, and inputs). On the history's own graph the
  // head node is already the history node.
  Result<EdgeId> history_edge = [&]() -> Result<EdgeId> {
    NodeId h_node = graph.ordered_head(edge)[0];
    if (&graph != &history.graph()) {
      HYPPO_ASSIGN_OR_RETURN(h_node,
                             history.FindArtifact(graph.artifact(h_node).name));
    }
    for (EdgeId e : history.graph().hypergraph().bstar(h_node)) {
      const TaskInfo& h_task = history.graph().task(e);
      if (h_task.type == task.type && h_task.impl == task.impl) {
        return e;
      }
    }
    return Status::NotFound("no matching history task");
  }();
  if (history_edge.ok() && history.HasTaskObservation(*history_edge)) {
    return history.ObservedTaskSeconds(*history_edge, 0.0);
  }
  // Estimator over the primary data input's estimated shape.
  int64_t rows = 1;
  int64_t cols = 1;
  for (NodeId in : graph.ordered_tail(edge)) {
    const ArtifactInfo& a = graph.artifact(in);
    if (a.kind != ArtifactKind::kOpState && a.kind != ArtifactKind::kSource) {
      rows = a.rows;
      cols = a.cols;
      break;
    }
  }
  return estimator_->EstimateTaskSeconds(task, rows, cols);
}

double Augmenter::EdgeWeight(const PipelineGraph& graph, EdgeId edge,
                             const History& history,
                             Objective objective) const {
  const double seconds = EdgeSeconds(graph, edge, history);
  if (objective == Objective::kTime) {
    return seconds;
  }
  int64_t input_bytes = 0;
  for (NodeId in : graph.ordered_tail(edge)) {
    if (in != graph.source()) {
      input_bytes += graph.artifact(in).size_bytes;
    }
  }
  return pricing_.TaskPrice(seconds, input_bytes);
}

Result<Augmentation> Augmenter::Augment(const Pipeline& pipeline,
                                        const History& history,
                                        const Options& options) const {
  Augmentation aug;
  // 1. Start from a copy of the pipeline: P is a subhypergraph of A, with
  //    identical node ids for P's artifacts, so P's targets carry over.
  aug.graph = pipeline.graph;
  aug.targets = pipeline.targets;

  std::set<std::string> signatures;
  for (EdgeId e : aug.graph.hypergraph().LiveEdges()) {
    signatures.insert(aug.graph.TaskSignature(e));
  }

  const PipelineGraph& hist = history.graph();
  ProbeCounts counts;

  // 2. Splice in every history derivation that can contribute to an
  //    artifact (equivalent to one) in the pipeline. Equivalent artifacts
  //    share canonical names, so matching is a name lookup.
  if (options.use_history) {
    std::vector<NodeId> matched;
    for (NodeId v = 1; v < aug.graph.num_artifacts(); ++v) {
      Result<NodeId> h_node =
          options.use_index ? history.FindArtifact(aug.graph.artifact(v).name)
                            : hist.FindArtifact(aug.graph.artifact(v).name);
      if (options.use_index) {
        counts.Count(h_node.ok());
      }
      if (h_node.ok()) {
        matched.push_back(*h_node);
      }
    }
    HYPPO_RETURN_NOT_OK(
        SpliceHistory(aug.graph, history, matched, signatures, options));
  }

  // 3. Dictionary alternatives.
  if (options.use_equivalences) {
    HYPPO_RETURN_NOT_OK(
        AddDictionaryAlternatives(aug.graph, *dictionary_, signatures));
  }

  // 4. Load edges.
  HYPPO_RETURN_NOT_OK(AddLoadEdges(aug.graph, history, options, &counts));

  // 5. New tasks: compute edges whose signature the history has not seen.
  HYPPO_RETURN_NOT_OK(
      CollectNewTasks(aug.graph, history, options, aug.new_tasks, &counts));

  // 6. Weights.
  const int32_t slots = aug.graph.hypergraph().num_edge_slots();
  aug.edge_weight.assign(static_cast<size_t>(slots), 0.0);
  aug.edge_seconds.assign(static_cast<size_t>(slots), 0.0);
  for (EdgeId e = 0; e < slots; ++e) {
    if (!aug.graph.hypergraph().IsLiveEdge(e)) {
      continue;
    }
    aug.edge_seconds[static_cast<size_t>(e)] =
        EdgeSeconds(aug.graph, e, history);
    aug.edge_weight[static_cast<size_t>(e)] =
        options.objective == Objective::kTime
            ? aug.edge_seconds[static_cast<size_t>(e)]
            : EdgeWeight(aug.graph, e, history, options.objective);
  }
  if (monitor_ != nullptr && options.use_index) {
    monitor_->RecordIndexHits(counts.hits);
    monitor_->RecordIndexMisses(counts.misses);
  }
  return aug;
}

Result<Augmentation> Augmenter::AugmentForRetrieval(
    const History& history, const std::vector<std::string>& target_names,
    const Options& options) const {
  const PipelineGraph& hist = history.graph();
  ProbeCounts counts;
  std::vector<NodeId> matched;
  for (const std::string& name : target_names) {
    Result<NodeId> node = options.use_index ? history.FindArtifact(name)
                                            : hist.FindArtifact(name);
    if (options.use_index) {
      counts.Count(node.ok());
    }
    HYPPO_RETURN_NOT_OK(node.status());
    matched.push_back(*node);
  }
  Augmentation aug;
  std::set<std::string> signatures;
  HYPPO_RETURN_NOT_OK(
      SpliceHistory(aug.graph, history, matched, signatures, options));
  if (options.use_equivalences) {
    HYPPO_RETURN_NOT_OK(
        AddDictionaryAlternatives(aug.graph, *dictionary_, signatures));
  }
  HYPPO_RETURN_NOT_OK(AddLoadEdges(aug.graph, history, options, &counts));
  for (const std::string& name : target_names) {
    HYPPO_ASSIGN_OR_RETURN(NodeId node, aug.graph.FindArtifact(name));
    aug.targets.push_back(node);
  }
  // Weights; retrieval plans contain no new tasks from the pipeline's
  // perspective except spliced dictionary alternatives, which stay
  // eligible for exploration.
  HYPPO_RETURN_NOT_OK(
      CollectNewTasks(aug.graph, history, options, aug.new_tasks, &counts));
  const int32_t slots = aug.graph.hypergraph().num_edge_slots();
  aug.edge_weight.assign(static_cast<size_t>(slots), 0.0);
  aug.edge_seconds.assign(static_cast<size_t>(slots), 0.0);
  for (EdgeId e = 0; e < slots; ++e) {
    if (!aug.graph.hypergraph().IsLiveEdge(e)) {
      continue;
    }
    aug.edge_seconds[static_cast<size_t>(e)] =
        EdgeSeconds(aug.graph, e, history);
    aug.edge_weight[static_cast<size_t>(e)] =
        options.objective == Objective::kTime
            ? aug.edge_seconds[static_cast<size_t>(e)]
            : EdgeWeight(aug.graph, e, history, options.objective);
  }
  if (monitor_ != nullptr && options.use_index) {
    monitor_->RecordIndexHits(counts.hits);
    monitor_->RecordIndexMisses(counts.misses);
  }
  return aug;
}

}  // namespace hyppo::core
