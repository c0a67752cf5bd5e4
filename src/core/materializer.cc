#include "core/materializer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "hypergraph/algorithms.h"

namespace hyppo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Materializer::Costs Materializer::ComputeCosts(const History& history) const {
  const PipelineGraph& graph = history.graph();
  const Hypergraph& hg = graph.hypergraph();
  const NodeId source = graph.source();
  // The one walk over the graph: live edges in id order, flattened.
  FlatHyperedges edges(hg.num_nodes(), source);
  std::vector<double> seconds;
  std::vector<char> is_load;
  const size_t live = static_cast<size_t>(hg.num_edges());
  edges.tail_begin.reserve(live + 1);
  edges.head_begin.reserve(live + 1);
  edges.tail_size.reserve(live);
  seconds.reserve(live);
  is_load.reserve(live);
  for (EdgeId e = 0; e < hg.num_edge_slots(); ++e) {
    if (hg.IsLiveEdge(e)) {
      edges.Append(hg.edge(e));
      seconds.push_back(augmenter_->EdgeSeconds(graph, e, history));
      is_load.push_back(graph.task(e).type == TaskType::kLoad ? 1 : 0);
    }
  }
  const size_t m = seconds.size();

  Costs costs;
  costs.depth = AverageDepthFromSource(edges);

  // obtain(v) = min over incoming edges (including 'load' edges for
  // materialized artifacts) of (edge seconds + sum of tail obtain costs),
  // by Bellman-Ford passes in edge-id order. Both the pass order and the
  // 1e-15 slack decide which of two near-equal sums a node keeps, so the
  // scan stays as it is: a one-pass minimum in topological order lands a
  // few ulp away and flips decisions.
  std::vector<double> obtain(static_cast<size_t>(hg.num_nodes()), kInf);
  obtain[static_cast<size_t>(source)] = 0.0;
  // Sum of `obtain` over entry i's non-source tails; +inf when one is
  // unobtainable.
  auto tail_cost = [&](size_t i) {
    double sum = 0.0;
    for (int32_t k = edges.tail_begin[i]; k < edges.tail_begin[i + 1]; ++k) {
      const double c =
          obtain[static_cast<size_t>(edges.tails[static_cast<size_t>(k)])];
      if (c == kInf) {
        return kInf;
      }
      sum += c;
    }
    return sum;
  };
  bool changed = true;
  int guard = hg.num_nodes() + 2;
  while (changed && guard-- > 0) {
    changed = false;
    for (size_t i = 0; i < m; ++i) {
      const double tail_sum = tail_cost(i);
      if (tail_sum == kInf) {
        continue;
      }
      const double through = seconds[i] + tail_sum;
      for (int32_t k = edges.head_begin[i]; k < edges.head_begin[i + 1]; ++k) {
        double& best =
            obtain[static_cast<size_t>(edges.heads[static_cast<size_t>(k)])];
        if (through < best - 1e-15) {
          best = through;
          changed = true;
        }
      }
    }
  }
  // The paper's cost(v): the cost of *re-computing* v if it were evicted,
  // i.e. through compute edges only (v's own load edge excluded), with
  // inputs obtained as cheaply as the current materialization allows.
  costs.recompute.assign(static_cast<size_t>(hg.num_nodes()), kInf);
  costs.recompute[static_cast<size_t>(source)] = 0.0;
  for (size_t i = 0; i < m; ++i) {
    if (is_load[i] != 0) {
      continue;
    }
    const double tail_sum = tail_cost(i);
    if (tail_sum == kInf) {
      continue;
    }
    const double through = seconds[i] + tail_sum;
    for (int32_t k = edges.head_begin[i]; k < edges.head_begin[i + 1]; ++k) {
      double& best = costs.recompute[static_cast<size_t>(
          edges.heads[static_cast<size_t>(k)])];
      best = std::min(best, through);
    }
  }
  return costs;
}

std::vector<double> Materializer::RecomputeCosts(
    const History& history) const {
  return ComputeCosts(history).recompute;
}

double Materializer::Gain(const History& history, NodeId node,
                          const Options& options) const {
  const Costs costs = ComputeCosts(history);
  return Gain(history, node, options, costs.recompute, costs.depth);
}

double Materializer::Gain(const History& history, NodeId node,
                          const Options& options,
                          const std::vector<double>& recompute_costs,
                          const std::vector<double>& depths) const {
  const PipelineGraph& graph = history.graph();
  const ArtifactInfo& artifact = graph.artifact(node);
  const ArtifactRecord& record = history.record(node);
  const double freq =
      std::max<double>(1.0, static_cast<double>(record.access_count));
  // cost(v): the expected penalty of re-producing the artifact if evicted
  // — the minimum cost of a plan s -> v (paper §III-D2), estimated by
  // value iteration over the history. Falls back to the observed task
  // time when v is not derivable.
  double compute = recompute_costs[static_cast<size_t>(node)];
  if (compute == kInf || compute <= 0.0) {
    compute = record.compute_seconds;
  }
  const double load = std::max(
      1e-9, storage::StorageTier::Local().LoadSeconds(artifact.size_bytes));
  double gain = freq * compute / load;
  if (options.use_plan_locality) {
    const double d = depths[static_cast<size_t>(node)];
    if (d > 0.0 && d != kInf) {
      gain *= 1.0 / std::exp(1.0 / d);
    }
  }
  return gain;
}

Materializer::Decision Materializer::Decide(
    const History& history, const std::set<std::string>& storable,
    const Options& options) const {
  const PipelineGraph& graph = history.graph();
  struct Candidate {
    NodeId node;
    double score;
    int64_t size;
  };
  // Shared precomputations (Gain() recomputes them per node; for the
  // decision sweep we hoist them out). Only SPF reads them.
  const Costs costs =
      options.policy == Policy::kSpf ? ComputeCosts(history) : Costs{};
  // Per-node flags instead of name lookups in the candidate sweep.
  std::vector<char> can_store(static_cast<size_t>(graph.num_artifacts()), 0);
  for (const std::string& name : storable) {
    const Result<NodeId> node = history.FindArtifact(name);
    if (node.ok()) {
      can_store[static_cast<size_t>(*node)] = 1;
    }
  }

  std::vector<Candidate> candidates;
  for (NodeId v = 1; v < graph.num_artifacts(); ++v) {
    const ArtifactInfo& artifact = graph.artifact(v);
    if (artifact.kind == ArtifactKind::kRaw ||
        artifact.kind == ArtifactKind::kSource) {
      continue;  // data sources are not decision candidates
    }
    if (artifact.size_bytes <= 0) {
      continue;
    }
    const bool already = history.IsMaterialized(v);
    if (!already && can_store[static_cast<size_t>(v)] == 0) {
      continue;  // payload unavailable: cannot be newly stored
    }
    const ArtifactRecord& record = history.record(v);
    double score = 0.0;
    switch (options.policy) {
      case Policy::kSpf:
        score = Gain(history, v, options, costs.recompute, costs.depth);
        break;
      case Policy::kLru:
        score = record.last_access_seconds;
        break;
      case Policy::kLfu:
        score = static_cast<double>(record.access_count);
        break;
      case Policy::kSff:
        // Smaller-files-first: the candidates are ranked descending by
        // score, so smaller artifacts must score *higher* (size itself
        // as the score kept the largest ones — inverted policy).
        score = 1.0 / static_cast<double>(
                          std::max<int64_t>(1, artifact.size_bytes));
        break;
    }
    if (score <= 0.0 && !already) {
      continue;  // no benefit from newly storing it
    }
    // A zero score does not force-evict an already-materialized artifact
    // (an LRU/LFU entry that was never accessed): it stays a candidate,
    // ranked last, and survives when budget headroom remains.
    candidates.push_back(Candidate{v, score, artifact.size_bytes});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) {
                return a.score > b.score;
              }
              return a.node < b.node;
            });
  Decision decision;
  std::vector<char> selected(static_cast<size_t>(graph.num_artifacts()), 0);
  int64_t used = 0;
  for (const Candidate& c : candidates) {
    if (used + c.size > options.budget_bytes) {
      continue;  // does not fit; try smaller lower-ranked artifacts
    }
    selected[static_cast<size_t>(c.node)] = 1;
    used += c.size;
  }
  decision.selected_bytes = used;
  for (NodeId v : history.MaterializedArtifacts()) {
    if (selected[static_cast<size_t>(v)] == 0) {
      decision.to_evict.push_back(v);
    }
  }
  for (NodeId v = 1; v < graph.num_artifacts(); ++v) {
    if (selected[static_cast<size_t>(v)] != 0 && !history.IsMaterialized(v)) {
      decision.to_store.push_back(v);
    }
  }
  return decision;
}

Status Materializer::Apply(
    History& history, storage::ArtifactStore& store, const Decision& decision,
    const std::map<std::string, ArtifactPayload>& available) {
  // Validate before mutating: every newly stored artifact needs its
  // payload at hand, so a FailedPrecondition surfaces with history and
  // store untouched.
  for (NodeId v : decision.to_store) {
    const ArtifactInfo& artifact = history.graph().artifact(v);
    if (available.count(artifact.name) == 0) {
      return Status::FailedPrecondition(
          "payload for artifact '" + artifact.display +
          "' is not available for materialization");
    }
  }
  // Store phase first (evictions used to run first, so a Put failing
  // mid-loop stranded history and store half-applied). A failed Put rolls
  // back what this call already stored; the transient cost is holding
  // old + new bytes until the evict phase trims back under budget.
  std::vector<NodeId> stored;
  for (NodeId v : decision.to_store) {
    const ArtifactInfo& artifact = history.graph().artifact(v);
    Status put = store.Put(artifact.name, available.at(artifact.name),
                           artifact.size_bytes);
    if (put.ok()) {
      put = history.MarkMaterialized(v);
      if (!put.ok()) {
        (void)store.Evict(artifact.name);
      }
    }
    if (!put.ok()) {
      for (NodeId undo : stored) {
        const std::string& name = history.graph().artifact(undo).name;
        (void)history.EvictMaterialized(undo);
        (void)store.Evict(name);
      }
      return put;
    }
    stored.push_back(v);
  }
  for (NodeId v : decision.to_evict) {
    const std::string& name = history.graph().artifact(v).name;
    HYPPO_RETURN_NOT_OK(history.EvictMaterialized(v));
    if (store.Contains(name)) {
      HYPPO_RETURN_NOT_OK(store.Evict(name));
    }
  }
  return Status::OK();
}

}  // namespace hyppo::core
