#ifndef HYPPO_HYPERGRAPH_ALGORITHMS_H_
#define HYPPO_HYPERGRAPH_ALGORITHMS_H_

#include <vector>

#include "common/result.h"
#include "hypergraph/hypergraph.h"

namespace hyppo {

/// \brief Orders `edges` so that each hyperedge appears after every node in
/// its tail has been produced (by a preceding edge or by membership in
/// `sources`).
///
/// This is the execution order of a plan: a plan is executable iff such an
/// order exists for all of its edges (paper §III-C5 property (a)).
/// Returns FailedPrecondition when some edge can never fire.
Result<std::vector<EdgeId>> BTopologicalEdgeOrder(
    const Hypergraph& graph, const std::vector<EdgeId>& edges,
    const std::vector<NodeId>& sources);

/// \brief True iff `plan_edges` forms a valid S-T plan: every target is
/// B-connected to `sources` using only plan edges.
bool IsValidPlan(const Hypergraph& graph, const std::vector<EdgeId>& plan_edges,
                 const std::vector<NodeId>& sources,
                 const std::vector<NodeId>& targets);

/// \brief True iff the plan is valid and minimal: deleting any single
/// hyperedge breaks B-connection of some target (paper's Plan definition).
bool IsMinimalPlan(const Hypergraph& graph,
                   const std::vector<EdgeId>& plan_edges,
                   const std::vector<NodeId>& sources,
                   const std::vector<NodeId>& targets);

/// \brief Backward relevance closure: the sub-hypergraph that can
/// participate in producing `targets`.
///
/// Starting from the targets, every hyperedge in the backward star of an
/// included node is included together with its tail nodes, recursively.
/// Returns per-node and per-edge inclusion flags. The augmenter uses this to
/// prune history parts that cannot contribute to the current pipeline.
struct RelevanceClosure {
  std::vector<bool> node_relevant;
  std::vector<bool> edge_relevant;
};
RelevanceClosure BackwardRelevance(const Hypergraph& graph,
                                   const std::vector<NodeId>& targets);

/// \brief The live hyperedges of a graph as flat arrays, in ascending edge
/// id: tails without the source and heads, each in CSR form, plus every
/// edge's full tail size (the source included). Passes that scan all
/// edges several times (the materializer's cost pass) read these instead
/// of the per-edge `Hyperedge` vectors.
struct FlatHyperedges {
  FlatHyperedges(int32_t num_nodes, NodeId source)
      : num_nodes(num_nodes), source(source) {}

  /// Appends `edge` as the next entry (callers append in edge-id order).
  void Append(const Hyperedge& edge);
  int32_t num_edges() const { return static_cast<int32_t>(tail_size.size()); }

  int32_t num_nodes;
  NodeId source;
  /// Entry i's tails without the source are
  /// tails[tail_begin[i] .. tail_begin[i + 1]), ascending; likewise heads.
  std::vector<int32_t> tail_begin{0};
  std::vector<NodeId> tails;
  std::vector<int32_t> head_begin{0};
  std::vector<NodeId> heads;
  std::vector<int32_t> tail_size;
};

/// \brief Average derivation depth of each node from `source`, in
/// hyperedges.
///
/// depth(source) = 0; for any other node, each incoming hyperedge e offers a
/// derivation of depth 1 + mean(depth(u) for u in tail(e)) (an empty tail
/// counts as depth 0), and depth(v) averages over the incoming hyperedges to
/// account for the alternative ways to obtain v (paper §III-D2, the plan
/// locality coefficient). Nodes unreachable from the source get depth
/// +infinity.
///
/// One pass in topological (Kahn) order: a node is settled once every
/// incoming edge has fired, and its average sums the usable derivations in
/// ascending edge id. Nodes on a cycle, and every node derived from one,
/// never settle and stay at +infinity; histories are DAGs (the analysis
/// verifier checks it).
std::vector<double> AverageDepthFromSource(const FlatHyperedges& edges);
std::vector<double> AverageDepthFromSource(const Hypergraph& graph,
                                           NodeId source);

}  // namespace hyppo

#endif  // HYPPO_HYPERGRAPH_ALGORITHMS_H_
