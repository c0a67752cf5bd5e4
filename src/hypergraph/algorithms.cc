#include "hypergraph/algorithms.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>

namespace hyppo {

Result<std::vector<EdgeId>> BTopologicalEdgeOrder(
    const Hypergraph& graph, const std::vector<EdgeId>& edges,
    const std::vector<NodeId>& sources) {
  std::vector<bool> in_plan(static_cast<size_t>(graph.num_edge_slots()),
                            false);
  for (EdgeId e : edges) {
    if (!graph.IsLiveEdge(e)) {
      return Status::InvalidArgument("plan contains dead edge " +
                                     std::to_string(e));
    }
    in_plan[static_cast<size_t>(e)] = true;
  }
  std::vector<int32_t> missing_tail(
      static_cast<size_t>(graph.num_edge_slots()), 0);
  std::vector<bool> available(static_cast<size_t>(graph.num_nodes()), false);
  std::deque<NodeId> queue;
  auto mark = [&](NodeId node) {
    if (!available[static_cast<size_t>(node)]) {
      available[static_cast<size_t>(node)] = true;
      queue.push_back(node);
    }
  };
  for (NodeId s : sources) {
    if (graph.IsValidNode(s)) {
      mark(s);
    }
  }
  std::vector<EdgeId> order;
  order.reserve(edges.size());
  std::vector<bool> fired(static_cast<size_t>(graph.num_edge_slots()), false);
  auto fire = [&](EdgeId e) {
    fired[static_cast<size_t>(e)] = true;
    order.push_back(e);
    for (NodeId h : graph.edge(e).head) {
      mark(h);
    }
  };
  for (EdgeId e : edges) {
    missing_tail[static_cast<size_t>(e)] =
        static_cast<int32_t>(graph.edge(e).tail.size());
    if (graph.edge(e).tail.empty()) {
      fire(e);
    }
  }
  while (!queue.empty()) {
    NodeId node = queue.front();
    queue.pop_front();
    for (EdgeId e : graph.fstar(node)) {
      if (!in_plan[static_cast<size_t>(e)] || fired[static_cast<size_t>(e)]) {
        continue;
      }
      if (--missing_tail[static_cast<size_t>(e)] == 0) {
        fire(e);
      }
    }
  }
  if (order.size() != edges.size()) {
    return Status::FailedPrecondition(
        "plan is not executable: " +
        std::to_string(edges.size() - order.size()) +
        " task(s) can never obtain their inputs");
  }
  return order;
}

bool IsValidPlan(const Hypergraph& graph,
                 const std::vector<EdgeId>& plan_edges,
                 const std::vector<NodeId>& sources,
                 const std::vector<NodeId>& targets) {
  return graph.AreBConnected(targets, sources, &plan_edges);
}

bool IsMinimalPlan(const Hypergraph& graph,
                   const std::vector<EdgeId>& plan_edges,
                   const std::vector<NodeId>& sources,
                   const std::vector<NodeId>& targets) {
  if (!IsValidPlan(graph, plan_edges, sources, targets)) {
    return false;
  }
  for (size_t skip = 0; skip < plan_edges.size(); ++skip) {
    std::vector<EdgeId> reduced;
    reduced.reserve(plan_edges.size() - 1);
    for (size_t i = 0; i < plan_edges.size(); ++i) {
      if (i != skip) {
        reduced.push_back(plan_edges[i]);
      }
    }
    if (IsValidPlan(graph, reduced, sources, targets)) {
      return false;
    }
  }
  return true;
}

RelevanceClosure BackwardRelevance(const Hypergraph& graph,
                                   const std::vector<NodeId>& targets) {
  RelevanceClosure closure;
  closure.node_relevant.assign(static_cast<size_t>(graph.num_nodes()), false);
  closure.edge_relevant.assign(static_cast<size_t>(graph.num_edge_slots()),
                               false);
  std::deque<NodeId> queue;
  auto mark = [&](NodeId node) {
    if (graph.IsValidNode(node) &&
        !closure.node_relevant[static_cast<size_t>(node)]) {
      closure.node_relevant[static_cast<size_t>(node)] = true;
      queue.push_back(node);
    }
  };
  for (NodeId t : targets) {
    mark(t);
  }
  while (!queue.empty()) {
    NodeId node = queue.front();
    queue.pop_front();
    for (EdgeId e : graph.bstar(node)) {
      if (closure.edge_relevant[static_cast<size_t>(e)]) {
        continue;
      }
      closure.edge_relevant[static_cast<size_t>(e)] = true;
      for (NodeId u : graph.edge(e).tail) {
        mark(u);
      }
    }
  }
  return closure;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

size_t Idx(int32_t i) { return static_cast<size_t>(i); }

}  // namespace

void FlatHyperedges::Append(const Hyperedge& edge) {
  for (NodeId u : edge.tail) {
    if (u != source) {
      tails.push_back(u);
    }
  }
  tail_begin.push_back(static_cast<int32_t>(tails.size()));
  heads.insert(heads.end(), edge.head.begin(), edge.head.end());
  head_begin.push_back(static_cast<int32_t>(heads.size()));
  tail_size.push_back(static_cast<int32_t>(edge.tail.size()));
}

std::vector<double> AverageDepthFromSource(const FlatHyperedges& edges) {
  const size_t n = static_cast<size_t>(edges.num_nodes);
  const size_t m = static_cast<size_t>(edges.num_edges());
  // Per node, its incoming and outgoing entries as CSR lists in ascending
  // entry order: count, prefix-sum to the list ends, then fill backwards.
  std::vector<int32_t> in_begin(n + 1, 0);
  std::vector<int32_t> out_begin(n + 1, 0);
  for (NodeId h : edges.heads) {
    ++in_begin[static_cast<size_t>(h)];
  }
  for (NodeId u : edges.tails) {
    ++out_begin[static_cast<size_t>(u)];
  }
  // Unfired incoming entries per node.
  std::vector<int32_t> pending_in(in_begin.begin(), in_begin.end() - 1);
  std::partial_sum(in_begin.begin(), in_begin.end(), in_begin.begin());
  std::partial_sum(out_begin.begin(), out_begin.end(), out_begin.begin());
  std::vector<int32_t> in_edges(edges.heads.size());
  std::vector<int32_t> out_edges(edges.tails.size());
  for (size_t i = m; i-- > 0;) {
    for (int32_t k = edges.head_begin[i]; k < edges.head_begin[i + 1]; ++k) {
      in_edges[Idx(--in_begin[static_cast<size_t>(edges.heads[Idx(k)])])] =
          static_cast<int32_t>(i);
    }
    for (int32_t k = edges.tail_begin[i]; k < edges.tail_begin[i + 1]; ++k) {
      out_edges[Idx(--out_begin[static_cast<size_t>(edges.tails[Idx(k)])])] =
          static_cast<int32_t>(i);
    }
  }

  std::vector<double> depth(n, kInf);
  // via[i]: 1 + mean tail depth of entry i, +inf when a tail is unreachable.
  std::vector<double> via(m, kInf);
  // Unsettled non-source tails per entry.
  std::vector<int32_t> pending_tails(m);
  std::vector<NodeId> settled;
  settled.reserve(n);
  auto settle = [&](NodeId v) {
    double sum = 0.0;
    int32_t usable = 0;
    for (int32_t k = in_begin[static_cast<size_t>(v)];
         k < in_begin[static_cast<size_t>(v) + 1]; ++k) {
      const double d = via[Idx(in_edges[Idx(k)])];
      if (d != kInf) {
        sum += d;
        ++usable;
      }
    }
    depth[static_cast<size_t>(v)] =
        usable == 0 ? kInf : sum / static_cast<double>(usable);
    settled.push_back(v);
  };
  // Fires entry i once its tails are settled; the source adds 0 to the
  // tail sum and only counts in the mean.
  auto fire = [&](size_t i) {
    double tail_sum = 0.0;
    for (int32_t k = edges.tail_begin[i]; k < edges.tail_begin[i + 1]; ++k) {
      const double d = depth[static_cast<size_t>(edges.tails[Idx(k)])];
      if (d == kInf) {
        tail_sum = kInf;
        break;
      }
      tail_sum += d;
    }
    if (tail_sum != kInf) {
      const int32_t size = edges.tail_size[i];
      via[i] = 1.0 + (size == 0 ? 0.0 : tail_sum / static_cast<double>(size));
    }
    for (int32_t k = edges.head_begin[i]; k < edges.head_begin[i + 1]; ++k) {
      const NodeId h = edges.heads[Idx(k)];
      if (h != edges.source && --pending_in[static_cast<size_t>(h)] == 0) {
        settle(h);
      }
    }
  };

  if (edges.source >= 0 && static_cast<size_t>(edges.source) < n) {
    depth[static_cast<size_t>(edges.source)] = 0.0;
    settled.push_back(edges.source);
  }
  for (size_t v = 0; v < n; ++v) {
    if (pending_in[v] == 0 && static_cast<NodeId>(v) != edges.source) {
      settle(static_cast<NodeId>(v));
    }
  }
  for (size_t i = 0; i < m; ++i) {
    pending_tails[i] = edges.tail_begin[i + 1] - edges.tail_begin[i];
    if (pending_tails[i] == 0) {
      fire(i);
    }
  }
  for (size_t next = 0; next < settled.size(); ++next) {
    const size_t u = static_cast<size_t>(settled[next]);
    for (int32_t k = out_begin[u]; k < out_begin[u + 1]; ++k) {
      const size_t i = Idx(out_edges[Idx(k)]);
      if (--pending_tails[i] == 0) {
        fire(i);
      }
    }
  }
  return depth;
}

std::vector<double> AverageDepthFromSource(const Hypergraph& graph,
                                           NodeId source) {
  FlatHyperedges edges(graph.num_nodes(), source);
  for (EdgeId e = 0; e < graph.num_edge_slots(); ++e) {
    if (graph.IsLiveEdge(e)) {
      edges.Append(graph.edge(e));
    }
  }
  return AverageDepthFromSource(edges);
}

}  // namespace hyppo
