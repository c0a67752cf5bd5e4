#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "hypergraph/algorithms.h"
#include "hypergraph/hypergraph.h"

namespace hyppo {
namespace {

// Builds the paper's Fig. 1(b-left) pipeline hypergraph:
//   s -l0-> v0 -t1-> {v1 train, v2 test}
//   v1 -t2-> {v3 scaled-train, v4 scaler-state}
//   {v4, v2} -t3-> v5
//   v1 -t4-> v6
//   {v6, v1} -t5-> v7 ; {v6, v5} -t6-> v8
struct Fig1Graph {
  Hypergraph g;
  NodeId s, v0, v1, v2, v3, v4, v5, v6, v7, v8;
  EdgeId l0, t1, t2, t3, t4, t5, t6;
};

Fig1Graph BuildFig1() {
  Fig1Graph f;
  f.s = f.g.AddNode();
  f.v0 = f.g.AddNode();
  f.v1 = f.g.AddNode();
  f.v2 = f.g.AddNode();
  f.v3 = f.g.AddNode();
  f.v4 = f.g.AddNode();
  f.v5 = f.g.AddNode();
  f.v6 = f.g.AddNode();
  f.v7 = f.g.AddNode();
  f.v8 = f.g.AddNode();
  f.l0 = *f.g.AddEdge({f.s}, {f.v0});
  f.t1 = *f.g.AddEdge({f.v0}, {f.v1, f.v2});
  f.t2 = *f.g.AddEdge({f.v1}, {f.v3, f.v4});
  f.t3 = *f.g.AddEdge({f.v4, f.v2}, {f.v5});
  f.t4 = *f.g.AddEdge({f.v1}, {f.v6});
  f.t5 = *f.g.AddEdge({f.v6, f.v1}, {f.v7});
  f.t6 = *f.g.AddEdge({f.v6, f.v5}, {f.v8});
  return f;
}

TEST(HypergraphTest, BasicStructure) {
  Fig1Graph f = BuildFig1();
  EXPECT_EQ(f.g.num_nodes(), 10);
  EXPECT_EQ(f.g.num_edges(), 7);
  // t1 is a multi-output hyperedge.
  EXPECT_EQ(f.g.edge(f.t1).head.size(), 2u);
  // bstar/fstar bookkeeping.
  EXPECT_EQ(f.g.bstar(f.v1).size(), 1u);
  EXPECT_EQ(f.g.bstar(f.v1)[0], f.t1);
  // v1 feeds t2, t4, t5.
  EXPECT_EQ(f.g.fstar(f.v1).size(), 3u);
}

TEST(HypergraphTest, RejectsEmptyHead) {
  Hypergraph g;
  g.AddNode();
  EXPECT_TRUE(g.AddEdge({0}, {}).status().IsInvalidArgument());
}

TEST(HypergraphTest, RejectsUnknownNodes) {
  Hypergraph g;
  g.AddNode();
  EXPECT_TRUE(g.AddEdge({0}, {5}).status().IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge({9}, {0}).status().IsInvalidArgument());
}

TEST(HypergraphTest, CoalescesDuplicateNodesInEdge) {
  Hypergraph g;
  g.AddNodes(3);
  EdgeId e = *g.AddEdge({0, 0, 1}, {2, 2});
  EXPECT_EQ(g.edge(e).tail.size(), 2u);
  EXPECT_EQ(g.edge(e).head.size(), 1u);
}

TEST(HypergraphTest, RemoveEdgeUpdatesStars) {
  Fig1Graph f = BuildFig1();
  ASSERT_TRUE(f.g.RemoveEdge(f.t4).ok());
  EXPECT_EQ(f.g.num_edges(), 6);
  EXPECT_FALSE(f.g.IsLiveEdge(f.t4));
  EXPECT_TRUE(f.g.bstar(f.v6).empty());
  EXPECT_EQ(f.g.fstar(f.v1).size(), 2u);
  // Removing twice fails.
  EXPECT_TRUE(f.g.RemoveEdge(f.t4).IsNotFound());
}

TEST(HypergraphTest, LiveEdgesSkipsRemoved) {
  Fig1Graph f = BuildFig1();
  ASSERT_TRUE(f.g.RemoveEdge(f.t6).ok());
  std::vector<EdgeId> live = f.g.LiveEdges();
  EXPECT_EQ(live.size(), 6u);
  EXPECT_EQ(std::count(live.begin(), live.end(), f.t6), 0);
}

TEST(BConnectivityTest, SourceReachesEverything) {
  Fig1Graph f = BuildFig1();
  std::vector<bool> reach = f.g.BConnectedFrom({f.s});
  for (NodeId v = 0; v < f.g.num_nodes(); ++v) {
    EXPECT_TRUE(reach[static_cast<size_t>(v)]) << "node " << v;
  }
}

TEST(BConnectivityTest, RequiresAllTailNodes) {
  // v5 needs BOTH v4 and v2: from {v4} alone it is not B-connected.
  Fig1Graph f = BuildFig1();
  std::vector<bool> reach = f.g.BConnectedFrom({f.v4});
  EXPECT_FALSE(reach[static_cast<size_t>(f.v5)]);
  reach = f.g.BConnectedFrom({f.v4, f.v2});
  EXPECT_TRUE(reach[static_cast<size_t>(f.v5)]);
}

TEST(BConnectivityTest, RestrictedToSubhypergraph) {
  Fig1Graph f = BuildFig1();
  // Without t3, v5 is unreachable even from s.
  std::vector<EdgeId> edges = {f.l0, f.t1, f.t2, f.t4, f.t5, f.t6};
  std::vector<bool> reach = f.g.BConnectedFrom({f.s}, &edges);
  EXPECT_TRUE(reach[static_cast<size_t>(f.v4)]);
  EXPECT_FALSE(reach[static_cast<size_t>(f.v5)]);
  EXPECT_FALSE(reach[static_cast<size_t>(f.v8)]);
}

TEST(BConnectivityTest, AreBConnectedOnTargets) {
  Fig1Graph f = BuildFig1();
  EXPECT_TRUE(f.g.AreBConnected({f.v7, f.v8}, {f.s}));
  EXPECT_FALSE(f.g.AreBConnected({f.v8}, {f.v6}));
}

TEST(TopologicalOrderTest, OrdersPlanEdges) {
  Fig1Graph f = BuildFig1();
  std::vector<EdgeId> plan = {f.t6, f.t3, f.t2, f.t4, f.t1, f.l0};
  auto order = BTopologicalEdgeOrder(f.g, plan, {f.s});
  ASSERT_TRUE(order.ok());
  ASSERT_EQ(order->size(), plan.size());
  auto position = [&](EdgeId e) {
    return std::find(order->begin(), order->end(), e) - order->begin();
  };
  EXPECT_LT(position(f.l0), position(f.t1));
  EXPECT_LT(position(f.t1), position(f.t2));
  EXPECT_LT(position(f.t2), position(f.t3));
  EXPECT_LT(position(f.t3), position(f.t6));
  EXPECT_LT(position(f.t4), position(f.t6));
}

TEST(TopologicalOrderTest, DetectsNonExecutablePlan) {
  Fig1Graph f = BuildFig1();
  // t3 without t2: v4 never becomes available.
  std::vector<EdgeId> plan = {f.l0, f.t1, f.t3};
  EXPECT_TRUE(
      BTopologicalEdgeOrder(f.g, plan, {f.s}).status().IsFailedPrecondition());
}

TEST(PlanValidityTest, ValidAndMinimal) {
  Fig1Graph f = BuildFig1();
  std::vector<EdgeId> plan = {f.l0, f.t1, f.t2, f.t3, f.t4, f.t6};
  EXPECT_TRUE(IsValidPlan(f.g, plan, {f.s}, {f.v8}));
  EXPECT_TRUE(IsMinimalPlan(f.g, plan, {f.s}, {f.v8}));
}

TEST(PlanValidityTest, NonMinimalDetected) {
  Fig1Graph f = BuildFig1();
  // t5 contributes nothing toward v8.
  std::vector<EdgeId> plan = {f.l0, f.t1, f.t2, f.t3, f.t4, f.t5, f.t6};
  EXPECT_TRUE(IsValidPlan(f.g, plan, {f.s}, {f.v8}));
  EXPECT_FALSE(IsMinimalPlan(f.g, plan, {f.s}, {f.v8}));
}

TEST(PlanValidityTest, InvalidWhenMissingDependency) {
  Fig1Graph f = BuildFig1();
  std::vector<EdgeId> plan = {f.l0, f.t1, f.t3, f.t4, f.t6};  // no t2
  EXPECT_FALSE(IsValidPlan(f.g, plan, {f.s}, {f.v8}));
}

TEST(BackwardRelevanceTest, CollectsAncestorClosure) {
  Fig1Graph f = BuildFig1();
  RelevanceClosure closure = BackwardRelevance(f.g, {f.v5});
  // v5's derivation needs t3, t2, t1, l0 and their nodes.
  EXPECT_TRUE(closure.edge_relevant[static_cast<size_t>(f.t3)]);
  EXPECT_TRUE(closure.edge_relevant[static_cast<size_t>(f.t2)]);
  EXPECT_TRUE(closure.edge_relevant[static_cast<size_t>(f.t1)]);
  EXPECT_TRUE(closure.edge_relevant[static_cast<size_t>(f.l0)]);
  EXPECT_FALSE(closure.edge_relevant[static_cast<size_t>(f.t4)]);
  EXPECT_FALSE(closure.edge_relevant[static_cast<size_t>(f.t6)]);
  EXPECT_TRUE(closure.node_relevant[static_cast<size_t>(f.v1)]);
  EXPECT_FALSE(closure.node_relevant[static_cast<size_t>(f.v6)]);
}

TEST(DepthTest, ChainDepths) {
  // s -> a -> b -> c as single-head edges.
  Hypergraph g;
  NodeId s = g.AddNode();
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  NodeId c = g.AddNode();
  *g.AddEdge({s}, {a});
  *g.AddEdge({a}, {b});
  *g.AddEdge({b}, {c});
  std::vector<double> depth = AverageDepthFromSource(g, s);
  EXPECT_DOUBLE_EQ(depth[static_cast<size_t>(s)], 0.0);
  EXPECT_DOUBLE_EQ(depth[static_cast<size_t>(a)], 1.0);
  EXPECT_DOUBLE_EQ(depth[static_cast<size_t>(b)], 2.0);
  EXPECT_DOUBLE_EQ(depth[static_cast<size_t>(c)], 3.0);
}

TEST(DepthTest, AveragesOverAlternatives) {
  // b has two derivations: directly from s (depth 1) and via a (depth 2):
  // average 1.5.
  Hypergraph g;
  NodeId s = g.AddNode();
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  *g.AddEdge({s}, {a});
  *g.AddEdge({s}, {b});
  *g.AddEdge({a}, {b});
  std::vector<double> depth = AverageDepthFromSource(g, s);
  EXPECT_DOUBLE_EQ(depth[static_cast<size_t>(b)], 1.5);
}

TEST(DepthTest, UnreachableIsInfinite) {
  Hypergraph g;
  NodeId s = g.AddNode();
  NodeId orphan = g.AddNode();
  (void)s;
  std::vector<double> depth = AverageDepthFromSource(g, s);
  EXPECT_TRUE(std::isinf(depth[static_cast<size_t>(orphan)]));
}

TEST(DepthTest, CycleNodesStayInfinite) {
  // a and b derive each other; c is derived from the cycle, d is not.
  Hypergraph g;
  NodeId s = g.AddNode();
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  NodeId c = g.AddNode();
  NodeId d = g.AddNode();
  *g.AddEdge({s, b}, {a});
  *g.AddEdge({a}, {b});
  *g.AddEdge({b}, {c});
  *g.AddEdge({s}, {d});
  std::vector<double> depth = AverageDepthFromSource(g, s);
  EXPECT_TRUE(std::isinf(depth[static_cast<size_t>(a)]));
  EXPECT_TRUE(std::isinf(depth[static_cast<size_t>(b)]));
  EXPECT_TRUE(std::isinf(depth[static_cast<size_t>(c)]));
  EXPECT_DOUBLE_EQ(depth[static_cast<size_t>(d)], 1.0);
}

TEST(DotExportTest, ContainsNodesAndEdges) {
  Fig1Graph f = BuildFig1();
  const std::string dot = f.g.ToDot("fig1");
  EXPECT_NE(dot.find("digraph \"fig1\""), std::string::npos);
  EXPECT_NE(dot.find("v0 ->"), std::string::npos);
  EXPECT_NE(dot.find("-> v8"), std::string::npos);
}

// Property sweep: on random DAG-like hypergraphs, forward chaining from s
// matches a brute-force recursive definition of B-connectivity.
class BConnectivityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BConnectivityPropertyTest, MatchesRecursiveDefinition) {
  Rng rng(GetParam());
  Hypergraph g;
  const int n = 12;
  NodeId s = g.AddNode();
  for (int i = 1; i < n; ++i) {
    g.AddNode();
  }
  // Random forward edges.
  for (int e = 0; e < 18; ++e) {
    NodeId head = static_cast<NodeId>(1 + rng.NextBelow(n - 1));
    std::vector<NodeId> tail;
    const int tails = 1 + static_cast<int>(rng.NextBelow(2));
    for (int t = 0; t < tails; ++t) {
      tail.push_back(static_cast<NodeId>(rng.NextBelow(
          static_cast<uint64_t>(head))));
    }
    *g.AddEdge(tail, {head});
  }
  std::vector<bool> chained = g.BConnectedFrom({s});
  // Reference: iterate the recursive definition to a fixed point.
  std::vector<bool> reference(static_cast<size_t>(n), false);
  reference[static_cast<size_t>(s)] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e : g.LiveEdges()) {
      bool all = true;
      for (NodeId u : g.edge(e).tail) {
        all = all && reference[static_cast<size_t>(u)];
      }
      if (!all) {
        continue;
      }
      for (NodeId h : g.edge(e).head) {
        if (!reference[static_cast<size_t>(h)]) {
          reference[static_cast<size_t>(h)] = true;
          changed = true;
        }
      }
    }
  }
  EXPECT_EQ(chained, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BConnectivityPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace hyppo
