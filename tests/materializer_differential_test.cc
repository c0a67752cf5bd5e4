// Differential tests for the materialization decision pass.
// Materializer::ComputeCosts walks the history once into flat arrays and
// computes the depth (Kahn order), `obtain` (Bellman-Ford) and `recompute`
// vectors from them. The oracle below is the code it replaced: the
// per-Hyperedge cost passes, the recursive depth DFS and Decide on top of
// them, copied verbatim. Costs and depths must be bitwise equal and every
// policy's decision identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/augmenter.h"
#include "core/cost_model.h"
#include "core/dictionary.h"
#include "core/history.h"
#include "core/hyppo.h"
#include "core/materializer.h"
#include "hypergraph/algorithms.h"
#include "workload/datagen.h"
#include "workload/pipeline_generator.h"

namespace hyppo::core {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the decision pass before the flat-array rewrite.
namespace oracle {

using Decision = Materializer::Decision;
using Options = Materializer::Options;
using Policy = Materializer::Policy;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> RecomputeCosts(const Augmenter* augmenter_,
                                   const History& history) {
  const PipelineGraph& graph = history.graph();
  const Hypergraph& hg = graph.hypergraph();
  // Phase 1 — value iteration with sum-over-tails aggregation:
  // obtain(v) = min over incoming edges (including 'load' edges for
  // materialized artifacts) of (edge seconds + sum of tail obtain costs).
  std::vector<double> obtain(static_cast<size_t>(hg.num_nodes()), kInf);
  std::vector<double> edge_seconds(
      static_cast<size_t>(hg.num_edge_slots()), 0.0);
  for (EdgeId e = 0; e < hg.num_edge_slots(); ++e) {
    if (hg.IsLiveEdge(e)) {
      edge_seconds[static_cast<size_t>(e)] =
          augmenter_->EdgeSeconds(graph, e, history);
    }
  }
  obtain[static_cast<size_t>(graph.source())] = 0.0;
  bool changed = true;
  int guard = hg.num_nodes() + 2;
  while (changed && guard-- > 0) {
    changed = false;
    for (EdgeId e = 0; e < hg.num_edge_slots(); ++e) {
      if (!hg.IsLiveEdge(e)) {
        continue;
      }
      double tail_sum = 0.0;
      for (NodeId u : hg.edge(e).tail) {
        if (u == graph.source()) {
          continue;
        }
        if (obtain[static_cast<size_t>(u)] == kInf) {
          tail_sum = kInf;
          break;
        }
        tail_sum += obtain[static_cast<size_t>(u)];
      }
      if (tail_sum == kInf) {
        continue;
      }
      const double through = edge_seconds[static_cast<size_t>(e)] + tail_sum;
      for (NodeId h : hg.edge(e).head) {
        if (through < obtain[static_cast<size_t>(h)] - 1e-15) {
          obtain[static_cast<size_t>(h)] = through;
          changed = true;
        }
      }
    }
  }
  // Phase 2 — the paper's cost(v): the cost of *re-computing* v if it were
  // evicted, i.e. through compute edges only (v's own load edge excluded),
  // with inputs obtained as cheaply as the current materialization allows.
  std::vector<double> recompute(static_cast<size_t>(hg.num_nodes()), kInf);
  recompute[static_cast<size_t>(graph.source())] = 0.0;
  for (EdgeId e = 0; e < hg.num_edge_slots(); ++e) {
    if (!hg.IsLiveEdge(e) || graph.task(e).type == TaskType::kLoad) {
      continue;
    }
    double tail_sum = 0.0;
    for (NodeId u : hg.edge(e).tail) {
      if (u == graph.source()) {
        continue;
      }
      if (obtain[static_cast<size_t>(u)] == kInf) {
        tail_sum = kInf;
        break;
      }
      tail_sum += obtain[static_cast<size_t>(u)];
    }
    if (tail_sum == kInf) {
      continue;
    }
    const double through = edge_seconds[static_cast<size_t>(e)] + tail_sum;
    for (NodeId h : hg.edge(e).head) {
      recompute[static_cast<size_t>(h)] =
          std::min(recompute[static_cast<size_t>(h)], through);
    }
  }
  return recompute;
}

// Memoized depth DFS; `on_stack` breaks cycles by ignoring back-derivations.
double DepthDfs(const Hypergraph& graph, NodeId node, NodeId source,
                std::vector<double>& memo, std::vector<bool>& on_stack) {
  if (node == source) {
    return 0.0;
  }
  double& cached = memo[static_cast<size_t>(node)];
  if (cached >= 0.0 || cached == kInf) {
    return cached;
  }
  if (on_stack[static_cast<size_t>(node)]) {
    return kInf;  // back edge: not a usable derivation
  }
  on_stack[static_cast<size_t>(node)] = true;
  double sum = 0.0;
  int32_t usable = 0;
  for (EdgeId e : graph.bstar(node)) {
    const Hyperedge& edge = graph.edge(e);
    double tail_sum = 0.0;
    bool feasible = true;
    for (NodeId u : edge.tail) {
      double d = DepthDfs(graph, u, source, memo, on_stack);
      if (d == kInf) {
        feasible = false;
        break;
      }
      tail_sum += d;
    }
    if (!feasible) {
      continue;
    }
    double tail_avg = edge.tail.empty()
                          ? 0.0
                          : tail_sum / static_cast<double>(edge.tail.size());
    sum += 1.0 + tail_avg;
    ++usable;
  }
  on_stack[static_cast<size_t>(node)] = false;
  cached = (usable == 0) ? kInf : sum / static_cast<double>(usable);
  return cached;
}

std::vector<double> AverageDepthFromSource(const Hypergraph& graph,
                                           NodeId source) {
  std::vector<double> memo(static_cast<size_t>(graph.num_nodes()), -1.0);
  std::vector<bool> on_stack(static_cast<size_t>(graph.num_nodes()), false);
  if (graph.IsValidNode(source)) {
    memo[static_cast<size_t>(source)] = 0.0;
  }
  std::vector<double> depth(static_cast<size_t>(graph.num_nodes()), kInf);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    depth[static_cast<size_t>(v)] =
        DepthDfs(graph, v, source, memo, on_stack);
  }
  return depth;
}


double Gain(const History& history, NodeId node, const Options& options,
            const std::vector<double>& recompute_costs,
            const std::vector<double>& depths) {
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

Decision Decide(const Augmenter* augmenter_, const History& history,
                const std::set<std::string>& storable, const Options& options) {
  const PipelineGraph& graph = history.graph();
  struct Candidate {
    NodeId node;
    double score;
    int64_t size;
  };
  // Shared precomputations (Gain() recomputes them per node; for the
  // decision sweep we hoist them out).
  const std::vector<double> recompute = RecomputeCosts(augmenter_, history);
  const std::vector<double> depth =
      oracle::AverageDepthFromSource(graph.hypergraph(), graph.source());

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
    if (!already && storable.count(artifact.name) == 0) {
      continue;  // payload unavailable: cannot be newly stored
    }
    const ArtifactRecord& record = history.record(v);
    double score = 0.0;
    switch (options.policy) {
      case Policy::kSpf:
        score = Gain(history, v, options, recompute, depth);
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
  std::set<NodeId> selected;
  int64_t used = 0;
  for (const Candidate& c : candidates) {
    if (used + c.size > options.budget_bytes) {
      continue;  // does not fit; try smaller lower-ranked artifacts
    }
    selected.insert(c.node);
    used += c.size;
  }
  decision.selected_bytes = used;
  for (NodeId v : history.MaterializedArtifacts()) {
    if (selected.count(v) == 0) {
      decision.to_evict.push_back(v);
    }
  }
  for (NodeId v : selected) {
    if (!history.IsMaterialized(v)) {
      decision.to_store.push_back(v);
    }
  }
  return decision;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Comparison against the oracle.

struct PolicyCase {
  const char* name;
  Materializer::Policy policy;
  bool plan_locality;
};

constexpr PolicyCase kPolicies[] = {
    {"spf", Materializer::Policy::kSpf, true},
    {"spf-no-locality", Materializer::Policy::kSpf, false},
    {"lru", Materializer::Policy::kLru, true},
    {"lfu", Materializer::Policy::kLfu, true},
    {"sff", Materializer::Policy::kSff, true},
};

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Checks the cost pass and every policy's decision on `history` against
/// the oracle; returns the number of decisions compared.
int ExpectMatchesOracle(const Augmenter& augmenter, const History& history,
                        const std::set<std::string>& storable,
                        const std::vector<int64_t>& budgets,
                        const std::string& where) {
  SCOPED_TRACE(where);
  const PipelineGraph& graph = history.graph();
  const Materializer materializer(&augmenter);
  const Materializer::Costs costs = materializer.ComputeCosts(history);
  const std::vector<double> recompute =
      oracle::RecomputeCosts(&augmenter, history);
  const std::vector<double> depth =
      oracle::AverageDepthFromSource(graph.hypergraph(), graph.source());
  EXPECT_TRUE(BitwiseEqual(costs.recompute, recompute));
  EXPECT_TRUE(BitwiseEqual(costs.depth, depth));
  EXPECT_TRUE(BitwiseEqual(materializer.RecomputeCosts(history), recompute));
  EXPECT_TRUE(BitwiseEqual(
      AverageDepthFromSource(graph.hypergraph(), graph.source()), depth));
  // EdgeSeconds skips the name lookup on the history's own graph; a copy
  // of the graph takes the lookup and must cost every edge the same.
  const PipelineGraph copy = graph;
  for (EdgeId e : graph.hypergraph().LiveEdges()) {
    const double own = augmenter.EdgeSeconds(graph, e, history);
    const double looked_up = augmenter.EdgeSeconds(copy, e, history);
    EXPECT_EQ(std::memcmp(&own, &looked_up, sizeof(double)), 0) << "edge " << e;
  }
  int compared = 0;
  for (const PolicyCase& policy : kPolicies) {
    for (int64_t budget : budgets) {
      Materializer::Options options;
      options.policy = policy.policy;
      options.use_plan_locality = policy.plan_locality;
      options.budget_bytes = budget;
      const Materializer::Decision got =
          materializer.Decide(history, storable, options);
      const Materializer::Decision want =
          oracle::Decide(&augmenter, history, storable, options);
      EXPECT_EQ(got.to_store, want.to_store)
          << policy.name << " budget " << budget;
      EXPECT_EQ(got.to_evict, want.to_evict)
          << policy.name << " budget " << budget;
      EXPECT_EQ(got.selected_bytes, want.selected_bytes)
          << policy.name << " budget " << budget;
      ++compared;
    }
  }
  return compared;
}

// ---------------------------------------------------------------------------
// Histories grown by simulated exploratory sequences.

struct SequenceCase {
  workload::UseCase use_case;
  uint64_t seed;
  int pipelines;
  /// The runtime's budget as a fraction of the dataset's bytes.
  double budget_fraction;
  /// RuntimeOptions::history_max_artifacts (0: no compaction).
  int32_t max_artifacts;
};

void RunSequence(const SequenceCase& c) {
  constexpr double kMultiplier = 1.0;
  const int64_t dataset_bytes =
      c.use_case.RowsAt(kMultiplier) * (c.use_case.paper_cols + 1) * 8;
  RuntimeOptions options;
  options.simulate = true;
  options.storage_budget_bytes =
      static_cast<int64_t>(c.budget_fraction *
                           static_cast<double>(dataset_bytes));
  options.history_max_artifacts = c.max_artifacts;
  Runtime runtime(options);
  HyppoMethod method(&runtime);
  workload::PipelineGenerator generator(c.use_case, kMultiplier, c.seed);
  // Besides the runtime's own budget, decide under a tight and a loose one.
  const std::vector<int64_t> budgets = {options.storage_budget_bytes,
                                        dataset_bytes / 100, dataset_bytes * 4};
  int compared = 0;
  for (int i = 0; i < c.pipelines; ++i) {
    Result<Pipeline> pipeline = generator.Next();
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    Result<HyppoMethod::Planned> planned = method.PlanPipeline(*pipeline);
    ASSERT_TRUE(planned.ok()) << planned.status();
    Result<Runtime::ExecutionRecord> record =
        runtime.ExecuteAndRecord(*pipeline, planned->aug, planned->plan);
    ASSERT_TRUE(record.ok()) << record.status();
    // The state AfterExecution decides on, with the same storable set.
    std::set<std::string> storable;
    for (const auto& [name, payload] : record->payloads_by_name) {
      storable.insert(name);
    }
    compared += ExpectMatchesOracle(runtime.augmenter(), runtime.history(),
                                    storable, budgets,
                                    c.use_case.name + " pipeline " +
                                        std::to_string(i));
    if (::testing::Test::HasFailure()) {
      return;
    }
    ASSERT_TRUE(method.AfterExecution(*pipeline, *planned, *record).ok());
  }
  EXPECT_EQ(compared, c.pipelines * static_cast<int>(std::size(kPolicies) *
                                                    budgets.size()));
  if (c.max_artifacts > 0) {
    EXPECT_LE(runtime.history().num_artifacts(), c.max_artifacts);
  }
}

TEST(MaterializerDifferentialTest, HiggsSequenceTightBudget) {
  RunSequence({workload::UseCase::Higgs(), 1, 150, 0.1, 0});
}

TEST(MaterializerDifferentialTest, HiggsSequenceLooseBudget) {
  RunSequence({workload::UseCase::Higgs(), 2, 150, 3.0, 0});
}

TEST(MaterializerDifferentialTest, TaxiSequenceTightBudget) {
  RunSequence({workload::UseCase::Taxi(), 3, 150, 0.1, 0});
}

TEST(MaterializerDifferentialTest, TaxiSequenceLooseBudget) {
  RunSequence({workload::UseCase::Taxi(), 4, 150, 3.0, 0});
}

TEST(MaterializerDifferentialTest, HiggsSequenceWithCompaction) {
  RunSequence({workload::UseCase::Higgs(), 5, 150, 0.5, 60});
}

TEST(MaterializerDifferentialTest, TaxiSequenceWithCompaction) {
  RunSequence({workload::UseCase::Taxi(), 6, 150, 0.5, 60});
}

// ---------------------------------------------------------------------------
// Hand-built histories.

ArtifactInfo MakeArtifact(const std::string& name, ArtifactKind kind,
                          int64_t size_bytes) {
  ArtifactInfo info;
  info.name = name;
  info.display = name;
  info.kind = kind;
  info.size_bytes = size_bytes;
  info.rows = size_bytes / 8;
  info.cols = 1;
  return info;
}

TaskInfo MakeTask(const std::string& lop, TaskType type,
                  const std::string& impl) {
  TaskInfo task;
  task.logical_op = lop;
  task.type = type;
  task.impl = impl;
  return task;
}

class MaterializerDifferentialHandBuiltTest : public ::testing::Test {
 protected:
  MaterializerDifferentialHandBuiltTest()
      : augmenter_(&dictionary_, &estimator_) {}

  NodeId Add(const std::string& name, int64_t size) {
    const NodeId node =
        history_.Observe(MakeArtifact(name, ArtifactKind::kTrain, size));
    history_.RecordAccess(node, clock_ += 1.0);
    return node;
  }
  EdgeId Task(const std::string& impl, std::vector<NodeId> tails,
              std::vector<NodeId> heads, double seconds) {
    const NodeId head = heads.front();
    Result<EdgeId> edge = history_.ObserveTask(
        MakeTask("op-" + history_.graph().artifact(head).name,
                 TaskType::kTransform, impl),
        tails, heads, seconds);
    EXPECT_TRUE(edge.ok()) << edge.status();
    history_.RecordComputeSeconds(head, seconds);
    return edge.ok() ? *edge : kInvalidEdge;
  }
  std::set<std::string> AllNames() const {
    std::set<std::string> names;
    for (NodeId v = 1; v < history_.graph().num_artifacts(); ++v) {
      names.insert(history_.graph().artifact(v).name);
    }
    return names;
  }
  int Check(const std::string& where) {
    return ExpectMatchesOracle(augmenter_, history_, AllNames(),
                               {0, 3000, 12000, 1 << 30}, where);
  }

  Dictionary dictionary_;
  CostEstimator estimator_;
  Augmenter augmenter_;
  History history_;
  double clock_ = 0.0;
};

TEST_F(MaterializerDifferentialHandBuiltTest,
       EquivalentDerivationAfterItsConsumers) {
  const NodeId raw =
      history_.Observe(MakeArtifact("raw", ArtifactKind::kRaw, 80000));
  ASSERT_TRUE(history_.RegisterSourceData(raw).ok());
  const NodeId a = Add("a", 4000);
  const NodeId b = Add("b", 2000);
  const NodeId c = Add("c", 1000);
  const NodeId d = Add("d", 3000);
  const NodeId x = Add("x", 500);
  const NodeId p = Add("p", 700);
  const NodeId orphan = Add("orphan", 600);
  const NodeId z = Add("z", 900);
  // The original derivations, consumers first.
  const EdgeId first_a = Task("skl.A", {raw}, {a}, 3.0);
  Task("skl.B", {a}, {b}, 0.1);
  const EdgeId c_from_ab = Task("skl.C", {a, b}, {c}, 0.2);
  Task("skl.D", {b, c}, {d}, 0.3);
  Task("skl.Z", {orphan}, {z}, 0.4);
  // Equivalent derivations arriving later, with higher edge ids than the
  // edges that consume them: a and b become cheaper only on a second
  // Bellman-Ford pass, and c gains a third derivation.
  Task("skl.A2", {raw}, {a}, 0.7);
  Task("skl.B2", {raw}, {b}, 0.2);
  Task("skl.C2", {b}, {c}, 0.6);
  Task("skl.C3", {raw, a, b}, {c}, 0.9);
  // A near tie below the 1e-15 slack: x via p first (lower ids), then a
  // direct derivation whose sum is smaller by less than the slack. The
  // scan keeps the first; an exact minimum would take the second, and y
  // would inherit the difference.
  const double raw_load = augmenter_.EdgeSeconds(
      history_.graph(), history_.record(raw).load_edge, history_);
  Task("skl.P", {raw}, {p}, 0.1);
  Task("skl.X", {p}, {x}, 0.2);
  const double via_p = 0.2 + (0.1 + raw_load);
  Task("skl.X2", {raw}, {x}, via_p - raw_load - 4e-16);
  const NodeId y = Add("y", 200);
  Task("skl.Y", {x}, {y}, 0.05);
  ASSERT_GT(first_a, 0);
  ASSERT_GT(c_from_ab, first_a);
  int compared = Check("no loads");
  // Load edges take ids above every compute edge.
  ASSERT_TRUE(history_.MarkMaterialized(b).ok());
  ASSERT_TRUE(history_.MarkMaterialized(x).ok());
  compared += Check("b, x loaded");
  const std::vector<double> depth = AverageDepthFromSource(
      history_.graph().hypergraph(), history_.graph().source());
  EXPECT_TRUE(std::isinf(depth[static_cast<size_t>(orphan)]));
  EXPECT_TRUE(std::isinf(depth[static_cast<size_t>(z)]));
  EXPECT_GT(compared, 0);
}

TEST_F(MaterializerDifferentialHandBuiltTest,
       MultiHeadEdgesAndManyAlternatives) {
  const NodeId raw =
      history_.Observe(MakeArtifact("raw", ArtifactKind::kRaw, 64000));
  ASSERT_TRUE(history_.RegisterSourceData(raw).ok());
  const NodeId train = Add("train", 48000);
  const NodeId test = Add("test", 16000);
  Task("skl.Split", {raw}, {train, test}, 0.05);
  // Five derivations of one node over tails of different sizes. Their
  // offers (11/3, 3.5, 5, 3, 3.75) sum to different doubles in ascending
  // and in descending edge id, so the depth pass must add them in id
  // order.
  const NodeId s = Add("s", 400);
  const NodeId u = Add("u", 350);
  Task("skl.S", {train}, {s}, 0.3);
  Task("skl.U", {s}, {u}, 0.2);
  const NodeId m = Add("m", 800);
  Task("skl.M1", {raw, s, u}, {m}, 1.1);
  Task("skl.M2", {raw, train, s, u}, {m}, 1.3);
  Task("skl.M3", {u}, {m}, 0.7);
  Task("skl.M4", {raw, s}, {m}, 0.9);
  Task("skl.M5", {train, test, s, u}, {m}, 0.11);
  const NodeId pred = Add("pred", 300);
  Task("skl.Pred", {m, test}, {pred}, 0.01);
  int compared = Check("built");
  ASSERT_TRUE(history_.MarkMaterialized(s).ok());
  ASSERT_TRUE(history_.MarkMaterialized(train).ok());
  compared += Check("s, train loaded");
  EXPECT_GT(compared, 0);
}

// Load edges added and evicted: each materialization adds a load edge with
// a fresh id and each eviction leaves a dead edge slot behind.
TEST(MaterializerDifferentialTest, LoadEdgesAddedAndEvicted) {
  RuntimeOptions options;
  options.simulate = true;
  options.storage_budget_bytes = 0;  // the sequence itself stores nothing
  Runtime runtime(options);
  HyppoMethod method(&runtime);
  const workload::UseCase use_case = workload::UseCase::Higgs();
  workload::PipelineGenerator generator(use_case, 1.0, 7);
  for (int i = 0; i < 30; ++i) {
    Result<Pipeline> pipeline = generator.Next();
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    Result<HyppoMethod::Planned> planned = method.PlanPipeline(*pipeline);
    ASSERT_TRUE(planned.ok()) << planned.status();
    ASSERT_TRUE(
        runtime.ExecuteAndRecord(*pipeline, planned->aug, planned->plan).ok());
  }
  History history = runtime.history();
  std::vector<NodeId> derived;
  std::set<std::string> storable;
  for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
    const ArtifactInfo& info = history.graph().artifact(v);
    if (info.kind != ArtifactKind::kRaw && info.kind != ArtifactKind::kSource &&
        info.size_bytes > 0) {
      derived.push_back(v);
      storable.insert(info.name);
    }
  }
  ASSERT_GT(derived.size(), 10u);
  const int64_t dataset_bytes =
      use_case.RowsAt(1.0) * (use_case.paper_cols + 1) * 8;
  const std::vector<int64_t> budgets = {dataset_bytes / 10, dataset_bytes * 4};
  Rng rng(11);
  int compared = 0;
  for (int step = 0; step < 40; ++step) {
    const NodeId v = derived[rng.NextBelow(derived.size())];
    if (history.IsMaterialized(v)) {
      ASSERT_TRUE(history.EvictMaterialized(v).ok());
    } else {
      ASSERT_TRUE(history.MarkMaterialized(v).ok());
    }
    compared += ExpectMatchesOracle(runtime.augmenter(), history, storable,
                                    budgets, "step " + std::to_string(step));
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  EXPECT_GT(history.graph().hypergraph().num_edge_slots(),
            history.graph().hypergraph().num_edges());
  EXPECT_EQ(compared,
            40 * static_cast<int>(std::size(kPolicies) * budgets.size()));
}

}  // namespace
}  // namespace hyppo::core
