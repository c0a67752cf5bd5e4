#ifndef HYPPO_CORE_MATERIALIZER_H_
#define HYPPO_CORE_MATERIALIZER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/augmenter.h"
#include "core/history.h"
#include "storage/artifact_store.h"

namespace hyppo::core {

/// \brief The history manager's materialization policy (paper §III-D2 and
/// §IV-H): given a storage budget B, choose which artifacts to keep
/// materialized so that the expected cost of future pipelines is
/// minimized.
///
/// The default policy is the paper's Smaller-Penalty-First (SPF) gain
///   gain(v) = freq(v) × cost(v) / load(v)
/// optionally weighted by the plan-locality coefficient
///   pl(v) = 1 / e^(1/depth(v)),
/// solved greedily under the budget (the exact formulation, Problem 2, is
/// an expensive MILP). LRU / LFU / SFF scores are provided for the
/// ablation study.
class Materializer {
 public:
  enum class Policy { kSpf, kLru, kLfu, kSff };

  struct Options {
    int64_t budget_bytes = 0;
    Policy policy = Policy::kSpf;
    /// Weight gains by the plan-locality coefficient (§III-D2). Ablation
    /// knob; on by default as in the paper.
    bool use_plan_locality = true;
  };

  struct Decision {
    /// Artifacts to materialize (not currently stored).
    std::vector<NodeId> to_store;
    /// Currently materialized artifacts to evict.
    std::vector<NodeId> to_evict;
    /// Total bytes stored after applying the decision.
    int64_t selected_bytes = 0;
  };

  explicit Materializer(const Augmenter* augmenter) : augmenter_(augmenter) {}

  /// Chooses the artifact set to keep materialized. `storable` contains
  /// the canonical names of artifacts whose payloads are currently
  /// available (just produced or already stored) — only those can be
  /// newly materialized.
  Decision Decide(const History& history,
                  const std::set<std::string>& storable,
                  const Options& options) const;

  /// Applies a decision: updates the history's load edges and moves
  /// payloads in/out of the artifact store. Policy-independent (static):
  /// baseline methods apply their own decisions through it too.
  ///
  /// Failure-atomic: new artifacts are stored *before* anything is
  /// evicted, and a failed Put rolls the already-stored ones back, so an
  /// error leaves history and store exactly as they were (at the price
  /// of transiently holding old + new bytes during the store phase).
  static Status Apply(History& history, storage::ArtifactStore& store,
                      const Decision& decision,
                      const std::map<std::string, ArtifactPayload>& available);

  /// The SPF gain of one artifact (exposed for tests and benches).
  /// Computes the cost and depth vectors itself — one O(V + E) pass; use
  /// the precomputed overload when scoring many nodes.
  double Gain(const History& history, NodeId node,
              const Options& options) const;

  /// SPF gain against precomputed recompute-cost / depth vectors, the
  /// same scoring Decide() uses for its candidate sweep.
  double Gain(const History& history, NodeId node, const Options& options,
              const std::vector<double>& recompute_costs,
              const std::vector<double>& depths) const;

  /// Per-node inputs of the SPF gain, indexed by NodeId.
  struct Costs {
    /// The paper's cost(v): RecomputeCosts().
    std::vector<double> recompute;
    /// Average derivation depth from the source (plan locality):
    /// AverageDepthFromSource().
    std::vector<double> depth;
  };

  /// \brief The cost pass behind Decide(): one walk over the live history
  /// edges in id order fills flat arrays (tails without the source, heads,
  /// an is-load flag and the edge seconds), and the depth, `obtain` and
  /// `recompute` vectors are computed from those arrays alone.
  ///
  /// Every vector must stay bitwise equal to the per-edge oracle in
  /// tests/materializer_differential_test.cc; docs/HISTORY.md,
  /// "Materialization decision".
  Costs ComputeCosts(const History& history) const;

  /// \brief The paper's cost(v) estimate: seconds to *re-compute* each
  /// history artifact if it were evicted, where inputs may be obtained as
  /// cheaply as the current materialization allows.
  ///
  /// obtain(v) is the cheapest sum-over-tails derivation through any live
  /// edge, load edges included: Bellman-Ford passes in edge-id order
  /// (improvements below 1e-15 ignored, at most V + 2 passes). recompute(v)
  /// takes the same minimum over v's compute edges only (its own load edge
  /// excluded), with tails at their `obtain` cost. Unreachable nodes get
  /// +infinity. The `recompute` vector of ComputeCosts().
  ///
  /// Public because baseline materialization policies (Collab's
  /// experiment-graph utility) score recreation cost the same way.
  std::vector<double> RecomputeCosts(const History& history) const;

 private:
  const Augmenter* augmenter_;
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_MATERIALIZER_H_
