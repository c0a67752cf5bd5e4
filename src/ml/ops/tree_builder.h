#ifndef HYPPO_ML_OPS_TREE_BUILDER_H_
#define HYPPO_ML_OPS_TREE_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "ml/op_state.h"

namespace hyppo::ml {

/// \brief Options controlling decision tree induction.
struct TreeOptions {
  int32_t max_depth = 6;
  int64_t min_samples_leaf = 5;
  int64_t min_samples_split = 10;
  /// Number of features considered per split; 0 means all. Forests set
  /// this for feature subsampling.
  int64_t max_features = 0;
  /// Split finding strategy: exact scans every boundary between distinct
  /// feature values (scikit-learn-style), sorting a feature at the first
  /// node on each path that considers it and partitioning the sorted lists
  /// at each split; histogram bins features globally and scans bins
  /// (LightGBM-style). The two strategies
  /// yield statistically equivalent but not bitwise-identical trees.
  bool histogram = false;
  int32_t max_bins = 64;
  /// Classification uses gini impurity over binary labels; regression uses
  /// variance reduction. Leaves predict the mean target (for classifiers,
  /// the positive-class fraction).
  bool classifier = false;
  /// Seed for feature subsampling.
  uint64_t seed = 1;
};

/// \brief Builds one decision tree on `rows` (indices into `data`, repeats
/// allowed) against `targets` (size data.rows(); typically data.target() or
/// residuals). Returns InvalidArgument for a row id outside
/// [0, data.rows()) or a dataset of more than 2^32-1 rows. A NaN feature
/// value never becomes a threshold: NaN rows go to the right child.
Result<FlatTree> BuildTree(const Dataset& data,
                           const std::vector<double>& targets,
                           const std::vector<int64_t>& rows,
                           const TreeOptions& options);

/// Predicts with one tree for all rows of `data`, adding
/// `weight * prediction` into `out` (size data.rows()).
void AccumulateTreePredictions(const FlatTree& tree, const Dataset& data,
                               double weight, std::vector<double>& out);

}  // namespace hyppo::ml

#endif  // HYPPO_ML_OPS_TREE_BUILDER_H_
