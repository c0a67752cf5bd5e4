// Differential tests for exact decision-tree induction. BuildTree sorts
// each feature at most once per root-to-leaf path and partitions the
// sorted lists at each split; the oracle below is the per-node-sort
// builder it replaced. The two must produce byte-identical trees.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/ops/tree_builder.h"

namespace hyppo::ml {
namespace {

// ---------------------------------------------------------------------------
// Oracle: exact split finding that gathers (value, target) pairs and sorts
// them at every node. Defined only for NaN-free features and targets.
namespace oracle {

double Score(double sum, double count) {
  return count > 0.0 ? sum * sum / count : 0.0;
}

struct SplitDecision {
  int32_t feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

struct BuildContext {
  const Dataset* data = nullptr;
  const std::vector<double>* targets = nullptr;
  TreeOptions options;
  std::vector<int64_t> feature_pool;
  Rng rng{1};
  FlatTree tree;
};

std::vector<int64_t> SampleFeatures(BuildContext& ctx) {
  const int64_t d = ctx.data->cols();
  const int64_t k = ctx.options.max_features > 0
                        ? std::min(ctx.options.max_features, d)
                        : d;
  if (k == d) {
    return ctx.feature_pool;
  }
  std::vector<int64_t> pool = ctx.feature_pool;
  ctx.rng.Shuffle(pool);
  pool.resize(static_cast<size_t>(k));
  std::sort(pool.begin(), pool.end());
  return pool;
}

SplitDecision FindExactSplit(BuildContext& ctx,
                             const std::vector<int64_t>& rows,
                             const std::vector<int64_t>& features,
                             double total_sum) {
  SplitDecision best;
  const double n = static_cast<double>(rows.size());
  const double base = Score(total_sum, n);
  std::vector<std::pair<double, double>> pairs(rows.size());
  for (int64_t f : features) {
    const double* col = ctx.data->col_data(f);
    for (size_t i = 0; i < rows.size(); ++i) {
      pairs[i] = {col[rows[i]], (*ctx.targets)[static_cast<size_t>(rows[i])]};
    }
    std::sort(pairs.begin(), pairs.end());
    double left_sum = 0.0;
    for (size_t i = 0; i + 1 < pairs.size(); ++i) {
      left_sum += pairs[i].second;
      if (pairs[i].first == pairs[i + 1].first) {
        continue;
      }
      const double left_n = static_cast<double>(i + 1);
      const double right_n = n - left_n;
      if (left_n < static_cast<double>(ctx.options.min_samples_leaf) ||
          right_n < static_cast<double>(ctx.options.min_samples_leaf)) {
        continue;
      }
      const double gain =
          Score(left_sum, left_n) + Score(total_sum - left_sum, right_n) -
          base;
      if (gain > best.gain + 1e-12) {
        best.gain = gain;
        best.feature = static_cast<int32_t>(f);
        best.threshold = 0.5 * (pairs[i].first + pairs[i + 1].first);
      }
    }
  }
  return best;
}

int32_t AddLeaf(BuildContext& ctx, double value) {
  const int32_t id = static_cast<int32_t>(ctx.tree.feature.size());
  ctx.tree.feature.push_back(-1);
  ctx.tree.threshold.push_back(0.0);
  ctx.tree.left.push_back(-1);
  ctx.tree.right.push_back(-1);
  ctx.tree.value.push_back(value);
  return id;
}

int32_t BuildNode(BuildContext& ctx, std::vector<int64_t>& rows,
                  int32_t depth) {
  double sum = 0.0;
  for (int64_t row : rows) {
    sum += (*ctx.targets)[static_cast<size_t>(row)];
  }
  const double mean = rows.empty()
                          ? 0.0
                          : sum / static_cast<double>(rows.size());
  if (depth >= ctx.options.max_depth ||
      static_cast<int64_t>(rows.size()) < ctx.options.min_samples_split) {
    return AddLeaf(ctx, mean);
  }
  const std::vector<int64_t> features = SampleFeatures(ctx);
  const SplitDecision split = FindExactSplit(ctx, rows, features, sum);
  if (split.feature < 0) {
    return AddLeaf(ctx, mean);
  }
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  const double* col = ctx.data->col_data(split.feature);
  for (int64_t row : rows) {
    if (col[row] <= split.threshold) {
      left_rows.push_back(row);
    } else {
      right_rows.push_back(row);
    }
  }
  if (left_rows.empty() || right_rows.empty()) {
    return AddLeaf(ctx, mean);
  }
  const int32_t id = static_cast<int32_t>(ctx.tree.feature.size());
  ctx.tree.feature.push_back(split.feature);
  ctx.tree.threshold.push_back(split.threshold);
  ctx.tree.left.push_back(-1);
  ctx.tree.right.push_back(-1);
  ctx.tree.value.push_back(mean);
  const int32_t left_id = BuildNode(ctx, left_rows, depth + 1);
  const int32_t right_id = BuildNode(ctx, right_rows, depth + 1);
  ctx.tree.left[static_cast<size_t>(id)] = left_id;
  ctx.tree.right[static_cast<size_t>(id)] = right_id;
  return id;
}

FlatTree BuildTree(const Dataset& data, const std::vector<double>& targets,
                   const std::vector<int64_t>& rows,
                   const TreeOptions& options) {
  BuildContext ctx;
  ctx.data = &data;
  ctx.targets = &targets;
  ctx.options = options;
  ctx.rng.Seed(options.seed);
  ctx.feature_pool.resize(static_cast<size_t>(data.cols()));
  std::iota(ctx.feature_pool.begin(), ctx.feature_pool.end(), 0);
  std::vector<int64_t> root_rows = rows;
  BuildNode(ctx, root_rows, 0);
  return std::move(ctx.tree);
}

}  // namespace oracle
// ---------------------------------------------------------------------------

void ExpectBitwiseEqual(const FlatTree& got, const FlatTree& want) {
  ASSERT_EQ(got.feature, want.feature);
  ASSERT_EQ(got.left, want.left);
  ASSERT_EQ(got.right, want.right);
  ASSERT_EQ(got.threshold.size(), want.threshold.size());
  ASSERT_EQ(got.value.size(), want.value.size());
  ASSERT_FALSE(got.feature.empty());
  EXPECT_EQ(0, std::memcmp(got.threshold.data(), want.threshold.data(),
                           got.threshold.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(got.value.data(), want.value.data(),
                           got.value.size() * sizeof(double)));
}

// Columns: 0 continuous; 1 integers 0..4 (heavy ties); 2 signed zeros and
// ones; 3 constant; 4 continuous rounded to halves; 5 continuous. The
// target is a binary label (classifier) or a noisy continuous response.
Dataset TieHeavyData(int64_t rows, uint64_t seed, bool classifier) {
  Rng rng(seed);
  Dataset data(rows, 6);
  std::vector<double> target(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const double x0 = rng.Gaussian();
    const double x1 = static_cast<double>(rng.UniformInt(0, 4));
    const int64_t z = rng.UniformInt(0, 2);
    const double x2 = z == 0 ? -0.0 : (z == 1 ? 0.0 : 1.0);
    const double x4 = std::round(2.0 * rng.Gaussian(0.0, 2.0)) / 2.0;
    const double x5 = rng.Gaussian(1.0, 3.0);
    data.at(r, 0) = x0;
    data.at(r, 1) = x1;
    data.at(r, 2) = x2;
    data.at(r, 3) = 7.0;
    data.at(r, 4) = x4;
    data.at(r, 5) = x5;
    const double signal = x0 + 0.6 * x1 - 0.8 * x2 + 0.3 * x4 - 0.2 * x5 +
                          rng.Gaussian(0.0, 0.7);
    target[static_cast<size_t>(r)] =
        classifier ? (signal > 1.0 ? 1.0 : 0.0) : signal;
  }
  data.set_target(std::move(target));
  return data;
}

std::vector<int64_t> AllRows(const Dataset& data) {
  std::vector<int64_t> rows(static_cast<size_t>(data.rows()));
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

std::vector<int64_t> Bootstrap(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> rows(static_cast<size_t>(data.rows()));
  for (int64_t& row : rows) {
    row = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(data.rows())));
  }
  return rows;
}

void ExpectMatchesOracle(const Dataset& data,
                         const std::vector<double>& targets,
                         const std::vector<int64_t>& rows,
                         const TreeOptions& options) {
  Result<FlatTree> got = BuildTree(data, targets, rows, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const FlatTree want = oracle::BuildTree(data, targets, rows, options);
  ExpectBitwiseEqual(*got, want);
}

TEST(TreeBuilderDifferential, DepthAndLeafSizeGrid) {
  for (bool classifier : {true, false}) {
    const Dataset data = TieHeavyData(700, classifier ? 11 : 12, classifier);
    const std::vector<int64_t> rows = AllRows(data);
    for (int64_t leaf : {1, 5, 64}) {
      for (int32_t depth : {1, 3, 8, 12}) {
        SCOPED_TRACE("classifier=" + std::to_string(classifier) +
                     " leaf=" + std::to_string(leaf) +
                     " depth=" + std::to_string(depth));
        TreeOptions options;
        options.classifier = classifier;
        options.max_depth = depth;
        options.min_samples_leaf = leaf;
        options.min_samples_split = 2 * leaf;
        ExpectMatchesOracle(data, data.target(), rows, options);
      }
    }
  }
}

TEST(TreeBuilderDifferential, BootstrapDuplicateRowIds) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Dataset data = TieHeavyData(500, 20 + seed, seed % 2 == 1);
    TreeOptions options;
    options.classifier = seed % 2 == 1;
    options.max_depth = 8;
    options.min_samples_leaf = 3;
    options.min_samples_split = 6;
    ExpectMatchesOracle(data, data.target(), Bootstrap(data, seed), options);
  }
}

TEST(TreeBuilderDifferential, FeatureSubsamplingAcrossSeeds) {
  const Dataset data = TieHeavyData(600, 31, /*classifier=*/true);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (int64_t k : {1, 2, 3}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " max_features=" + std::to_string(k));
      TreeOptions options;
      options.classifier = true;
      options.max_depth = 8;
      options.min_samples_leaf = 1;
      options.min_samples_split = 2;
      options.max_features = k;
      options.seed = seed;
      ExpectMatchesOracle(data, data.target(), Bootstrap(data, 100 + seed),
                          options);
    }
  }
}

// Few features per node out of many: most features are first sorted below
// the root, at whichever node first samples them, and reused deeper down.
TEST(TreeBuilderDifferential, FeatureSubsamplingOnWideData) {
  for (bool classifier : {true, false}) {
    const Dataset base = TieHeavyData(800, classifier ? 71 : 72, classifier);
    Rng rng(classifier ? 73 : 74);
    Dataset data(base.rows(), 30);
    for (int64_t c = 0; c < data.cols(); ++c) {
      for (int64_t r = 0; r < data.rows(); ++r) {
        const double v = base.at(r, c % base.cols());
        data.at(r, c) =
            c < base.cols()
                ? v
                : v + static_cast<double>(rng.UniformInt(0, 2));
      }
    }
    data.set_target(base.target());
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (int64_t k : {2, 5, 10}) {
        SCOPED_TRACE("classifier=" + std::to_string(classifier) +
                     " seed=" + std::to_string(seed) +
                     " max_features=" + std::to_string(k));
        TreeOptions options;
        options.classifier = classifier;
        options.max_depth = 12;
        options.min_samples_leaf = 2;
        options.min_samples_split = 4;
        options.max_features = k;
        options.seed = seed;
        ExpectMatchesOracle(data, data.target(), Bootstrap(data, 200 + seed),
                            options);
      }
    }
  }
}

TEST(TreeBuilderDifferential, BoostingResidualTargets) {
  const Dataset data = TieHeavyData(600, 41, /*classifier=*/false);
  const std::vector<int64_t> rows = AllRows(data);
  double mean = 0.0;
  for (double y : data.target()) {
    mean += y;
  }
  mean /= static_cast<double>(data.rows());
  std::vector<double> residual = data.target();
  for (double& r : residual) {
    r -= mean;
  }
  TreeOptions options;
  options.max_depth = 3;
  options.min_samples_leaf = 5;
  options.min_samples_split = 10;
  for (int stage = 0; stage < 8; ++stage) {
    SCOPED_TRACE("stage=" + std::to_string(stage));
    Result<FlatTree> tree = BuildTree(data, residual, rows, options);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ExpectBitwiseEqual(*tree, oracle::BuildTree(data, residual, rows, options));
    std::vector<double> pred(residual.size(), 0.0);
    AccumulateTreePredictions(*tree, data, 1.0, pred);
    for (size_t i = 0; i < residual.size(); ++i) {
      residual[i] -= 0.1 * pred[i];
    }
  }
}

// Column 1 refines column 0's tie groups, so both share boundaries whose
// gains differ only by the rounding of left_sum. With targets near 1e8 that
// rounding decides the winner, so the tree depends on the summation order
// inside each tie group: this catches a presort that drops the target
// tie-break.
TEST(TreeBuilderDifferential, RoundingSensitiveTiesAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const int64_t n = 300;
    Dataset data(n, 2);
    std::vector<double> target(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      const int64_t group = rng.UniformInt(0, 3);
      data.at(r, 0) = static_cast<double>(group);
      data.at(r, 1) = static_cast<double>(group) +
                      0.25 * static_cast<double>(rng.UniformInt(0, 1));
      target[static_cast<size_t>(r)] = (group >= 2 ? 3e8 : 0.0) +
                                       1e7 * rng.Gaussian() +
                                       1e-3 * rng.Gaussian();
    }
    data.set_target(std::move(target));
    TreeOptions options;
    options.max_depth = 3;
    options.min_samples_leaf = 1;
    options.min_samples_split = 2;
    ExpectMatchesOracle(data, data.target(), AllRows(data), options);
  }
}

TEST(TreeBuilderDifferential, ConstantColumnsOnlyGiveALeaf) {
  Dataset data(50, 2);
  std::vector<double> target(50);
  for (int64_t r = 0; r < 50; ++r) {
    data.at(r, 0) = 3.0;
    data.at(r, 1) = -1.0;
    target[static_cast<size_t>(r)] = static_cast<double>(r % 2);
  }
  data.set_target(std::move(target));
  TreeOptions options;
  options.classifier = true;
  Result<FlatTree> tree = BuildTree(data, data.target(), AllRows(data), options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->feature, std::vector<int32_t>({-1}));
  ExpectMatchesOracle(data, data.target(), AllRows(data), options);
}

TEST(TreeBuilderNaN, NaNFeatureFitsDeterministicallyAndRoutesRight) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Dataset data = TieHeavyData(400, 51, /*classifier=*/true);
  for (int64_t r = 0; r < data.rows(); r += 3) {
    data.at(r, 0) = nan;
    data.at(r, 1) = nan;
  }
  for (int64_t r = 0; r < data.rows(); ++r) {
    data.at(r, 5) = nan;  // an all-NaN column offers no split
  }
  TreeOptions options;
  options.classifier = true;
  options.max_depth = 8;
  options.min_samples_leaf = 1;
  options.min_samples_split = 2;
  Result<FlatTree> first = BuildTree(data, data.target(), AllRows(data),
                                     options);
  Result<FlatTree> second = BuildTree(data, data.target(), AllRows(data),
                                      options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectBitwiseEqual(*first, *second);
  bool split_on_nan_column = false;
  for (size_t i = 0; i < first->feature.size(); ++i) {
    if (first->feature[i] < 0) {
      continue;
    }
    EXPECT_FALSE(std::isnan(first->threshold[i]));
    EXPECT_NE(first->feature[i], 5);
    split_on_nan_column |= first->feature[i] <= 1;
  }
  EXPECT_TRUE(split_on_nan_column);

  // A NaN-only remainder is never split off: with every non-NaN value
  // equal, the only boundary is number|NaN, so the root stays a leaf.
  Dataset mixed(40, 1);
  std::vector<double> target(40);
  for (int64_t r = 0; r < 40; ++r) {
    mixed.at(r, 0) = r < 20 ? 1.0 : nan;
    target[static_cast<size_t>(r)] = r < 20 ? 0.0 : 1.0;
  }
  mixed.set_target(std::move(target));
  Result<FlatTree> leaf = BuildTree(mixed, mixed.target(), AllRows(mixed),
                                    options);
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(leaf->feature, std::vector<int32_t>({-1}));
}

TEST(TreeBuilderNaN, NaNRowsFollowPredictRouting) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Dataset data(60, 1);
  std::vector<double> target(60);
  for (int64_t r = 0; r < 60; ++r) {
    // 0..19 -> 0.0 (target 0), 20..39 -> 5.0 (target 1), 40..59 -> NaN
    // (target 1): the only valid split puts NaN rows with the 5.0 rows.
    data.at(r, 0) = r < 20 ? 0.0 : (r < 40 ? 5.0 : nan);
    target[static_cast<size_t>(r)] = r < 20 ? 0.0 : 1.0;
  }
  data.set_target(std::move(target));
  TreeOptions options;
  options.classifier = true;
  options.max_depth = 4;
  options.min_samples_leaf = 1;
  options.min_samples_split = 2;
  Result<FlatTree> tree = BuildTree(data, data.target(), AllRows(data),
                                    options);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->feature.size(), 3u);
  EXPECT_EQ(tree->threshold[0], 2.5);
  const double probe = nan;
  EXPECT_EQ(tree->Predict(&probe), 1.0);
}

TEST(TreeBuilderValidation, RejectsOutOfRangeRowIds) {
  const Dataset data = TieHeavyData(30, 61, /*classifier=*/true);
  TreeOptions options;
  for (bool histogram : {false, true}) {
    options.histogram = histogram;
    for (int64_t bad : {int64_t{-1}, data.rows(), data.rows() + 100}) {
      std::vector<int64_t> rows = AllRows(data);
      rows[5] = bad;
      Result<FlatTree> tree = BuildTree(data, data.target(), rows, options);
      ASSERT_FALSE(tree.ok());
      EXPECT_TRUE(tree.status().IsInvalidArgument())
          << tree.status().ToString();
    }
  }
}

}  // namespace
}  // namespace hyppo::ml
