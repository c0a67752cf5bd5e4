#include "ml/ops/tree_builder.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace hyppo::ml {

namespace {

// Impurity proxy that is maximized by a split: for regression this is the
// standard variance-reduction surrogate sum^2/count; for binary
// classification with mean-encoded labels gini reduction reduces to the
// same expression on label sums, so one scorer serves both.
double Score(double sum, double count) {
  return count > 0.0 ? sum * sum / count : 0.0;
}

struct SplitDecision {
  int32_t feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

struct SortKey {
  double value;
  double target;
  uint32_t id;
};

struct BuildContext {
  const Dataset* data = nullptr;
  const std::vector<double>* targets = nullptr;
  TreeOptions options;
  std::vector<int64_t> feature_pool;
  Rng rng{1};
  // Histogram mode: per-feature bin edges (size max_bins - 1 interior
  // boundaries) computed once per build.
  std::vector<std::vector<double>> bin_edges;
  // Exact mode: feature f's list of row ids is sorted[f * root_size,
  // (f + 1) * root_size), and each node owns the same [begin, end) segment
  // of every list. A node sorts its segment of f by (value, target) only
  // if no ancestor has; a split stable-partitions the sorted segments by
  // goes_left (indexed by row), so descendants never sort f again.
  size_t root_size = 0;
  std::vector<uint32_t> sorted;
  std::vector<uint8_t> goes_left;
  std::vector<uint32_t> spill;
  std::vector<SortKey> keys;  // one segment's sort buffer
  FlatTree tree;
};

// Total order for the segment sort: numbers ascending, NaN after every
// number.
bool KeyLess(double a, double b) {
  return a < b || (std::isnan(b) && !std::isnan(a));
}

// Fills a node's segment of feature f's list with the node's rows sorted
// by (value, target) under KeyLess. Rows with equal keys are
// interchangeable, so the segment, and every part a later split partitions
// off it, holds the pair sequence a per-node std::sort would produce.
void SortSegment(BuildContext& ctx, int64_t f,
                 const std::vector<int64_t>& rows, uint32_t* ids) {
  const double* col = ctx.data->col_data(f);
  const double* targets = ctx.targets->data();
  SortKey* keys = ctx.keys.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto row = static_cast<size_t>(rows[i]);
    keys[i] = {col[row], targets[row], static_cast<uint32_t>(row)};
  }
  std::sort(keys, keys + rows.size(), [](const SortKey& a, const SortKey& b) {
    if (KeyLess(a.value, b.value)) {
      return true;
    }
    return !KeyLess(b.value, a.value) && KeyLess(a.target, b.target);
  });
  for (size_t i = 0; i < rows.size(); ++i) {
    ids[i] = keys[i].id;
  }
}

// Stable-partitions a split node's segment of every sorted feature
// (sorted_here[f] != 0) into the left child's rows, then the right
// child's; sorted order holds within each side.
void PartitionSegments(BuildContext& ctx, size_t begin,
                       const std::vector<int64_t>& left_rows,
                       const std::vector<int64_t>& right_rows,
                       const std::vector<uint8_t>& sorted_here) {
  for (int64_t row : left_rows) {
    ctx.goes_left[static_cast<size_t>(row)] = 1;
  }
  for (int64_t row : right_rows) {
    ctx.goes_left[static_cast<size_t>(row)] = 0;
  }
  const size_t end = begin + left_rows.size() + right_rows.size();
  const int64_t d = ctx.data->cols();
  for (int64_t f = 0; f < d; ++f) {
    if (sorted_here[static_cast<size_t>(f)] == 0) {
      continue;
    }
    uint32_t* ids = ctx.sorted.data() + static_cast<size_t>(f) * ctx.root_size;
    size_t left = begin;
    size_t right = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t id = ids[i];
      if (ctx.goes_left[id] != 0) {
        ids[left++] = id;
      } else {
        ctx.spill[right++] = id;
      }
    }
    std::copy(ctx.spill.data(), ctx.spill.data() + right, ids + left);
  }
}

// Chooses the candidate features for one node split.
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

// Exact split finding: walk each candidate feature's sorted segment of
// (value, target) pairs, sorting it first if no ancestor has, and scan
// boundaries between distinct values. A boundary whose next value is NaN
// is never proposed, so NaN rows (sorted last) always fall to the right
// child, as in FlatTree::Predict.
SplitDecision FindExactSplit(BuildContext& ctx,
                             const std::vector<int64_t>& rows, size_t begin,
                             const std::vector<int64_t>& features,
                             std::vector<uint8_t>& sorted_here,
                             double total_sum) {
  SplitDecision best;
  const size_t end = begin + rows.size();
  const double n = static_cast<double>(rows.size());
  const double base = Score(total_sum, n);
  const double* targets = ctx.targets->data();
  for (int64_t f : features) {
    const double* col = ctx.data->col_data(f);
    uint32_t* ids =
        ctx.sorted.data() + static_cast<size_t>(f) * ctx.root_size + begin;
    if (sorted_here[static_cast<size_t>(f)] == 0) {
      SortSegment(ctx, f, rows, ids);
      sorted_here[static_cast<size_t>(f)] = 1;
    }
    double left_sum = 0.0;
    for (size_t i = 0; i + 1 < end - begin; ++i) {
      const double value = col[ids[i]];
      const double next = col[ids[i + 1]];
      left_sum += targets[ids[i]];
      if (value == next) {
        continue;
      }
      if (std::isnan(next)) {
        break;
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
        best.threshold = 0.5 * (value + next);
      }
    }
  }
  return best;
}

// Histogram split finding: accumulate per-bin count/sum and scan bin
// boundaries. Thresholds are bin edges.
SplitDecision FindHistogramSplit(BuildContext& ctx,
                                 const std::vector<int64_t>& rows,
                                 const std::vector<int64_t>& features,
                                 double total_sum) {
  SplitDecision best;
  const double n = static_cast<double>(rows.size());
  const double base = Score(total_sum, n);
  const int32_t bins = ctx.options.max_bins;
  std::vector<double> bin_sum(static_cast<size_t>(bins));
  std::vector<double> bin_count(static_cast<size_t>(bins));
  for (int64_t f : features) {
    const std::vector<double>& edges = ctx.bin_edges[static_cast<size_t>(f)];
    if (edges.empty()) {
      continue;  // constant feature
    }
    std::fill(bin_sum.begin(), bin_sum.end(), 0.0);
    std::fill(bin_count.begin(), bin_count.end(), 0.0);
    const double* col = ctx.data->col_data(f);
    for (int64_t row : rows) {
      const double v = col[row];
      const size_t bin = static_cast<size_t>(
          std::upper_bound(edges.begin(), edges.end(), v) - edges.begin());
      bin_sum[bin] += (*ctx.targets)[static_cast<size_t>(row)];
      bin_count[bin] += 1.0;
    }
    double left_sum = 0.0;
    double left_n = 0.0;
    for (size_t b = 0; b + 1 < static_cast<size_t>(bins); ++b) {
      left_sum += bin_sum[b];
      left_n += bin_count[b];
      const double right_n = n - left_n;
      if (left_n < static_cast<double>(ctx.options.min_samples_leaf) ||
          right_n < static_cast<double>(ctx.options.min_samples_leaf)) {
        continue;
      }
      if (bin_count[b] == 0.0) {
        continue;
      }
      const double gain =
          Score(left_sum, left_n) + Score(total_sum - left_sum, right_n) -
          base;
      if (gain > best.gain + 1e-12 && b < edges.size()) {
        best.gain = gain;
        best.feature = static_cast<int32_t>(f);
        best.threshold = edges[b];
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

// `rows` are the node's rows in their original order, which fixes the
// summation order of the node sum; in exact mode the node also owns
// [begin, begin + rows.size()) of every feature's list, sorted where
// sorted_here is set.
int32_t BuildNode(BuildContext& ctx, std::vector<int64_t>& rows, size_t begin,
                  std::vector<uint8_t> sorted_here, int32_t depth) {
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
  const SplitDecision split =
      ctx.options.histogram ? FindHistogramSplit(ctx, rows, features, sum)
                            : FindExactSplit(ctx, rows, begin, features,
                                             sorted_here, sum);
  if (split.feature < 0) {
    return AddLeaf(ctx, mean);
  }
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
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
  // Children at max_depth become leaves and never read their segments.
  if (!ctx.options.histogram && depth + 1 < ctx.options.max_depth) {
    PartitionSegments(ctx, begin, left_rows, right_rows, sorted_here);
  }
  const size_t right_begin = begin + left_rows.size();
  rows.clear();
  rows.shrink_to_fit();
  const int32_t id = static_cast<int32_t>(ctx.tree.feature.size());
  ctx.tree.feature.push_back(split.feature);
  ctx.tree.threshold.push_back(split.threshold);
  ctx.tree.left.push_back(-1);
  ctx.tree.right.push_back(-1);
  ctx.tree.value.push_back(mean);
  const int32_t left_id =
      BuildNode(ctx, left_rows, begin, sorted_here, depth + 1);
  const int32_t right_id = BuildNode(ctx, right_rows, right_begin,
                                     std::move(sorted_here), depth + 1);
  ctx.tree.left[static_cast<size_t>(id)] = left_id;
  ctx.tree.right[static_cast<size_t>(id)] = right_id;
  return id;
}

std::vector<std::vector<double>> ComputeBinEdges(const Dataset& data,
                                                 int32_t max_bins) {
  std::vector<std::vector<double>> edges(static_cast<size_t>(data.cols()));
  for (int64_t c = 0; c < data.cols(); ++c) {
    const double* col = data.col_data(c);
    double mn = col[0];
    double mx = col[0];
    for (int64_t r = 1; r < data.rows(); ++r) {
      mn = std::min(mn, col[r]);
      mx = std::max(mx, col[r]);
    }
    if (!(mx > mn)) {
      continue;  // constant or NaN column: no usable edges
    }
    auto& e = edges[static_cast<size_t>(c)];
    e.reserve(static_cast<size_t>(max_bins - 1));
    for (int32_t b = 1; b < max_bins; ++b) {
      e.push_back(mn + (mx - mn) * static_cast<double>(b) /
                           static_cast<double>(max_bins));
    }
  }
  return edges;
}

}  // namespace

Result<FlatTree> BuildTree(const Dataset& data,
                           const std::vector<double>& targets,
                           const std::vector<int64_t>& rows,
                           const TreeOptions& options) {
  if (static_cast<int64_t>(targets.size()) != data.rows()) {
    return Status::InvalidArgument("BuildTree: targets size mismatch");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("BuildTree: no rows");
  }
  // Exact mode stores row ids as uint32_t and indexes goes_left by them.
  if (data.rows() > static_cast<int64_t>(UINT32_MAX)) {
    return Status::InvalidArgument("BuildTree: more than 2^32-1 rows");
  }
  for (int64_t row : rows) {
    if (row < 0 || row >= data.rows()) {
      return Status::InvalidArgument("BuildTree: row id out of range");
    }
  }
  BuildContext ctx;
  ctx.data = &data;
  ctx.targets = &targets;
  ctx.options = options;
  ctx.rng.Seed(options.seed);
  ctx.feature_pool.resize(static_cast<size_t>(data.cols()));
  std::iota(ctx.feature_pool.begin(), ctx.feature_pool.end(), 0);
  std::vector<uint8_t> sorted_here;
  if (options.histogram) {
    ctx.bin_edges = ComputeBinEdges(data, options.max_bins);
  } else {
    ctx.root_size = rows.size();
    ctx.sorted.resize(rows.size() * static_cast<size_t>(data.cols()));
    ctx.goes_left.assign(static_cast<size_t>(data.rows()), 0);
    ctx.spill.resize(rows.size());
    ctx.keys.resize(rows.size());
    sorted_here.assign(static_cast<size_t>(data.cols()), 0);
  }
  std::vector<int64_t> root_rows = rows;
  BuildNode(ctx, root_rows, 0, std::move(sorted_here), 0);
  return std::move(ctx.tree);
}

void AccumulateTreePredictions(const FlatTree& tree, const Dataset& data,
                               double weight, std::vector<double>& out) {
  std::vector<double> row(static_cast<size_t>(data.cols()));
  for (int64_t r = 0; r < data.rows(); ++r) {
    data.CopyRow(r, row.data());
    out[static_cast<size_t>(r)] += weight * tree.Predict(row.data());
  }
}

}  // namespace hyppo::ml
