#ifndef HYPPO_ML_KERNELS_KERNELS_H_
#define HYPPO_ML_KERNELS_KERNELS_H_

#include <cstdint>

namespace hyppo::ml::kernels {

/// \brief High-performance compute kernels backing the physical operators.
///
/// Three explicit tiers plus a dispatcher, all producing deterministic
/// results:
///
///  - `ref::*`     scalar reference implementations — the semantic ground
///                 truth the property tests and benches compare against.
///  - `blocked::*` cache-blocked, vectorization-friendly implementations.
///                 Inner loops are written so the compiler can SIMD-ize
///                 them without -ffast-math (independent output lanes, or
///                 manually unrolled accumulator banks for reductions).
///  - `simd::*`    explicitly vectorized implementations built on
///                 AVX2/FMA intrinsics behind a feature macro, and a
///                 scalar lane-banked fallback everywhere else. The one
///                 translation unit (kernel_simd.cc) is compiled with the
///                 ISA flags selected by the HYPPO_SIMD_ISA CMake cache
///                 variable; nothing else in the library carries ISA
///                 flags.
///  - dispatch     the unqualified functions below select the tier per
///                 call: problem-shape threshold first (tiny problems run
///                 the scalar reference), then the cached CPU-feature
///                 probe / HYPPO_SIMD override (simd tier when eligible,
///                 blocked otherwise), and finally a parallel split of
///                 the chosen tier across the shared kernel thread pool
///                 when the active KernelOptions allow it.
///
/// Determinism contract (per tier): for a given shape, each tier fixes
/// the floating-point accumulation order of every output element, and
/// the parallel path distributes whole output tiles over workers without
/// changing that order. Hence dispatch(1 thread) == dispatch(N threads)
/// bit for bit — HYPPO's equivalence semantics (and the differential /
/// chaos tests, which compare payloads byte-wise across executor
/// parallelism levels) stay intact. Tiers may differ from each other,
/// but only by floating-point association/contraction (bounded by the
/// property tests): `blocked` uses 4-way accumulator banks, `simd` uses
/// a fixed 8-lane bank with a fixed reduction tree, independent of the
/// vector width the build actually uses.
///
/// Nesting policy: kernels never submit work when the calling thread is
/// already a ThreadPool worker (executor-level parallelism wins and the
/// inner kernel runs serially on the chosen tier), so executor-level and
/// kernel-level parallelism compose without oversubscription. See
/// docs/KERNELS.md.

/// Per-call tuning knobs, normally installed by the executor via
/// KernelScope from RuntimeOptions (see Executor::Options::kernel_threads).
struct KernelOptions {
  /// Upper bound on worker threads a single kernel call may use.
  /// <= 1 disables kernel-level parallelism. The bound is also capped by
  /// the shared pool size (hardware concurrency).
  int num_threads = 1;
  /// Per-call simd-tier opt-out: when false, dispatch never selects the
  /// simd tier even if it is enabled process-wide. Tests and benches use
  /// this to pin the blocked tier; operators leave it true. (Selecting a
  /// different tier changes floating-point association, so this is a
  /// deliberate caller choice, exactly like calling blocked:: directly.)
  bool allow_simd = true;
};

/// Options seen by kernel calls on this thread that do not pass explicit
/// options. Defaults to serial (num_threads = 1).
const KernelOptions& CurrentOptions();

/// RAII installer for thread-local KernelOptions; restores the previous
/// options on destruction. The executor wraps operator execution in one
/// of these so op fit/transform code picks up the runtime's parallelism
/// without threading options through every signature.
class KernelScope {
 public:
  explicit KernelScope(const KernelOptions& options);
  ~KernelScope();

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  KernelOptions previous_;
};

// ---------------------------------------------------------------------------
// Scalar reference path. Exported so tests and benches can compare against
// it; operator code should call the dispatching entry points instead.

namespace ref {

/// C = A * B with row-major A (m x k), B (k x n), C (m x n).
void Gemm(const double* a, const double* b, double* c, int64_t m, int64_t k,
          int64_t n);

/// y = M x for row-major M (rows x cols).
void Gemv(const double* m, int64_t rows, int64_t cols, const double* x,
          double* y);

/// out[r] = bias + sum_c w[c] * (cols[c][r] - (shift ? shift[c] : 0)) for a
/// column-major matrix given as `num_cols` column pointers of length
/// `rows` — the dataset-layout GEMV used by linear predict and PCA
/// projection.
void GemvColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* w, double bias,
                 double* out);

/// SYRK-style column Gram matrix: out (row-major d x d, d = num_cols) with
///   out[i][j] = sum_r weight_r * (cols[i][r] - shift_i) * (cols[j][r] - shift_j)
/// where shift defaults to 0 (Gram / normal equations) and weight to 1.
/// With shift = column means this is the (unnormalized) covariance; with
/// weight = p(1-p) it is the logistic-regression Hessian body.
void GramColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* weight, double* out);

/// Squared Euclidean distances between every data row and every center:
/// out[r * k + i] = || x_r - center_i ||^2 with column-major data and
/// row-major centers (k x dims).
void PairwiseSquaredDistances(const double* const* cols, int64_t rows,
                              int64_t dims, const double* centers, int64_t k,
                              double* out);

double Dot(const double* a, const double* b, int64_t n);

}  // namespace ref

// ---------------------------------------------------------------------------
// Blocked path. Deterministic accumulation order per output element,
// independent of how tiles are later distributed over threads.

namespace blocked {

void Gemm(const double* a, const double* b, double* c, int64_t m, int64_t k,
          int64_t n);
void Gemv(const double* m, int64_t rows, int64_t cols, const double* x,
          double* y);
void GemvColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* w, double bias,
                 double* out);
void GramColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* weight, double* out);
void PairwiseSquaredDistances(const double* const* cols, int64_t rows,
                              int64_t dims, const double* centers, int64_t k,
                              double* out);
double Dot(const double* a, const double* b, int64_t n);

/// Tile-range variants used by the parallel driver; [row_begin, row_end)
/// selects the output rows this call produces. Exposed for tests.
void GemmRows(const double* a, const double* b, double* c, int64_t m,
              int64_t k, int64_t n, int64_t row_begin, int64_t row_end);
void GemvRows(const double* m, int64_t rows, int64_t cols, const double* x,
              double* y, int64_t row_begin, int64_t row_end);
void GemvColumnsRows(const double* const* cols, int64_t rows,
                     int64_t num_cols, const double* shift, const double* w,
                     double bias, double* out, int64_t row_begin,
                     int64_t row_end);
void GramColumnsRows(const double* const* cols, int64_t rows,
                     int64_t num_cols, const double* shift,
                     const double* weight, double* out, int64_t i_begin,
                     int64_t i_end);
void PairwiseSquaredDistancesRows(const double* const* cols, int64_t rows,
                                  int64_t dims, const double* centers,
                                  int64_t k, double* out, int64_t row_begin,
                                  int64_t row_end);

}  // namespace blocked

// ---------------------------------------------------------------------------
// SIMD path (kernel_simd.cc — the only TU compiled with ISA flags).
// Deterministic accumulation order per output element, fixed by the tier
// itself and independent of thread count and of the vector backend:
// matrix kernels accumulate in the same ascending-index order as the
// reference (with FMA contraction where the build provides it), and
// reductions use a fixed 8-lane bank reduced by a fixed binary tree
// (((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))) plus a scalar tail.
//
// Safety: when the tier was built for an ISA the running CPU lacks
// (SimdRuntimeSupported() == false), calling into simd:: is undefined
// (illegal instruction). The dispatcher checks; direct callers (tests,
// benches) must gate on SimdRuntimeSupported() themselves.

namespace simd {

void Gemm(const double* a, const double* b, double* c, int64_t m, int64_t k,
          int64_t n);
void Gemv(const double* m, int64_t rows, int64_t cols, const double* x,
          double* y);
void GemvColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* w, double bias,
                 double* out);
void GramColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* weight, double* out);
void PairwiseSquaredDistances(const double* const* cols, int64_t rows,
                              int64_t dims, const double* centers, int64_t k,
                              double* out);
/// Fused distances + argmin. The argmin scan matches the other tiers
/// exactly (ascending centers, strict '<'), so the index output is
/// bitwise identical across tiers; the squared distances carry the simd
/// tier's fma rounding.
void NearestCentroids(const double* const* cols, int64_t rows, int64_t dims,
                      const double* centers, int64_t k, int64_t* index,
                      double* sq);

/// Tile-range variants used by the parallel driver; same partitioning
/// contract as the blocked:: counterparts.
void GemmRows(const double* a, const double* b, double* c, int64_t m,
              int64_t k, int64_t n, int64_t row_begin, int64_t row_end);
void GemvRows(const double* m, int64_t rows, int64_t cols, const double* x,
              double* y, int64_t row_begin, int64_t row_end);
void GemvColumnsRows(const double* const* cols, int64_t rows,
                     int64_t num_cols, const double* shift, const double* w,
                     double bias, double* out, int64_t row_begin,
                     int64_t row_end);
void GramColumnsRows(const double* const* cols, int64_t rows,
                     int64_t num_cols, const double* shift,
                     const double* weight, double* out, int64_t i_begin,
                     int64_t i_end);
void PairwiseSquaredDistancesRows(const double* const* cols, int64_t rows,
                                  int64_t dims, const double* centers,
                                  int64_t k, double* out, int64_t row_begin,
                                  int64_t row_end);
void NearestCentroidsRows(const double* const* cols, int64_t rows,
                          int64_t dims, const double* centers, int64_t k,
                          int64_t* index, double* sq, int64_t row_begin,
                          int64_t row_end);

// Fused vector kernels (serial). The reductions use the 8-lane banked
// order; the elementwise ops (Axpy/ShiftedAxpy/Multiply) perform exactly
// the per-element operation sequence of the reference (mul then add, no
// contraction), so they stay bitwise identical across tiers.
double Dot(const double* a, const double* b, int64_t n);
double ShiftedDot(const double* x, double shift, const double* y, int64_t n);
void Axpy(double alpha, const double* x, double* y, int64_t n);
void ShiftedAxpy(double alpha, const double* x, double shift, double* y,
                 int64_t n);
void Multiply(const double* a, const double* b, double* out, int64_t n);
double Sum(const double* x, int64_t n);
double ShiftedSumSq(const double* x, double shift, int64_t n);
void SumAndSumSq(const double* x, int64_t n, double* sum, double* sum_sq);

/// Name of the backend this build's simd tier vectorizes with:
/// "avx2-intrinsics" or "scalar-banked".
const char* BackendName();

}  // namespace simd

// ---------------------------------------------------------------------------
// SIMD tier configuration: which ISA the tier was compiled for, whether
// the running CPU can execute it, and the HYPPO_SIMD environment
// override. All three are cached; RefreshSimdConfig() re-reads the
// environment for tests that mutate HYPPO_SIMD mid-process.

/// ISA the simd translation unit was compiled for, as selected by the
/// HYPPO_SIMD_ISA CMake cache variable: "avx512", "avx2", or "generic"
/// (no ISA flags beyond the baseline; also the HYPPO_SIMD_ISA=off /
/// non-x86 spelling).
const char* SimdBuildIsa();

/// True when the running CPU supports the ISA the simd tier was built
/// for (cached cpuid probe; trivially true for "generic" builds).
bool SimdRuntimeSupported();

/// True when the dispatcher may select the simd tier: the CPU supports
/// the build ISA and the HYPPO_SIMD override allows it.
///
/// HYPPO_SIMD values: "off" disables the tier; "sse2" / "avx2" /
/// "avx512" cap the ISA the tier may require (the tier is disabled when
/// it was built for a newer ISA than the cap, so HYPPO_SIMD=sse2 on an
/// avx2 build forces the blocked tier); "on" / "native" / unset defer to
/// the cpuid probe. Unrecognized values behave like "on".
bool SimdEnabled();

/// Re-reads HYPPO_SIMD and recomputes SimdEnabled(). Test hook: the
/// env override is otherwise read once per process. Not thread-safe
/// against concurrent kernel dispatch.
void RefreshSimdConfig();

/// Measured GEMM throughput (GFLOP/s) of the dispatch path at the given
/// cube size, timed over a handful of repetitions. The cost-estimation
/// calibration hook (CostEstimator::SetComputeThroughputScale) uses this
/// to make formula-based plan costs track the active kernel tier.
double MeasureGemmGflops(int64_t size = 192,
                         const KernelOptions* opts = nullptr);

/// Blocked-tier GEMM throughput the registered CostHint formulas were
/// tuned against (the ~4 GFLOP/s plateau recorded in
/// bench/BENCH_kernels.json before the simd tier existed). The ratio
/// MeasureGemmGflops()/kCalibrationBaselineGflops is the throughput
/// scale a runtime passes to its cost estimator.
inline constexpr double kCalibrationBaselineGflops = 4.0;

// ---------------------------------------------------------------------------
// Dispatching entry points. `opts` overrides the thread-local
// CurrentOptions() when non-null (benches use this to force a thread
// count); path selection by problem size is independent of `opts`, so a
// given shape always takes the same numeric path for a given simd
// configuration.

void Gemm(const double* a, const double* b, double* c, int64_t m, int64_t k,
          int64_t n, const KernelOptions* opts = nullptr);
void Gemv(const double* m, int64_t rows, int64_t cols, const double* x,
          double* y, const KernelOptions* opts = nullptr);
void GemvColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* w, double bias,
                 double* out, const KernelOptions* opts = nullptr);
void GramColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* weight, double* out,
                 const KernelOptions* opts = nullptr);
void PairwiseSquaredDistances(const double* const* cols, int64_t rows,
                              int64_t dims, const double* centers, int64_t k,
                              double* out,
                              const KernelOptions* opts = nullptr);

/// Nearest center per data row: index[r] = argmin_i out-of-line distance,
/// sq[r] = the minimum squared distance (either output may be null). Ties
/// break toward the lowest index in every tier. Routes to the simd tier's
/// fused distances+argmin when enabled, else the blocked distance tiles.
void NearestCentroids(const double* const* cols, int64_t rows, int64_t dims,
                      const double* centers, int64_t k, int64_t* index,
                      double* sq, const KernelOptions* opts = nullptr);

// --- fused vector kernels (serial; memory-bound) ---

/// Unrolled dot product (4 accumulator banks — vectorizes without
/// -ffast-math).
double Dot(const double* a, const double* b, int64_t n);
/// sum_i (x[i] - shift) * y[i] — the coordinate-descent correlation step.
double ShiftedDot(const double* x, double shift, const double* y, int64_t n);
/// y[i] += alpha * x[i].
void Axpy(double alpha, const double* x, double* y, int64_t n);
/// y[i] += alpha * (x[i] - shift) — fused centered update (residual
/// maintenance in lasso/elastic-net).
void ShiftedAxpy(double alpha, const double* x, double shift, double* y,
                 int64_t n);
/// out[i] = a[i] * b[i] (polynomial feature products).
void Multiply(const double* a, const double* b, double* out, int64_t n);
/// Unrolled sum.
double Sum(const double* x, int64_t n);
/// sum_i (x[i] - shift)^2 — fused centered second moment.
double ShiftedSumSq(const double* x, double shift, int64_t n);
/// Single-pass sum and sum of squares (variance-threshold style).
void SumAndSumSq(const double* x, int64_t n, double* sum, double* sum_sq);

/// True when the calling thread may not fan out kernel work (it is a
/// ThreadPool worker, or the effective thread bound is 1). Exposed for
/// tests of the nesting policy.
bool ParallelismSuppressed(const KernelOptions* opts = nullptr);

}  // namespace hyppo::ml::kernels

#endif  // HYPPO_ML_KERNELS_KERNELS_H_
