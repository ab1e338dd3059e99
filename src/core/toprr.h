// TopRR -- the Top-Ranking Region problem (paper Definition 1).
//
// Given a dataset D, an integer k and a preference region wR, compute the
// maximal region oR in option space such that a new option placed anywhere
// in oR ranks among the top-k of D for *every* weight vector in wR.
//
// Three algorithms are provided:
//  * PAC  -- the partition-and-convert baseline (Sec. 3.4) built on a
//            UTK-style partitioner [30];
//  * TAS  -- test-and-split (Sec. 4);
//  * TAS* -- optimized test-and-split (Sec. 5): consistent top-lambda
//            pruning (Lemma 5), optimized region testing (Lemma 7), and
//            k-switch splitting hyperplanes (Definition 4).
//
// All three return the same region; they differ (greatly) in running time.
#ifndef TOPRR_CORE_TOPRR_H_
#define TOPRR_CORE_TOPRR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/scheduler_stats.h"
#include "core/partition.h"
#include "data/dataset.h"
#include "geom/hyperplane.h"
#include "geom/vec.h"
#include "pref/flat_region.h"
#include "pref/pref_space.h"
#include "pref/region.h"

namespace toprr {

enum class ToprrMethod {
  kPac,      // partition-and-convert baseline (Sec. 3.4)
  kTas,      // test-and-split (Sec. 4)
  kTasStar,  // optimized test-and-split (Sec. 5)
};

const char* ToprrMethodName(ToprrMethod method);

struct ToprrOptions {
  ToprrMethod method = ToprrMethod::kTasStar;

  // Individual optimization toggles (meaningful for kTasStar; used by the
  // ablation benchmarks of Sec. 6.5). kTas forces all three off; kTasStar
  // defaults enable all three.
  bool use_lemma5 = true;   // consistent top-lambda pruning (Sec. 5.1)
  bool use_lemma7 = true;   // optimized region testing (Sec. 5.2)
  bool use_kswitch = true;  // k-switch splitting hyperplanes (Sec. 5.3)

  /// Run the r-skyband fast filter before partitioning (Sec. 6.3). Always
  /// recommended; exposed for the Fig. 8 filter study.
  bool use_rskyband_filter = true;

  /// Geometric tolerance for vertex classification and splitting.
  double eps = 1e-10;

  /// Compute the explicit geometry of oR (vertices + irredundant
  /// halfspaces). When false only the halfspace description is produced.
  bool build_geometry = true;

  /// Vertex enumeration is skipped (result.geometry_skipped = true) when
  /// the option space has more than this many dimensions or oR has more
  /// than `geometry_halfspace_limit` constraints: a d-dimensional dual
  /// hull over thousands of points is combinatorially explosive and the
  /// halfspace description is already exact.
  size_t geometry_dim_limit = 6;
  size_t geometry_halfspace_limit = 1024;

  /// Wall-clock budget, counted from the start of partitioning; the
  /// solver aborts (result.timed_out = true) when exceeded. <= 0 means
  /// unlimited.
  double time_budget_seconds = 0.0;

  /// Absolute wall-clock stop time (time_point::max() = none). A solve
  /// that starts at or after it returns at once, and a running one stops
  /// at the scheduler's next per-region poll; either way result.timed_out
  /// is set. The serving front-end sets it from a batch's wire deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Cooperative cancellation: when non-null, the engine checks this flag
  /// before a solve starts and the scheduler polls it once per region;
  /// once it reads true the solve stops with result.timed_out and
  /// result.cancelled both set. The pointee must outlive the solve; the
  /// serving front-end points every query at its shutdown flag.
  const std::atomic<bool>* cancel = nullptr;

  /// Safety bound on the number of processed regions (0 = default bound).
  size_t max_regions = 0;

  /// Worker threads for the partition scheduler: 1 = sequential executor,
  /// 0 = one worker per hardware thread, n > 1 = n workers on the
  /// work-stealing executor, which produces bit-identical results to the
  /// sequential one (see core/scheduler.h).
  int num_threads = 1;

  /// Collect per-worker executor telemetry into
  /// ToprrResult::stats.scheduler (tasks executed/stolen, steal
  /// failures, deque high-water, kernel counters; printed by
  /// `toprr_cli --stats`).
  bool collect_scheduler_stats = true;

  /// Serve box queries through the engine's cross-query region cache
  /// (core/region_cache.h) when one is enabled via
  /// ToprrEngine::EnableRegionCache: a box's first sighting is solved
  /// exactly as with the flag off, a repeat solves and inserts its
  /// canonical (grid-snapped) box, and later queries inside it are served
  /// by clipping the stored cells. Only meaningful on ToprrEngine solves;
  /// the free SolveToprr functions ignore it. A hit is bit-identical to
  /// the admitting miss of its canonical box, and for grid-aligned boxes
  /// to a solve with the flag off (see region_cache_test).
  bool use_region_cache = false;
};

/// Counters and timings describing one solve.
struct ToprrStats {
  size_t candidates_after_filter = 0;  // |D'| after r-skyband
  size_t regions_tested = 0;           // test-and-split invocations
  size_t regions_accepted = 0;         // regions whose vertices joined Vall
  size_t regions_split = 0;
  size_t kipr_accepts = 0;             // accepted via the plain kIPR test
  size_t lemma7_accepts = 0;           // accepted via the optimized test
  size_t lemma5_prunes = 0;            // times Lemma 5 removed options
  size_t vall_raw = 0;                 // vertices accumulated (pre-dedup)
  size_t vall_unique = 0;              // |Vall| after dedup
  double filter_seconds = 0.0;
  double partition_seconds = 0.0;
  double assemble_seconds = 0.0;
  double total_seconds = 0.0;

  /// Partition-executor telemetry (when
  /// ToprrOptions::collect_scheduler_stats): per-worker tasks
  /// executed/stolen, steal failures, deque high-water, and the
  /// partition-phase wall time. The per-worker breakdown depends on
  /// thread timing and is excluded from the determinism guarantee.
  SchedulerStats scheduler;

  std::string DebugString() const;
};

/// The TopRR output: region oR as an intersection of halfspaces (impact
/// halfspaces at Vall plus the option-space box), with optional explicit
/// geometry.
struct ToprrResult {
  /// Impact halfspaces oH(v), v in Vall (deduplicated), in a.x <= b form.
  std::vector<Halfspace> impact_halfspaces;
  /// The [0,1]^d option-space box constraints.
  std::vector<Halfspace> box_halfspaces;
  /// The deduplicated vertex set Vall of Theorem 1, in reduced preference
  /// coordinates (one impact halfspace per entry before dedup).
  std::vector<Vec> vall;
  /// Vertices of oR (when options.build_geometry and oR has interior).
  std::vector<Vec> vertices;
  /// Irredundant constraints: indices into impact_halfspaces that support
  /// oR's boundary (when geometry was built).
  std::vector<size_t> supporting_halfspaces;
  /// True when oR has empty interior (e.g. an existing option already
  /// scores 1.0 somewhere in wR); the halfspace description remains valid.
  bool degenerate = false;
  /// True when vertex enumeration was skipped because the instance
  /// exceeded the geometry limits (see ToprrOptions); the halfspace
  /// description remains exact.
  bool geometry_skipped = false;
  /// True when the time/region budget was exhausted; the result is then
  /// incomplete and must not be used.
  bool timed_out = false;
  /// True when the solve was aborted through ToprrOptions::cancel (also
  /// sets timed_out: the result is equally unusable). Lets callers tell
  /// shutdown apart from a genuine budget expiry.
  bool cancelled = false;

  /// The 64-bit content id of the DatasetSnapshot this result was solved
  /// against (ToprrEngine solves only; 0 from the free SolveToprr
  /// functions). A writer publishing mid-batch changes ids for later
  /// solves but never this one: each solve pins its snapshot.
  uint64_t snapshot_id = 0;
  /// The pinned snapshot's monotone publish sequence number (1 for a
  /// root; 0 from the free SolveToprr functions). Content ids have no
  /// order, so read-your-writes assertions compare this instead.
  uint64_t snapshot_seq = 0;

  ToprrStats stats;

  /// True if placing a new option at `o` makes it a top-ranking option.
  bool Contains(const Vec& o, double tol = 1e-9) const;

  /// All constraints (impact + box) concatenated.
  std::vector<Halfspace> AllHalfspaces() const;
};

/// Solves TopRR(D, k, wR). The preference box must have dimension
/// data.dim() - 1 and lie inside the preference simplex.
ToprrResult SolveToprr(const DatasetView& data, int k, const PrefBox& region,
                       const ToprrOptions& options = {});

/// General form: wR is an arbitrary convex polytope in reduced preference
/// coordinates (paper Sec. 3.1 requires only convexity). The r-skyband
/// filter generalizes via vertex-based r-dominance (Lemma 1).
ToprrResult SolveToprrRegion(const DatasetView& data, int k,
                             const PrefRegion& region,
                             const ToprrOptions& options = {});

/// Advanced: solve with a caller-supplied candidate superset (must contain
/// the top-k of every w in the region, e.g. a cached k-skyband or the
/// r-skyband). Skips the built-in filter; used by ToprrEngine. When
/// `flat_cells` is non-null the accepted partition cells are moved into
/// it in heap-path-id order (the region cache's entry payload); the solve
/// itself is unaffected.
ToprrResult SolveToprrWithCandidates(const DatasetView& data, int k,
                                     const FlatRegion& region,
                                     const std::vector<int>& candidates,
                                     const ToprrOptions& options = {},
                                     std::vector<FlatCell>* flat_cells =
                                         nullptr);

/// Non-convex wR support (paper Sec. 3.1): the target region is the union
/// of convex pieces; a top-ranking option must be top-k on every piece, so
/// the result is the intersection of the per-piece regions. Returns the
/// merged result (deduplicated impact halfspaces; geometry rebuilt).
ToprrResult SolveToprrPieces(const DatasetView& data, int k,
                             const std::vector<PrefRegion>& pieces,
                             const ToprrOptions& options = {});

}  // namespace toprr

#endif  // TOPRR_CORE_TOPRR_H_
