// Cache-aware scoring kernel for the partition phase's per-vertex top-k
// scans (the inner loop of TAS/TAS*/PAC; see core/partition.cc).
//
// The naive scan (ComputeTopKReduced, topk/topk.h) scores a region's
// candidate pool one vertex at a time with an indirect data.Row(id)
// gather per candidate and a fresh std::vector<ScoredOption> per vertex.
// This kernel, the partition phase's only scoring path, replaces that
// with:
//
//  * a structure-of-arrays candidate block: the pool's rows are gathered
//    once per region into a dense, 64-byte-aligned dim-major buffer
//    holding the reduced-score operands (p[j] - p[m] per dimension, plus
//    the p[m] base column), so scoring every region vertex is a
//    contiguous column sweep instead of |V| pointer-chasing loops;
//  * a per-worker ScoreArena that owns the block, the score matrix, the
//    selection scratch, and the pooled profile storage, eliminating every
//    per-vertex heap allocation once buffers are warm (growth events are
//    counted, so tests can assert the steady state allocates nothing);
//  * parent-to-child vertex-score memoization: a split hands the
//    surviving candidates' score columns to both children through a
//    VertexScoreCache, so a child vertex inherited from its parent costs
//    a row copy instead of a full rescore (candidates only shrink under
//    Lemma 5, and the child pool at profile time is exactly the parent's
//    post-Lemma-5 pool, so reuse is a masked copy, never a recompute).
//
// Bit-identical contract: for every candidate the kernel accumulates
// partial scores in exactly the order of ReducedScore (base p[m], then
// dimensions 0..m-1), and top-k selection uses the same comparator and
// partial_sort as ComputeTopKReduced over the same pool order. Kernel
// output therefore equals the naive scan bit for bit (asserted by
// score_kernel_test; bench_score_kernel times the naive scan as its
// baseline series), which preserves the scheduler's sequential ==
// parallel determinism guarantee (core/scheduler.h, scheduler_test).
#ifndef TOPRR_TOPK_SCORE_KERNEL_H_
#define TOPRR_TOPK_SCORE_KERNEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "geom/vec.h"
#include "topk/topk.h"

namespace toprr {

/// Kernel telemetry, accumulated per ScoreArena (one arena per scheduler
/// worker) and folded into SchedulerWorkerStats at merge time.
struct ScoreKernelCounters {
  uint64_t candidates_scored = 0;   // candidate dot products evaluated
  uint64_t block_gather_bytes = 0;  // bytes written gathering SoA blocks
  uint64_t reuse_hits = 0;          // vertex rows copied from a parent cache
  uint64_t arena_allocations = 0;   // arena buffer growth events
};

/// Parent-to-child score memoization payload: the score rows of a split
/// region's vertices over the candidate pool its children inherit.
/// Shared (read-only) by both children; a child vertex whose coordinates
/// bitwise-match a cached vertex reuses the row verbatim, which is exact
/// because a score depends only on the vertex value and the candidate row.
/// Stored flat (row-major coordinate and score buffers) so building and
/// probing it never allocates per vertex; the flat-geometry region buffers
/// (pref/flat_region.h) feed it directly.
struct VertexScoreCache {
  size_t dim = 0;               // vertex dimension m
  std::vector<double> coords;   // parent vertices, row-major nv x dim
  std::vector<int> candidates;  // pool the rows are aligned with
  std::vector<double> rows;     // nv x candidates.size(), pool order

  size_t num_vertices() const { return dim == 0 ? 0 : coords.size() / dim; }

  /// The cached score row (candidates.size() doubles) for a
  /// bitwise-equal vertex of `vdim` doubles, or nullptr.
  const double* RowFor(const double* vertex, size_t vdim) const;
};

/// 64-byte-aligned growable double buffer (geometric growth, never
/// shrinks). Growth events are reported so the arena can count them.
class AlignedDoubles {
 public:
  AlignedDoubles() = default;
  ~AlignedDoubles();
  AlignedDoubles(const AlignedDoubles&) = delete;
  AlignedDoubles& operator=(const AlignedDoubles&) = delete;

  /// Ensures capacity for n doubles. Returns true when it (re)allocated.
  bool Reserve(size_t n);

  double* data() { return data_; }
  const double* data() const { return data_; }
  size_t capacity() const { return capacity_; }

 private:
  double* data_ = nullptr;
  size_t capacity_ = 0;
};

/// Per-worker scratch state for the scoring kernel: the SoA block, the
/// vertex-score matrix, selection scratch, and pooled profile storage.
/// Owned by a scheduler worker slot (core/scheduler.cc) and reused across
/// every region that worker tests; nothing here is thread-safe.
class ScoreArena {
 public:
  ScoreArena() = default;
  ScoreArena(const ScoreArena&) = delete;
  ScoreArena& operator=(const ScoreArena&) = delete;

  const ScoreKernelCounters& counters() const { return counters_; }
  ScoreKernelCounters& counters() { return counters_; }

  /// Pooled per-region profile storage: a vector of at least `count`
  /// TopkResults whose entry buffers keep their capacity across regions
  /// (it never shrinks, so a small region after a large one does not
  /// forfeit warmed slots). Contents are stale on return; the caller
  /// overwrites and uses exactly the first `count` slots.
  std::vector<TopkResult>& Profiles(size_t count);

 private:
  friend class ScoreKernel;

  AlignedDoubles block_;            // (m+1) columns x padded pool size
  AlignedDoubles scores_;           // |V| rows x padded pool size
  std::vector<int> pool_ids_;       // stable copy of the loaded pool
  std::vector<ScoredOption> scratch_;  // selection input, pool order
  std::vector<TopkResult> profiles_;   // pooled per-vertex results
  ScoreKernelCounters counters_;
};

/// The scoring kernel over one region's candidate pool. Stateless apart
/// from views into the arena; create one per region test (cheap).
class ScoreKernel {
 public:
  explicit ScoreKernel(ScoreArena& arena) : arena_(arena) {}

  /// Gathers the SoA candidate block for `ids` (ascending option ids,
  /// reduced dimension data.dim() - 1). Column j < m holds
  /// p[j] - p[m] per candidate; column m holds the p[m] base scores.
  /// The pool is copied into the arena, so later mutation of `ids` (e.g.
  /// a Lemma-5 reduction of the task's candidate vector) cannot skew the
  /// block's column alignment.
  void LoadBlock(const DatasetView& data, const std::vector<int>& ids);

  /// Scores every vertex against the loaded block into the arena's score
  /// matrix. A vertex bitwise-matching an entry of `reuse` (when non-null)
  /// takes a row copy instead of a sweep.
  void ScoreVertices(const std::vector<Vec>& vertices,
                     const VertexScoreCache* reuse);

  /// Flat-buffer variant: `count` vertices of dim() doubles each, stored
  /// row-major (e.g. FlatRegion::coords()). No Vec bridging: the sweep
  /// reads the buffer in place. Bit-identical to the Vec overload.
  void ScoreVertices(const double* coords, size_t count,
                     const VertexScoreCache* reuse);

  size_t pool_size() const { return pool_ == nullptr ? 0 : pool_->size(); }
  const std::vector<int>& pool() const { return *pool_; }

  /// Score row of vertex v: pool_size() doubles in pool order.
  const double* Scores(size_t vertex) const {
    return arena_.scores_.data() + vertex * stride_;
  }

  /// Score of candidate `id` at a vertex (binary search over the
  /// ascending pool; `id` must be in the pool).
  double ScoreOf(size_t vertex, int id) const;

  /// Top-k of a vertex's row, bit-identical to
  /// ComputeTopKReduced(data, pool, vertex, k). Reuses out's capacity.
  void TopKInto(size_t vertex, int k, TopkResult& out);

  /// Builds the memoization cache handed to a split's children:
  /// `surviving` must be a subsequence of the loaded pool (the post-
  /// Lemma-5 candidates); each vertex's row is masked-copied onto it.
  std::shared_ptr<const VertexScoreCache> MakeCache(
      const std::vector<Vec>& vertices,
      const std::vector<int>& surviving) const;

  /// Flat-buffer variant over `count` row-major vertices.
  std::shared_ptr<const VertexScoreCache> MakeCache(
      const double* coords, size_t count,
      const std::vector<int>& surviving) const;

 private:
  /// Scores (or reuse-copies) one vertex row; `x` is dim() doubles.
  void ScoreVertexRow(const double* x, size_t vertex,
                      const VertexScoreCache* reuse);

  ScoreArena& arena_;
  const std::vector<int>* pool_ = nullptr;
  size_t dim_ = 0;     // reduced dimension m
  size_t stride_ = 0;  // padded pool size (64-byte multiples)
};

}  // namespace toprr

#endif  // TOPRR_TOPK_SCORE_KERNEL_H_
