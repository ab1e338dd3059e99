// Flat-geometry region engine: the SoA counterpart of PrefRegion for the
// partition hot path (paper Sec. 4.2.2 splitting, re-laid-out for the
// hardware).
//
// PrefRegion stores one heap-allocated Vec per vertex and one id vector
// per facet, and its Split dedups new vertices through a std::map keyed
// on freshly allocated quantize vectors -- scattered allocation on every
// region test. FlatRegion keeps the same polytope in four contiguous
// buffers:
//
//  * coords_:        nv x m row-major vertex coordinates (m fixed per
//                    query), consumed directly by the scoring kernel's
//                    sweeps -- no std::vector<Vec> re-gather;
//  * facet_planes_:  nf x (m+1) halfspace rows (normal then offset);
//  * facet_ids_ + facet_begin_: every facet's incident-vertex id list in
//                    one pooled index buffer with prefix offsets.
//
// Split runs as one fused EvalClassifyBatch sweep over coords_, replaces
// the quantize map with a sorted scratch array of fixed-stride packed
// keys, and keeps every piece of scratch in a per-worker GeomArena (owned
// by the scheduler's WorkerSlots next to the ScoreArena), so steady-state
// splits grow no scratch at all -- growth events are counted and tests
// assert the steady state (flat_geometry_test).
//
// Bit-identical contract: Split performs the same arithmetic in the same
// order as PrefRegion::Split (classification through DotSpan, crossing
// points in Lerp's operation order, first-insertion-wins dedup at the
// same quantize tolerance, children assembled in the same vertex and
// facet order), so its output polytopes equal the legacy ones bit for
// bit. Asserted split by split (boxes, degenerate cuts, fuzzed split
// chains) by flat_geometry_test; bench_region_split times the legacy
// PrefRegion::Split as its baseline series.
#ifndef TOPRR_PREF_FLAT_REGION_H_
#define TOPRR_PREF_FLAT_REGION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geom/hyperplane.h"
#include "geom/vec.h"
#include "pref/region.h"

namespace toprr {

/// Flat-geometry telemetry, accumulated per GeomArena (one per scheduler
/// worker) and folded into SchedulerWorkerStats at merge time.
struct GeomCounters {
  uint64_t split_vertices_classified = 0;  // vertices swept by flat Split
  uint64_t geom_arena_allocations = 0;     // scratch growth events
};

/// Per-worker scratch for the flat split: classification rows, incidence
/// bitsets, packed quantize keys, crossing-point staging, and child
/// assembly maps. Buffer capacity never shrinks, so same-shaped splits
/// stop allocating once warm; every growth event increments
/// geom_arena_allocations. Owned by a scheduler worker slot
/// (core/scheduler.cc) next to its ScoreArena; nothing here is
/// thread-safe.
class GeomArena {
 public:
  GeomArena() = default;
  GeomArena(const GeomArena&) = delete;
  GeomArena& operator=(const GeomArena&) = delete;

  const GeomCounters& counters() const { return counters_; }
  GeomCounters& counters() { return counters_; }

 private:
  friend class FlatRegion;

  std::vector<double> sval_;            // signed distances, one per vertex
  std::vector<Side> side_;              // classifications, one per vertex
  std::vector<uint64_t> member_;        // nv x words incidence bitsets
  std::vector<uint64_t> shared_;        // one pair's shared-facet words
  std::vector<int64_t> keys_;           // packed quantize keys, stride m
  std::vector<uint32_t> key_refs_;      // sort handles over keys_
  std::vector<double> cross_coords_;    // crossing points, stride m
  std::vector<uint64_t> cross_shared_;  // per-crossing shared bitsets
  std::vector<uint32_t> survivors_;     // deduped crossing generations
  std::vector<int> old_to_new_;         // child vertex renumbering
  std::vector<int> new_ids_;            // child ids of the new vertices
  GeomCounters counters_;
};

/// A convex polytope in reduced preference coordinates with flat SoA
/// storage. Same geometry model as PrefRegion (defining vertices +
/// bounding facets with incident-vertex ids); conversions are exact
/// coordinate copies in both directions.
class FlatRegion {
 public:
  FlatRegion() = default;

  /// Exact conversion from the legacy representation (and back).
  static FlatRegion FromRegion(const PrefRegion& region);
  PrefRegion ToRegion() const;

  /// Builds the region for an axis-aligned preference box, identical to
  /// FromRegion(PrefRegion::FromBox(box)).
  static FlatRegion FromBox(const PrefBox& box);

  size_t dim() const { return dim_; }
  bool empty() const { return coords_.empty(); }
  size_t num_vertices() const {
    return dim_ == 0 ? 0 : coords_.size() / dim_;
  }
  /// Row-major vertex buffer (num_vertices() x dim()); the scoring
  /// kernel sweeps it directly.
  const std::vector<double>& coords() const { return coords_; }
  const double* vertex(size_t v) const { return coords_.data() + v * dim_; }
  Vec VertexVec(size_t v) const;

  size_t num_facets() const {
    return facet_begin_.empty() ? 0 : facet_begin_.size() - 1;
  }
  /// Facet f's bounding halfspace: dim() normal coefficients then offset.
  const double* facet_plane(size_t f) const {
    return facet_planes_.data() + f * (dim_ + 1);
  }
  double facet_offset(size_t f) const { return facet_plane(f)[dim_]; }
  /// Facet f's incident-vertex ids (a span of the pooled index buffer).
  const int* facet_ids(size_t f) const {
    return facet_ids_.data() + facet_begin_[f];
  }
  size_t facet_size(size_t f) const {
    return facet_begin_[f + 1] - facet_begin_[f];
  }

  /// Mean of the defining vertices; same accumulation order as
  /// PrefRegion::Centroid.
  Vec Centroid() const;

  /// True if x satisfies all facet halfspaces within tol.
  bool Contains(const Vec& x, double tol = 1e-9) const;

  /// Splits by `plane` into the negative-side and positive-side children
  /// (either may come back empty when the plane does not cut), with all
  /// scratch in `arena`. Bit-identical to PrefRegion::Split -- see the
  /// file comment.
  void Split(const Hyperplane& plane, double eps, GeomArena& arena,
             std::optional<FlatRegion>* below,
             std::optional<FlatRegion>* above) const;

  std::string DebugString() const;

 private:
  size_t dim_ = 0;
  std::vector<double> coords_;        // nv x dim, row-major
  std::vector<double> facet_planes_;  // nf x (dim+1)
  std::vector<int> facet_ids_;        // pooled incident-vertex ids
  std::vector<size_t> facet_begin_;   // nf+1 prefix offsets
};

}  // namespace toprr

#endif  // TOPRR_PREF_FLAT_REGION_H_
