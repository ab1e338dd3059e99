// The facet-based polytope of paper Sec. 4.2.2 in flat storage, and its
// split: the one region type the partition, the region cache and the
// simplex clip compute with. PrefRegion (pref/region.h) is the query and
// wire form; FromRegion and FromBox convert into this one.
//
// A FlatRegion keeps its polytope in four contiguous buffers:
//
//  * coords_:        nv x m row-major vertex coordinates (m fixed per
//                    query), swept in place by the scoring kernel;
//  * facet_planes_:  nf x (m+1) halfspace rows (normal then offset);
//  * facet_ids_ + facet_begin_: every facet's incident-vertex id list in
//                    one pooled index buffer with prefix offsets.
//
// Split classifies every vertex in one fused EvalClassifyBatch sweep,
// finds the crossing points of the cut on the edges given by the exact
// combinatorial adjacency oracle, merges coincident points through a
// sorted scratch array of quantized keys, and distributes the facets by
// the paper's three cases. All scratch lives in a per-worker GeomArena
// (owned by the scheduler's WorkerSlots next to the ScoreArena), so
// steady-state splits grow no scratch at all -- growth events are
// counted and flat_geometry_test asserts the steady state.
//
// Determinism contract: Split is a pure function of (region, plane,
// eps). It evaluates in a fixed order -- classification through DotSpan,
// crossing points as a + t*(b-a), first-generated-wins merging, children
// assembled as kept vertices then new vertices and original facets then
// the cut facet -- and reads no arena state across calls. The
// partition's seq==par identity and the region cache's hit==miss
// identity both rest on this: the same split in any worker, run, or
// cache replay yields the same bytes. flat_geometry_test and the split
// property tests check each child against the definition (facet and cut
// feasibility, volume conservation, and the IntersectHalfspaces
// enumeration of the parent's halfspaces plus the cut).
#ifndef TOPRR_PREF_FLAT_REGION_H_
#define TOPRR_PREF_FLAT_REGION_H_

#include <cstdint>
#include <optional>
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

/// Per-worker scratch for Split: classification rows, incidence
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
/// storage: defining vertices plus bounding facets with incident-vertex
/// ids, the model of PrefRegion.
class FlatRegion {
 public:
  FlatRegion() = default;

  /// Exact conversion from the query form (coordinates copied, vertex
  /// and facet order kept). The region must be WellFormed.
  static FlatRegion FromRegion(const PrefRegion& region);

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

  /// Mean of the defining vertices (inside the region by convexity).
  Vec Centroid() const;

  /// True if x satisfies all facet halfspaces within tol.
  bool Contains(const Vec& x, double tol = 1e-9) const;

  /// Splits by `plane` into the negative-side child (normal.x <= offset)
  /// and the positive-side child, with all scratch in `arena`. Vertices
  /// within eps of the plane join both children. When the plane does not
  /// cut, the whole region comes back on its side and the other stays
  /// empty; a child that would not be full-dimensional (fewer than m+1
  /// vertices or facets) is left empty. Deterministic -- see the file
  /// comment.
  void Split(const Hyperplane& plane, double eps, GeomArena& arena,
             std::optional<FlatRegion>* below,
             std::optional<FlatRegion>* above) const;

 private:
  size_t dim_ = 0;
  std::vector<double> coords_;        // nv x dim, row-major
  std::vector<double> facet_planes_;  // nf x (dim+1)
  std::vector<int> facet_ids_;        // pooled incident-vertex ids
  std::vector<size_t> facet_begin_;   // nf+1 prefix offsets
};

}  // namespace toprr

#endif  // TOPRR_PREF_FLAT_REGION_H_
