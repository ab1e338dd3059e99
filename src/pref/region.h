// The facet-based convex polytope representation of preference regions
// (paper Sec. 4.2.2).
//
// A region stores its defining vertices explicitly (supporting the vertex
// tests of Lemma 3 / 5 / 7) and its bounding facets, each a halfspace
// augmented with the ids of incident vertices (supporting exact splits
// without convex-hull recomputation, unlike the vertex-based model, and
// without redundant halfspaces, unlike the halfspace-based model).
//
// PrefRegion is the query and wire form of a region. Solvers convert it
// once into a FlatRegion (pref/flat_region.h), which holds the same
// polytope in flat buffers and implements the split.
#ifndef TOPRR_PREF_REGION_H_
#define TOPRR_PREF_REGION_H_

#include <vector>

#include "geom/hyperplane.h"
#include "geom/vec.h"
#include "pref/pref_space.h"

namespace toprr {

/// A bounding facet: the halfspace (region side included) plus incident
/// vertex ids.
struct RegionFacet {
  Halfspace halfspace;
  std::vector<int> vertex_ids;
};

/// A convex polytope in reduced preference coordinates (dimension m >= 1).
class PrefRegion {
 public:
  PrefRegion() = default;

  /// Builds the region for an axis-aligned preference box.
  static PrefRegion FromBox(const PrefBox& box);

  /// Builds a region from explicit vertices and facets (the wire decoder
  /// and tests). Nothing is validated; see WellFormed.
  static PrefRegion FromVerticesAndFacets(std::vector<Vec> vertices,
                                          std::vector<RegionFacet> facets);

  size_t dim() const { return vertices_.empty() ? 0 : vertices_[0].dim(); }
  const std::vector<Vec>& vertices() const { return vertices_; }
  const std::vector<RegionFacet>& facets() const { return facets_; }
  bool empty() const { return vertices_.empty(); }

  /// True if every vertex and every facet normal has dimension m, every
  /// facet vertex id indexes a vertex -- what the split reads without
  /// checking -- and the numbers describe a polytope in the simplex:
  /// every value is finite and every normal non-zero, every vertex lies
  /// in {x >= 0, sum(x) <= 1} and on the inner side of every facet, and
  /// every incident vertex on its facet's plane, each within 1e-9 (a
  /// distance, for facets). Regions from FromBox of a box inside the
  /// simplex pass; regions built from untrusted input must be checked
  /// before they are solved.
  bool WellFormed(size_t m) const;

 private:
  std::vector<Vec> vertices_;
  std::vector<RegionFacet> facets_;
};

}  // namespace toprr

#endif  // TOPRR_PREF_REGION_H_
