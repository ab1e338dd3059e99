#include "pref/region.h"

#include "common/check.h"

namespace toprr {

PrefRegion PrefRegion::FromBox(const PrefBox& box) {
  const size_t m = box.dim();
  CHECK_GE(m, 1u);
  PrefRegion region;
  region.vertices_ = box.Vertices();  // corner `mask` has bit j = hi side

  // Facets: per axis j, the lo facet holds corners with bit j = 0, the hi
  // facet those with bit j = 1.
  for (size_t j = 0; j < m; ++j) {
    RegionFacet lo_facet;
    Vec lo_normal(m);
    lo_normal[j] = -1.0;
    lo_facet.halfspace = Halfspace(std::move(lo_normal), -box.lo[j]);
    RegionFacet hi_facet;
    Vec hi_normal(m);
    hi_normal[j] = 1.0;
    hi_facet.halfspace = Halfspace(std::move(hi_normal), box.hi[j]);
    for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
      if ((mask >> j) & 1) {
        hi_facet.vertex_ids.push_back(static_cast<int>(mask));
      } else {
        lo_facet.vertex_ids.push_back(static_cast<int>(mask));
      }
    }
    region.facets_.push_back(std::move(lo_facet));
    region.facets_.push_back(std::move(hi_facet));
  }
  return region;
}

PrefRegion PrefRegion::FromVerticesAndFacets(std::vector<Vec> vertices,
                                             std::vector<RegionFacet> facets) {
  PrefRegion region;
  region.vertices_ = std::move(vertices);
  region.facets_ = std::move(facets);
  return region;
}

bool PrefRegion::WellFormed(size_t m) const {
  for (const Vec& v : vertices_) {
    if (v.dim() != m) return false;
  }
  for (const RegionFacet& f : facets_) {
    if (f.halfspace.normal.dim() != m) return false;
    for (int vid : f.vertex_ids) {
      if (vid < 0 || static_cast<size_t>(vid) >= vertices_.size()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace toprr
