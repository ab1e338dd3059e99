#include "geom/halfspace_intersection.h"

#include <cmath>
#include <map>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "geom/convex_hull.h"
#include "geom/lp.h"

namespace toprr {

std::optional<HalfspaceIntersectionResult> IntersectHalfspaces(
    const std::vector<Halfspace>& halfspaces, const Vec& interior,
    const HalfspaceIntersectionOptions& options) {
  const size_t d = interior.dim();
  CHECK(!halfspaces.empty());

  // Dual points; constraints with tiny slack get large dual coordinates,
  // which the hull handles as long as slack > eps.
  std::vector<Vec> dual;
  dual.reserve(halfspaces.size());
  std::vector<size_t> dual_to_input;
  for (size_t i = 0; i < halfspaces.size(); ++i) {
    const Halfspace& h = halfspaces[i];
    CHECK_EQ(h.dim(), d);
    const double slack = h.offset - Dot(h.normal, interior);
    CHECK_GT(slack, options.eps)
        << "interior point not strictly inside halfspace " << i;
    dual.push_back(h.normal / slack);
    dual_to_input.push_back(i);
  }

  ConvexHullOptions hull_options;
  hull_options.eps = options.eps;
  auto hull = ComputeConvexHull(dual, hull_options);
  if (!hull.has_value()) return std::nullopt;

  HalfspaceIntersectionResult result;
  std::map<std::vector<int64_t>, size_t> seen;
  std::vector<bool> active(halfspaces.size(), false);
  for (const HullFacet& f : hull->facets) {
    // Dual facet plane: normal.y = offset. The primal vertex is
    // x0 + normal/offset; offset <= 0 means the primal region recedes to
    // infinity in direction `normal`.
    if (f.offset <= options.eps) {
      result.unbounded = true;
      continue;
    }
    Vec vertex = interior + f.normal / f.offset;
    const auto key = QuantizedCoords(vertex, options.merge_tol);
    if (seen.emplace(key, result.vertices.size()).second) {
      result.vertices.push_back(std::move(vertex));
    }
    for (int dv : f.vertices) active[dual_to_input[dv]] = true;
  }
  for (size_t i = 0; i < halfspaces.size(); ++i) {
    if (active[i]) result.active_halfspaces.push_back(i);
  }
  return result;
}

std::optional<HalfspaceIntersectionResult> IntersectHalfspaces(
    const std::vector<Halfspace>& halfspaces, size_t dim,
    const HalfspaceIntersectionOptions& options) {
  double radius = 0.0;
  const LpResult center = ChebyshevCenter(halfspaces, dim, &radius);
  if (!center.ok() || radius <= options.eps) {
    LOG(DEBUG) << "halfspace intersection: no full-dimensional interior "
               << "(radius=" << radius << ")";
    return std::nullopt;
  }
  return IntersectHalfspaces(halfspaces, center.x, options);
}

}  // namespace toprr
