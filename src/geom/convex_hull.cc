#include "geom/convex_hull.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "geom/linalg.h"

namespace toprr {
namespace {

// Internal mutable facet with adjacency and conflict list.
struct Facet {
  std::vector<int> vertices;   // d point indices, position i opposite
                               // neighbor i across the ridge missing v_i
  std::vector<int> neighbors;  // facet ids, aligned with `vertices`
  Vec normal;
  double offset = 0.0;
  std::vector<int> outside;  // conflict list (points strictly above)
  bool alive = true;

  double Eval(const Vec& x) const { return Dot(normal, x) - offset; }
};

// Computes an (unnormalized) normal of the affine hull of d points in R^d
// via the generalized cross product: normal[j] is the signed cofactor of
// the (d-1) x d matrix of edge vectors with column j removed.
Vec GeneralizedCross(const std::vector<Vec>& points,
                     const std::vector<int>& vertex_ids) {
  const size_t d = points[vertex_ids[0]].dim();
  DCHECK_EQ(vertex_ids.size(), d);
  Vec normal(d);
  if (d == 1) {
    normal[0] = 1.0;
    return normal;
  }
  // Edge matrix rows: v_i - v_0 for i = 1..d-1  (shape (d-1) x d).
  Matrix edges(d - 1, d);
  const Vec& base = points[vertex_ids[0]];
  for (size_t i = 1; i < d; ++i) {
    const Vec& v = points[vertex_ids[i]];
    for (size_t c = 0; c < d; ++c) edges.At(i - 1, c) = v[c] - base[c];
  }
  for (size_t skip = 0; skip < d; ++skip) {
    Matrix minor(d - 1, d - 1);
    for (size_t r = 0; r < d - 1; ++r) {
      size_t mc = 0;
      for (size_t c = 0; c < d; ++c) {
        if (c == skip) continue;
        minor.At(r, mc++) = edges.At(r, c);
      }
    }
    const double cof = Determinant(std::move(minor));
    normal[skip] = ((skip % 2) == 0) ? cof : -cof;
  }
  return normal;
}

// Builds a facet plane from vertex ids, oriented away from `interior`.
// Returns false when the vertices are affinely degenerate.
bool MakePlane(const std::vector<Vec>& points, const std::vector<int>& ids,
               const Vec& interior, double eps, Facet* facet) {
  Vec normal = GeneralizedCross(points, ids);
  const double norm = normal.Norm();
  if (norm <= eps) return false;
  normal /= norm;
  double offset = Dot(normal, points[ids[0]]);
  if (Dot(normal, interior) - offset > 0.0) {
    normal *= -1.0;
    offset = -offset;
  }
  facet->vertices = ids;
  facet->normal = std::move(normal);
  facet->offset = offset;
  return true;
}

// Finds d+1 affinely independent points to seed the hull. Returns empty on
// degeneracy. Uses a greedy max-distance-to-current-affine-hull selection
// with Gram-Schmidt orthogonalization.
std::vector<int> InitialSimplex(const std::vector<Vec>& points, double eps) {
  const size_t d = points[0].dim();
  const size_t n = points.size();
  std::vector<int> chosen;

  // Start with the two extremes of the coordinate with the widest spread.
  size_t best_axis = 0;
  int lo = 0;
  int hi = 0;
  double best_spread = -1.0;
  for (size_t axis = 0; axis < d; ++axis) {
    int axis_lo = 0;
    int axis_hi = 0;
    for (size_t i = 1; i < n; ++i) {
      if (points[i][axis] < points[axis_lo][axis]) axis_lo = static_cast<int>(i);
      if (points[i][axis] > points[axis_hi][axis]) axis_hi = static_cast<int>(i);
    }
    const double spread = points[axis_hi][axis] - points[axis_lo][axis];
    if (spread > best_spread) {
      best_spread = spread;
      best_axis = axis;
      lo = axis_lo;
      hi = axis_hi;
    }
  }
  (void)best_axis;
  if (best_spread <= eps) return {};
  chosen.push_back(lo);
  chosen.push_back(hi);

  // Orthonormal basis of the current affine hull's direction space.
  std::vector<Vec> basis;
  {
    Vec dir = points[hi] - points[lo];
    dir /= dir.Norm();
    basis.push_back(std::move(dir));
  }

  while (chosen.size() < d + 1) {
    const Vec& origin = points[chosen[0]];
    int best_point = -1;
    double best_dist = eps;
    Vec best_residual;
    for (size_t i = 0; i < n; ++i) {
      Vec residual = points[i] - origin;
      for (const Vec& b : basis) residual -= Dot(residual, b) * b;
      const double dist = residual.Norm();
      if (dist > best_dist) {
        best_dist = dist;
        best_point = static_cast<int>(i);
        best_residual = std::move(residual);
      }
    }
    if (best_point < 0) return {};  // all points within eps of affine hull
    chosen.push_back(best_point);
    best_residual /= best_residual.Norm();
    basis.push_back(std::move(best_residual));
  }
  return chosen;
}

// Key for ridge matching: the sorted vertex ids of a (d-1)-vertex ridge.
struct RidgeKey {
  std::vector<int> ids;
  bool operator<(const RidgeKey& other) const { return ids < other.ids; }
};

ConvexHullResult ExtractResult(const std::vector<Vec>& points,
                               const std::vector<Facet>& facets) {
  ConvexHullResult result;
  std::vector<bool> on_hull(points.size(), false);
  for (const Facet& f : facets) {
    if (!f.alive) continue;
    HullFacet out;
    out.vertices = f.vertices;
    out.normal = f.normal;
    out.offset = f.offset;
    result.facets.push_back(std::move(out));
    for (int v : f.vertices) on_hull[v] = true;
  }
  for (size_t i = 0; i < points.size(); ++i) {
    if (on_hull[i]) result.vertex_indices.push_back(static_cast<int>(i));
  }
  return result;
}

std::optional<ConvexHullResult> Hull1D(const std::vector<Vec>& points,
                                       double eps) {
  int lo = 0;
  int hi = 0;
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i][0] < points[lo][0]) lo = static_cast<int>(i);
    if (points[i][0] > points[hi][0]) hi = static_cast<int>(i);
  }
  if (points[hi][0] - points[lo][0] <= eps) return std::nullopt;
  ConvexHullResult result;
  result.vertex_indices = {std::min(lo, hi), std::max(lo, hi)};
  HullFacet left;
  left.vertices = {lo};
  left.normal = Vec{-1.0};
  left.offset = -points[lo][0];
  HullFacet right;
  right.vertices = {hi};
  right.normal = Vec{1.0};
  right.offset = points[hi][0];
  result.facets.push_back(std::move(left));
  result.facets.push_back(std::move(right));
  return result;
}

}  // namespace

std::optional<ConvexHullResult> ComputeConvexHull(
    const std::vector<Vec>& points, const ConvexHullOptions& options) {
  if (points.empty()) return std::nullopt;
  const size_t d = points[0].dim();
  CHECK_GE(d, 1u);
  for (const Vec& p : points) CHECK_EQ(p.dim(), d);
  if (points.size() < d + 1) return std::nullopt;
  const double eps = options.eps;
  if (d == 1) return Hull1D(points, eps);

  const std::vector<int> simplex = InitialSimplex(points, eps);
  if (simplex.empty()) return std::nullopt;

  // Interior reference point: centroid of the initial simplex.
  Vec interior(d);
  for (int id : simplex) interior += points[id];
  interior /= static_cast<double>(simplex.size());

  // Build the d+1 facets of the simplex (each omits one chosen vertex).
  std::vector<Facet> facets;
  facets.reserve(64);
  for (size_t skip = 0; skip < simplex.size(); ++skip) {
    std::vector<int> ids;
    for (size_t i = 0; i < simplex.size(); ++i) {
      if (i != skip) ids.push_back(simplex[i]);
    }
    Facet f;
    if (!MakePlane(points, ids, interior, eps, &f)) return std::nullopt;
    facets.push_back(std::move(f));
  }
  // Simplex adjacency: every pair of facets is adjacent; align neighbor i
  // with the ridge omitting vertices[i] via ridge matching.
  {
    std::map<RidgeKey, std::vector<std::pair<int, int>>> ridge_map;
    for (size_t fi = 0; fi < facets.size(); ++fi) {
      Facet& f = facets[fi];
      f.neighbors.assign(f.vertices.size(), -1);
      for (size_t vi = 0; vi < f.vertices.size(); ++vi) {
        RidgeKey key;
        for (size_t j = 0; j < f.vertices.size(); ++j) {
          if (j != vi) key.ids.push_back(f.vertices[j]);
        }
        std::sort(key.ids.begin(), key.ids.end());
        ridge_map[key].push_back({static_cast<int>(fi), static_cast<int>(vi)});
      }
    }
    for (const auto& [key, uses] : ridge_map) {
      CHECK_EQ(uses.size(), 2u) << "simplex ridge must join two facets";
      facets[uses[0].first].neighbors[uses[0].second] = uses[1].first;
      facets[uses[1].first].neighbors[uses[1].second] = uses[0].first;
    }
  }

  // Assign every remaining point to the conflict list of some facet above
  // which it lies; interior points are discarded immediately.
  std::vector<bool> in_simplex(points.size(), false);
  for (int id : simplex) in_simplex[id] = true;
  std::deque<int> pending_facets;
  for (size_t i = 0; i < points.size(); ++i) {
    if (in_simplex[i]) continue;
    for (Facet& f : facets) {
      if (f.Eval(points[i]) > eps) {
        f.outside.push_back(static_cast<int>(i));
        break;
      }
    }
  }
  for (size_t fi = 0; fi < facets.size(); ++fi) {
    if (!facets[fi].outside.empty()) pending_facets.push_back(static_cast<int>(fi));
  }

  // Main quickhull loop.
  while (!pending_facets.empty()) {
    const int fi = pending_facets.front();
    pending_facets.pop_front();
    Facet& f = facets[fi];
    if (!f.alive || f.outside.empty()) continue;

    // Furthest conflict point of this facet.
    int apex = -1;
    double best = -1.0;
    for (int pid : f.outside) {
      const double dist = f.Eval(points[pid]);
      if (dist > best) {
        best = dist;
        apex = pid;
      }
    }
    DCHECK_GE(apex, 0);
    const Vec& apex_point = points[apex];

    // Visible set via BFS over facet adjacency.
    std::vector<int> visible;
    std::vector<int> stack = {fi};
    std::vector<bool> visited(facets.size(), false);
    visited[fi] = true;
    while (!stack.empty()) {
      const int cur = stack.back();
      stack.pop_back();
      if (!facets[cur].alive) continue;
      if (facets[cur].Eval(apex_point) > eps) {
        visible.push_back(cur);
        for (int nb : facets[cur].neighbors) {
          if (nb >= 0 && !visited[nb]) {
            visited[nb] = true;
            stack.push_back(nb);
          }
        }
      }
    }
    std::vector<bool> is_visible(facets.size(), false);
    for (int v : visible) is_visible[v] = true;

    // Horizon ridges: (visible facet, ridge index) whose neighbor is not
    // visible. Each spawns one new facet = ridge + apex.
    struct Horizon {
      std::vector<int> ridge;  // d-1 vertex ids
      int outside_facet;       // the non-visible neighbor
    };
    std::vector<Horizon> horizon;
    for (int v : visible) {
      const Facet& vf = facets[v];
      for (size_t i = 0; i < vf.vertices.size(); ++i) {
        const int nb = vf.neighbors[i];
        // A missing neighbour means the adjacency is broken (degenerate
        // input); the horizon cannot be traced, so give up on the hull.
        if (nb < 0) return std::nullopt;
        if (is_visible[nb]) continue;
        Horizon h;
        for (size_t j = 0; j < vf.vertices.size(); ++j) {
          if (j != i) h.ridge.push_back(vf.vertices[j]);
        }
        h.outside_facet = nb;
        horizon.push_back(std::move(h));
      }
    }
    if (horizon.empty()) {
      // Numerically possible when apex is barely above a facet that is
      // surrounded by facets it is below; treat the apex as non-extreme.
      f.outside.erase(std::remove(f.outside.begin(), f.outside.end(), apex),
                      f.outside.end());
      if (!f.outside.empty()) pending_facets.push_back(fi);
      continue;
    }

    // Gather orphaned conflict points before killing the visible facets.
    std::vector<int> orphans;
    for (int v : visible) {
      for (int pid : facets[v].outside) {
        if (pid != apex) orphans.push_back(pid);
      }
      facets[v].outside.clear();
      facets[v].alive = false;
    }

    // Create the new cone facets.
    std::vector<int> new_ids;
    new_ids.reserve(horizon.size());
    for (const Horizon& h : horizon) {
      std::vector<int> ids = h.ridge;
      ids.push_back(apex);
      Facet nf;
      if (!MakePlane(points, ids, interior, eps, &nf)) {
        // Degenerate cone facet (apex nearly coplanar with the ridge):
        // orient it using the neighbor's normal as a fallback so the hull
        // stays watertight.
        nf.vertices = ids;
        nf.normal = facets[h.outside_facet].normal;
        nf.offset = Dot(nf.normal, apex_point);
      }
      nf.neighbors.assign(nf.vertices.size(), -1);
      const int nid = static_cast<int>(facets.size());
      // Outer neighbor: across the original ridge (opposite the apex, which
      // is the last vertex).
      nf.neighbors[nf.vertices.size() - 1] = h.outside_facet;
      // Fix the outer facet's back-pointer.
      Facet& outer = facets[h.outside_facet];
      bool rewired = false;
      for (size_t i = 0; i < outer.vertices.size(); ++i) {
        // Neighbors rewired to cone facets created earlier in this round
        // have ids past is_visible's range; they are never visible.
        if (outer.neighbors[i] >= 0 &&
            static_cast<size_t>(outer.neighbors[i]) < is_visible.size() &&
            is_visible[outer.neighbors[i]]) {
          // Verify this slot's ridge equals h.ridge before rewiring.
          std::vector<int> outer_ridge;
          for (size_t j = 0; j < outer.vertices.size(); ++j) {
            if (j != i) outer_ridge.push_back(outer.vertices[j]);
          }
          std::vector<int> a = outer_ridge;
          std::vector<int> b = h.ridge;
          std::sort(a.begin(), a.end());
          std::sort(b.begin(), b.end());
          if (a == b) {
            outer.neighbors[i] = nid;
            rewired = true;
            break;
          }
        }
      }
      if (!rewired) return std::nullopt;
      facets.push_back(std::move(nf));
      new_ids.push_back(nid);
    }

    // Wire adjacency among the new facets: ridges that contain the apex.
    std::map<RidgeKey, std::vector<std::pair<int, int>>> ridge_map;
    for (int nid : new_ids) {
      Facet& nf = facets[nid];
      for (size_t vi = 0; vi + 1 < nf.vertices.size(); ++vi) {
        // Skip the last slot (outer neighbor already set). Ridge omits
        // vertices[vi] and therefore contains the apex.
        RidgeKey key;
        for (size_t j = 0; j < nf.vertices.size(); ++j) {
          if (j != vi) key.ids.push_back(nf.vertices[j]);
        }
        std::sort(key.ids.begin(), key.ids.end());
        ridge_map[key].push_back({nid, static_cast<int>(vi)});
      }
    }
    for (const auto& [key, uses] : ridge_map) {
      // A ridge shared by other than two cone facets is non-manifold:
      // some facet would be left without a neighbour across it.
      if (uses.size() != 2) return std::nullopt;
      facets[uses[0].first].neighbors[uses[0].second] = uses[1].first;
      facets[uses[1].first].neighbors[uses[1].second] = uses[0].first;
    }

    // Redistribute orphans over the new facets.
    for (int pid : orphans) {
      const Vec& p = points[pid];
      int target = -1;
      double best_above = eps;
      for (int nid : new_ids) {
        const double v = facets[nid].Eval(p);
        if (v > best_above) {
          best_above = v;
          target = nid;
          break;  // first-above assignment is sufficient
        }
      }
      if (target >= 0) facets[target].outside.push_back(pid);
    }
    for (int nid : new_ids) {
      if (!facets[nid].outside.empty()) pending_facets.push_back(nid);
    }
  }

  return ExtractResult(points, facets);
}

std::vector<int> ConvexHullVertices(const std::vector<Vec>& points,
                                    const ConvexHullOptions& options) {
  auto hull = ComputeConvexHull(points, options);
  if (!hull.has_value()) return {};
  return std::move(hull->vertex_indices);
}

double ConvexHullVolume(const std::vector<Vec>& points,
                        const ConvexHullOptions& options) {
  auto hull = ComputeConvexHull(points, options);
  if (!hull.has_value()) return 0.0;
  const size_t d = points[0].dim();
  if (d == 1) {
    return points[hull->vertex_indices.back()][0] -
           points[hull->vertex_indices.front()][0];
  }
  // Interior point: centroid of hull vertices.
  Vec centroid(d);
  for (int id : hull->vertex_indices) centroid += points[id];
  centroid /= static_cast<double>(hull->vertex_indices.size());

  double volume = 0.0;
  double factorial = 1.0;
  for (size_t i = 2; i <= d; ++i) factorial *= static_cast<double>(i);
  for (const HullFacet& f : hull->facets) {
    // Simplex (centroid, facet vertices): volume = |det(edges)| / d!.
    Matrix edges(d, d);
    for (size_t r = 0; r < d; ++r) {
      const Vec& v = points[f.vertices[r]];
      for (size_t c = 0; c < d; ++c) edges.At(r, c) = v[c] - centroid[c];
    }
    volume += std::fabs(Determinant(std::move(edges))) / factorial;
  }
  return volume;
}

}  // namespace toprr
