#include "pref/flat_region.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace toprr {
namespace {

// Capacity-counted scratch sizing: grow geometrically (so repeated
// slightly-larger regions amortize), count every reallocation, and hand
// back a buffer of at least n elements. Within warmed capacity this is a
// plain resize -- no allocation.
template <typename T>
T* GrowTo(std::vector<T>& buf, size_t n, GeomCounters& counters) {
  if (buf.capacity() < n) {
    ++counters.geom_arena_allocations;
    buf.reserve(std::max(n, buf.capacity() * 2));
  }
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// Counted reservation for append-style scratch.
template <typename T>
void EnsureAppend(std::vector<T>& buf, size_t extra, GeomCounters& counters) {
  const size_t need = buf.size() + extra;
  if (buf.capacity() < need) {
    ++counters.geom_arena_allocations;
    buf.reserve(std::max(need, buf.capacity() * 2));
  }
}

}  // namespace

FlatRegion FlatRegion::FromRegion(const PrefRegion& region) {
  FlatRegion flat;
  flat.dim_ = region.dim();
  const std::vector<Vec>& vertices = region.vertices();
  flat.coords_.reserve(vertices.size() * flat.dim_);
  for (const Vec& v : vertices) {
    flat.coords_.insert(flat.coords_.end(), v.begin(), v.end());
  }
  const std::vector<RegionFacet>& facets = region.facets();
  flat.facet_planes_.reserve(facets.size() * (flat.dim_ + 1));
  flat.facet_begin_.reserve(facets.size() + 1);
  flat.facet_begin_.push_back(0);
  size_t total_ids = 0;
  for (const RegionFacet& f : facets) total_ids += f.vertex_ids.size();
  flat.facet_ids_.reserve(total_ids);
  for (const RegionFacet& f : facets) {
    flat.facet_planes_.insert(flat.facet_planes_.end(),
                              f.halfspace.normal.begin(),
                              f.halfspace.normal.end());
    flat.facet_planes_.push_back(f.halfspace.offset);
    flat.facet_ids_.insert(flat.facet_ids_.end(), f.vertex_ids.begin(),
                           f.vertex_ids.end());
    flat.facet_begin_.push_back(flat.facet_ids_.size());
  }
  return flat;
}

FlatRegion FlatRegion::FromBox(const PrefBox& box) {
  return FromRegion(PrefRegion::FromBox(box));
}

Vec FlatRegion::VertexVec(size_t v) const {
  DCHECK_LT(v, num_vertices());
  Vec out(dim_);
  const double* row = vertex(v);
  for (size_t j = 0; j < dim_; ++j) out[j] = row[j];
  return out;
}

Vec FlatRegion::Centroid() const {
  CHECK(!coords_.empty());
  const size_t nv = num_vertices();
  Vec c(dim_);
  for (size_t v = 0; v < nv; ++v) {
    const double* row = vertex(v);
    for (size_t j = 0; j < dim_; ++j) c[j] += row[j];
  }
  c /= static_cast<double>(nv);
  return c;
}

bool FlatRegion::Contains(const Vec& x, double tol) const {
  DCHECK_EQ(x.dim(), dim_);
  const size_t nf = num_facets();
  for (size_t f = 0; f < nf; ++f) {
    const double* plane = facet_plane(f);
    if (DotSpan(plane, x.data(), dim_) > plane[dim_] + tol) return false;
  }
  return true;
}

void FlatRegion::Split(const Hyperplane& plane, double eps, GeomArena& arena,
                       std::optional<FlatRegion>* below,
                       std::optional<FlatRegion>* above) const {
  below->reset();
  above->reset();
  const size_t m = dim_;
  CHECK_GE(m, 1u);
  GeomCounters& counters = arena.counters_;

  // Classify every vertex in one fused sweep over the flat buffer
  // (DotSpan, the kernel Hyperplane::Eval uses).
  const size_t nv = num_vertices();
  double* sval = GrowTo(arena.sval_, nv, counters);
  Side* side = GrowTo(arena.side_, nv, counters);
  size_t num_below = 0;
  size_t num_above = 0;
  EvalClassifyBatch(plane, coords_.data(), nv, eps, sval, side, &num_below,
                    &num_above);
  counters.split_vertices_classified += nv;
  if (num_above == 0) {
    *below = *this;
    return;
  }
  if (num_below == 0) {
    *above = *this;
    return;
  }

  // Per-vertex facet membership as bitsets (words of 64 facets).
  const size_t nf = num_facets();
  const size_t words = (nf + 63) / 64;
  uint64_t* member = GrowTo(arena.member_, nv * words, counters);
  std::fill_n(member, nv * words, uint64_t{0});
  for (size_t fi = 0; fi < nf; ++fi) {
    const int* ids = facet_ids(fi);
    const size_t count = facet_size(fi);
    for (size_t i = 0; i < count; ++i) {
      member[static_cast<size_t>(ids[i]) * words + fi / 64] |=
          uint64_t{1} << (fi % 64);
    }
  }

  // New vertices lie on edges that cross the plane. Vertex adjacency uses
  // the exact combinatorial oracle of the double-description method: u
  // and w span an edge iff no third vertex lies on every facet they
  // share. (The naive "share >= m-1 facets" rule admits spurious edges on
  // degenerate polytopes, whose fake vertices then cascade exponentially
  // across recursive splits.) Only the smallest shared facet's vertices
  // are scanned: a vertex on every shared facet is on that one.
  uint64_t* shared = GrowTo(arena.shared_, words, counters);
  const auto adjacent = [&](size_t i, size_t j) {
    const uint64_t* a = member + i * words;
    const uint64_t* b = member + j * words;
    size_t count = 0;
    for (size_t w = 0; w < words; ++w) {
      shared[w] = a[w] & b[w];
      count += static_cast<size_t>(__builtin_popcountll(shared[w]));
    }
    if (count + 1 < m) return false;  // rank can be at most |shared|
    if (count == 0) return true;      // dimension 1: the interval edge
    size_t best_facet = nf;
    size_t best_size = SIZE_MAX;
    for (size_t fi = 0; fi < nf; ++fi) {
      if (((shared[fi / 64] >> (fi % 64)) & 1) != 0 &&
          facet_size(fi) < best_size) {
        best_size = facet_size(fi);
        best_facet = fi;
      }
    }
    DCHECK_LT(best_facet, nf);
    const int* ids = facet_ids(best_facet);
    const size_t id_count = facet_size(best_facet);
    for (size_t t = 0; t < id_count; ++t) {
      const size_t tv = static_cast<size_t>(ids[t]);
      if (tv == i || tv == j) continue;
      const uint64_t* c = member + tv * words;
      bool contains = true;
      for (size_t w = 0; w < words; ++w) {
        if ((shared[w] & ~c[w]) != 0) {
          contains = false;
          break;
        }
      }
      if (contains) return false;  // another vertex on the common face
    }
    return true;
  };

  // Crossing points on below->above edges, merged when their quantized
  // keys coincide (degenerate edge intersections produce duplicates, and
  // a duplicate would defeat the adjacency oracle in descendant regions).
  // The on-plane old vertices are registered first, then the candidates
  // in generation order; the first registration of a key wins. Every
  // registration appends one fixed-stride packed key to the arena and
  // the merge happens offline over a sorted handle array, so no node or
  // key allocations.
  const double merge_tol = std::max(eps, 1e-12) * 16.0;
  arena.keys_.clear();
  arena.cross_coords_.clear();
  arena.cross_shared_.clear();
  const auto append_key = [&](const double* point) {
    EnsureAppend(arena.keys_, m, counters);
    for (size_t c = 0; c < m; ++c) {
      arena.keys_.push_back(
          static_cast<int64_t>(std::llround(point[c] / merge_tol)));
    }
  };
  // On-plane old vertices first: coincident crossing points must merge
  // into them instead of duplicating.
  for (size_t i = 0; i < nv; ++i) {
    if (side[i] == Side::kOn) append_key(vertex(i));
  }
  const uint32_t num_existing =
      static_cast<uint32_t>(arena.keys_.size() / m);
  // Generate candidates in (below-outer, above-inner) order, staging
  // each point and its shared-facet bitset.
  for (size_t i = 0; i < nv; ++i) {
    if (side[i] != Side::kBelow) continue;
    for (size_t j = 0; j < nv; ++j) {
      if (side[j] != Side::kAbove) continue;
      if (!adjacent(i, j)) continue;
      const double t = sval[i] / (sval[i] - sval[j]);
      const double* a = vertex(i);
      const double* b = vertex(j);
      EnsureAppend(arena.cross_coords_, m, counters);
      for (size_t c = 0; c < m; ++c) {
        arena.cross_coords_.push_back(a[c] + t * (b[c] - a[c]));
      }
      append_key(arena.cross_coords_.data() + arena.cross_coords_.size() -
                 m);
      EnsureAppend(arena.cross_shared_, words, counters);
      arena.cross_shared_.insert(arena.cross_shared_.end(), shared,
                                 shared + words);
    }
  }

  // Offline first-registration-wins merge: sort handles by (key,
  // registration order); the head of every equal-key run wins. A run
  // headed by an on-plane registration keeps no candidate; otherwise the
  // earliest candidate survives. Surviving generations sorted ascending
  // give the new vertices in generation order.
  const size_t num_keys = arena.keys_.size() / m;
  uint32_t* refs = GrowTo(arena.key_refs_, num_keys, counters);
  for (size_t r = 0; r < num_keys; ++r) {
    refs[r] = static_cast<uint32_t>(r);
  }
  const int64_t* keys = arena.keys_.data();
  std::sort(refs, refs + num_keys, [keys, m](uint32_t a, uint32_t b) {
    const int64_t* ka = keys + static_cast<size_t>(a) * m;
    const int64_t* kb = keys + static_cast<size_t>(b) * m;
    for (size_t c = 0; c < m; ++c) {
      if (ka[c] != kb[c]) return ka[c] < kb[c];
    }
    return a < b;
  });
  arena.survivors_.clear();
  EnsureAppend(arena.survivors_, num_keys, counters);
  for (size_t r = 0; r < num_keys;) {
    size_t run_end = r + 1;
    const int64_t* head = keys + static_cast<size_t>(refs[r]) * m;
    while (run_end < num_keys &&
           std::equal(head, head + m,
                      keys + static_cast<size_t>(refs[run_end]) * m)) {
      ++run_end;
    }
    if (refs[r] >= num_existing) {
      arena.survivors_.push_back(refs[r] - num_existing);
    }
    r = run_end;
  }
  std::sort(arena.survivors_.begin(), arena.survivors_.end());
  const size_t num_new = arena.survivors_.size();
  const auto new_point = [&](size_t n) {
    return arena.cross_coords_.data() +
           static_cast<size_t>(arena.survivors_[n]) * m;
  };
  const auto new_on_facet = [&](size_t n, size_t fi) {
    const uint64_t* bits = arena.cross_shared_.data() +
                           static_cast<size_t>(arena.survivors_[n]) * words;
    return ((bits[fi / 64] >> (fi % 64)) & 1) != 0;
  };

  // Assemble one child polytope for the requested side: kept old
  // vertices, then new vertices; original facets (the paper's cases 1-3),
  // then the splitting facet.
  int* old_to_new = GrowTo(arena.old_to_new_, nv, counters);
  int* new_ids = GrowTo(arena.new_ids_, std::max<size_t>(num_new, 1),
                        counters);
  const auto build_child = [&](bool below_side,
                               std::optional<FlatRegion>* out) {
    FlatRegion child;
    child.dim_ = m;
    size_t kept_old = 0;
    for (size_t i = 0; i < nv; ++i) {
      const bool keep = below_side ? side[i] != Side::kAbove
                                   : side[i] != Side::kBelow;
      old_to_new[i] = keep ? static_cast<int>(kept_old++) : -1;
    }
    const size_t child_nv = kept_old + num_new;
    child.coords_.reserve(child_nv * m);
    for (size_t i = 0; i < nv; ++i) {
      if (old_to_new[i] >= 0) {
        const double* row = vertex(i);
        child.coords_.insert(child.coords_.end(), row, row + m);
      }
    }
    for (size_t n = 0; n < num_new; ++n) {
      new_ids[n] = static_cast<int>(kept_old + n);
      const double* row = new_point(n);
      child.coords_.insert(child.coords_.end(), row, row + m);
    }
    // Distribute original facets; a facet needs at least m vertices to
    // stay (m-1)-dimensional.
    child.facet_begin_.reserve(nf + 2);
    child.facet_begin_.push_back(0);
    child.facet_ids_.reserve(facet_ids_.size());
    child.facet_planes_.reserve((nf + 1) * (m + 1));
    for (size_t fi = 0; fi < nf; ++fi) {
      const size_t mark = child.facet_ids_.size();
      const int* ids = facet_ids(fi);
      const size_t count = facet_size(fi);
      for (size_t i = 0; i < count; ++i) {
        const int mapped = old_to_new[static_cast<size_t>(ids[i])];
        if (mapped >= 0) child.facet_ids_.push_back(mapped);
      }
      for (size_t n = 0; n < num_new; ++n) {
        if (new_on_facet(n, fi)) child.facet_ids_.push_back(new_ids[n]);
      }
      if (child.facet_ids_.size() - mark >= m) {
        const double* plane_row = facet_plane(fi);
        child.facet_planes_.insert(child.facet_planes_.end(), plane_row,
                                   plane_row + m + 1);
        child.facet_begin_.push_back(child.facet_ids_.size());
      } else {
        child.facet_ids_.resize(mark);  // too thin; drop it
      }
    }
    // The splitting facet itself: on-plane old vertices + all new ones.
    const size_t mark = child.facet_ids_.size();
    for (size_t i = 0; i < nv; ++i) {
      if (side[i] == Side::kOn && old_to_new[i] >= 0) {
        child.facet_ids_.push_back(old_to_new[i]);
      }
    }
    for (size_t n = 0; n < num_new; ++n) {
      child.facet_ids_.push_back(new_ids[n]);
    }
    if (child.facet_ids_.size() - mark >= m) {
      // The above side stores the negated plane (normal * -1.0).
      for (size_t j = 0; j < m; ++j) {
        child.facet_planes_.push_back(below_side ? plane.normal[j]
                                                 : plane.normal[j] * -1.0);
      }
      child.facet_planes_.push_back(below_side ? plane.offset
                                               : -plane.offset);
      child.facet_begin_.push_back(child.facet_ids_.size());
    } else {
      child.facet_ids_.resize(mark);
    }
    // Full-dimensionality sanity: a bounded m-polytope needs >= m+1
    // vertices and >= m+1 facets.
    if (child_nv < m + 1 || child.num_facets() < m + 1) return;
    *out = std::move(child);
  };

  build_child(/*below_side=*/true, below);
  build_child(/*below_side=*/false, above);
}

}  // namespace toprr
