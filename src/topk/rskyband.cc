#include "topk/rskyband.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "topk/skyband.h"

namespace toprr {

bool RDominates(const DatasetView& data, int a, int b, const PrefBox& region) {
  if (a == b) return false;
  const double* pa = data.Row(a);
  const double* pb = data.Row(b);
  const double lo = MinScoreDiffOverBox(pa, pb, region);
  if (lo < 0.0) return false;
  const double hi = MaxScoreDiffOverBox(pa, pb, region);
  if (hi > 0.0) return true;
  // Scores identical everywhere on the box (e.g. duplicate rows): order by
  // id so one representative of a duplicate block survives per slot.
  return a < b;
}

namespace {

// Shared scan: sorts the pool by score at a region-interior point and
// counts dominators among accepted members only (valid by transitivity of
// r-dominance, same argument as the classic k-skyband scan).
template <typename DominatesFn>
std::vector<int> RSkybandScan(const DatasetView& data, std::vector<int> pool,
                              const Vec& interior, int k,
                              const DominatesFn& dominates) {
  std::vector<double> interior_score(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    interior_score[i] = ReducedScore(data.Row(pool[i]), interior);
  }
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (interior_score[a] != interior_score[b]) {
      return interior_score[a] > interior_score[b];
    }
    return pool[a] < pool[b];
  });

  std::vector<int> result;
  for (size_t oi : order) {
    const int id = pool[oi];
    int dominators = 0;
    bool keep = true;
    for (int s : result) {
      if (dominates(s, id) && ++dominators >= k) {
        keep = false;
        break;
      }
    }
    if (keep) result.push_back(id);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<int> FullPool(const DatasetView& data,
                          const std::vector<int>* candidates) {
  if (candidates != nullptr) return *candidates;
  std::vector<int> pool(data.size());
  std::iota(pool.begin(), pool.end(), 0);
  return pool;
}

}  // namespace

std::vector<int> RSkyband(const DatasetView& data, const PrefBox& region, int k,
                          const std::vector<int>* candidates) {
  CHECK_GT(k, 0);
  CHECK_EQ(region.dim() + 1, data.dim());
  // Any r-dominator of p scores >= p at the center, so all potential
  // dominators of p precede p in decreasing center-score order (ties are
  // broken by id, matching the duplicate rule in RDominates).
  return RSkybandScan(data, FullPool(data, candidates), region.Center(), k,
                      [&](int a, int b) {
                        return RDominates(data, a, b, region);
                      });
}

bool RDominatesVertices(const DatasetView& data, int a, int b,
                        const FlatRegion& region) {
  if (a == b) return false;
  const double* pa = data.Row(a);
  const double* pb = data.Row(b);
  const size_t num_vertices = region.num_vertices();
  bool strict = false;
  for (size_t v = 0; v < num_vertices; ++v) {
    const double diff =
        ReducedScoreDiff(pa, pb, region.vertex(v), region.dim());
    if (diff < 0.0) return false;
    if (diff > 0.0) strict = true;
  }
  // Equal everywhere (at all vertices hence, by Lemma 1, on the whole
  // polytope): order duplicates by id.
  return strict || a < b;
}

std::vector<int> RSkybandVertices(const DatasetView& data,
                                  const FlatRegion& region, int k,
                                  const std::vector<int>* candidates) {
  CHECK_GT(k, 0);
  CHECK(!region.empty());
  CHECK_EQ(region.dim() + 1, data.dim());
  return RSkybandScan(data, FullPool(data, candidates), region.Centroid(), k,
                      [&](int a, int b) {
                        return RDominatesVertices(data, a, b, region);
                      });
}

}  // namespace toprr
