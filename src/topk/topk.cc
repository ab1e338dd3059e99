#include "topk/topk.h"

#include <algorithm>

#include "common/check.h"
#include "pref/pref_space.h"

namespace toprr {
namespace {

TopkResult SelectTopK(std::vector<ScoredOption> scored, int k) {
  const size_t kk = std::min<size_t>(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + kk, scored.end(),
                    ScoredBetter);
  scored.resize(kk);
  TopkResult result;
  result.entries = std::move(scored);
  return result;
}

}  // namespace

std::vector<int> TopkResult::IdSet() const {
  std::vector<int> ids;
  ids.reserve(entries.size());
  for (const ScoredOption& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TopkResult ComputeTopK(const DatasetView& data, const Vec& w, int k) {
  CHECK_GT(k, 0);
  CHECK(!data.empty());
  std::vector<ScoredOption> scored;
  scored.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    scored.push_back({static_cast<int>(i), data.Score(i, w)});
  }
  return SelectTopK(std::move(scored), k);
}

TopkResult ComputeTopKReduced(const DatasetView& data,
                              const std::vector<int>& ids, const Vec& x,
                              int k) {
  CHECK_GT(k, 0);
  CHECK(!ids.empty());
  CHECK_EQ(x.dim() + 1, data.dim());
  std::vector<ScoredOption> scored;
  scored.reserve(ids.size());
  for (int id : ids) {
    scored.push_back({id, ReducedScore(data.Row(id), x)});
  }
  return SelectTopK(std::move(scored), k);
}

}  // namespace toprr
