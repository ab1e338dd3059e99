// Linear top-k evaluation, in full weight coordinates (over a whole
// dataset) and in reduced preference coordinates (over candidate subsets;
// the hot loop of the TAS algorithms).
//
// Ties are broken by option id ascending everywhere, so "same top-k set /
// same top-k-th option" (Definition 3) is deterministic.
#ifndef TOPRR_TOPK_TOPK_H_
#define TOPRR_TOPK_TOPK_H_

#include <vector>

#include "data/dataset.h"
#include "geom/vec.h"

namespace toprr {

/// One scored option.
struct ScoredOption {
  int id = -1;
  double score = 0.0;
};

/// The library-wide ranking order: score descending, ties id ascending
/// (Definition 3's deterministic tie-break). Shared by the naive scan and
/// the SoA scoring kernel (topk/score_kernel.h) so both select identical
/// top-k sequences.
inline bool ScoredBetter(const ScoredOption& a, const ScoredOption& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// The top-k result at one weight vector: ids sorted by score descending
/// (ties id ascending). `kth` duplicates the last entry for convenience.
struct TopkResult {
  std::vector<ScoredOption> entries;  // size k (or fewer if |D| < k)

  int KthId() const { return entries.back().id; }
  double KthScore() const { return entries.back().score; }

  /// Sorted id list (ascending) for set comparisons.
  std::vector<int> IdSet() const;
};

/// Top-k over the full dataset at full weight vector w (dim d).
TopkResult ComputeTopK(const DatasetView& data, const Vec& w, int k);

/// Top-k over the candidate subset `ids` at reduced weights x (dim d-1).
TopkResult ComputeTopKReduced(const DatasetView& data,
                              const std::vector<int>& ids, const Vec& x,
                              int k);

}  // namespace toprr

#endif  // TOPRR_TOPK_TOPK_H_
