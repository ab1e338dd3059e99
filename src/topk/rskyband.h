// r-skyband filtering (Ciaccia & Martinenghi [14]; paper Sec. 6.3).
//
// Option p r-dominates option q w.r.t. a preference region wR when p
// scores at least as high as q for every w in wR (strictly somewhere).
// For a convex wR this reduces to score comparisons at wR's vertices
// (Lemma 1); for the axis-aligned boxes of the evaluation it collapses
// further to a closed-form per-coordinate minimization.
//
// The r-skyband (options r-dominated by fewer than k others) is a superset
// of the top-k result of every w in wR -- the filter the paper selects for
// all TopRR methods (Fig. 8).
#ifndef TOPRR_TOPK_RSKYBAND_H_
#define TOPRR_TOPK_RSKYBAND_H_

#include <vector>

#include "data/dataset.h"
#include "pref/flat_region.h"
#include "pref/pref_space.h"

namespace toprr {

/// True if option a r-dominates option b over the preference box: the
/// minimum of S_x(a) - S_x(b) over the box is >= 0 and the maximum > 0.
/// Exact duplicates (identical rows) are ordered by id so that duplicate
/// blocks cannot inflate the r-skyband.
bool RDominates(const DatasetView& data, int a, int b, const PrefBox& region);

/// The r-skyband of the dataset: ids of options r-dominated by fewer than
/// k others, sorted ascending. `candidates` optionally restricts the
/// computation to a known superset (e.g. the k-skyband) -- by transitivity
/// the result is unchanged.
std::vector<int> RSkyband(const DatasetView& data, const PrefBox& region, int k,
                          const std::vector<int>* candidates = nullptr);

/// General-polytope variant: r-dominance over an arbitrary convex wR,
/// read from its vertices (Lemma 1: a linear score difference is
/// minimized at a vertex). Used for the paper's general convex-polytope
/// preference regions (Sec. 3.1) and the simplex-clipped cache roots.
bool RDominatesVertices(const DatasetView& data, int a, int b,
                        const FlatRegion& region);

std::vector<int> RSkybandVertices(const DatasetView& data,
                                  const FlatRegion& region, int k,
                                  const std::vector<int>* candidates =
                                      nullptr);

}  // namespace toprr

#endif  // TOPRR_TOPK_RSKYBAND_H_
