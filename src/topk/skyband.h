// k-skyband computation (Sec. 2.3 / 6.3 of the paper).
//
// The k-skyband is the set of options dominated by fewer than k others; it
// is a superset of the top-k result of every possible weight vector, and
// the first of the four fast-filtering alternatives compared in Fig. 8.
//
// Two implementations are provided: a sort-based scan (fast in practice,
// no index needed) and index-based BBS (see index/rtree.h). They return
// identical sets; tests verify this.
//
// For a live catalog (data/snapshot.h) the skyband is additionally
// maintainable *incrementally* across snapshot deltas: KSkybandState
// keeps, next to the member ids, each member's exact dominator count
// (necessarily < k), which is all the state needed to apply a delta.
//  * Deleting a non-member is free: every dominator of a member is itself
//    a member (its own dominators dominate the member too), so no member
//    count can include a non-member.
//  * Deleting a member decrements the count of each survivor it
//    dominates, and can promote exactly the live non-members it
//    dominated: a non-member keeps >= k member dominators unless one of
//    them is deleted. Those are rescanned against the remaining members.
//  * Inserting a row counts its member dominators (joining when < k),
//    bumps the counts of members it dominates, and evicts any that reach
//    k -- O(|skyband| * d) per row.
// Correctness rests on the same transitivity argument as the sort-based
// scan: while an option's dominator count is < k, its member-dominator
// count equals its total dominator count (any non-member dominator is
// itself dominated by >= k members, all of which dominate the option
// too). engine_test/skyband_test assert bit-identical equality between
// the incremental path and a full rebuild across insert, delete, member
// delete and mixed delta matrices, ties and duplicate rows included.
#ifndef TOPRR_TOPK_SKYBAND_H_
#define TOPRR_TOPK_SKYBAND_H_

#include <vector>

#include "data/dataset.h"
#include "data/snapshot.h"

namespace toprr {

/// True if option a dominates option b (componentwise >=, one strict).
bool Dominates(const DatasetView& data, int a, int b);

/// Sort-based k-skyband: scans options in decreasing attribute-sum order,
/// counting dominators among already-accepted skyband members (sufficient
/// by transitivity). Returns ids sorted ascending.
std::vector<int> SortBasedKSkyband(const DatasetView& data, int k);

/// The k-skyband plus per-member dominator counts -- the carry state of
/// incremental maintenance. Invariants: `ids` ascending; `counts[i]` is
/// the exact number of dominators of ids[i] in the pool it was built
/// over, and counts[i] < k.
struct KSkybandState {
  std::vector<int> ids;
  std::vector<int> counts;
};

/// Sort-based k-skyband restricted to `pool` (e.g. a snapshot's live
/// rows), with dominator counts. The id set equals SortBasedKSkyband over
/// a dataset containing exactly the pool rows.
KSkybandState SortBasedKSkybandPool(const DatasetView& data,
                                    const std::vector<int>& pool, int k);

/// Carries `state` -- the k-skyband with counts of the delta's parent
/// snapshot -- across `delta` onto the snapshot whose live rows are
/// `live_ids`, in place. `data` must be that snapshot's view (deleted
/// rows stay readable: physical rows are immutable). Deletes apply
/// first, then inserts, one at a time; the result is bit-identical to
/// SortBasedKSkybandPool(data, live_ids, k).
///
/// A delta deleting more than half of the members (a bulk delete of the
/// top) is rebuilt instead: its promotion scan tests each live row
/// against the deleted members, and at n = 50k, d = 4, k = 10 the
/// incremental path stopped beating the rebuild at about 35-40% of the
/// members deleted on anti-correlated data (still ahead at 54% on
/// independent data). Returns false exactly when it rebuilt.
bool KSkybandApplyDelta(const DatasetView& data,
                        const std::vector<int>& live_ids, int k,
                        const SnapshotDelta& delta, KSkybandState* state);

}  // namespace toprr

#endif  // TOPRR_TOPK_SKYBAND_H_
