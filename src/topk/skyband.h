// k-skyband computation (Sec. 2.3 / 6.3 of the paper).
//
// The k-skyband is the set of options dominated by fewer than k others; it
// is a superset of the top-k result of every possible weight vector, and
// the first of the four fast-filtering alternatives compared in Fig. 8.
//
// It is computed by a sort-based scan (no index needed); skyband_test
// checks it against the brute-force dominance-count definition.
//
// For a live catalog (data/snapshot.h) the skyband is additionally
// maintainable *incrementally* across snapshot deltas: KSkybandState
// keeps, next to the ascending member ids, each member's exact dominator
// count (necessarily < k), which is all the state needed to apply a
// delta.
//  * Deleting a non-member is free: every dominator of a member is itself
//    a member (its own dominators dominate the member too), so no member
//    count can include a non-member.
//  * Deleting a member decrements the count of each survivor it
//    dominates, and can promote exactly the live non-members it
//    dominated: a non-member keeps >= k member dominators unless one of
//    them is deleted.
//  * Inserting a row counts its member dominators (joining when < k),
//    bumps the counts of members it dominates, and evicts any that reach
//    k -- O(|skyband| * d) per row.
// Correctness rests on the same transitivity argument as the sort-based
// scan: while an option's dominator count is < k, its member-dominator
// count equals its total dominator count (any non-member dominator is
// itself dominated by >= k members, all of which dominate the option
// too).
//
// Promotion is what a member delete costs: a member can dominate a large
// share of the table (the highest-sum one ~44k of 50k rows at d = 4),
// and almost none of those rows join. For each deleted member x the promotion scan first
// builds a *certificate corner* q, the componentwise minimum of k
// distinct surviving members chosen greedily to keep q close to x. A row
// p with p <= q in every coordinate and p_j < q_j in at least one has
// >= k surviving dominators -- each chosen member m has m >= q >= p and
// m_j >= q_j > p_j -- so it cannot join, and one pass over the live rows
// rejects it with d comparisons instead of a dominator count. (A row
// equal to q is not rejected: no member need be strictly above it.) The
// rows that pass the certificate get an early-exit count against the
// surviving members (stop at k); only the rows still under k -- whose
// survivor count is then exact -- are sorted in band order and have the
// rows joined before them added to it. Joining rows only add dominators,
// so rejecting a row early never changes the result.
//
// The state also carries its *working form*: the members in band order
// (decreasing attribute sum first) with aligned counts, sums and a
// packed copy of their rows (SumOrderedBand). A publish copies it, edits
// it in place and keeps the ascending ids by merge, so a delta without
// member deletes costs O(|delta| * |skyband| * d) plus that one copy --
// no re-sort, no gather from the table. engine_test/skyband_test assert
// bit-identical equality between the incremental path and a full
// rebuild across insert, delete, member delete and mixed delta matrices,
// certificate-corner rows, ties, float-sum collisions and duplicate rows
// included.
#ifndef TOPRR_TOPK_SKYBAND_H_
#define TOPRR_TOPK_SKYBAND_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "data/snapshot.h"

namespace toprr {

/// True if option a dominates option b (componentwise >=, one strict).
bool Dominates(const DatasetView& data, int a, int b);

/// Sort-based k-skyband: scans options in band order (see
/// SumOrderedBand), counting dominators among already-accepted skyband
/// members (sufficient by transitivity). Returns ids sorted ascending.
std::vector<int> SortBasedKSkyband(const DatasetView& data, int k);

/// The members of a k-skyband in band order -- decreasing attribute sum,
/// then coordinates lexicographically descending, then id ascending, the
/// order the rebuild scan uses -- with aligned dominator counts, sums and
/// a packed copy of their rows (scans test every row against a run of
/// members; packed, the members stay in cache instead of being gathered
/// from the table). Every dominator precedes what it dominates in band
/// order: left-to-right floating-point summation is monotone in each
/// addend, so a dominator's sum is >= the row's, and at an equal sum
/// (where rounding may have absorbed a strict difference) its first
/// differing coordinate is the larger. So a row only has to be tested
/// against the members before its Position for dominators and against
/// the members from it on for dominatees.
struct SumOrderedBand {
  size_t dim = 0;
  std::vector<int> ids;
  std::vector<int> counts;   // exact dominator counts, each < k
  std::vector<double> sums;
  std::vector<double> rows;  // member i at [i * dim, (i + 1) * dim)

  size_t size() const { return ids.size(); }
  const double* Row(size_t i) const { return rows.data() + i * dim; }
  /// The number of members preceding row `id` (row p, sum s) in band
  /// order: its index, or where it would be inserted.
  size_t Position(int id, const double* p, double s) const;
  /// Adds member `id` (row p, sum s) at its sorted position.
  void Add(int id, const double* p, int count, double s);
  /// Drops the members at the flagged positions, keeping the order.
  void Erase(const std::vector<bool>& drop);

  bool operator==(const SumOrderedBand& other) const;
};

/// The k-skyband plus per-member dominator counts -- the carry state of
/// incremental maintenance. Invariants: `ids` ascending and equal as a
/// set to `band.ids`; `band.counts[i]` is the exact number of dominators
/// of band.ids[i] in the pool the state was built over, and < k. Two
/// states over the same rows compare equal exactly when they hold the
/// same members with the same counts.
struct KSkybandState {
  std::vector<int> ids;  // ascending: the candidate filter solves read
  SumOrderedBand band;

  bool operator==(const KSkybandState& other) const;
};

/// Sort-based k-skyband restricted to `pool` (e.g. a snapshot's live
/// rows), with dominator counts. The id set equals SortBasedKSkyband over
/// a dataset containing exactly the pool rows.
KSkybandState SortBasedKSkybandPool(const DatasetView& data,
                                    const std::vector<int>& pool, int k);

/// What one KSkybandApplyDelta call's promotion scan saw.
struct KSkybandPromotionStats {
  /// Live non-member rows some deleted member dominated.
  size_t rows = 0;
  /// Of those, the rows the certificate did not reject (dominator-counted).
  size_t counted = 0;
};

/// Carries `state` -- the k-skyband with counts of the delta's parent
/// snapshot -- across `delta` onto the snapshot whose live rows are
/// `live_ids`, in place. `data` must be that snapshot's view (deleted
/// rows stay readable: physical rows are immutable). Deletes apply
/// first, then inserts, one at a time; the result equals
/// SortBasedKSkybandPool(data, live_ids, k) bit for bit. `stats`, when
/// given, receives the promotion scan's tallies.
///
/// A delta deleting more than half of the members (a bulk delete of the
/// top) is rebuilt instead: its promotion scan tests each live row
/// against every deleted member, and the certificate stops paying once
/// the survivors are few. Re-measured with the certificate at n = 50k,
/// d = 4, k = 10 (highest-sum members deleted, rule disabled): the
/// incremental path stops beating the rebuild between 30% (1.10x) and
/// 40% (0.89x) of the members deleted on anti-correlated data, and is
/// still ahead at 61-71% (1.06-1.13x) on independent data -- the same
/// crossover as without the certificate, so the rule stays. Returns
/// false exactly when it rebuilt.
bool KSkybandApplyDelta(const DatasetView& data,
                        const std::vector<int>& live_ids, int k,
                        const SnapshotDelta& delta, KSkybandState* state,
                        KSkybandPromotionStats* stats = nullptr);

}  // namespace toprr

#endif  // TOPRR_TOPK_SKYBAND_H_
