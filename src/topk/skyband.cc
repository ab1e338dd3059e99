#include "topk/skyband.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace toprr {

namespace {

// Componentwise >= with one strict: the dominance test on raw rows.
bool RowDominates(const double* pa, const double* pb, size_t d) {
  bool strict = false;
  for (size_t j = 0; j < d; ++j) {
    if (pa[j] < pb[j]) return false;
    if (pa[j] > pb[j]) strict = true;
  }
  return strict;
}

double RowSum(const double* p, size_t d) {
  double s = 0.0;
  for (size_t j = 0; j < d; ++j) s += p[j];
  return s;
}

bool SumGreater(double a, double b) { return a > b; }

}  // namespace

bool Dominates(const DatasetView& data, int a, int b) {
  return RowDominates(data.Row(a), data.Row(b), data.dim());
}

std::vector<int> SortBasedKSkyband(const DatasetView& data, int k) {
  std::vector<int> pool(data.size());
  std::iota(pool.begin(), pool.end(), 0);
  return SortBasedKSkybandPool(data, pool, k).ids;
}

size_t SumOrderedBand::Lo(double s) const {
  return static_cast<size_t>(
      std::lower_bound(sums.begin(), sums.end(), s, SumGreater) -
      sums.begin());
}

size_t SumOrderedBand::Hi(double s) const {
  return static_cast<size_t>(
      std::upper_bound(sums.begin(), sums.end(), s, SumGreater) -
      sums.begin());
}

void SumOrderedBand::Add(int id, const double* p, int count, double s) {
  size_t pos = Lo(s);
  while (pos < sums.size() && sums[pos] == s && ids[pos] < id) ++pos;
  const auto at = static_cast<ptrdiff_t>(pos);
  ids.insert(ids.begin() + at, id);
  counts.insert(counts.begin() + at, count);
  sums.insert(sums.begin() + at, s);
  rows.insert(rows.begin() + at * static_cast<ptrdiff_t>(dim), p, p + dim);
}

void SumOrderedBand::Erase(const std::vector<bool>& drop) {
  size_t w = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (drop[i]) continue;
    if (w != i) {
      ids[w] = ids[i];
      counts[w] = counts[i];
      sums[w] = sums[i];
      std::copy(Row(i), Row(i) + dim,
                rows.begin() + static_cast<ptrdiff_t>(w * dim));
    }
    ++w;
  }
  ids.resize(w);
  counts.resize(w);
  sums.resize(w);
  rows.resize(w * dim);
}

bool SumOrderedBand::operator==(const SumOrderedBand& other) const {
  return dim == other.dim && ids == other.ids && counts == other.counts &&
         sums == other.sums && rows == other.rows;
}

bool KSkybandState::operator==(const KSkybandState& other) const {
  return ids == other.ids && band == other.band;
}

KSkybandState SortBasedKSkybandPool(const DatasetView& data,
                                    const std::vector<int>& pool, int k) {
  CHECK_GT(k, 0);
  const size_t d = data.dim();
  std::vector<double> sums(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    sums[i] = RowSum(data.Row(pool[i]), d);
  }
  std::vector<size_t> perm(pool.size());
  std::iota(perm.begin(), perm.end(), 0);
  // Decreasing attribute sum: any dominator of p precedes p (a dominator
  // has componentwise >= values, hence a >= sum; exact ties with equal sum
  // imply equal points, which do not dominate). Ties break id ascending.
  std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    if (sums[a] != sums[b]) return sums[a] > sums[b];
    return pool[a] < pool[b];
  });

  KSkybandState state;
  SumOrderedBand& band = state.band;
  band.dim = d;
  for (const size_t pi : perm) {
    const int id = pool[pi];
    int dominators = 0;
    bool keep = true;
    for (const int s : band.ids) {
      if (Dominates(data, s, id) && ++dominators >= k) {
        keep = false;
        break;
      }
    }
    if (keep) {
      // The scan ran over every accepted member, and every dominator of
      // `id` in the pool precedes it in sum order and was accepted (by
      // transitivity a rejected dominator implies >= k accepted ones),
      // so `dominators` is id's exact pool-wide dominator count.
      const double* p = data.Row(id);
      band.ids.push_back(id);
      band.counts.push_back(dominators);
      band.sums.push_back(sums[pi]);
      band.rows.insert(band.rows.end(), p, p + d);
    }
  }
  state.ids = band.ids;
  std::sort(state.ids.begin(), state.ids.end());
  return state;
}

namespace {

// Writes to q the certificate corner of deleted member x: the
// componentwise minimum of k distinct members of `band` (which must hold
// at least k). The corner's shortfall below x in coordinate j is the
// largest shortfall x_j - m_j of a chosen member there, so its worst
// shortfall is the largest worst shortfall of a chosen member: the
// greedy choice that keeps the box under q closest to x in every
// coordinate takes the k members whose worst shortfall is smallest
// (ties: smaller total shortfall, then band position). Members that
// dominate x cost nothing and come first. O(|band| * d).
void CertificateCorner(const SumOrderedBand& band, int k, const double* x,
                       double* q) {
  struct Pick {
    double worst;
    double total;
    size_t pos;
    bool operator<(const Pick& o) const {
      if (worst != o.worst) return worst < o.worst;
      if (total != o.total) return total < o.total;
      return pos < o.pos;
    }
  };
  const size_t d = band.dim;
  const size_t want = static_cast<size_t>(k);
  std::vector<Pick> best;  // the `want` smallest picks so far, ascending
  best.reserve(want + 1);
  for (size_t i = 0; i < band.size(); ++i) {
    const double* m = band.Row(i);
    const double bound = best.size() == want
                             ? best.back().worst
                             : std::numeric_limits<double>::infinity();
    Pick pick{0.0, 0.0, i};
    bool over = false;
    for (size_t j = 0; j < d && !over; ++j) {
      const double gap = x[j] > m[j] ? x[j] - m[j] : 0.0;
      over = gap > bound;
      pick.worst = std::max(pick.worst, gap);
      pick.total += gap;
    }
    if (over || (best.size() == want && !(pick < best.back()))) continue;
    best.insert(std::upper_bound(best.begin(), best.end(), pick), pick);
    if (best.size() > want) best.pop_back();
  }
  std::fill(q, q + d, std::numeric_limits<double>::infinity());
  for (const Pick& pick : best) {
    const double* m = band.Row(pick.pos);
    for (size_t j = 0; j < d; ++j) q[j] = std::min(q[j], m[j]);
  }
}

// p <= q everywhere and p < q somewhere: every member behind q dominates
// p (see the header).
bool BelowCorner(const double* p, const double* q, size_t d) {
  bool strict = false;
  for (size_t j = 0; j < d; ++j) {
    if (p[j] > q[j]) return false;
    if (p[j] < q[j]) strict = true;
  }
  return strict;
}

// Deletes the members `gone` (ascending). Every dominator of a member is
// a member, so a survivor loses exactly one count per deleted member
// dominating it. A live non-member keeps its >= k member dominators
// unless a deleted member was among them, so only the non-members some
// deleted member dominates can join. One pass over the live rows drops
// those that the certificate of the first deleted member dominating them
// rejects, and those with >= k dominators among the survivors; the rest
// are taken in decreasing-sum order and their survivor count topped up
// with the rows joined before them, which by the header's transitivity
// argument is their exact count whenever that is < k. `members` are the
// parent's member ids; `inserted` rows are skipped: the insert phase
// folds them in afterwards. Rows that join are appended to `joined`.
void ApplyMemberDeletes(const DatasetView& data,
                        const std::vector<int>& live_ids, int k,
                        const std::vector<int>& gone,
                        const std::vector<int>& inserted,
                        const std::vector<int>& members,
                        SumOrderedBand* band, std::vector<int>* joined,
                        KSkybandPromotionStats* stats) {
  const size_t d = band->dim;
  std::vector<bool> drop(band->size());
  for (size_t i = 0; i < band->size(); ++i) {
    drop[i] = std::binary_search(gone.begin(), gone.end(), band->ids[i]);
  }
  band->Erase(drop);

  std::vector<double> gone_rows;  // packed: deleted member g at [g * d, ...)
  gone_rows.reserve(gone.size() * d);
  for (const int x : gone) {
    const double* px = data.Row(x);
    gone_rows.insert(gone_rows.end(), px, px + d);
    // Only members with sum <= x's can be dominated by x.
    for (size_t i = band->Lo(RowSum(px, d)); i < band->size(); ++i) {
      if (RowDominates(px, band->Row(i), d)) --band->counts[i];
    }
  }
  // Certificates are built on first use: with many deleted members most
  // are never the first to dominate a row.
  const bool certified = band->size() >= static_cast<size_t>(k);
  std::vector<double> corners(gone.size() * d);
  std::vector<bool> built(gone.size());

  // Parent members and the inserts are skipped: both id lists are
  // ascending, so one merge walk finds them.
  struct Candidate {
    double sum;
    int id;
    int survivors;  // its dominators among the surviving members
  };
  std::vector<Candidate> candidates;
  size_t m = 0;
  size_t ins = 0;
  for (const int id : live_ids) {
    const double* p = data.Row(id);
    size_t g = 0;
    while (g < gone.size() && !RowDominates(&gone_rows[g * d], p, d)) ++g;
    if (g == gone.size()) continue;
    while (m < members.size() && members[m] < id) ++m;
    if (m < members.size() && members[m] == id) continue;
    while (ins < inserted.size() && inserted[ins] < id) ++ins;
    if (ins < inserted.size() && inserted[ins] == id) continue;
    ++stats->rows;
    if (certified) {
      double* q = &corners[g * d];
      if (!built[g]) {
        CertificateCorner(*band, k, &gone_rows[g * d], q);
        built[g] = true;
      }
      if (BelowCorner(p, q, d)) continue;
    }
    ++stats->counted;
    // The prefix and the equal-sum band hold every member that can
    // dominate the row; >= k of them already rules it out.
    const double s = RowSum(p, d);
    const size_t hi = band->Hi(s);
    int dominators = 0;
    for (size_t i = 0; i < hi && dominators < k; ++i) {
      if (RowDominates(band->Row(i), p, d)) ++dominators;
    }
    if (dominators < k) candidates.push_back({s, id, dominators});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.sum != b.sum) return a.sum > b.sum;
              return a.id < b.id;
            });
  // A candidate's survivor count is exact (its scan did not stop early),
  // so only the rows joined before it remain to be counted.
  std::vector<double> joined_rows;  // packed, in join order
  for (const Candidate& c : candidates) {
    const double* p = data.Row(c.id);
    int dominators = c.survivors;
    for (size_t j = 0; j < joined_rows.size() && dominators < k; j += d) {
      if (RowDominates(&joined_rows[j], p, d)) ++dominators;
    }
    if (dominators < k) {
      band->Add(c.id, p, dominators, c.sum);
      joined->push_back(c.id);
      joined_rows.insert(joined_rows.end(), p, p + d);
    }
  }
}

// Folds each inserted row in: counts its member dominators (joining when
// < k), increments the counts of members it dominates, and evicts
// members whose count reaches k. Exact for any one-at-a-time order. Rows
// that join are appended to `joined`, evicted members to `left`.
void ApplyInserts(const DatasetView& data, int k,
                  const std::vector<int>& inserted, SumOrderedBand* band,
                  std::vector<int>* joined, std::vector<int>* left) {
  const size_t d = band->dim;
  std::vector<bool> drop;
  for (const int r : inserted) {
    const double* p = data.Row(r);
    const double s = RowSum(p, d);
    const size_t lo = band->Lo(s);
    const size_t hi = band->Hi(s);
    int dominators = 0;
    for (size_t i = 0; i < lo && dominators < k; ++i) {
      if (RowDominates(band->Row(i), p, d)) ++dominators;
    }
    bool evicts = false;
    const auto bump = [&](size_t i) {
      if (++band->counts[i] >= k) evicts = true;
    };
    for (size_t i = lo; i < hi; ++i) {
      if (dominators < k && RowDominates(band->Row(i), p, d)) {
        ++dominators;
      } else if (RowDominates(p, band->Row(i), d)) {
        bump(i);
      }
    }
    for (size_t i = hi; i < band->size(); ++i) {
      if (RowDominates(p, band->Row(i), d)) bump(i);
    }
    if (evicts) {
      // Evicted members remain live rows, so surviving members' counts
      // (which may include them) are untouched.
      drop.assign(band->size(), false);
      for (size_t i = 0; i < band->size(); ++i) {
        if (band->counts[i] >= k) {
          drop[i] = true;
          left->push_back(band->ids[i]);
        }
      }
      band->Erase(drop);
    }
    // The prefix and band scans covered every member with sum >= s, so
    // `dominators` is r's exact member-dominator count (and, while < k,
    // its exact pool-wide count by the header's transitivity argument).
    if (dominators < k) {
      band->Add(r, p, dominators, s);
      joined->push_back(r);
    }
  }
}

}  // namespace

bool KSkybandApplyDelta(const DatasetView& data,
                        const std::vector<int>& live_ids, int k,
                        const SnapshotDelta& delta, KSkybandState* state,
                        KSkybandPromotionStats* stats) {
  CHECK_GT(k, 0);
  KSkybandPromotionStats local;
  if (stats == nullptr) stats = &local;
  *stats = KSkybandPromotionStats{};
  // Deleted members, ascending (both inputs are). Deleted non-members
  // need no work at all.
  std::vector<int> gone;
  std::set_intersection(delta.deleted.begin(), delta.deleted.end(),
                        state->ids.begin(), state->ids.end(),
                        std::back_inserter(gone));
  if (2 * gone.size() > state->ids.size()) {
    *state = SortBasedKSkybandPool(data, live_ids, k);
    return false;
  }
  if (gone.empty() && delta.inserted.empty()) return true;
  std::vector<int> joined;
  std::vector<int> left = gone;
  if (!gone.empty()) {
    ApplyMemberDeletes(data, live_ids, k, gone, delta.inserted, state->ids,
                       &state->band, &joined, stats);
  }
  ApplyInserts(data, k, delta.inserted, &state->band, &joined, &left);
  if (joined.empty() && left.empty()) return true;

  // The ascending ids by merge. A parent member never rejoins within a
  // delta (a deleted one is gone; an evicted one only gains dominators
  // afterwards), so the members are the parent's minus `left` plus the
  // rows that joined and did not leave again.
  std::sort(left.begin(), left.end());
  std::sort(joined.begin(), joined.end());
  std::vector<int> kept;
  kept.reserve(state->ids.size());
  std::set_difference(state->ids.begin(), state->ids.end(), left.begin(),
                      left.end(), std::back_inserter(kept));
  std::vector<int> fresh;
  std::set_difference(joined.begin(), joined.end(), left.begin(), left.end(),
                      std::back_inserter(fresh));
  state->ids.clear();
  std::merge(kept.begin(), kept.end(), fresh.begin(), fresh.end(),
             std::back_inserter(state->ids));
  return true;
}

}  // namespace toprr
