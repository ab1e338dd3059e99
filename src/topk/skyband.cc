#include "topk/skyband.h"

#include <algorithm>
#include <iterator>
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

}  // namespace

bool Dominates(const DatasetView& data, int a, int b) {
  return RowDominates(data.Row(a), data.Row(b), data.dim());
}

std::vector<int> SortBasedKSkyband(const DatasetView& data, int k) {
  std::vector<int> pool(data.size());
  std::iota(pool.begin(), pool.end(), 0);
  return SortBasedKSkybandPool(data, pool, k).ids;
}

KSkybandState SortBasedKSkybandPool(const DatasetView& data,
                                    const std::vector<int>& pool, int k) {
  CHECK_GT(k, 0);
  const size_t d = data.dim();
  std::vector<int> order(pool);
  std::vector<double> sums(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    const double* p = data.Row(pool[i]);
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) s += p[j];
    sums[i] = s;
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
  for (const size_t pi : perm) {
    const int id = pool[pi];
    int dominators = 0;
    bool keep = true;
    for (const int s : state.ids) {
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
      state.ids.push_back(id);
      state.counts.push_back(dominators);
    }
  }
  // Ascending id order, counts kept aligned.
  std::vector<size_t> by_id(state.ids.size());
  std::iota(by_id.begin(), by_id.end(), 0);
  std::sort(by_id.begin(), by_id.end(), [&](size_t a, size_t b) {
    return state.ids[a] < state.ids[b];
  });
  KSkybandState sorted;
  sorted.ids.reserve(state.ids.size());
  sorted.counts.reserve(state.ids.size());
  for (const size_t i : by_id) {
    sorted.ids.push_back(state.ids[i]);
    sorted.counts.push_back(state.counts[i]);
  }
  return sorted;
}

namespace {

double RowSum(const double* p, size_t d) {
  double s = 0.0;
  for (size_t j = 0; j < d; ++j) s += p[j];
  return s;
}

bool SumGreater(double a, double b) { return a > b; }

// The working form of a KSkybandState: members in decreasing
// attribute-sum order (ties id-ascending), the order the rebuild scan
// uses, with aligned counts, sums and a packed copy of their rows (the
// scans below test every row against a run of members; packed, the
// members stay in cache instead of being gathered from the table).
// Dominance is componentwise >=, and left-to-right floating-point
// summation is monotone in each addend, so every dominator of a row has
// sum >= the row's sum and every row it dominates has sum <= it. A row
// therefore only has to be tested against the higher-sum prefix for
// dominators -- stopping as soon as k are found, since the exact count
// only matters for rows that join -- and against the lower-sum suffix
// for dominatees. Equal-sum members (where rounding may have absorbed a
// strict difference) get the two-way check.
struct SumOrderedBand {
  size_t dim;
  std::vector<int> ids;
  std::vector<int> counts;
  std::vector<double> sums;
  std::vector<double> rows;  // member i at [i * dim, (i + 1) * dim)

  SumOrderedBand(const DatasetView& data, const KSkybandState& state)
      : dim(data.dim()) {
    const size_t n = state.ids.size();
    std::vector<double> s0(n);
    for (size_t i = 0; i < n; ++i) {
      s0[i] = RowSum(data.Row(state.ids[i]), dim);
    }
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
      if (s0[a] != s0[b]) return s0[a] > s0[b];
      return state.ids[a] < state.ids[b];
    });
    ids.reserve(n);
    counts.reserve(n);
    sums.reserve(n);
    rows.reserve(n * dim);
    for (const size_t i : perm) {
      ids.push_back(state.ids[i]);
      counts.push_back(state.counts[i]);
      sums.push_back(s0[i]);
      const double* p = data.Row(state.ids[i]);
      rows.insert(rows.end(), p, p + dim);
    }
  }

  const double* Row(size_t i) const { return rows.data() + i * dim; }

  // [lo, hi): the members whose sum equals s.
  size_t Lo(double s) const {
    return static_cast<size_t>(
        std::lower_bound(sums.begin(), sums.end(), s, SumGreater) -
        sums.begin());
  }
  size_t Hi(double s) const {
    return static_cast<size_t>(
        std::upper_bound(sums.begin(), sums.end(), s, SumGreater) -
        sums.begin());
  }

  // Adds member r (row p, sum s) at its sorted position.
  void Add(int r, const double* p, int count, double s) {
    size_t pos = Lo(s);
    while (pos < sums.size() && sums[pos] == s && ids[pos] < r) ++pos;
    const auto at = static_cast<ptrdiff_t>(pos);
    ids.insert(ids.begin() + at, r);
    counts.insert(counts.begin() + at, count);
    sums.insert(sums.begin() + at, s);
    rows.insert(rows.begin() + at * static_cast<ptrdiff_t>(dim), p, p + dim);
  }

  // Drops every member `drop(i)` selects, keeping the order.
  template <typename Drop>
  void EraseIf(Drop drop) {
    size_t w = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (drop(i)) continue;
      ids[w] = ids[i];
      counts[w] = counts[i];
      sums[w] = sums[i];
      std::copy(Row(i), Row(i) + dim, rows.begin() +
                                          static_cast<ptrdiff_t>(w * dim));
      ++w;
    }
    ids.resize(w);
    counts.resize(w);
    sums.resize(w);
    rows.resize(w * dim);
  }

  // Back to the state's ascending-id representation.
  void Store(KSkybandState* state) const {
    std::vector<size_t> by_id(ids.size());
    std::iota(by_id.begin(), by_id.end(), 0);
    std::sort(by_id.begin(), by_id.end(),
              [&](size_t a, size_t b) { return ids[a] < ids[b]; });
    state->ids.clear();
    state->counts.clear();
    for (const size_t i : by_id) {
      state->ids.push_back(ids[i]);
      state->counts.push_back(counts[i]);
    }
  }
};

// Deletes the members `gone` (ascending). Every dominator of a member is
// a member, so a survivor loses exactly one count per deleted member
// dominating it. A live non-member keeps its >= k member dominators
// unless a deleted member was among them, so only the non-members some
// deleted member dominates can join; in decreasing-sum order each is
// counted against the members (survivors plus the rows joined before
// it), which by the header's transitivity argument is its exact count
// whenever that is < k. `inserted` rows are skipped: the insert phase
// folds them in afterwards.
void ApplyMemberDeletes(const DatasetView& data,
                        const std::vector<int>& live_ids, int k,
                        const std::vector<int>& gone,
                        const std::vector<int>& inserted,
                        const std::vector<int>& members,
                        SumOrderedBand* band) {
  const size_t d = band->dim;
  band->EraseIf([&](size_t i) {
    return std::binary_search(gone.begin(), gone.end(), band->ids[i]);
  });
  for (size_t i = 0; i < band->ids.size(); ++i) {
    for (const int x : gone) {
      if (RowDominates(data.Row(x), band->Row(i), d)) --band->counts[i];
    }
  }

  // Live rows outside the parent band and the inserts: both id lists
  // are ascending, so one merge walk skips them.
  std::vector<std::pair<double, int>> candidates;  // (sum, id)
  size_t m = 0;
  size_t ins = 0;
  for (const int id : live_ids) {
    while (m < members.size() && members[m] < id) ++m;
    if (m < members.size() && members[m] == id) continue;
    while (ins < inserted.size() && inserted[ins] < id) ++ins;
    if (ins < inserted.size() && inserted[ins] == id) continue;
    const double* p = data.Row(id);
    for (const int x : gone) {
      if (RowDominates(data.Row(x), p, d)) {
        candidates.emplace_back(RowSum(p, d), id);
        break;
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const std::pair<double, int>& a,
               const std::pair<double, int>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (const auto& [s, id] : candidates) {
    // The prefix and the equal-sum band hold every member that can
    // dominate the row.
    const double* p = data.Row(id);
    const size_t hi = band->Hi(s);
    int dominators = 0;
    for (size_t i = 0; i < hi && dominators < k; ++i) {
      if (RowDominates(band->Row(i), p, d)) ++dominators;
    }
    if (dominators < k) band->Add(id, p, dominators, s);
  }
}

// Folds each inserted row in: counts its member dominators (joining when
// < k), increments the counts of members it dominates, and evicts
// members whose count reaches k. Exact for any one-at-a-time order.
void ApplyInserts(const DatasetView& data, int k,
                  const std::vector<int>& inserted, SumOrderedBand* band) {
  const size_t d = band->dim;
  for (const int r : inserted) {
    const double* p = data.Row(r);
    const double s = RowSum(p, d);
    const size_t lo = band->Lo(s);
    const size_t hi = band->Hi(s);
    int dominators = 0;
    for (size_t i = 0; i < lo && dominators < k; ++i) {
      if (RowDominates(band->Row(i), p, d)) ++dominators;
    }
    bool bumped = false;
    for (size_t i = lo; i < hi; ++i) {
      if (dominators < k && RowDominates(band->Row(i), p, d)) {
        ++dominators;
      } else if (RowDominates(p, band->Row(i), d)) {
        ++band->counts[i];
        bumped = true;
      }
    }
    for (size_t i = hi; i < band->ids.size(); ++i) {
      if (RowDominates(p, band->Row(i), d)) {
        ++band->counts[i];
        bumped = true;
      }
    }
    if (bumped) {
      // Evicted members remain live rows, so surviving members' counts
      // (which may include them) are untouched.
      band->EraseIf([&](size_t i) { return band->counts[i] >= k; });
    }
    // The prefix and band scans covered every member with sum >= s, so
    // `dominators` is r's exact member-dominator count (and, while < k,
    // its exact pool-wide count by the header's transitivity argument).
    if (dominators < k) band->Add(r, p, dominators, s);
  }
}

}  // namespace

bool KSkybandApplyDelta(const DatasetView& data,
                        const std::vector<int>& live_ids, int k,
                        const SnapshotDelta& delta, KSkybandState* state) {
  CHECK_GT(k, 0);
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
  SumOrderedBand band(data, *state);
  if (!gone.empty()) {
    ApplyMemberDeletes(data, live_ids, k, gone, delta.inserted, state->ids,
                       &band);
  }
  ApplyInserts(data, k, delta.inserted, &band);
  band.Store(state);
  return true;
}

}  // namespace toprr
