#include "core/partition.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "core/scheduler.h"
#include "pref/flat_region.h"
#include "pref/pref_space.h"
#include "topk/score_kernel.h"
#include "topk/topk.h"

namespace toprr {
namespace {

// A view over the first `size` pooled profiles of a ScoreArena. The
// arena's profile pool never shrinks, so the region's vertex count is
// carried here instead of in the container's size.
struct ProfileSpan {
  TopkResult* data = nullptr;
  size_t count = 0;

  TopkResult& operator[](size_t i) const { return data[i]; }
  size_t size() const { return count; }
  TopkResult* begin() const { return data; }
  TopkResult* end() const { return data + count; }
};

// Per-vertex top-k profiles for a region: gathers the candidate pool
// into the arena's SoA block once and sweeps the task's flat vertex
// buffer in place, reusing rows memoized by the parent split, if any.
// Bit-identical to a per-vertex ComputeTopKReduced scan (see
// topk/score_kernel.h).
void ComputeProfiles(const DatasetView& data, const RegionTask& work,
                     ScoreKernel& kernel, const ProfileSpan& profiles) {
  const FlatRegion& region = work.region;
  const size_t num_vertices = region.num_vertices();
  kernel.LoadBlock(data, work.candidates);
  kernel.ScoreVertices(region.coords().data(), num_vertices,
                       work.parent_scores.get());
  for (size_t v = 0; v < num_vertices; ++v) {
    kernel.TopKInto(v, work.k, profiles[v]);
  }
}

// True if the first `count` entries of every profile form the same id set.
bool SamePrefixSet(const ProfileSpan& profiles, size_t count) {
  std::vector<int> reference;
  for (size_t p = 0; p < profiles.size(); ++p) {
    std::vector<int> ids;
    ids.reserve(count);
    for (size_t i = 0; i < count; ++i) ids.push_back(profiles[p].entries[i].id);
    std::sort(ids.begin(), ids.end());
    if (p == 0) {
      reference = std::move(ids);
    } else if (ids != reference) {
      return false;
    }
  }
  return true;
}

// Applies Lemma 5: removes the largest common top-lambda prefix set
// (lambda < k) from the candidate pool and decrements k. Profiles are
// updated in place by dropping their first lambda entries (the remaining
// entries are exactly the top-(k-lambda) of the reduced pool).
// Returns lambda (0 when nothing was pruned).
int ApplyLemma5(const ProfileSpan& profiles, RegionTask& work) {
  const int k = work.k;
  if (k <= 1) return 0;
  int lambda = 0;
  for (int cand = k - 1; cand >= 1; --cand) {
    if (SamePrefixSet(profiles, static_cast<size_t>(cand))) {
      lambda = cand;
      break;
    }
  }
  if (lambda == 0) return 0;

  std::vector<int> phi;
  phi.reserve(lambda);
  for (int i = 0; i < lambda; ++i) phi.push_back(profiles[0].entries[i].id);
  std::sort(phi.begin(), phi.end());

  std::vector<int> reduced;
  reduced.reserve(work.candidates.size() - phi.size());
  for (int id : work.candidates) {
    if (!std::binary_search(phi.begin(), phi.end(), id)) {
      reduced.push_back(id);
    }
  }
  work.candidates = std::move(reduced);
  work.k -= lambda;
  work.pruned.insert(work.pruned.end(), phi.begin(), phi.end());
  for (TopkResult& profile : profiles) {
    profile.entries.erase(profile.entries.begin(),
                          profile.entries.begin() + lambda);
  }
  return lambda;
}

// Candidate splitting pair (pz1, pz2) whose score-equality hyperplane is
// proposed as the cut.
using SplitPair = std::pair<int, int>;

// k-switch hyperplane selection (Definition 4) for a Case-1 violation
// between vertices va and vb. Returns (-1, -1) when LC is empty for both
// orientations. The vertex scores are read from the kernel's scored
// buffer (bit-identical to rescoring, see topk/score_kernel.h).
SplitPair KSwitchPair(const ProfileSpan& profiles, const ScoreKernel& kernel,
                      size_t va, size_t vb) {
  const auto attempt = [&](size_t a, size_t b) -> SplitPair {
    const int pz1 = profiles[a].KthId();
    const double pz1_at_a = kernel.ScoreOf(a, pz1);
    const double pz1_at_b = kernel.ScoreOf(b, pz1);
    int best = -1;
    double best_gap = 0.0;
    for (const ScoredOption& entry : profiles[b].entries) {
      const int p = entry.id;
      if (p == pz1) continue;
      const double p_at_a = kernel.ScoreOf(a, p);
      const double p_at_b = entry.score;
      if (p_at_a < pz1_at_a && p_at_b > pz1_at_b) {
        const double gap = pz1_at_a - p_at_a;
        if (best < 0 || gap < best_gap) {
          best = p;
          best_gap = gap;
        }
      }
    }
    return {pz1, best};
  };
  SplitPair pair = attempt(va, vb);
  if (pair.second >= 0) return pair;
  pair = attempt(vb, va);
  if (pair.second >= 0) return pair;
  return {-1, -1};
}

// Builds an ordered list of splitting pairs to try. The first entry is the
// method's primary choice; the rest are fallbacks guaranteeing progress
// under numeric ties. `salt` drives the pseudo-random pair choice of the
// non-k-switch strategy (the paper's TAS picks a violating pair at
// random; we use a deterministic per-region hash for reproducibility).
std::vector<SplitPair> ChooseSplitPairs(const ProfileSpan& profiles,
                                        const ScoreKernel& kernel,
                                        const PartitionConfig& config,
                                        uint64_t salt) {
  std::vector<SplitPair> pairs;
  const size_t nv = profiles.size();
  const auto push_unique = [&pairs](int a, int b) {
    if (a == b || a < 0 || b < 0) return;
    for (const SplitPair& p : pairs) {
      if ((p.first == a && p.second == b) ||
          (p.first == b && p.second == a)) {
        return;
      }
    }
    pairs.emplace_back(a, b);
  };

  if (config.ordered_invariance) {
    // PAC: first rank position where two vertices' ordered lists differ.
    for (size_t a = 0; a < nv; ++a) {
      for (size_t b = a + 1; b < nv; ++b) {
        const auto& ea = profiles[a].entries;
        const auto& eb = profiles[b].entries;
        for (size_t r = 0; r < ea.size(); ++r) {
          if (ea[r].id != eb[r].id) {
            push_unique(ea[r].id, eb[r].id);
            break;
          }
        }
      }
    }
    return pairs;
  }

  // Locate a Case-1 violation (different top-k sets). Each vertex's
  // sorted id set is materialized once; the old code re-sorted inside
  // every pairwise comparison.
  std::vector<std::vector<int>> id_sets(nv);
  for (size_t v = 0; v < nv; ++v) id_sets[v] = profiles[v].IdSet();
  size_t va = nv;
  size_t vb = nv;
  for (size_t a = 0; a < nv && va == nv; ++a) {
    for (size_t b = a + 1; b < nv; ++b) {
      if (id_sets[a] != id_sets[b]) {
        va = a;
        vb = b;
        break;
      }
    }
  }

  if (va < nv) {
    if (config.use_kswitch) {
      const SplitPair ks = KSwitchPair(profiles, kernel, va, vb);
      if (ks.second >= 0) push_unique(ks.first, ks.second);
    }
    // Plain Case-1 pairs: options in one set but not the other, tried in
    // a pseudo-random rotation (the paper's TAS chooses among them at
    // random).
    const std::vector<int>& sa = id_sets[va];
    const std::vector<int>& sb = id_sets[vb];
    std::vector<int> only_a;
    std::vector<int> only_b;
    std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(only_a));
    std::set_difference(sb.begin(), sb.end(), sa.begin(), sa.end(),
                        std::back_inserter(only_b));
    const size_t combos = only_a.size() * only_b.size();
    if (combos > 0) {
      // splitmix64 step over the salt for a well-scrambled start index.
      uint64_t z = salt + 0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      const size_t start = static_cast<size_t>(z % combos);
      for (size_t step = 0; step < combos; ++step) {
        const size_t idx = (start + step) % combos;
        push_unique(only_a[idx / only_b.size()],
                    only_b[idx % only_b.size()]);
      }
    }
  }

  // Case-2 pairs: same sets, different top-k-th options.
  for (size_t a = 0; a < nv; ++a) {
    for (size_t b = a + 1; b < nv; ++b) {
      if (profiles[a].KthId() != profiles[b].KthId()) {
        push_unique(profiles[a].KthId(), profiles[b].KthId());
      }
    }
  }
  return pairs;
}

// Sorted deduplicated union of the profiles' entry ids (ascending), the
// sorted-vector replacement for the old throwaway std::set unions.
std::vector<int> SortedEntryUnion(const ProfileSpan& profiles,
                                  std::vector<int> seed) {
  std::vector<int> ids = std::move(seed);
  size_t total = ids.size();
  for (const TopkResult& profile : profiles) total += profile.entries.size();
  ids.reserve(total);
  for (const TopkResult& profile : profiles) {
    for (const ScoredOption& e : profile.entries) ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// Exhaustive fallback when every preferred pair's hyperplane fails to cut
// (possible under exact score ties at region vertices, where Lemma 4's
// strictness argument degenerates): any pair of options from the union of
// the vertices' top-k sets whose *strict* score order flips between two
// vertices is guaranteed to strictly separate those vertices, hence to
// cut the region. If no such pair exists, every ranking difference across
// the region is a tie and accepting the region is correct.
std::vector<SplitPair> ExhaustiveFlipPairs(
    const DatasetView& data, const FlatRegion& region,
    const ProfileSpan& profiles, double eps) {
  const std::vector<int> options = SortedEntryUnion(profiles, {});
  const size_t num_vertices = region.num_vertices();
  const size_t m = region.dim();
  std::vector<SplitPair> pairs;
  for (size_t i = 0; i < options.size(); ++i) {
    for (size_t j = i + 1; j < options.size(); ++j) {
      bool positive = false;
      bool negative = false;
      for (size_t v = 0; v < num_vertices; ++v) {
        const double diff =
            ReducedScoreDiff(data.Row(options[i]), data.Row(options[j]),
                             region.vertex(v), m);
        if (diff > eps) positive = true;
        if (diff < -eps) negative = true;
        if (positive && negative) break;
      }
      if (positive && negative) pairs.emplace_back(options[i], options[j]);
    }
  }
  return pairs;
}

// Fills the acceptance payload of `out` from an accepted task.
void FillAcceptPayload(const PartitionConfig& config, const RegionTask& work,
                       const ProfileSpan& profiles, RegionOutcome& out) {
  out.accepted = true;
  const size_t num_vertices = work.region.num_vertices();
  out.vall.reserve(num_vertices);
  for (size_t v = 0; v < num_vertices; ++v) {
    out.vall.push_back(work.region.VertexVec(v));
  }
  if (config.collect_topk_union) {
    out.topk_ids = SortedEntryUnion(profiles, work.pruned);
  }
  if (config.collect_flat_cells) {
    // Copy (not move): `vall` above already snapshotted the vertices, and
    // the region itself must survive for the cache entry.
    out.flat_cell = work.region;
  }
}

}  // namespace

RegionOutcome TestAndSplitRegion(const DatasetView& data,
                                 const PartitionConfig& config,
                                 RegionTask work, ScoreArena& arena,
                                 GeomArena& geom_arena) {
  RegionOutcome out;
  if (GlobalLogLevel() == LogLevel::kDebug) {
    LOG(DEBUG) << "region " << work.id << ": |V|="
               << work.region.num_vertices() << " |F|="
               << work.region.num_facets() << " |D'|="
               << work.candidates.size() << " k=" << work.k;
  }

  ScoreKernel kernel(arena);
  const size_t num_vertices = work.region.num_vertices();
  const ProfileSpan profiles{arena.Profiles(num_vertices).data(),
                             num_vertices};
  ComputeProfiles(data, work, kernel, profiles);
  if (config.use_lemma5 && ApplyLemma5(profiles, work) > 0) {
    out.lemma5_pruned = true;
  }

  // Acceptance test.
  bool accepted = false;
  if (config.ordered_invariance) {
    accepted = true;
    for (size_t p = 1; p < profiles.size() && accepted; ++p) {
      for (size_t r = 0; r < profiles[0].entries.size(); ++r) {
        if (profiles[p].entries[r].id != profiles[0].entries[r].id) {
          accepted = false;
          break;
        }
      }
    }
    if (accepted) out.kipr_accept = true;
  } else {
    // Plain kIPR test (Lemma 3): same top-k set, same top-k-th option.
    const bool same_set = SamePrefixSet(profiles, profiles[0].entries.size());
    bool same_kth = true;
    for (size_t p = 1; p < profiles.size(); ++p) {
      if (profiles[p].KthId() != profiles[0].KthId()) {
        same_kth = false;
        break;
      }
    }
    if (same_set && same_kth) {
      accepted = true;
      out.kipr_accept = true;
    } else if (config.use_lemma7) {
      // Optimized test (Lemma 7, via Lemma 6): if every vertex shares
      // the same top-(k-1) set, the impact halfspaces at the vertices
      // already define the region's TopRR solution. k == 1 is Lemma 6
      // directly: no invariance needed at all.
      if (work.k == 1 ||
          SamePrefixSet(profiles, static_cast<size_t>(work.k - 1))) {
        accepted = true;
        out.lemma7_accept = true;
      }
    }
  }
  if (accepted) {
    FillAcceptPayload(config, work, profiles, out);
    return out;
  }

  // Split. Try the method's preferred pair first; fall back to any
  // violating pair whose hyperplane actually cuts the region (Lemma 4
  // guarantees one exists up to numeric ties). The pseudo-random pair
  // rotation is salted with the task's tree id, which is independent of
  // execution order (see core/scheduler.h).
  std::vector<SplitPair> pairs =
      ChooseSplitPairs(profiles, kernel, config, work.id);
  // The split's scratch lives in the worker's arena (pref/flat_region.h).
  std::optional<FlatRegion> below;
  std::optional<FlatRegion> above;
  const auto try_split = [&](const Hyperplane& plane) {
    work.region.Split(plane, config.eps, geom_arena, &below, &above);
    return below.has_value() && above.has_value();
  };
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (const SplitPair& pair : pairs) {
      const Hyperplane plane = ScoreEqualityHyperplane(
          data.Row(pair.first), data.Row(pair.second), work.region.dim());
      if (plane.normal.MaxAbs() <= config.eps) continue;  // identical
      if (try_split(plane)) {
        // Child ids must not wrap: a wrapped id would silently break the
        // executors' bit-identical-merge contract (duplicate sort keys).
        // Depth > 62 means eps-scale slivers split dozens of times; fail
        // loudly rather than return a nondeterministically-ordered result.
        CHECK_LT(work.id, uint64_t{1} << 62)
            << "partition tree deeper than 62 levels; deterministic "
               "task ids exhausted (pathological input or eps too small)";
        // Hand the surviving candidates' vertex scores to both children:
        // their pool at profile time is exactly work.candidates, so a
        // child vertex inherited from this region costs a row copy
        // instead of a rescore.
        std::shared_ptr<const VertexScoreCache> cache =
            kernel.MakeCache(work.region.coords().data(), num_vertices,
                             work.candidates);
        out.below = RegionTask{2 * work.id, std::move(*below),
                               work.candidates, work.k, work.pruned, cache};
        out.above =
            RegionTask{2 * work.id + 1, std::move(*above),
                       std::move(work.candidates), work.k,
                       std::move(work.pruned), std::move(cache)};
        return out;
      }
    }
    if (attempt == 0) {
      pairs = ExhaustiveFlipPairs(data, work.region, profiles, config.eps);
    }
  }

  // Every violating pair is an epsilon-tie across this region; accept
  // within tolerance (see DESIGN.md, numeric robustness).
  LOG(DEBUG) << "no cutting hyperplane found for a non-invariant "
             << "region; accepting within tolerance";
  FillAcceptPayload(config, work, profiles, out);
  return out;
}

std::chrono::steady_clock::time_point DeadlineAfter(double seconds) {
  // Budgets of 30 years or more count as none: adding them to now could
  // overflow steady_clock's 64-bit nanosecond count.
  if (!(seconds > 0.0) || seconds >= 1e9) {
    return std::chrono::steady_clock::time_point::max();
  }
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

PartitionOutput PartitionPreferenceRegion(const DatasetView& data,
                                          const std::vector<int>& candidates,
                                          int k, const FlatRegion& root,
                                          const PartitionConfig& config) {
  CHECK_GT(k, 0);
  CHECK_GE(candidates.size(), static_cast<size_t>(k))
      << "candidate pool smaller than k";
  PartitionScheduler scheduler(data, config);
  return scheduler.Run(RegionTask{1, root, candidates, k, {}, nullptr});
}

PartitionOutput PartitionPreferenceRegion(const DatasetView& data,
                                          const std::vector<int>& candidates,
                                          int k, const PrefRegion& root,
                                          const PartitionConfig& config) {
  return PartitionPreferenceRegion(data, candidates, k,
                                   FlatRegion::FromRegion(root), config);
}

}  // namespace toprr
