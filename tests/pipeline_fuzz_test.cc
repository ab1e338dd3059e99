// Parameterized whole-pipeline fuzz: across seeds, dimensions,
// distributions and parameters, verify structural invariants of the
// solver output and that the result region stays the same with each
// pruning rule (Lemma 5, Lemma 7, k-switch) switched off, and under TAS
// instead of the default method.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/toprr.h"
#include "data/generator.h"
#include "pref/pref_space.h"

namespace toprr {
namespace {

struct FuzzConfig {
  uint64_t seed;
  size_t n;
  size_t d;
  Distribution dist;
  int k;
  double sigma;
};

class PipelineFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(PipelineFuzz, InvariantsAndToggleEquivalence) {
  const FuzzConfig config = GetParam();
  const Dataset ds =
      GenerateSynthetic(config.n, config.d, config.dist, config.seed);
  Rng rng(config.seed + 7);
  const PrefBox box = RandomPrefBox(config.d - 1, config.sigma, rng);

  ToprrOptions base;
  base.time_budget_seconds = 30.0;
  const ToprrResult reference = SolveToprr(ds, config.k, box, base);
  ASSERT_FALSE(reference.timed_out);

  // --- Structural invariants. ---
  // (1) Every impact halfspace normal is the negated full weight vector of
  //     a preference point: components <= 0 summing to -1.
  for (const Halfspace& h : reference.impact_halfspaces) {
    EXPECT_NEAR(h.normal.Sum(), -1.0, 1e-9);
    for (size_t j = 0; j < h.dim(); ++j) {
      EXPECT_LE(h.normal[j], 1e-12);
    }
    // Offsets are negated k-th scores, which live in [-1, 0].
    EXPECT_LE(-h.offset, 1.0 + 1e-9);
    EXPECT_GE(-h.offset, -1e-9);
  }
  // (2) Vall vertices lie inside the query box.
  for (const Vec& v : reference.vall) {
    EXPECT_TRUE(box.Contains(v, 1e-7)) << v.ToString();
  }
  // (3) The option-space top corner is always top-ranking.
  EXPECT_TRUE(reference.Contains(Vec(config.d, 1.0)));
  // (4) The all-zero option never is (someone scores higher).
  EXPECT_FALSE(reference.Contains(Vec(config.d, 0.0)));

  // --- Toggle equivalence: disabling any optimization must not change the
  //     region (only the work done to compute it). ---
  std::vector<ToprrOptions> variants;
  {
    ToprrOptions o = base;
    o.use_lemma5 = false;
    variants.push_back(o);
  }
  {
    ToprrOptions o = base;
    o.use_lemma7 = false;
    variants.push_back(o);
  }
  {
    ToprrOptions o = base;
    o.use_kswitch = false;
    variants.push_back(o);
  }
  {
    ToprrOptions o = base;
    o.method = ToprrMethod::kTas;
    variants.push_back(o);
  }
  for (size_t vi = 0; vi < variants.size(); ++vi) {
    const ToprrResult other = SolveToprr(ds, config.k, box, variants[vi]);
    ASSERT_FALSE(other.timed_out) << "variant " << vi;
    int checked = 0;
    for (int trial = 0; trial < 400; ++trial) {
      Vec o(config.d);
      for (size_t j = 0; j < config.d; ++j) o[j] = rng.Uniform();
      double closest = 1e9;
      for (const Halfspace& h : reference.impact_halfspaces) {
        closest = std::min(closest,
                           std::abs(h.Violation(o)) / h.normal.Norm());
      }
      for (const Halfspace& h : other.impact_halfspaces) {
        closest = std::min(closest,
                           std::abs(h.Violation(o)) / h.normal.Norm());
      }
      if (closest < 1e-6) continue;
      ++checked;
      EXPECT_EQ(reference.Contains(o), other.Contains(o))
          << "variant " << vi << " point " << o.ToString();
    }
    EXPECT_GT(checked, 100) << "variant " << vi;
  }
}

std::vector<FuzzConfig> MakeConfigs() {
  std::vector<FuzzConfig> configs;
  uint64_t seed = 1000;
  for (size_t d : {2, 3, 4}) {
    for (Distribution dist : {Distribution::kIndependent,
                              Distribution::kCorrelated,
                              Distribution::kAnticorrelated}) {
      for (int k : {2, 7}) {
        configs.push_back(FuzzConfig{++seed, 250, d, dist, k,
                                     d == 2 ? 0.15 : 0.04});
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineFuzz,
                         ::testing::ValuesIn(MakeConfigs()));

}  // namespace
}  // namespace toprr
