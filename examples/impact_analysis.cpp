// Competitive impact analysis for an existing product line.
//
// For each product of interest this example reports (a) over which part of
// the target clientele it already ranks top-k (impact regions, the
// reverse-top-k view of Tang et al. [41] that the paper builds on), and
// (b) if coverage is partial, the minimum modification that would make it
// rank top-k for the entire clientele (the TopRR enhancement workflow).
#include <cstdio>

#include "common/flags.h"
#include "core/impact.h"
#include "core/placement.h"
#include "core/toprr.h"
#include "data/dataset.h"
#include "pref/pref_space.h"

int main(int argc, char** argv) {
  using namespace toprr;
  FlagParser flags;
  int k = 3;
  flags.AddInt("k", &k, "rank requirement");
  if (!flags.Parse(&argc, argv)) return 1;

  // The running example of the paper (Figure 1): six laptops.
  const Dataset laptops = Dataset::FromRows({
      Vec{0.9, 0.4},  // p1
      Vec{0.7, 0.9},  // p2
      Vec{0.6, 0.2},  // p3
      Vec{0.3, 0.8},  // p4
      Vec{0.2, 0.3},  // p5
      Vec{0.1, 0.1},  // p6
  });
  PrefBox clientele;
  clientele.lo = Vec{0.2};
  clientele.hi = Vec{0.8};

  std::printf("clientele: speed weight in [%.1f, %.1f]; k = %d\n\n",
              clientele.lo[0], clientele.hi[0], k);
  const ToprrResult region = SolveToprr(laptops, k, clientele);

  for (size_t i = 0; i < laptops.size(); ++i) {
    const Vec p = laptops.Option(i);
    const auto impact =
        ComputeImpactRegions(laptops, static_cast<int>(i), k, clientele);
    std::printf("p%zu (%.1f, %.1f): top-%d for %.1f%% of the clientele",
                i + 1, p[0], p[1], k, impact.volume_fraction * 100.0);
    if (!impact.favorable.empty()) {
      std::printf(" [");
      for (size_t c = 0; c < impact.favorable.size(); ++c) {
        const FlatRegion& cell = impact.favorable[c];
        double lo = 1.0;
        double hi = 0.0;
        for (size_t v = 0; v < cell.num_vertices(); ++v) {
          lo = std::min(lo, cell.vertex(v)[0]);
          hi = std::max(hi, cell.vertex(v)[0]);
        }
        std::printf("%s%.3f..%.3f", c > 0 ? ", " : "", lo, hi);
      }
      std::printf("]");
    }
    std::printf("\n");
    if (impact.cell_fraction < 1.0) {
      const PlacementResult fix = MinimumModification(region, p);
      if (fix.ok && fix.cost > 1e-9) {
        std::printf("    full-coverage revamp: (%.3f, %.3f), "
                    "modification cost %.4f\n",
                    fix.option[0], fix.option[1], fix.cost);
      }
    }
  }
  return 0;
}
