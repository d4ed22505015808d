// E4 -- Fig. 11: crosstalk defect coverage of the MA test programs on the
// address bus.
//
// 1000-defect library (Gaussian capacitance variation, 3-sigma = 150%,
// acceptance at Cth), individual and cumulative coverage per interconnect.
// Expected shape (paper): side lines (1, 2, 11, 12) at/near zero
// individual coverage, center lines highest, cumulative reaching 100%.

#include <algorithm>

#include "bench_util.h"
#include "sim/campaign.h"
#include "util/table.h"

using namespace xtest;

namespace {

constexpr std::size_t kCenterClaimDefects = 1000;

bool print_fig11(const spec::ScenarioSpec& scn) {
  const soc::SystemConfig& cfg = scn.system;
  const auto lib =
      sim::make_defect_library(cfg, soc::BusKind::kAddress, scn.defect_count,
                               scn.seed, scn.sigma_pct);
  std::printf("\ndefect library: %zu defects (from %zu candidates), "
              "sigma = %.0f%%, Cth = %.1f fF\n",
              lib.size(), lib.attempts(), lib.config().sigma_pct,
              lib.config().cth_fF);

  const util::ParallelConfig par{scn.threads};
  util::CampaignStats stats;
  const sim::PerLineCoverage cov =
      sim::per_line_coverage(cfg, soc::BusKind::kAddress, lib, scn.program,
                             {.cycle_factor = scn.cycle_factor,
                              .parallel = par,
                              .stats = &stats});

  util::Table t({"line", "MA tests", "individual", "cumulative", ""});
  for (unsigned i = 0; i < 12; ++i) {
    t.add_row({std::to_string(i + 1), std::to_string(cov.tests_placed[i]),
               util::Table::pct(cov.individual[i]),
               util::Table::pct(cov.cumulative[i]),
               bench::bar(cov.individual[i] * 4.0)});
  }
  std::printf("\n%s", t.render().c_str());
  std::printf("\noverall coverage of the complete program set: %s "
              "(paper: 100%%)\n",
              util::Table::pct(cov.overall).c_str());

  // The paper's outermost lines get no coverage.  No library defect lands
  // on lines 1 and 12 (E9), so the 1% bound only admits incidental
  // detections.  Lines 2 and 11 carry a few defects, a difference
  // EXPERIMENTS.md E4 documents, and are not gated.
  const double line1 = cov.individual[0], line12 = cov.individual[11];
  const auto peak =
      std::max_element(cov.individual.begin(), cov.individual.begin() + 12) -
      cov.individual.begin();
  bool ok = bench::claim(line1 <= 0.01 && line12 <= 0.01,
                         "lines 1 and 12 individual coverage <= 1% (paper: "
                         "none; ours: " + util::Table::pct(line1) + ", " +
                             util::Table::pct(line12) + ")");
  // Which line peaks compares neighbouring proportions, so the claim
  // needs the paper's library size: at 200 defects, seed 6 puts line 9
  // one defect above line 6 (36 against 35).
  const std::string center =
      "highest individual coverage on a center line, 5-8 of 12 (ours: "
      "line " + std::to_string(peak + 1) + ")";
  if (lib.size() >= kCenterClaimDefects)
    ok &= bench::claim(peak >= 4 && peak <= 7, center);
  else
    std::printf("claim not gated below %zu defects: %s\n",
                kCenterClaimDefects, center.c_str());
  ok &= bench::claim(cov.cumulative[11] == 1.0 && cov.overall == 1.0,
                     "cumulative coverage after line 12 and overall both "
                     "100% (ours: " + util::Table::pct(cov.cumulative[11]) +
                         ", " + util::Table::pct(cov.overall) + ")");
  bench::print_campaign_stats("fig11_addr_coverage", stats);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  spec::ScenarioSpec def = spec::builtin_scenario("paper-baseline");
  def.defect_count = 1000;  // the paper's full Fig. 11 library
  return bench::scenario_main(
      argc, argv, "E4: address-bus defect coverage per MA test",
      "Fig. 11 (individual + cumulative coverage, 1000 defects)", def,
      print_fig11);
}
