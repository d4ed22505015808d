// E12 (extension) -- deterministic MA tests vs pseudo-random pattern BIST.
//
// A classic LFSR-style BIST drives random vector pairs.  The MAF theory
// says the 4N MA pairs are necessary and sufficient; random pairs rarely
// align every aggressor against the victim, so their coverage of
// threshold-level defects trails badly at equal pattern counts.  This
// quantifies the advantage of the deterministic MA set that both the
// paper's SBST method and the hardware-BIST baseline [2] apply.

#include "bench_util.h"
#include "hwbist/bist.h"
#include "hwbist/random_patterns.h"
#include "sim/campaign.h"
#include "util/table.h"

using namespace xtest;

namespace {

bool print_comparison(const spec::ScenarioSpec& scn) {
  const soc::SystemConfig& cfg = scn.system;
  const soc::System sys(cfg);
  const auto lib = sim::make_defect_library(cfg, soc::BusKind::kAddress,
                                            scn.defect_count, scn.seed,
                                            scn.sigma_pct);
  const auto& nom = sys.nominal_address_network();
  const auto& model = sys.address_model();

  const util::ParallelConfig par{scn.threads};
  util::CampaignStats stats;
  util::Table t({"pattern set", "pairs", "coverage", ""});
  const hwbist::HardwareBist ma(12, false);
  const double ma_cov =
      sim::coverage(ma.run_library(nom, model, lib, par, &stats));
  t.add_row({"MA tests (deterministic)", "48", util::Table::pct(ma_cov),
             bench::bar(ma_cov)});
  for (std::size_t count : {48u, 480u, 4800u, 48000u}) {
    const hwbist::RandomPatternBist rnd(12, count, scn.seed);
    const double cov =
        sim::coverage(rnd.run_library(nom, model, lib, par, &stats));
    t.add_row({"random pairs", std::to_string(count), util::Table::pct(cov),
               bench::bar(cov)});
  }
  std::printf("\nAddress-bus defect coverage, %zu threshold-level "
              "defects:\n%s", scn.defect_count, t.render().c_str());
  std::printf("\nExpected: 48 MA pairs reach 100%%; random pairs need "
              "orders of magnitude more patterns and still trail on "
              "defects just above Cth.\n");
  bench::print_campaign_stats("table7_random_baseline", stats);
  return true;  // DESIGN.md section 3 gates no claim here
}

}  // namespace

int main(int argc, char** argv) {
  spec::ScenarioSpec def = spec::builtin_scenario("paper-baseline");
  def.defect_count = 500;
  return bench::scenario_main(
      argc, argv, "E12 (extension): MA tests vs random-pattern BIST",
      "quantifies the MAF model's deterministic-pattern advantage", def,
      print_comparison);
}
