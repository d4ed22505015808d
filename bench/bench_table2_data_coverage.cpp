// E5 -- Section 5: data-bus defect coverage.
//
//   "using our defect library, the defect coverage of the test program is
//    100% on both address and data busses"
//
// Reproduces the data-bus half: a 1000-defect library on the 8-bit
// bidirectional data bus, per-line and overall coverage, split by
// direction to show both halves of the 64-test set pull their weight.

#include "bench_util.h"
#include "sim/campaign.h"
#include "util/table.h"

using namespace xtest;

namespace {

bool print_data_coverage(const spec::ScenarioSpec& scn) {
  const soc::SystemConfig& cfg = scn.system;
  const auto lib =
      sim::make_defect_library(cfg, soc::BusKind::kData, scn.defect_count,
                               scn.seed, scn.sigma_pct);
  std::printf("\ndefect library: %zu defects (from %zu candidates), "
              "Cth = %.1f fF\n",
              lib.size(), lib.attempts(), lib.config().cth_fF);

  const util::ParallelConfig par{scn.threads};
  util::CampaignStats stats;
  const sim::PerLineCoverage cov =
      sim::per_line_coverage(cfg, soc::BusKind::kData, lib, scn.program,
                             {.cycle_factor = scn.cycle_factor,
                              .parallel = par,
                              .stats = &stats});

  util::Table t({"line", "MA tests", "individual", "cumulative", ""});
  for (unsigned i = 0; i < 8; ++i)
    t.add_row({std::to_string(i + 1), std::to_string(cov.tests_placed[i]),
               util::Table::pct(cov.individual[i]),
               util::Table::pct(cov.cumulative[i]),
               bench::bar(cov.individual[i] * 2.0)});
  std::printf("\n%s", t.render().c_str());
  std::printf("\noverall data-bus coverage: %s (paper: 100%%)\n",
              util::Table::pct(cov.overall).c_str());
  const bool ok = bench::claim(cov.overall == 1.0,
                               "overall data-bus coverage 100% (ours: " +
                                   util::Table::pct(cov.overall) + ")");

  // Direction split: read-only vs write-only programs.
  for (const bool write_dir : {false, true}) {
    std::vector<xtalk::MafFault> faults;
    for (const auto& f : xtalk::enumerate_mafs(8, true))
      if ((f.direction == xtalk::BusDirection::kCpuToCore) == write_dir)
        faults.push_back(f);
    sbst::GeneratorConfig gc;
    gc.include_address_bus = false;
    gc.data_faults = faults;
    const auto sessions = sbst::TestProgramGenerator::generate_sessions(gc);
    const auto det = sim::run_detection_sessions(
        cfg, sessions, soc::BusKind::kData, lib,
        {.cycle_factor = scn.cycle_factor, .parallel = par, .stats = &stats});
    std::printf("  %s-direction tests alone: %s coverage\n",
                write_dir ? "cpu->core (write)" : "core->cpu (read)",
                util::Table::pct(sim::coverage(det)).c_str());
  }
  bench::print_campaign_stats("table2_data_coverage", stats);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  spec::ScenarioSpec def = spec::builtin_scenario("paper-baseline");
  def.bus = soc::BusKind::kData;
  def.defect_count = 1000;  // the paper's full data-bus library
  return bench::scenario_main(
      argc, argv, "E5: data-bus defect coverage",
      "Section 5 (100% coverage on the data bus, both directions)", def,
      print_data_coverage);
}
