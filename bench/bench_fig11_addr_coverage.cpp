// E4 -- Fig. 11: crosstalk defect coverage of the MA test programs on the
// address bus.
//
// 1000-defect library (Gaussian capacitance variation, 3-sigma = 150%,
// acceptance at Cth), individual and cumulative coverage per interconnect.
// Expected shape (paper): side lines (1, 2, 11, 12) at/near zero
// individual coverage, center lines highest, cumulative reaching 100%.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sim/campaign.h"
#include "util/table.h"

using namespace xtest;

namespace {

constexpr std::uint64_t kSeed = 20010618;

void print_fig11() {
  const spec::ScenarioSpec& scn = bench::active_spec();
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
  std::printf("shape checks: line1=%s line12=%s (paper: 0%%), center "
              "(line 6/7) = %s/%s\n",
              util::Table::pct(cov.individual[0]).c_str(),
              util::Table::pct(cov.individual[11]).c_str(),
              util::Table::pct(cov.individual[5]).c_str(),
              util::Table::pct(cov.individual[6]).c_str());
  bench::print_campaign_stats("fig11_addr_coverage", stats);
}

void BM_DefectSimulationPerDefect(benchmark::State& state) {
  const soc::SystemConfig& cfg = bench::active_spec().system;
  const auto lib = sim::make_defect_library(cfg, soc::BusKind::kAddress,
                                            64, kSeed);
  const auto gen =
      sbst::TestProgramGenerator(bench::active_spec().program).generate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_detection(cfg, gen.program, soc::BusKind::kAddress, lib));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lib.size()));
}
BENCHMARK(BM_DefectSimulationPerDefect);

}  // namespace

int main(int argc, char** argv) {
  spec::ScenarioSpec def = spec::builtin_scenario("paper-baseline");
  def.defect_count = 1000;  // the paper's full Fig. 11 library
  return bench::scenario_main(
      argc, argv, "E4: address-bus defect coverage per MA test",
      "Fig. 11 (individual + cumulative coverage, 1000 defects)", def,
      print_fig11);
}
