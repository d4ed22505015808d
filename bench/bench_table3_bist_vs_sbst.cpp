// E7 -- Section 1's motivating comparison: hardware BIST vs software-based
// self-test.
//
//   "Built-in self-test, while eliminating the need for a high-speed
//    tester, may lead to excessive test overhead as well as overly
//    aggressive testing."
//
// Three aspects on equal footing:
//   1. coverage over the same defect library,
//   2. over-testing (defects only detectable by functionally-impossible
//      patterns -> unnecessary yield loss), on a full and on a partially
//      reachable address map,
//   3. area overhead (gate-count model) vs SBST's zero hardware cost.

#include "bench_util.h"
#include "hwbist/area_model.h"
#include "hwbist/bist.h"
#include "hwbist/overtest.h"
#include "sim/campaign.h"
#include "util/table.h"

using namespace xtest;

namespace {

bool print_coverage_and_overtest(const spec::ScenarioSpec& scn) {
  const soc::SystemConfig& cfg = scn.system;
  const auto lib = sim::make_defect_library(cfg, soc::BusKind::kAddress,
                                            scn.defect_count, scn.seed,
                                            scn.sigma_pct);

  const util::ParallelConfig par{scn.threads};
  util::CampaignStats stats;
  util::Table t({"address map", "BIST detects", "SBST detects",
                 "over-test only", "over-test rate"});
  bool every_defect = true;
  std::vector<std::size_t> overtest;
  for (const cpu::Addr limit : {cpu::Addr(cpu::kMemWords), cpu::Addr(0xC00),
                                cpu::Addr(0x800)}) {
    sbst::GeneratorConfig gen;
    gen.usable_limit = limit;
    const hwbist::OverTestResult r = hwbist::analyze_overtest(
        cfg, soc::BusKind::kAddress, lib, gen, 6, par, &stats);
    every_defect = every_defect && r.bist_detected == r.library_size;
    overtest.push_back(r.overtest_only);
    char label[32];
    std::snprintf(label, sizeof label, "%.0f%% reachable",
                  100.0 * limit / cpu::kMemWords);
    t.add_row({label,
               std::to_string(r.bist_detected) + "/" +
                   std::to_string(r.library_size),
               std::to_string(r.functional_detected) + "/" +
                   std::to_string(r.library_size),
               std::to_string(r.overtest_only),
               util::Table::pct(r.overtest_fraction())});
  }
  std::printf("\nCoverage and over-testing (address bus, %zu defects):\n%s",
              scn.defect_count, t.render().c_str());

  // With the full map SBST matches BIST; constraining the functional
  // address space leaves BIST rejecting chips whose defects can never
  // corrupt real operation (Section 1).
  std::printf("\n");
  bool ok =
      bench::claim(every_defect, "BIST detects every defect on every map");
  ok &= bench::claim(overtest[0] == 0 && overtest[1] > 0 && overtest[2] > 0,
                     "over-test count 0 on the full map, > 0 on the 75% and "
                     "50% maps");
  bench::print_campaign_stats("table3_bist_vs_sbst", stats);
  return ok;
}

bool print_area_model() {
  util::Table t({"bus", "width", "BIST gates", "vs 50k-gate SoC",
                 "vs 5M-gate SoC", "SBST gates"});
  const struct {
    const char* name;
    unsigned width;
    bool bidir;
  } rows[] = {{"address", 12, false},
              {"data", 8, true},
              {"both buses", 20, true}};
  bool bist_costs = true;
  for (const auto& r : rows) {
    hwbist::BistAreaModel m{.bus_width = r.width, .bidirectional = r.bidir};
    bist_costs = bist_costs && m.total_gates() > 0.0;
    t.add_row({r.name, std::to_string(r.width),
               util::Table::num(m.total_gates(), 0),
               util::Table::pct(m.overhead_fraction(50'000), 2),
               util::Table::pct(m.overhead_fraction(5'000'000), 4), "0"});
  }
  std::printf("\nArea overhead (structural gate-count model):\n%s",
              t.render().c_str());
  std::printf("\nSBST costs no gates; its costs are program memory (see E3) "
              "and tester load time.\n");
  // SBST adds no hardware (the program runs on the unchanged system), so
  // only the BIST side of the comparison can fail.
  return bench::claim(bist_costs,
                      "SBST area 0 gates, BIST area > 0 on every bus");
}

}  // namespace

int main(int argc, char** argv) {
  // The bist-compare built-in IS this experiment's configuration.
  return bench::scenario_main(
      argc, argv, "E7: hardware BIST vs software-based self-test",
      "Section 1 (over-testing and area-overhead motivation)",
      spec::builtin_scenario("bist-compare"),
      [](const spec::ScenarioSpec& scn) {
        bool ok = print_coverage_and_overtest(scn);
        ok &= print_area_model();
        return ok;
      });
}
