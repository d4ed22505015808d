// E14 (extension) -- inter-bus coupling defects.
//
// Section 5: "In this paper, we only consider crosstalk within the same
// bus when injecting defects.  It is possible to inject defects causing
// crosstalk between two busses by treating them as one bus."  We model the
// other bus's wires as quiet capacitive load: a cross-bus coupling defect
// never injects charge (the neighbour is quiet during this bus's
// transfers) but loads the victim, so it manifests purely as *delay* --
// glitch amplitudes actually shrink.  The experiment shows the delay MA
// tests carry this entire defect class and the glitch tests contribute
// nothing, an attribution invisible in the paper's single-bus libraries.

#include "bench_util.h"
#include "sim/campaign.h"
#include "util/rng.h"
#include "util/table.h"

using namespace xtest;

namespace {

struct LoadDefect {
  unsigned wire;
  double extra_fF;
};

/// Gaussian cross-bus load defects, accepted when delay-detectable
/// (L > 2*(Cth - Cnet(wire)), the MA-delay criterion).
std::vector<LoadDefect> make_load_library(const spec::ScenarioSpec& scn,
                                          const soc::System& sys) {
  util::Rng rng(scn.seed);
  std::vector<LoadDefect> out;
  const auto& nom = sys.nominal_address_network();
  while (out.size() < scn.defect_count) {
    const unsigned wire = static_cast<unsigned>(rng.below(12));
    const double threshold =
        2.0 * (sys.address_cth() - nom.net_coupling(wire));
    const double load = std::abs(rng.gaussian(1.5 * threshold));
    if (load > threshold) out.push_back({wire, load});
  }
  return out;
}

std::vector<bool> detect_with_faults(
    const spec::ScenarioSpec& scn, const std::vector<LoadDefect>& defects,
    const std::optional<std::vector<xtalk::MafFault>>& addr_faults) {
  sbst::GeneratorConfig cfg;
  cfg.include_data_bus = false;
  cfg.address_faults = addr_faults;
  const auto sessions = sbst::TestProgramGenerator::generate_sessions(cfg);

  soc::System sys(scn.system);
  std::vector<bool> detected(defects.size(), false);
  for (const auto& s : sessions) {
    if (s.program.tests.empty()) continue;
    sys.clear_defects();
    const auto gold = sim::run_and_capture(sys, s.program, 1'000'000);
    for (std::size_t i = 0; i < defects.size(); ++i) {
      xtalk::RcNetwork bad = sys.nominal_address_network();
      bad.add_ground_load(defects[i].wire, defects[i].extra_fF);
      sys.set_address_network(bad);
      const auto faulty =
          sim::run_and_capture(sys, s.program, gold.cycles * 16);
      detected[i] = detected[i] || !faulty.matches(gold);
      sys.clear_defects();
    }
  }
  return detected;
}

bool print_interbus(const spec::ScenarioSpec& scn) {
  const soc::System sys{scn.system};
  const auto defects = make_load_library(scn, sys);
  std::printf("\n%zu cross-bus load defects on the address bus "
              "(delay-detectable by construction)\n", defects.size());

  std::vector<xtalk::MafFault> delays, glitches;
  for (const auto& f : xtalk::enumerate_mafs(12, false))
    (xtalk::is_glitch(f.type) ? glitches : delays).push_back(f);

  // Direct MA-pattern application (no surrounding program), per class.
  auto direct = [&](const std::vector<xtalk::MafFault>& faults) {
    std::size_t hit = 0;
    for (const auto& d : defects) {
      xtalk::RcNetwork bad = sys.nominal_address_network();
      bad.add_ground_load(d.wire, d.extra_fF);
      bool det = false;
      for (const auto& f : faults)
        det = det || sys.address_model().corrupts(bad, xtalk::ma_test(12, f));
      hit += det;
    }
    return static_cast<double>(hit) / static_cast<double>(defects.size());
  };

  util::Table t({"test set", "as SBST program", "MA patterns alone"});
  t.add_row({"all 48 address MA tests",
             util::Table::pct(sim::coverage(
                 detect_with_faults(scn, defects, std::nullopt))),
             util::Table::pct(direct(xtalk::enumerate_mafs(12, false)))});
  t.add_row({"delay tests only (dr/df)",
             util::Table::pct(
                 sim::coverage(detect_with_faults(scn, defects, delays))),
             util::Table::pct(direct(delays))});
  t.add_row({"glitch tests only (gp/gn)",
             util::Table::pct(
                 sim::coverage(detect_with_faults(scn, defects, glitches))),
             util::Table::pct(direct(glitches))});
  std::printf("\n%s", t.render().c_str());
  std::printf("\nExpected: the delay MA patterns carry the class (glitch "
              "patterns alone catch 0%% -- quiet load shrinks glitches).  "
              "The glitch-test *programs* still detect most defects "
              "because their own fetch traffic incidentally excites the "
              "delay effect: whole-program realism at work.\n");
  return true;  // DESIGN.md section 3 gates no claim here
}

}  // namespace

int main(int argc, char** argv) {
  return bench::scenario_main(
      argc, argv, "E14 (extension): inter-bus coupling defects",
      "Section 5's 'treating them as one bus' remark",
      spec::builtin_scenario("paper-baseline"), print_interbus);
}
