// E13 (extension) -- control-bus crosstalk: why the paper defers it.
//
// Section 3: "The testing of ... control busses are subjects of future
// study."  With the control bus implemented, the reason becomes
// quantitative: the system only ever drives READ/WRITE control words, so
// no control MAF is fully excitable in functional mode.  Software-based
// self-test catches control defects only through *partial* excitation
// (delay effects on the RD/WR wires during read-write traffic), while a
// hardware BIST that drives the full MA set in test mode detects them all
// -- at the price of over-testing defects that can never fire in real
// operation.

#include "bench_util.h"
#include "hwbist/bist.h"
#include "sim/campaign.h"
#include "soc/control.h"
#include "util/table.h"

using namespace xtest;

namespace {

void print_excitability() {
  const xtalk::VectorPair rw{soc::control_word(false),
                             soc::control_word(true)};
  const xtalk::VectorPair wr{soc::control_word(true),
                             soc::control_word(false)};
  util::Table t({"control MAF", "MA pair v1->v2", "excited by R->W",
                 "excited by W->R"});
  for (const auto& f : xtalk::enumerate_mafs(soc::kControlBits, false)) {
    const xtalk::VectorPair ma = xtalk::ma_test(soc::kControlBits, f);
    t.add_row({f.label(),
               ma.v1.to_binary() + " -> " + ma.v2.to_binary(),
               xtalk::fully_excites(f, rw) ? "yes" : "no",
               xtalk::fully_excites(f, wr) ? "yes" : "no"});
  }
  std::printf("\nFunctional excitability of the 12 control-bus MAFs\n"
              "(functional control words: READ=%s WRITE=%s; wire order "
              "CS,WR,RD):\n%s",
              soc::control_word(false).to_binary().c_str(),
              soc::control_word(true).to_binary().c_str(),
              t.render().c_str());
}

void print_coverage(const spec::ScenarioSpec& scn) {
  const soc::SystemConfig& cfg = scn.system;
  const soc::System sys(cfg);
  const auto lib = sim::make_defect_library(cfg, soc::BusKind::kControl,
                                            scn.defect_count, scn.seed,
                                            scn.sigma_pct);

  const util::ParallelConfig par{scn.threads};
  util::CampaignStats stats;
  const auto sessions = scn.make_sessions();
  const auto sbst_det = sim::run_detection_sessions(
      cfg, sessions, soc::BusKind::kControl, lib,
      {.cycle_factor = scn.cycle_factor, .parallel = par, .stats = &stats});

  const hwbist::HardwareBist bist(soc::kControlBits, false);
  const auto bist_det =
      bist.run_library(sys.nominal_control_network(), sys.control_model(),
                       lib, par, &stats);

  std::size_t overtest = 0;
  for (std::size_t i = 0; i < lib.size(); ++i)
    overtest += sim::is_detected(bist_det[i]) && !sim::is_detected(sbst_det[i]);

  util::Table t({"method", "coverage", "notes"});
  t.add_row({"SBST (functional mode)",
             util::Table::pct(sim::coverage(sbst_det)),
             "partial excitation via R->W / W->R traffic only"});
  t.add_row({"hardware BIST (test mode)",
             util::Table::pct(sim::coverage(bist_det)),
             "full MA set, incl. patterns impossible functionally"});
  std::printf("\nControl-bus defect coverage (%zu defects at Cth %.1f "
              "fF):\n%s", lib.size(), sys.control_cth(),
              t.render().c_str());
  std::printf("\nBIST-only detections (over-testing candidates): %zu "
              "(%.1f%% of BIST rejects)\n",
              overtest,
              100.0 * static_cast<double>(overtest) /
                  static_cast<double>(lib.size()));

  const auto hist = lib.defective_wire_histogram(sys.nominal_control_network());
  std::printf("\ndefective-wire histogram (RD, WR, CS): %zu %zu %zu -- "
              "physically likely defects sit on the center wire (WR), "
              "whose R->W delay effect IS functionally excitable; that is "
              "why SBST coverage stays high despite zero fully-excitable "
              "MAFs.\n",
              hist[soc::kCtrlRd], hist[soc::kCtrlWr], hist[soc::kCtrlCs]);
  bench::print_campaign_stats("table8_control_bus", stats);
}

void print_escape_corner(const spec::ScenarioSpec& scn) {
  // The defect class only the full MA set can catch: a symmetric blow-up
  // of both CS couplings.  Functional R->W traffic has one rising and one
  // falling aggressor, so the injected charge on CS cancels; the gp/gn MA
  // patterns align both aggressors and fire.
  const soc::System sys(scn.system);
  xtalk::RcNetwork bad = sys.nominal_control_network();
  const double f = 1.2 * sys.control_cth() /
                   sys.nominal_control_network().net_coupling(soc::kCtrlCs);
  bad.scale_coupling(soc::kCtrlCs, soc::kCtrlRd, f);
  bad.scale_coupling(soc::kCtrlCs, soc::kCtrlWr, f);

  const hwbist::HardwareBist bist(soc::kControlBits, false);
  const xtalk::VectorPair rw{soc::control_word(false),
                             soc::control_word(true)};
  std::printf("\nEscape corner: symmetric CS-coupling defect at 1.2 x Cth\n");
  std::printf("  full MA set detects:        %s\n",
              bist.detects(bad, sys.control_model()) ? "yes" : "no");
  std::printf("  functional R->W transition: %s (aggressors cancel on CS)\n",
              sys.control_model().corrupts(bad, rw) ? "corrupts"
                                                    : "no error");
  std::printf("\nConclusion matching the paper: common control-bus defects "
              "fall out of ordinary traffic, but full MAF coverage needs "
              "test-mode patterns -- 'subjects of future study'.\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The control-bus built-in, at this bench's historical library size.
  spec::ScenarioSpec def = spec::builtin_scenario("control-bus");
  def.defect_count = 500;
  return bench::scenario_main(
      argc, argv, "E13 (extension): control-bus crosstalk",
      "Section 3's deferred 'future study', implemented", def,
      [](const spec::ScenarioSpec& scn) {
        print_excitability();
        print_coverage(scn);
        print_escape_corner(scn);
        return true;  // DESIGN.md section 3 gates no claim here
      });
}
