// E8 -- ablation of design decision D1 (DESIGN.md): whole-program fault
// excitation vs isolated per-pair application.
//
// Section 5: "with this high-level crosstalk error model, we are able to
// take into account the effect of fault masking when evaluating defect
// coverage, since a crosstalk defect on the bus is indeed activated many
// times as the CPU executes the test program."
//
// The ablation compares, over the same library:
//   isolated:       each placed MA pair applied directly at the bus (no
//                   surrounding program) -- the classic pair-by-pair view;
//   whole-program:  the self-test program executed under the defect, all
//                   incidental activations included.
// Differences in either direction are masking (isolated detects, program
// misses) or serendipity (program-only detection through incidental
// transitions / control-flow derailment).

#include "bench_util.h"
#include "hwbist/bist.h"
#include "sim/campaign.h"
#include "util/table.h"

using namespace xtest;

namespace {

/// Coverage of the placed pairs applied in isolation and of the whole
/// program, over one bus's library.
struct Ablation {
  double isolated = 0.0;
  double program = 0.0;
};

Ablation print_ablation(const spec::ScenarioSpec& scn, soc::BusKind bus,
                        util::CampaignStats& stats) {
  const soc::SystemConfig& cfg = scn.system;
  const soc::System sys(cfg);
  const unsigned width =
      bus == soc::BusKind::kAddress ? cpu::kAddrBits : cpu::kDataBits;
  const auto lib = sim::make_defect_library(cfg, bus, scn.defect_count,
                                            scn.seed, scn.sigma_pct);
  const auto& nominal = bus == soc::BusKind::kAddress
                            ? sys.nominal_address_network()
                            : sys.nominal_data_network();
  const auto& model = bus == soc::BusKind::kAddress ? sys.address_model()
                                                    : sys.data_model();

  const auto sessions = scn.make_sessions();

  // Isolated application of exactly the placed pairs.
  std::vector<xtalk::MafFault> placed;
  for (const auto& s : sessions)
    for (const auto& t : s.program.tests)
      if (t.bus == bus) placed.push_back(t.fault);

  std::vector<bool> isolated(lib.size(), false);
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const xtalk::RcNetwork net = lib[i].apply(nominal);
    for (const auto& f : placed)
      if (model.corrupts(net, xtalk::ma_test(width, f))) {
        isolated[i] = true;
        break;
      }
  }

  const std::vector<sim::Verdict> verdicts = sim::run_detection_sessions(
      cfg, sessions, bus, lib,
      {.cycle_factor = scn.cycle_factor,
       .parallel = {scn.threads},
       .stats = &stats});
  std::vector<bool> program(lib.size(), false);
  for (std::size_t i = 0; i < lib.size(); ++i)
    program[i] = sim::is_detected(verdicts[i]);

  std::size_t both = 0, only_isolated = 0, only_program = 0, neither = 0;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    both += isolated[i] && program[i];
    only_isolated += isolated[i] && !program[i];  // masked in the program
    only_program += !isolated[i] && program[i];   // incidental detection
    neither += !isolated[i] && !program[i];
  }

  const Ablation cov{sim::coverage(isolated), sim::coverage(program)};
  util::Table t({"bus", "both", "isolated-only (masked)",
                 "program-only (incidental)", "neither", "isolated cov",
                 "program cov"});
  t.add_row({soc::to_string(bus), std::to_string(both),
             std::to_string(only_isolated), std::to_string(only_program),
             std::to_string(neither),
             util::Table::pct(cov.isolated), util::Table::pct(cov.program)});
  std::printf("\n%s", t.render().c_str());
  return cov;
}

/// DESIGN.md D1: the whole program detects at least what its placed pairs
/// detect in isolation (incidental activations and derailment add
/// detections; masking, if any, shows in isolated-only).
bool claim_no_loss(const char* bus, const Ablation& a) {
  return bench::claim(a.program >= a.isolated,
                      std::string(bus) +
                          " bus: program coverage >= isolated coverage "
                          "(ours: " + util::Table::pct(a.program) + " >= " +
                          util::Table::pct(a.isolated) + ")");
}

}  // namespace

int main(int argc, char** argv) {
  spec::ScenarioSpec def = spec::builtin_scenario("paper-baseline");
  def.defect_count = 500;
  return bench::scenario_main(
      argc, argv, "E8: fault-masking ablation",
      "Section 5 (whole-program excitation vs isolated pairs)", def,
      [](const spec::ScenarioSpec& scn) {
        util::CampaignStats stats;
        const Ablation addr =
            print_ablation(scn, soc::BusKind::kAddress, stats);
        const Ablation data = print_ablation(scn, soc::BusKind::kData, stats);
        std::printf("\n");
        bool ok = claim_no_loss("address", addr);
        ok &= claim_no_loss("data", data);
        bench::print_campaign_stats("table4_masking_ablation", stats);
        return ok;
      });
}
