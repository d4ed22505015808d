// E15 (extension) -- ablation of the greedy placement order (design
// decision D6's neighbourhood).
//
// Placement is greedy, so the order in which address-bus MAFs are
// attempted decides who wins the contested cells around the one-hot /
// inverted-one-hot clusters.  This bench compares orderings by
// single-session density, sessions needed to place everything placeable,
// and total program size -- the tester-time trade-off the paper's
// multi-session remark leaves open.

#include "bench_util.h"
#include "sbst/generator.h"
#include "sim/verify.h"
#include "util/table.h"

using namespace xtest;

namespace {

const char* order_name(sbst::PlacementOrder o) {
  switch (o) {
    case sbst::PlacementOrder::kVictimMajor: return "victim-major (default)";
    case sbst::PlacementOrder::kDelaysFirst: return "delays first";
    case sbst::PlacementOrder::kGlitchesFirst: return "glitches first";
    case sbst::PlacementOrder::kCenterOut: return "center-out";
  }
  return "?";
}

bool print_ordering_ablation(const spec::ScenarioSpec& scn) {
  util::Table t({"order", "session-0 addr tests", "sessions", "total addr",
                 "total bytes", "total cycles"});
  for (sbst::PlacementOrder order :
       {sbst::PlacementOrder::kVictimMajor,
        sbst::PlacementOrder::kDelaysFirst,
        sbst::PlacementOrder::kGlitchesFirst,
        sbst::PlacementOrder::kCenterOut}) {
    sbst::GeneratorConfig cfg = scn.program;
    cfg.order = order;
    const auto sessions =
        sbst::TestProgramGenerator::generate_sessions(cfg);
    std::size_t total = 0, bytes = 0, nonempty = 0;
    std::uint64_t cycles = 0;
    for (const auto& s : sessions) {
      if (s.program.tests.empty()) continue;
      ++nonempty;
      total += s.placed_count(soc::BusKind::kAddress);
      bytes += s.program.program_bytes();
      cycles += sim::verify_program(s.program).gold.cycles;
    }
    t.add_row({order_name(order),
               std::to_string(
                   sessions[0].placed_count(soc::BusKind::kAddress)),
               std::to_string(nonempty), std::to_string(total),
               std::to_string(bytes), std::to_string(cycles)});
  }
  std::printf("\n%s", t.render().c_str());
  std::printf("\nGreedy placement is order-sensitive: totals land within a "
              "couple of tests of the 47/48 optimum, and the orderings "
              "trade single-session density against total program bytes "
              "and cycles (tester time).\n");
  return true;  // DESIGN.md section 3 gates no claim here
}

}  // namespace

int main(int argc, char** argv) {
  return bench::scenario_main(
      argc, argv, "E15 (extension): placement-order ablation",
      "greedy order vs session count / tester time",
      spec::builtin_scenario("paper-baseline"), print_ordering_ablation);
}
