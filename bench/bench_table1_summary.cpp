// E3 -- Section 5 summary numbers (the paper's in-text results table):
//
//   "we were able to apply 64 of 64 MA tests for the databus and 41 out of
//    48 tests for the address bus.  Some of the tests cannot be applied
//    due to address conflicts ... which can be executed in different
//    sessions.  The total execution time of the programs is 1720 processor
//    cycles."
//
// Prints the per-session and total placement/size/cycle summary of our
// generator and checks it against those numbers.

#include "bench_util.h"
#include "sbst/generator.h"
#include "sim/verify.h"
#include "util/table.h"

using namespace xtest;

namespace {

bool print_summary(const spec::ScenarioSpec& scn) {
  const auto sessions = scn.make_sessions();
  util::Table t({"session", "addr tests", "data tests", "bytes",
                 "response cells", "cycles", "all effective"});
  std::size_t tot_addr = 0, tot_data = 0, tot_bytes = 0;
  std::uint64_t tot_cycles = 0;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const auto& r = sessions[s];
    if (r.program.tests.empty()) continue;
    const sim::VerificationResult ver = sim::verify_program(r.program);
    t.add_row({std::to_string(s),
               std::to_string(r.placed_count(soc::BusKind::kAddress)),
               std::to_string(r.placed_count(soc::BusKind::kData)),
               std::to_string(r.program.program_bytes()),
               std::to_string(r.program.response_cells.size()),
               std::to_string(ver.gold.cycles),
               ver.all_effective() ? "yes" : "NO"});
    tot_addr += r.placed_count(soc::BusKind::kAddress);
    tot_data += r.placed_count(soc::BusKind::kData);
    tot_bytes += r.program.program_bytes();
    tot_cycles += ver.gold.cycles;
  }
  t.add_row({"total", std::to_string(tot_addr), std::to_string(tot_data),
             std::to_string(tot_bytes), "", std::to_string(tot_cycles), ""});
  std::printf("\n%s", t.render().c_str());

  std::printf("\npaper vs measured:\n");
  std::printf("  data-bus MA tests applied    paper 64/64   ours %zu/64\n",
              tot_data);
  std::printf("  address-bus MA tests applied paper 41/48   ours %zu/48 "
              "(across sessions)\n",
              tot_addr);
  std::printf("  total execution time         paper 1720    ours %llu "
              "processor cycles\n",
              static_cast<unsigned long long>(tot_cycles));
  if (!sessions.empty() && !sessions.back().unplaced.empty()) {
    std::printf("  never-placeable tests:");
    for (const auto& u : sessions.back().unplaced)
      std::printf(" %s", u.fault.label().c_str());
    std::printf("\n");
  }

  // The paper leaves 7 of the 48 address tests unapplied; ours may place
  // more, never fewer.  DESIGN.md section 3 reads its 1720 cycles as "low
  // thousands".
  bool ok = bench::claim(tot_data == 64,
                         "all 64 data-bus MA tests placed (paper: 64/64)");
  ok &= bench::claim(tot_addr + 7 >= 48,
                     "at most 7 of the 48 address-bus MA tests never placed "
                     "(paper: 7; ours: " + std::to_string(48 - tot_addr) + ")");
  ok &= bench::claim(tot_cycles >= 1000 && tot_cycles <= 4000,
                     "total cycles between 1000 and 4000 (paper: 1720; ours: " +
                         std::to_string(tot_cycles) + ")");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::scenario_main(
      argc, argv, "E3: test application summary",
      "Section 5 in-text results (tests applied, program cycles)",
      spec::builtin_scenario("paper-baseline"), print_summary);
}
