// E6 -- Section 4.3's scaling claim:
//
//   "For a CPU-memory system with N interconnects, the number of MA faults
//    is 4N.  Thus, the size of the test program is proportional to N.
//    This corresponds to the size of the memory required for storing the
//    test program, the tester time ... as well as the test application
//    time."
//
// The bus widths of the testbed are architectural (12/8), so the sweep
// parameter is the number of interconnects *under test*: lines 1..k of
// each bus.  Program bytes and executed cycles must grow linearly in the
// number of lines under test.

#include "bench_util.h"
#include "sbst/generator.h"
#include "sim/verify.h"
#include "util/table.h"

using namespace xtest;

namespace {

/// Coefficient of determination of the least-squares line through the
/// points (x[i], y[i]).
double r_squared(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  const double cov = n * sxy - sx * sy;
  return cov * cov / ((n * sxx - sx * sx) * (n * syy - sy * sy));
}

/// R^2 of program bytes and of cycles against the lines under test.
struct LinearFit {
  double bytes = 0.0;
  double cycles = 0.0;
};

LinearFit print_scaling(soc::BusKind bus) {
  const unsigned width =
      bus == soc::BusKind::kAddress ? cpu::kAddrBits : cpu::kDataBits;
  util::Table t({"lines under test", "MA tests placed", "program bytes",
                 "cycles", "bytes per test"});
  std::vector<double> lines, bytes_at, cycles_at;
  for (unsigned k = 2; k <= width; k += 2) {
    std::vector<xtalk::MafFault> faults;
    for (const auto& f :
         xtalk::enumerate_mafs(width, bus == soc::BusKind::kData))
      if (f.victim < k) faults.push_back(f);
    sbst::GeneratorConfig cfg;
    cfg.include_address_bus = bus == soc::BusKind::kAddress;
    cfg.include_data_bus = bus == soc::BusKind::kData;
    if (bus == soc::BusKind::kAddress)
      cfg.address_faults = faults;
    else
      cfg.data_faults = faults;

    const auto sessions = sbst::TestProgramGenerator::generate_sessions(cfg);
    std::size_t tests = 0, bytes = 0;
    std::uint64_t cycles = 0;
    for (const auto& s : sessions) {
      if (s.program.tests.empty()) continue;
      tests += s.program.tests.size();
      bytes += s.program.program_bytes();
      cycles += sim::verify_program(s.program).gold.cycles;
    }
    t.add_row({std::to_string(k), std::to_string(tests),
               std::to_string(bytes), std::to_string(cycles),
               tests ? util::Table::num(static_cast<double>(bytes) /
                                        static_cast<double>(tests), 1)
                     : "-"});
    lines.push_back(k);
    bytes_at.push_back(static_cast<double>(bytes));
    cycles_at.push_back(static_cast<double>(cycles));
  }
  std::printf("\n%s bus:\n%s",
              bus == soc::BusKind::kAddress ? "address" : "data",
              t.render().c_str());
  return {r_squared(lines, bytes_at), r_squared(lines, cycles_at)};
}

/// Section 4.3's "proportional to N", read as a straight-line fit.
bool claim_linear(const char* bus, const LinearFit& fit) {
  return bench::claim(fit.bytes >= 0.99 && fit.cycles >= 0.99,
                      std::string(bus) +
                          " bus: bytes and cycles linear in lines under "
                          "test, R^2 >= 0.99 (ours: " +
                          util::Table::num(fit.bytes, 3) + ", " +
                          util::Table::num(fit.cycles, 3) + ")");
}

}  // namespace

int main(int argc, char** argv) {
  return bench::scenario_main(
      argc, argv, "E6: test program size scaling",
      "Section 4.3 (program size and test time proportional to N)",
      spec::builtin_scenario("paper-baseline"), [](const spec::ScenarioSpec&) {
        const LinearFit addr = print_scaling(soc::BusKind::kAddress);
        const LinearFit data = print_scaling(soc::BusKind::kData);
        std::printf("\n");
        bool ok = claim_linear("address", addr);
        ok &= claim_linear("data", data);
        return ok;
      });
}
