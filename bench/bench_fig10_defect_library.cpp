// E9 -- Fig. 10: generation of the defect library, plus the library
// statistics that explain Fig. 11's shape.
//
//   "we used a Gaussian distribution to model the defect distribution in
//    terms of the variation of capacitance values (in %).  A 3-delta point
//    of 150% was chosen.  A total number of 1000 defects were generated
//    for each bus."
//
// Prints the defective-wire histogram (why side lines get no coverage:
// their nominal net coupling is too small for the distribution to push
// them over Cth).

#include "bench_util.h"
#include "sim/campaign.h"
#include "util/table.h"

using namespace xtest;

namespace {

void print_library_stats(const spec::ScenarioSpec& scn, soc::BusKind bus) {
  const soc::SystemConfig& cfg = scn.system;
  const soc::System sys(cfg);
  const auto& nominal = bus == soc::BusKind::kAddress
                            ? sys.nominal_address_network()
                            : sys.nominal_data_network();
  const auto lib =
      sim::make_defect_library(cfg, bus, scn.defect_count, scn.seed,
                               scn.sigma_pct);
  const auto hist = lib.defective_wire_histogram(nominal);

  std::printf("\n%s bus: %zu defects from %zu candidates "
              "(yield %.2f%%), Cth = %.1f fF\n",
              soc::to_string(bus).c_str(), scn.defect_count, lib.attempts(),
              100.0 * static_cast<double>(lib.size()) /
                  static_cast<double>(lib.attempts()),
              lib.config().cth_fF);

  util::Table t({"wire", "nominal net C (fF)", "defective in library", ""});
  std::size_t multi = 0;
  for (unsigned i = 0; i < nominal.width(); ++i) {
    t.add_row({std::to_string(i + 1),
               util::Table::num(nominal.net_coupling(i), 1),
               std::to_string(hist[i]),
               bench::bar(static_cast<double>(hist[i]) /
                          (static_cast<double>(scn.defect_count) / 4.0))});
  }
  for (const auto& d : lib.defects())
    multi += d.defective_wires(nominal, lib.config().cth_fF).size() > 1;
  std::printf("%s", t.render().c_str());
  std::printf("defects touching more than one wire: %zu/%zu (%.1f%%)\n",
              multi, lib.size(),
              100.0 * static_cast<double>(multi) /
                  static_cast<double>(lib.size()));
}

}  // namespace

int main(int argc, char** argv) {
  spec::ScenarioSpec def = spec::builtin_scenario("paper-baseline");
  def.defect_count = 1000;  // the paper's full Fig. 10 library
  return bench::scenario_main(
      argc, argv, "E9: defect library generation",
      "Fig. 10 (Gaussian perturbation, 3-sigma = 150%, Cth gate)", def,
      [](const spec::ScenarioSpec& scn) {
        print_library_stats(scn, soc::BusKind::kAddress);
        print_library_stats(scn, soc::BusKind::kData);
        return true;  // DESIGN.md section 3 gates no claim here
      });
}
