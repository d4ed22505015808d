// E16 (extension) -- diagnostic resolution of the compacted responses.
//
// Section 4.3: "we compact the test responses into as few bytes as
// possible without losing any diagnostic information ... The position of
// the '0' bit tells which test failed."  This bench measures that claim
// end to end over the defect library: after each defective run, the
// diagnosis engine inverts the tester-visible responses back to candidate
// failing MA tests, and we score whether a candidate's victim wire really
// is one of the defect's over-threshold wires.

#include "bench_util.h"
#include "sim/campaign.h"
#include "sim/diagnosis.h"
#include "sim/verify.h"
#include "util/table.h"

using namespace xtest;

namespace {

bool print_diagnosis_accuracy(const spec::ScenarioSpec& scn) {
  const soc::SystemConfig& cfg = scn.system;
  const soc::System probe(cfg);
  const auto lib = sim::make_defect_library(cfg, soc::BusKind::kAddress,
                                            scn.defect_count, scn.seed);
  const auto gen =
      sbst::TestProgramGenerator(scn.program).generate();
  const sim::VerificationResult ver = sim::verify_program(gen.program);

  soc::System sys(cfg);
  std::size_t detected = 0, diagnosed = 0, correct_wire = 0;
  std::size_t total_candidates = 0;
  for (const auto& defect : lib.defects()) {
    sys.set_address_network(defect.apply(probe.nominal_address_network()));
    const sim::ResponseSnapshot snap =
        sim::run_and_capture(sys, gen.program, ver.max_cycles);
    sys.clear_defects();
    if (snap.matches(ver.gold)) continue;
    ++detected;
    const auto candidates = sim::diagnose(gen.program, ver.gold, snap);
    if (candidates.empty()) continue;
    ++diagnosed;
    total_candidates += candidates.size();
    const auto bad_wires =
        defect.defective_wires(probe.nominal_address_network(),
                               probe.address_cth());
    bool hit = false;
    for (const auto& c : candidates)
      for (unsigned w : bad_wires) hit = hit || c.fault.victim == w;
    correct_wire += hit;
  }

  util::Table t({"metric", "value"});
  t.add_row({"defects detected (single session)",
             std::to_string(detected) + "/" + std::to_string(lib.size())});
  t.add_row({"detections yielding candidates",
             std::to_string(diagnosed) + "/" + std::to_string(detected)});
  t.add_row({"candidate set touches a truly defective wire",
             util::Table::pct(detected ? static_cast<double>(correct_wire) /
                                             static_cast<double>(diagnosed)
                                       : 0.0)});
  t.add_row({"mean candidates per diagnosis",
             util::Table::num(diagnosed ? static_cast<double>(
                                              total_candidates) /
                                              static_cast<double>(diagnosed)
                                        : 0.0,
                              1)});
  std::printf("\n%s", t.render().c_str());
  std::printf("\nNote: real defects perturb many couplings at once, so a "
              "candidate *set* (rather than a single test) is the best a "
              "one-byte-per-group compaction can deliver -- exactly the "
              "paper's 'without losing any diagnostic information' "
              "granularity.\n");
  return true;  // DESIGN.md section 3 gates no claim here
}

}  // namespace

int main(int argc, char** argv) {
  spec::ScenarioSpec def = spec::builtin_scenario("paper-baseline");
  def.defect_count = 300;
  return bench::scenario_main(
      argc, argv,
      "E16 (extension): diagnostic resolution of compacted responses",
      "Section 4.3's diagnosability claim, measured", def,
      print_diagnosis_accuracy);
}
