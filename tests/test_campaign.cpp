#include "sim/campaign.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/verify.h"
#include "soc/trace.h"
#include "util/fault_injector.h"

namespace xtest::sim {
namespace {

// Small libraries keep the suite fast; the benches run the paper-size 1000.
constexpr std::size_t kLib = 60;
constexpr std::uint64_t kSeed = 20010618;

TEST(Campaign, LibraryMatchesSystemCalibration) {
  const soc::SystemConfig cfg;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, kLib, kSeed);
  const soc::System sys(cfg);
  EXPECT_EQ(lib.size(), kLib);
  EXPECT_DOUBLE_EQ(lib.config().cth_fF, sys.address_cth());
}

TEST(Campaign, FullProgramSetDetectsAllAddressDefects) {
  // The paper's headline: "the defect coverage of the test program is 100%
  // on both address and data busses".
  const soc::SystemConfig cfg;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, kLib, kSeed);
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  const auto det =
      run_detection_sessions(cfg, sessions, soc::BusKind::kAddress, lib);
  EXPECT_DOUBLE_EQ(coverage(det), 1.0);
}

TEST(Campaign, FullProgramSetDetectsAllDataDefects) {
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, kLib, kSeed);
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  const auto det =
      run_detection_sessions(cfg, sessions, soc::BusKind::kData, lib);
  EXPECT_DOUBLE_EQ(coverage(det), 1.0);
}

TEST(Campaign, PerLineCoverageShapeMatchesFig11) {
  const soc::SystemConfig cfg;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, kLib, kSeed);
  const PerLineCoverage cov = per_line_coverage(
      cfg, soc::BusKind::kAddress, lib, sbst::GeneratorConfig{});

  ASSERT_EQ(cov.individual.size(), 12u);
  // Outermost lines: no library defect reaches them (Fig. 11: lines 1 and
  // 12 have no defect coverage).
  EXPECT_EQ(cov.individual.front(), 0.0);
  EXPECT_EQ(cov.individual.back(), 0.0);
  // Center beats the near-edges.
  const double center = cov.individual[5] + cov.individual[6];
  const double edges = cov.individual[1] + cov.individual[10];
  EXPECT_GT(center, edges);
  // Cumulative coverage is monotone and reaches 100%.
  for (std::size_t i = 1; i < cov.cumulative.size(); ++i)
    EXPECT_GE(cov.cumulative[i], cov.cumulative[i - 1]);
  EXPECT_DOUBLE_EQ(cov.cumulative.back(), 1.0);
  EXPECT_DOUBLE_EQ(cov.overall, 1.0);
  EXPECT_EQ(cov.library_size, kLib);
}

TEST(Campaign, PerLineTestsMostlyPlaced) {
  const soc::SystemConfig cfg;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 10, kSeed);
  const PerLineCoverage cov = per_line_coverage(
      cfg, soc::BusKind::kAddress, lib, sbst::GeneratorConfig{});
  std::size_t total = 0;
  for (std::size_t n : cov.tests_placed) total += n;
  // 4 MAFs per line, 12 lines; at most a few conflict away entirely.
  EXPECT_GE(total, 45u);
}

TEST(Campaign, DetectionIsDeterministic) {
  const soc::SystemConfig cfg;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 20, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const auto a = run_detection(cfg, prog.program, soc::BusKind::kAddress, lib);
  const auto b = run_detection(cfg, prog.program, soc::BusKind::kAddress, lib);
  EXPECT_EQ(a, b);
}

TEST(Campaign, SingleSessionWeakerThanUnion) {
  // Missing (conflicting) tests can only lose coverage.
  const soc::SystemConfig cfg;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, kLib, kSeed);
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  const auto single = run_detection(cfg, sessions[0].program,
                                    soc::BusKind::kAddress, lib);
  const auto all =
      run_detection_sessions(cfg, sessions, soc::BusKind::kAddress, lib);
  for (std::size_t i = 0; i < lib.size(); ++i)
    EXPECT_LE(is_detected(single[i]), is_detected(all[i])) << i;
}

TEST(Campaign, CoverageHelper) {
  EXPECT_DOUBLE_EQ(coverage(std::vector<Verdict>{}), 0.0);
  EXPECT_DOUBLE_EQ(coverage({Verdict::kDetected, Verdict::kUndetected,
                             Verdict::kDetectedByTimeout,
                             Verdict::kSimError}),
                   0.5);
  EXPECT_DOUBLE_EQ(coverage({Verdict::kDetected}), 1.0);
  // Legacy flat-bool overload still answers the same question.
  EXPECT_DOUBLE_EQ(coverage(std::vector<bool>{true, false}), 0.5);
}

TEST(Campaign, MaskingAwareWholeProgramStillDetects) {
  // The defect is excited many times during the program (fault masking is
  // modelled, Section 5); detection must survive all the incidental
  // activations.  Check with the strongest defect in the library.
  const soc::SystemConfig cfg;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 10, kSeed);
  const soc::System sys(cfg);
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  const auto det =
      run_detection_sessions(cfg, sessions, soc::BusKind::kAddress, lib);
  for (const Verdict v : det) EXPECT_TRUE(is_detected(v)) << to_string(v);
}

TEST(Campaign, CaptureSiteFiresOncePerSlot) {
  // DESIGN D7: the fault injector sees every run.  A defect run taken
  // whole from the gold run, or resumed from a gold snapshot, is still
  // unloaded once, so "signature.capture" fires once per gold step and
  // once per (session, defect) slot.  An unrelated rule arms the injector
  // so it counts the hits without failing any.
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm;
  const soc::SystemConfig cfg;
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  ASSERT_EQ(sessions.size(), 6u);
  std::size_t live = 0;
  for (const auto& s : sessions) live += !s.program.tests.empty();
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, kLib, kSeed);
  util::FaultInjector& injector = util::FaultInjector::global();
  for (const unsigned threads : {1u, 4u}) {
    injector.configure("unrelated.site");
    run_detection_sessions(cfg, sessions, soc::BusKind::kAddress, lib,
                           {.parallel = {threads}});
    EXPECT_EQ(injector.hits("signature.capture"), live * (kLib + 1))
        << "threads " << threads;
    injector.disarm();
  }
}

/// The words received on `bus` in a run of `program` from reset, with
/// `defect` (when given) injected on that bus.
std::vector<std::uint64_t> received_words(const soc::SystemConfig& cfg,
                                          const sbst::TestProgram& program,
                                          soc::BusKind bus,
                                          const xtalk::Defect* defect,
                                          std::uint64_t budget) {
  soc::System system(cfg);
  if (defect != nullptr) {
    switch (bus) {
      case soc::BusKind::kAddress:
        system.set_address_network(
            defect->apply(system.nominal_address_network()));
        break;
      case soc::BusKind::kData:
        system.set_data_network(defect->apply(system.nominal_data_network()));
        break;
      case soc::BusKind::kControl:
        system.set_control_network(
            defect->apply(system.nominal_control_network()));
        break;
    }
  }
  soc::BusTrace trace;
  system.set_trace(&trace);
  run_and_capture(system, program, budget);
  std::vector<std::uint64_t> words;
  for (const soc::BusEvent& e : trace.events())
    if (e.bus == bus) words.push_back(e.received.bits());
  return words;
}

TEST(Campaign, CaptureFaultInARepresentativeRunRetriesItsGroupAlone) {
  // DESIGN D7, shared trajectories: the slots that first leave gold at the
  // same transfer with the same received word share one representative
  // run.  When that run's unload fails, the representative and every
  // member go to the serial retry, each running alone, and all get the
  // unarmed verdict; the other groups are untouched.  At one thread the
  // first representative to run is the lowest slot that leaves gold, and
  // its unload is hit 2 of "signature.capture" (gold's is hit 1).  On the
  // address bus that group is 32 of 200 slots; on the control bus every
  // slot leaves gold the same way.
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm;
  const soc::SystemConfig cfg;
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  const sbst::TestProgram& program = sessions.front().program;
  soc::System gold_system(cfg);
  const std::uint64_t budget =
      run_and_capture(gold_system, program, 1'000'000).cycles * 16 + 1000;
  for (const soc::BusKind bus :
       {soc::BusKind::kAddress, soc::BusKind::kControl}) {
    const std::string where = soc::to_string(bus);
    const auto lib = make_defect_library(cfg, bus, 200, kSeed);
    const std::vector<Verdict> unarmed =
        run_detection(cfg, program, bus, lib, {.parallel = {1}});

    // The group, from runs from reset: (first transfer whose received
    // word differs from gold's, the word there) equal to the lowest such
    // slot's.
    const std::vector<std::uint64_t> gold =
        received_words(cfg, program, bus, nullptr, budget);
    std::optional<std::pair<std::size_t, std::uint64_t>> first;
    std::size_t group = 0;
    for (std::size_t i = 0; i < lib.size(); ++i) {
      const std::vector<std::uint64_t> words =
          received_words(cfg, program, bus, &lib[i], budget);
      std::size_t k = 0;
      while (k < words.size() && k < gold.size() && words[k] == gold[k]) ++k;
      if (k == words.size()) continue;  // never leaves gold
      const std::pair<std::size_t, std::uint64_t> fork{k, words[k]};
      if (!first) first = fork;
      group += fork == *first;
    }
    ASSERT_GE(group, 2u) << where << ": the first group has no member "
                                     "besides its representative";

    util::FaultInjector& injector = util::FaultInjector::global();
    injector.configure("signature.capture@2");
    util::CampaignStats stats;
    const std::vector<Verdict> armed = run_detection(
        cfg, program, bus, lib, {.parallel = {1}, .stats = &stats});
    EXPECT_EQ(injector.fired("signature.capture"), 1u) << where;
    injector.disarm();
    EXPECT_EQ(armed, unarmed) << where;
    EXPECT_EQ(stats.retries, group) << where << ", of " << lib.size();
    EXPECT_EQ(stats.sim_errors, 0u) << where;
    EXPECT_TRUE(stats.error_log.empty()) << where;
  }
}

}  // namespace
}  // namespace xtest::sim
