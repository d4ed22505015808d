#include "sim/campaign.h"

#include <gtest/gtest.h>

#include "sim/verify.h"
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

}  // namespace
}  // namespace xtest::sim
