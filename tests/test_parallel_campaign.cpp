// Serial-vs-parallel equivalence for the campaign engine.
//
// The contract under test: every campaign entry point returns *bitwise
// identical* results for any thread count, because defects are statically
// partitioned, every worker owns a private soc::System, and verdicts are
// written by defect index.  threads == 1 is the exact serial path, so
// comparing it against threads in {2, 4, 8} proves the parallel engine
// changes nothing but wall-clock time.

#include "sim/campaign.h"

#include <gtest/gtest.h>

#include "hwbist/bist.h"
#include "hwbist/random_patterns.h"
#include "soc/control.h"
#include "spec/scenario.h"
#include "util/parallel.h"

namespace xtest::sim {
namespace {

constexpr std::uint64_t kSeed = 20010618;
const unsigned kThreadCounts[] = {2, 4, 8};

util::ParallelConfig serial() { return {1}; }

soc::BusKind all_buses[] = {soc::BusKind::kAddress, soc::BusKind::kData,
                            soc::BusKind::kControl};

TEST(ParallelCampaign, RunDetectionMatchesSerialOnEveryBus) {
  const soc::SystemConfig cfg;
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  for (soc::BusKind bus : all_buses) {
    const auto lib = make_defect_library(cfg, bus, 24, kSeed);
    const auto gold =
        run_detection(cfg, prog.program, bus, lib, {.parallel = serial()});
    for (unsigned t : kThreadCounts) {
      const auto par =
          run_detection(cfg, prog.program, bus, lib, {.parallel = {t}});
      EXPECT_EQ(gold, par) << "bus " << soc::to_string(bus) << " threads "
                           << t;
    }
  }
}

TEST(ParallelCampaign, RunDetectionSessionsMatchesSerialOnEveryBus) {
  const soc::SystemConfig cfg;
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  for (soc::BusKind bus : all_buses) {
    const auto lib = make_defect_library(cfg, bus, 12, kSeed);
    const auto gold =
        run_detection_sessions(cfg, sessions, bus, lib, {.parallel = serial()});
    for (unsigned t : kThreadCounts) {
      const auto par =
          run_detection_sessions(cfg, sessions, bus, lib, {.parallel = {t}});
      EXPECT_EQ(gold, par) << "bus " << soc::to_string(bus) << " threads "
                           << t;
    }
  }
}

TEST(ParallelCampaign, PerLineCoverageMatchesSerial) {
  const soc::SystemConfig cfg;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 10, kSeed);
  const PerLineCoverage gold = per_line_coverage(
      cfg, soc::BusKind::kAddress, lib, sbst::GeneratorConfig{},
      {.parallel = serial()});
  for (unsigned t : kThreadCounts) {
    const PerLineCoverage par = per_line_coverage(
        cfg, soc::BusKind::kAddress, lib, sbst::GeneratorConfig{},
        {.parallel = {t}});
    // Coverage fractions are ratios of per-defect verdict vectors; bitwise
    // identical verdicts mean exactly equal doubles, no tolerance needed.
    EXPECT_EQ(gold.individual, par.individual) << "threads " << t;
    EXPECT_EQ(gold.cumulative, par.cumulative) << "threads " << t;
    EXPECT_EQ(gold.tests_placed, par.tests_placed) << "threads " << t;
    EXPECT_EQ(gold.overall, par.overall) << "threads " << t;
    EXPECT_EQ(gold.library_size, par.library_size) << "threads " << t;
  }
}

TEST(ParallelCampaign, HwBistLibraryRunsMatchSerial) {
  const soc::SystemConfig cfg;
  const soc::System sys(cfg);
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 40, kSeed);

  const hwbist::HardwareBist bist(cpu::kDataBits, true);
  const auto bist_gold = bist.run_library(sys.nominal_data_network(),
                                          sys.data_model(), lib, serial());
  const hwbist::RandomPatternBist rnd(cpu::kDataBits, 64, kSeed);
  const auto rnd_gold = rnd.run_library(sys.nominal_data_network(),
                                        sys.data_model(), lib, serial());
  for (unsigned t : kThreadCounts) {
    EXPECT_EQ(bist_gold, bist.run_library(sys.nominal_data_network(),
                                          sys.data_model(), lib, {t}));
    EXPECT_EQ(rnd_gold, rnd.run_library(sys.nominal_data_network(),
                                        sys.data_model(), lib, {t}));
  }
}

TEST(ParallelCampaign, RepeatedRunsWithSameSeedAreIdentical) {
  // Determinism property: the whole pipeline (library generation from a
  // seed through parallel detection) is a pure function of its inputs.
  const soc::SystemConfig cfg;
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  for (unsigned t : {1u, 4u}) {
    const auto lib_a =
        make_defect_library(cfg, soc::BusKind::kAddress, 20, kSeed);
    const auto lib_b =
        make_defect_library(cfg, soc::BusKind::kAddress, 20, kSeed);
    const auto det_a = run_detection(cfg, prog.program, soc::BusKind::kAddress,
                                     lib_a, {.parallel = {t}});
    const auto det_b = run_detection(cfg, prog.program, soc::BusKind::kAddress,
                                     lib_b, {.parallel = {t}});
    EXPECT_EQ(det_a, det_b) << "threads " << t;
  }
}

TEST(ParallelCampaign, StatsAreDeterministicAcrossThreadCounts) {
  // defects_simulated, simulated_cycles and gold_prefix_cycles are pure
  // functions of the campaign inputs; wall_seconds, the phase timers and
  // threads are the only host-dependent fields.
  const soc::SystemConfig cfg;
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 16, kSeed);

  util::CampaignStats serial_stats;
  run_detection(cfg, prog.program, soc::BusKind::kAddress, lib,
                {.parallel = serial(), .stats = &serial_stats});
  EXPECT_EQ(serial_stats.defects_simulated, lib.size());
  EXPECT_EQ(serial_stats.threads, 1u);
  EXPECT_GT(serial_stats.simulated_cycles, 0u);
  EXPECT_GE(serial_stats.wall_seconds, 0.0);
  // Address-bus defect runs take part of their cycles from the gold run.
  EXPECT_GT(serial_stats.gold_prefix_cycles, 0u);
  EXPECT_LE(serial_stats.gold_prefix_cycles, serial_stats.simulated_cycles);

  for (unsigned t : kThreadCounts) {
    util::CampaignStats s;
    run_detection(cfg, prog.program, soc::BusKind::kAddress, lib,
                  {.parallel = {t}, .stats = &s});
    EXPECT_EQ(s.defects_simulated, serial_stats.defects_simulated);
    EXPECT_EQ(s.simulated_cycles, serial_stats.simulated_cycles)
        << "threads " << t;
    EXPECT_EQ(s.gold_prefix_cycles, serial_stats.gold_prefix_cycles)
        << "threads " << t;
    EXPECT_EQ(s.threads, t);
    // The engine's phase timers are disjoint spans of the call.
    EXPECT_GT(s.gold_seconds, 0.0) << "threads " << t;
    EXPECT_GT(s.simulate_seconds, 0.0) << "threads " << t;
    EXPECT_EQ(s.checkpoint_seconds, 0.0) << "threads " << t;
    EXPECT_LE(s.gold_seconds + s.simulate_seconds + s.checkpoint_seconds,
              s.wall_seconds + 1e-6)
        << "threads " << t;
  }

  // The oracle (reference receive path) simulates every run from reset.
  soc::SystemConfig oracle = cfg;
  oracle.fast_receive = false;
  util::CampaignStats oracle_stats;
  run_detection(oracle, prog.program, soc::BusKind::kAddress, lib,
                {.parallel = {4}, .stats = &oracle_stats});
  EXPECT_EQ(oracle_stats.gold_prefix_cycles, 0u);
  EXPECT_EQ(oracle_stats.simulated_cycles, serial_stats.simulated_cycles);
}

struct VerdictCounts4 {
  std::size_t detected, timeout, undetected, sim_errors;
  bool operator==(const VerdictCounts4&) const = default;
};

VerdictCounts4 counts_of(const util::CampaignStats& s) {
  return {s.detected, s.detected_by_timeout, s.undetected, s.sim_errors};
}

TEST(ParallelCampaign, EveryBuiltinScenarioMatchesSerialAtFourThreads) {
  // Every built-in scenario, three library seeds, every session: the
  // 4-thread campaign must reproduce the serial verdicts and every
  // verdict-pure counter exactly.
  for (const std::string& name : spec::builtin_scenario_names()) {
    spec::ScenarioSpec s = spec::builtin_scenario(name);
    s.defect_count = 12;
    for (const std::uint64_t seed : {kSeed, kSeed + 7, std::uint64_t{424242}}) {
      s.seed = seed;
      const auto sessions = s.make_sessions();
      const auto lib = s.make_library();
      util::CampaignStats ref_stats;
      CampaignOptions ref_opts = s.campaign_options(&ref_stats);
      ref_opts.parallel = serial();
      const std::vector<Verdict> reference =
          run_detection_sessions(s.system, sessions, s.bus, lib, ref_opts);

      util::CampaignStats stats;
      CampaignOptions opts = s.campaign_options(&stats);
      opts.parallel = {4};
      const std::vector<Verdict> det =
          run_detection_sessions(s.system, sessions, s.bus, lib, opts);
      EXPECT_EQ(det, reference) << name << " seed=" << seed;
      EXPECT_EQ(counts_of(stats), counts_of(ref_stats))
          << name << " seed=" << seed;
      EXPECT_EQ(stats.defects_simulated, ref_stats.defects_simulated)
          << name << " seed=" << seed;
      EXPECT_EQ(stats.simulated_cycles, ref_stats.simulated_cycles)
          << name << " seed=" << seed;
    }
  }
}

TEST(ParallelCampaign, StatsAccumulateAcrossSessions) {
  const soc::SystemConfig cfg;
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 8, kSeed);
  std::size_t live_sessions = 0;
  for (const auto& s : sessions) live_sessions += !s.program.tests.empty();

  util::CampaignStats stats;
  run_detection_sessions(cfg, sessions, soc::BusKind::kAddress, lib,
                         {.parallel = serial(), .stats = &stats});
  EXPECT_EQ(stats.defects_simulated, live_sessions * lib.size());
}

}  // namespace
}  // namespace xtest::sim
