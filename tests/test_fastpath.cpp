// Equivalence and unit tests for the hot-path machinery: the precomputed
// BusEvaluator must be bit-identical to CrosstalkErrorModel::receive, and
// every state change (defect injection, clear, forced MAF) must keep the
// fast system in lockstep with the reference evaluation path.

#include "xtalk/fast_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sbst/generator.h"
#include "sim/campaign.h"
#include "soc/bus.h"
#include "soc/system.h"
#include "xtalk/defect.h"
#include "xtalk/electrical.h"
#include "xtalk/error_model.h"
#include "xtalk/transient.h"

namespace xtest {
namespace {

using util::BusWord;
using xtalk::BusEvaluator;
using xtalk::CrosstalkErrorModel;
using xtalk::ErrorModelConfig;
using xtalk::RcNetwork;
using xtalk::VectorPair;

/// Nominal bus of `width` wires with every coupling and ground cap randomly
/// perturbed -- a stand-in for an arbitrary defect-applied network.
RcNetwork perturbed_network(unsigned width, std::mt19937_64& rng) {
  xtalk::BusGeometry g;
  g.width = width;
  RcNetwork net(g);
  std::uniform_real_distribution<double> factor(0.1, 3.0);
  for (unsigned i = 0; i < width; ++i)
    for (unsigned j = i + 1; j < width; ++j)
      net.scale_coupling(i, j, factor(rng));
  std::uniform_real_distribution<double> load(0.0, 50.0);
  for (unsigned i = 0; i < width; ++i) net.add_ground_load(i, load(rng));
  return net;
}

TEST(FastModel, ReceiveMatchesReferenceOnRandomNetworks) {
  std::mt19937_64 rng(20010618);
  for (const unsigned width : {2u, 3u, 8u, 12u, 16u}) {
    xtalk::BusGeometry g;
    g.width = width;
    const RcNetwork nominal(g);
    const ErrorModelConfig thresholds =
        ErrorModelConfig::calibrated(nominal, xtalk::recommended_cth(nominal));
    const CrosstalkErrorModel reference(thresholds);
    for (int defect = 0; defect < 8; ++defect) {
      const RcNetwork net = perturbed_network(width, rng);
      const BusEvaluator fast(net, thresholds);
      // Every MA test, both directions ...
      for (const xtalk::MafFault& f : xtalk::enumerate_mafs(width, true)) {
        const VectorPair pair = xtalk::ma_test(width, f);
        EXPECT_EQ(fast.receive(pair.v1.bits(), pair.v2.bits()),
                  reference.receive(net, pair).bits())
            << "width " << width << " fault " << f.label();
      }
      // ... plus random transitions (including quiet v1 == v2 draws).
      std::uniform_int_distribution<std::uint64_t> word(0,
                                                        BusWord::mask(width));
      for (int t = 0; t < 200; ++t) {
        const BusWord v1(width, word(rng));
        const BusWord v2(width, word(rng));
        EXPECT_EQ(fast.receive(v1.bits(), v2.bits()),
                  reference.receive(net, {v1, v2}).bits())
            << "width " << width << " " << v1.to_binary() << " -> "
            << v2.to_binary();
      }
    }
  }
}

TEST(FastModel, ZeroGlitchThresholdStillMatchesReference) {
  // With glitch_threshold_v == 0 the reference flips stable wires on a
  // +0.0 excursion, so the quiet-transfer shortcut must be disabled.
  xtalk::BusGeometry g;
  g.width = 8;
  const RcNetwork net(g);
  ErrorModelConfig t;
  t.glitch_threshold_v = 0.0;
  t.delay_slack_ns = 0.0;
  const BusEvaluator fast(net, t);
  EXPECT_FALSE(fast.quiet_is_identity());
  const CrosstalkErrorModel reference(t);
  for (std::uint64_t v = 0; v < 256; ++v) {
    const BusWord w(8, v);
    EXPECT_EQ(fast.receive(v, v), reference.receive(net, {w, w}).bits()) << v;
  }
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint64_t> word(0, 255);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v1 = word(rng);
    const std::uint64_t v2 = word(rng);
    EXPECT_EQ(fast.receive(v1, v2),
              reference.receive(net, {BusWord(8, v1), BusWord(8, v2)}).bits());
  }
}

TEST(FastPath, QuietBusTransferSkipsEvaluation) {
  // A quiet transfer (re-driving the held word) samples the driven word
  // without evaluation, even on a defect whose evaluator is active: with a
  // positive glitch threshold nothing can move when no wire toggles.
  xtalk::BusGeometry g;
  g.width = 8;
  const RcNetwork nominal(g);
  const ErrorModelConfig thresholds =
      ErrorModelConfig::calibrated(nominal, xtalk::recommended_cth(nominal));
  RcNetwork net = nominal;
  for (unsigned j = 0; j < net.width(); ++j)
    if (j != 4) net.scale_coupling(4, j, 4.0);
  const BusEvaluator eval(net, thresholds);
  ASSERT_TRUE(eval.quiet_is_identity());
  ASSERT_FALSE(eval.always_identity());
  soc::TristateBus bus(soc::BusKind::kData, 8);
  const BusWord w(8, 0xA5);
  bus.transfer(w, &eval);  // 0x00 -> 0xA5 is a real transition
  EXPECT_EQ(bus.transfer(w, &eval), w);  // quiet: early-exit
  EXPECT_EQ(bus.held(), w);
}

TEST(FastPath, IdealBusBypassesEvaluation) {
  soc::TristateBus bus(soc::BusKind::kData, 8);
  const BusWord w(8, 0x5A);
  EXPECT_EQ(bus.transfer(w, nullptr, nullptr), w);
  const BusEvaluator empty;
  EXPECT_EQ(bus.transfer(BusWord(8, 0x81), &empty), BusWord(8, 0x81));
  EXPECT_EQ(bus.transfer(BusWord(8, 0x18), nullptr), BusWord(8, 0x18));
}

TEST(FastPath, CampaignVerdictsMatchReferencePath) {
  // The acceptance property: full multi-session campaigns on the fast
  // receive path -- where a defect run resumes from the gold snapshot
  // before the first transfer its defect changes, or takes gold's outcome
  // when there is none -- give the verdicts *and the simulated cycles* of
  // the reference path, which runs every defect from reset.  On all three
  // buses, under a slow tester clock and the low-swing backend too, at 1
  // and 4 threads.
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  soc::SystemConfig slow_clock;
  slow_clock.clock_period_scale = 3.0;
  soc::SystemConfig low_swing;
  low_swing.electrical.backend = xtalk::ElectricalBackend::kLowSwing;
  const std::pair<const char*, soc::SystemConfig> variants[] = {
      {"nominal", {}}, {"clock x3", slow_clock}, {"low-swing", low_swing}};
  for (const auto& [name, fast_cfg] : variants) {
    ASSERT_TRUE(fast_cfg.fast_receive);
    soc::SystemConfig ref_cfg = fast_cfg;
    ref_cfg.fast_receive = false;
    for (const soc::BusKind bus : {soc::BusKind::kAddress, soc::BusKind::kData,
                                   soc::BusKind::kControl}) {
      const auto lib = sim::make_defect_library(fast_cfg, bus, 200, 99);
      for (const unsigned threads : {1u, 4u}) {
        const std::string where = std::string(name) + " " +
                                  soc::to_string(bus) +
                                  " threads=" + std::to_string(threads);
        util::CampaignStats fast_stats, ref_stats;
        const auto fast = sim::run_detection_sessions(
            fast_cfg, sessions, bus, lib,
            {.parallel = {threads}, .stats = &fast_stats});
        const auto reference = sim::run_detection_sessions(
            ref_cfg, sessions, bus, lib,
            {.parallel = {threads}, .stats = &ref_stats});
        EXPECT_EQ(fast, reference) << where;
        EXPECT_EQ(fast_stats.simulated_cycles, ref_stats.simulated_cycles)
            << where;
        EXPECT_EQ(ref_stats.gold_prefix_cycles, 0u) << where;
      }
    }
  }
}

TEST(FastPath, ForcedMafKeepsFastSystemInLockstep) {
  // The fast system must agree with the reference system across forcing
  // and clearing an ideal MAF, including on the exact MA transition that
  // excites the forced fault.
  soc::SystemConfig ref_cfg;
  ref_cfg.fast_receive = false;
  soc::System fast_sys{soc::SystemConfig{}};
  soc::System ref_sys{ref_cfg};

  const xtalk::MafFault fault{5, xtalk::MafType::kPositiveGlitch,
                              xtalk::BusDirection::kCpuToCore};
  const VectorPair pair = xtalk::ma_test(12, fault);
  const auto a1 = static_cast<cpu::Addr>(pair.v1.bits());
  const auto a2 = static_cast<cpu::Addr>(pair.v2.bits());
  const std::vector<cpu::Addr> probe{0x000, a1, a2, 0xfff, a1, a2, 0x123};

  const auto compare_traffic = [&] {
    for (const cpu::Addr a : probe)
      ASSERT_EQ(fast_sys.read(a), ref_sys.read(a)) << a;
  };
  compare_traffic();  // plain traffic
  fast_sys.set_forced_maf(soc::ForcedMaf{soc::BusKind::kAddress, fault});
  ref_sys.set_forced_maf(soc::ForcedMaf{soc::BusKind::kAddress, fault});
  compare_traffic();  // the forced fault corrupts both alike
  fast_sys.set_forced_maf(std::nullopt);
  ref_sys.set_forced_maf(std::nullopt);
  compare_traffic();
}

TEST(FastPath, DefectInjectionRebuildsTheEvaluator) {
  soc::SystemConfig ref_cfg;
  ref_cfg.fast_receive = false;
  soc::System fast_sys{soc::SystemConfig{}};
  soc::System ref_sys{ref_cfg};

  const auto compare_traffic = [&] {
    for (const std::uint8_t d : {0x00, 0xff, 0xa5, 0x5a, 0x0f}) {
      fast_sys.write(0x200, d);
      ref_sys.write(0x200, d);
      ASSERT_EQ(fast_sys.read(0x200), ref_sys.read(0x200)) << unsigned{d};
    }
  };
  compare_traffic();  // nominal net

  RcNetwork net = fast_sys.nominal_data_network();
  for (unsigned j = 0; j < net.width(); ++j)
    if (j != 4) net.scale_coupling(4, j, 4.0);
  fast_sys.set_data_network(net);
  ref_sys.set_data_network(net);
  compare_traffic();  // defect applied: the nominal evaluator must be gone
  fast_sys.clear_defects();
  ref_sys.clear_defects();
  compare_traffic();  // restored nominal
}

TEST(CampaignStats, JsonCarriesHotPathCounters) {
  util::CampaignStats stats;
  stats.defects_simulated = 30;
  stats.simulated_cycles = 12345;
  stats.wall_seconds = 0.5;
  const std::string j = stats.json("hotpath");
  EXPECT_NE(j.find("\"defects\":30"), std::string::npos) << j;
  EXPECT_NE(j.find("\"simulated_cycles\":12345"), std::string::npos) << j;
  EXPECT_NE(j.find("\"defects_per_second\":60.0"), std::string::npos) << j;
  // No transition memo, so no cache keys.
  EXPECT_EQ(j.find("cache"), std::string::npos) << j;
  // Environment provenance: worker count, the machine's concurrency, and
  // the build type all land in the record.
  EXPECT_NE(j.find("\"hardware_concurrency\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"build_type\":\""), std::string::npos) << j;
  EXPECT_NE(std::string(util::build_type()), "") << "build_type is never empty";
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.0);
}

TEST(LuSolver, ScratchOverloadMatchesAllocatingSolve) {
  const std::vector<double> a{4.0, 1.0, 0.5, 1.0, 5.0, 1.5,
                              0.5, 1.5, 6.0};
  const xtalk::LuSolver solver(a, 3);
  std::vector<double> b1{1.0, 2.0, 3.0};
  std::vector<double> b2 = b1;
  solver.solve(b1);
  std::vector<double> scratch;
  solver.solve(b2, scratch);
  EXPECT_EQ(b1, b2);  // identical operation order, bitwise-equal result
  // Scratch is reusable across calls.
  std::vector<double> b3{9.0, -1.0, 0.25};
  std::vector<double> b4 = b3;
  solver.solve(b3);
  solver.solve(b4, scratch);
  EXPECT_EQ(b3, b4);
}

TEST(TransientPlan, FusedStepMatchesReferenceIntegrator) {
  xtalk::BusGeometry g;
  g.width = 6;
  const RcNetwork net(g);
  xtalk::TransientConfig fused_cfg;
  fused_cfg.fused_step = true;
  xtalk::TransientConfig ref_cfg = fused_cfg;
  ref_cfg.fused_step = false;
  const xtalk::TransientSimulator fused(fused_cfg);
  const xtalk::TransientSimulator reference(ref_cfg);
  for (const xtalk::MafType type : xtalk::kAllMafTypes) {
    const VectorPair pair = xtalk::ma_test(
        6, {3, type, xtalk::BusDirection::kCpuToCore});
    const auto a = fused.simulate(net, pair);
    const auto b = reference.simulate(net, pair);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].peak_excursion_v, b[i].peak_excursion_v, 1e-6)
          << to_string(type) << " wire " << i;
      EXPECT_NEAR(a[i].crossing_time_ns, b[i].crossing_time_ns, 1e-6)
          << to_string(type) << " wire " << i;
    }
  }
}

TEST(TransientPlan, PlanInvalidatesOnNetworkMutation) {
  // Every simulate() call factors its plan from the network as it is now,
  // so one simulator sees a mutation at once.
  xtalk::BusGeometry g;
  g.width = 4;
  RcNetwork net(g);
  const xtalk::TransientSimulator sim;
  const VectorPair pair = xtalk::ma_test(
      4, {1, xtalk::MafType::kPositiveGlitch, xtalk::BusDirection::kCpuToCore});
  const double before = sim.simulate(net, pair)[1].peak_excursion_v;
  net.scale_coupling(1, 2, 5.0);
  const double after = sim.simulate(net, pair)[1].peak_excursion_v;
  EXPECT_NE(before, after);  // a stale plan would reproduce `before`

  // A fresh simulator against the mutated network agrees exactly.
  const xtalk::TransientSimulator fresh;
  EXPECT_DOUBLE_EQ(fresh.simulate(net, pair)[1].peak_excursion_v, after);
}

TEST(TransientPlan, CopiedNetworkSimulatesIndependently) {
  // Loading a copy leaves its original alone, and one simulator
  // alternating between the two answers each from its own capacitances.
  xtalk::BusGeometry g;
  g.width = 4;
  const RcNetwork original(g);
  RcNetwork copy = original;
  copy.add_ground_load(0, 10.0);
  EXPECT_EQ(original.ground_cap(0), RcNetwork(g).ground_cap(0));

  const xtalk::TransientSimulator sim;
  const VectorPair pair = xtalk::ma_test(
      4, {1, xtalk::MafType::kPositiveGlitch, xtalk::BusDirection::kCpuToCore});
  const double a = sim.simulate(original, pair)[1].peak_excursion_v;
  const double b = sim.simulate(copy, pair)[1].peak_excursion_v;
  const double a_again = sim.simulate(original, pair)[1].peak_excursion_v;
  EXPECT_EQ(a, a_again);
  EXPECT_NE(a, b);  // the loaded copy damps the glitch
}

}  // namespace
}  // namespace xtest
