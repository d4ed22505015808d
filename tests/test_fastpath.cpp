// Equivalence and unit tests for the hot-path machinery: the precomputed
// BusEvaluator must be bit-identical to CrosstalkErrorModel::receive, the
// TransitionCache must never change a verdict, and every
// invalidation edge (defect injection, clear, forced MAF) must keep the
// fast system in lockstep with the reference evaluation path.

#include "xtalk/fast_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "sbst/generator.h"
#include "sim/campaign.h"
#include "soc/bus.h"
#include "soc/system.h"
#include "xtalk/defect.h"
#include "xtalk/error_model.h"
#include "xtalk/transient.h"

namespace xtest {
namespace {

using util::BusWord;
using xtalk::BusEvaluator;
using xtalk::CrosstalkErrorModel;
using xtalk::ErrorModelConfig;
using xtalk::RcNetwork;
using xtalk::TransitionCache;
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

TEST(TransitionCache, LookupInsertInvalidateAndCounters) {
  TransitionCache cache(8);
  ASSERT_TRUE(cache.enabled());
  std::uint64_t v = 0;
  EXPECT_FALSE(cache.lookup(42, v));
  cache.insert(42, 7);
  EXPECT_TRUE(cache.lookup(42, v));
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.invalidate();
  EXPECT_FALSE(cache.lookup(42, v));  // O(1) invalidate drops every entry
  cache.insert(42, 9);
  EXPECT_TRUE(cache.lookup(42, v));
  EXPECT_EQ(v, 9u);

  TransitionCache off;  // default = disabled
  EXPECT_FALSE(off.enabled());
  off.insert(1, 2);
  EXPECT_FALSE(off.lookup(1, v));
  EXPECT_EQ(off.hits(), 0u);
  EXPECT_EQ(off.misses(), 0u);

  EXPECT_TRUE(TransitionCache::cacheable(1));
  EXPECT_TRUE(TransitionCache::cacheable(16));
  EXPECT_FALSE(TransitionCache::cacheable(0));
  EXPECT_FALSE(TransitionCache::cacheable(17));
}

TEST(FastPath, QuietBusTransferSkipsEvaluation) {
  xtalk::BusGeometry g;
  g.width = 8;
  const RcNetwork net(g);
  const ErrorModelConfig thresholds =
      ErrorModelConfig::calibrated(net, xtalk::recommended_cth(net));
  const BusEvaluator eval(net, thresholds);
  ASSERT_TRUE(eval.quiet_is_identity());
  TransitionCache cache(8);
  soc::TristateBus bus(soc::BusKind::kData, 8);
  const BusWord w(8, 0xA5);
  bus.transfer(w, &eval, &cache);  // 0x00 -> 0xA5 is a real transition
  const std::uint64_t misses = cache.misses();
  EXPECT_EQ(bus.transfer(w, &eval, &cache), w);  // quiet: early-exit
  EXPECT_EQ(cache.misses(), misses);             // ... before the cache
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(FastPath, IdealBusBypassesEvaluation) {
  soc::TristateBus bus(soc::BusKind::kData, 8);
  const BusWord w(8, 0x5A);
  EXPECT_EQ(bus.transfer(w, nullptr, nullptr), w);
  const BusEvaluator empty;
  EXPECT_EQ(bus.transfer(BusWord(8, 0x81), &empty, nullptr), BusWord(8, 0x81));
}

TEST(FastPath, CampaignVerdictsMatchReferencePath) {
  // The acceptance property: full campaign verdicts with the fast receive
  // path and transition cache on are identical to the seed evaluation
  // path, on all three buses, at 1 and 4 threads.
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  soc::SystemConfig fast_cfg;  // defaults: fast_receive + transition_cache
  soc::SystemConfig ref_cfg;
  ref_cfg.fast_receive = false;
  ref_cfg.transition_cache = false;
  soc::SystemConfig nocache_cfg;
  nocache_cfg.transition_cache = false;
  for (const soc::BusKind bus :
       {soc::BusKind::kAddress, soc::BusKind::kData, soc::BusKind::kControl}) {
    const auto lib = sim::make_defect_library(fast_cfg, bus, 12, 99);
    for (const unsigned threads : {1u, 4u}) {
      const util::ParallelConfig par{threads};
      const auto fast =
          sim::run_detection(fast_cfg, prog.program, bus, lib,
                             {.parallel = par});
      const auto reference =
          sim::run_detection(ref_cfg, prog.program, bus, lib,
                             {.parallel = par});
      EXPECT_EQ(fast, reference)
          << soc::to_string(bus) << " threads=" << threads;
      const auto nocache =
          sim::run_detection(nocache_cfg, prog.program, bus, lib,
                             {.parallel = par});
      EXPECT_EQ(fast, nocache)
          << soc::to_string(bus) << " threads=" << threads;
    }
  }
}

TEST(FastPath, ForcedMafKeepsFastSystemInLockstep) {
  // Forcing / clearing an ideal MAF invalidates the transition caches; the
  // fast system must agree with the reference system across the change,
  // including on the exact MA transition that excites the forced fault.
  soc::SystemConfig ref_cfg;
  ref_cfg.fast_receive = false;
  ref_cfg.transition_cache = false;
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
  compare_traffic();  // warm the memo with plain traffic
  fast_sys.set_forced_maf(soc::ForcedMaf{soc::BusKind::kAddress, fault});
  ref_sys.set_forced_maf(soc::ForcedMaf{soc::BusKind::kAddress, fault});
  compare_traffic();  // memoized words must not leak past the change
  fast_sys.set_forced_maf(std::nullopt);
  ref_sys.set_forced_maf(std::nullopt);
  compare_traffic();
}

TEST(FastPath, DefectInjectionInvalidatesTransitionCache) {
  soc::SystemConfig ref_cfg;
  ref_cfg.fast_receive = false;
  ref_cfg.transition_cache = false;
  soc::System fast_sys{soc::SystemConfig{}};
  soc::System ref_sys{ref_cfg};

  const auto compare_traffic = [&] {
    for (const std::uint8_t d : {0x00, 0xff, 0xa5, 0x5a, 0x0f}) {
      fast_sys.write(0x200, d);
      ref_sys.write(0x200, d);
      ASSERT_EQ(fast_sys.read(0x200), ref_sys.read(0x200)) << unsigned{d};
    }
  };
  compare_traffic();  // populate the data-bus memo on the nominal net

  RcNetwork net = fast_sys.nominal_data_network();
  for (unsigned j = 0; j < net.width(); ++j)
    if (j != 4) net.scale_coupling(4, j, 4.0);
  fast_sys.set_data_network(net);
  ref_sys.set_data_network(net);
  compare_traffic();  // defect applied: memoized nominal words must be gone
  fast_sys.clear_defects();
  ref_sys.clear_defects();
  compare_traffic();  // restored nominal
}

TEST(CampaignStats, JsonCarriesHotPathCounters) {
  util::CampaignStats stats;
  stats.cache_hits = 30;
  stats.cache_misses = 10;
  const std::string j = stats.json("hotpath");
  EXPECT_NE(j.find("\"cache_hits\":30"), std::string::npos) << j;
  EXPECT_NE(j.find("\"cache_misses\":10"), std::string::npos) << j;
  EXPECT_NE(j.find("\"cache_hit_rate\":0.7500"), std::string::npos) << j;
  // Environment provenance: worker count, the machine's concurrency, and
  // the build type all land in the record.
  EXPECT_NE(j.find("\"hardware_concurrency\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"build_type\":\""), std::string::npos) << j;
  EXPECT_NE(std::string(util::build_type()), "") << "build_type is never empty";
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(util::CampaignStats{}.cache_hit_rate(), 0.0);
}

TEST(FastPath, CampaignCountsCacheTraffic) {
  const soc::SystemConfig cfg;  // cache on by default
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const auto lib = sim::make_defect_library(cfg, soc::BusKind::kData, 6, 5);
  util::CampaignStats stats;
  sim::CampaignOptions o;
  o.stats = &stats;
  sim::run_detection(cfg, prog.program, soc::BusKind::kData, lib, o);
  // Instruction-fetch loops repeat transitions constantly: the memo must
  // see real traffic and mostly hit.
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_hit_rate(), 0.5);

  soc::SystemConfig off = cfg;
  off.transition_cache = false;
  util::CampaignStats stats_off;
  sim::CampaignOptions o_off;
  o_off.stats = &stats_off;
  sim::run_detection(off, prog.program, soc::BusKind::kData, lib, o_off);
  EXPECT_EQ(stats_off.cache_hits, 0u);
  EXPECT_EQ(stats_off.cache_misses, 0u);
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
  xtalk::BusGeometry g;
  g.width = 4;
  RcNetwork net(g);
  const xtalk::TransientSimulator sim;
  const VectorPair pair = xtalk::ma_test(
      4, {1, xtalk::MafType::kPositiveGlitch, xtalk::BusDirection::kCpuToCore});
  const double before = sim.simulate(net, pair)[1].peak_excursion_v;
  net.scale_coupling(1, 2, 5.0);  // bumps the network revision
  const double after = sim.simulate(net, pair)[1].peak_excursion_v;
  EXPECT_NE(before, after);  // a stale cached plan would reproduce `before`

  // A fresh simulator against the mutated network agrees exactly.
  const xtalk::TransientSimulator fresh;
  EXPECT_DOUBLE_EQ(fresh.simulate(net, pair)[1].peak_excursion_v, after);
}

TEST(TransientPlan, CopiedNetworkSharesPlanSafely) {
  // A copied, unmodified network keeps its revision; the plan is reused.
  // Modifying the copy re-keys it without touching the original.
  xtalk::BusGeometry g;
  g.width = 4;
  const RcNetwork original(g);
  RcNetwork copy = original;
  EXPECT_EQ(copy.revision(), original.revision());
  copy.add_ground_load(0, 10.0);
  EXPECT_NE(copy.revision(), original.revision());

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
