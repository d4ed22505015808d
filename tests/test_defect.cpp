#include "xtalk/defect.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "sim/campaign.h"
#include "soc/system.h"
#include "spec/scenario.h"
#include "util/rng.h"
#include "xtalk/error_model.h"

namespace xtest::xtalk {
namespace {

RcNetwork nominal12() {
  BusGeometry g;
  g.width = 12;
  return RcNetwork(g);
}

DefectConfig config_for(const RcNetwork& nom, std::size_t count = 50,
                        std::uint64_t seed = 99) {
  DefectConfig dc;
  dc.cth_fF = recommended_cth(nom, 1.6);
  dc.count = count;
  dc.seed = seed;
  return dc;
}

TEST(Defect, TriangularIndexingConsistent) {
  const unsigned w = 5;
  std::vector<double> factors(w * (w - 1) / 2);
  for (std::size_t i = 0; i < factors.size(); ++i)
    factors[i] = 1.0 + 0.01 * static_cast<double>(i);
  const Defect d(w, factors);
  // factor(i,j) == factor(j,i) and all entries distinct by construction.
  std::set<double> seen;
  for (unsigned i = 0; i < w; ++i)
    for (unsigned j = i + 1; j < w; ++j) {
      EXPECT_DOUBLE_EQ(d.factor(i, j), d.factor(j, i));
      seen.insert(d.factor(i, j));
    }
  EXPECT_EQ(seen.size(), factors.size());
}

TEST(Defect, ApplyScalesCouplings) {
  const RcNetwork nom = nominal12();
  std::vector<double> factors(12 * 11 / 2, 1.0);
  Defect d(12, factors);
  const RcNetwork same = d.apply(nom);
  for (unsigned i = 0; i < 12; ++i)
    EXPECT_DOUBLE_EQ(same.net_coupling(i), nom.net_coupling(i));

  factors[0] = 2.5;  // pair (0,1)
  const RcNetwork scaled = Defect(12, factors).apply(nom);
  EXPECT_DOUBLE_EQ(scaled.coupling(0, 1), 2.5 * nom.coupling(0, 1));
  EXPECT_DOUBLE_EQ(scaled.coupling(0, 2), nom.coupling(0, 2));
}

TEST(Defect, DefectiveWiresUsesCth) {
  const RcNetwork nom = nominal12();
  const double cth = recommended_cth(nom, 1.6);
  std::vector<double> factors(12 * 11 / 2, 1.0);
  factors[0] = 10.0;  // blow up pair (0,1)
  const Defect d(12, factors);
  const auto bad = d.defective_wires(nom, cth);
  // Both endpoints of the blown-up pair cross the threshold.
  EXPECT_EQ(bad, (std::vector<unsigned>{0, 1}));
}

TEST(Defect, DefectiveWiresSumsTheAppliedNetworkBitForBit) {
  // defective_wires, like the library's Cth test, sums each wire's scaled
  // couplings without building the network.  Each sum must be apply()'s
  // net_coupling bit for bit: a wire is not defective at its own net
  // coupling and is at the next double below it (toward -1, so that a
  // wire whose factors all clamped to 0 is covered too).
  const soc::SystemConfig paper;
  const soc::SystemConfig wide = spec::builtin_scenario("wide-bus-32").system;
  const BusGeometry geometries[] = {
      paper.address_geometry, paper.data_geometry, paper.control_geometry,
      wide.address_geometry,  wide.data_geometry,  wide.control_geometry};
  util::Rng rng(31);
  for (const BusGeometry& g : geometries) {
    const RcNetwork nom(g);
    const unsigned w = nom.width();
    for (int row = 0; row < 500; ++row) {
      std::vector<double> factors(w * (w - 1) / 2);
      for (double& f : factors) f = std::max(0.0, 1.0 + rng.gaussian(0.5));
      const Defect d(w, factors);
      const RcNetwork net = d.apply(nom);
      for (unsigned i = 0; i < w; ++i) {
        const double c = net.net_coupling(i);
        const std::vector<unsigned> at = d.defective_wires(nom, c);
        const std::vector<unsigned> below =
            d.defective_wires(nom, std::nextafter(c, -1.0));
        EXPECT_EQ(std::count(at.begin(), at.end(), i), 0)
            << "width " << w << " row " << row << " wire " << i;
        EXPECT_EQ(std::count(below.begin(), below.end(), i), 1)
            << "width " << w << " row " << row << " wire " << i;
      }
    }
  }
}

TEST(DefectLibrary, GeneratesRequestedCount) {
  const RcNetwork nom = nominal12();
  const DefectLibrary lib = DefectLibrary::generate(nom, config_for(nom));
  EXPECT_EQ(lib.size(), 50u);
  EXPECT_GE(lib.attempts(), lib.size());
}

TEST(DefectLibrary, EveryDefectExceedsCthSomewhere) {
  // The acceptance criterion of Fig. 10: candidates below Cth are benign
  // and discarded.
  const RcNetwork nom = nominal12();
  const DefectConfig dc = config_for(nom);
  const DefectLibrary lib = DefectLibrary::generate(nom, dc);
  for (const Defect& d : lib.defects()) {
    EXPECT_GT(d.apply(nom).max_net_coupling(), dc.cth_fF);
    EXPECT_FALSE(d.defective_wires(nom, dc.cth_fF).empty());
  }
}

TEST(DefectLibrary, DeterministicBySeed) {
  const RcNetwork nom = nominal12();
  const DefectLibrary a = DefectLibrary::generate(nom, config_for(nom, 20, 5));
  const DefectLibrary b = DefectLibrary::generate(nom, config_for(nom, 20, 5));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k)
    for (unsigned i = 0; i < 12; ++i)
      for (unsigned j = i + 1; j < 12; ++j)
        EXPECT_DOUBLE_EQ(a[k].factor(i, j), b[k].factor(i, j));
}

TEST(DefectLibrary, DifferentSeedsDiffer) {
  const RcNetwork nom = nominal12();
  const DefectLibrary a = DefectLibrary::generate(nom, config_for(nom, 5, 1));
  const DefectLibrary b = DefectLibrary::generate(nom, config_for(nom, 5, 2));
  EXPECT_NE(a[0].factor(0, 1), b[0].factor(0, 1));
}

TEST(DefectLibrary, OutermostWiresNeverDefective) {
  // The geometric fact behind Fig. 11's zero-coverage side lines: the
  // outermost wires' nominal net coupling is so much smaller that the
  // 3-sigma=150% distribution cannot push them over Cth.
  const RcNetwork nom = nominal12();
  const DefectLibrary lib =
      DefectLibrary::generate(nom, config_for(nom, 200, 7));
  const auto hist = lib.defective_wire_histogram(nom);
  EXPECT_EQ(hist.front(), 0u);
  EXPECT_EQ(hist.back(), 0u);
  // And the center dominates the edges.
  EXPECT_GT(hist[5] + hist[6], hist[1] + hist[10]);
}

TEST(DefectLibrary, FactorsNonNegative) {
  const RcNetwork nom = nominal12();
  const DefectLibrary lib = DefectLibrary::generate(nom, config_for(nom));
  for (const Defect& d : lib.defects())
    for (unsigned i = 0; i < 12; ++i)
      for (unsigned j = i + 1; j < 12; ++j)
        EXPECT_GE(d.factor(i, j), 0.0);
}

TEST(DefectLibrary, RejectsNonPositiveCth) {
  const RcNetwork nom = nominal12();
  DefectConfig dc;
  dc.cth_fF = 0.0;
  EXPECT_THROW(DefectLibrary::generate(nom, dc), std::invalid_argument);
}

TEST(DefectLibrary, ThrowsWhenYieldTooLow) {
  const RcNetwork nom = nominal12();
  DefectConfig dc = config_for(nom, 10);
  dc.cth_fF = 100.0 * nom.max_net_coupling();  // unreachable threshold
  dc.max_attempts = 2000;
  EXPECT_THROW(DefectLibrary::generate(nom, dc), std::runtime_error);
}

TEST(DefectLibrary, DetectableExactlyWhenAboveCth) {
  // Ties the library to the error model: a defect is detectable by some MA
  // test iff a wire's net coupling exceeds Cth (the ICCAD'99 criterion our
  // calibration enforces).
  const RcNetwork nom = nominal12();
  const double cth = recommended_cth(nom, 1.6);
  const CrosstalkErrorModel model(ErrorModelConfig::calibrated(nom, cth));
  const DefectLibrary lib = DefectLibrary::generate(nom, config_for(nom, 30));
  for (const Defect& d : lib.defects()) {
    const RcNetwork net = d.apply(nom);
    bool any = false;
    for (const MafFault& f : enumerate_mafs(12, false))
      any = any || model.corrupts(net, ma_test(12, f));
    EXPECT_TRUE(any);
  }
}

/// FNV-1a over the bit pattern of every factor of every defect, in library
/// order: equal digests mean bit-identical libraries.
std::uint64_t factor_digest(const DefectLibrary& lib) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Defect& d : lib.defects())
    for (unsigned i = 0; i < d.width(); ++i)
      for (unsigned j = i + 1; j < d.width(); ++j) {
        const auto bits = std::bit_cast<std::uint64_t>(d.factor(i, j));
        for (unsigned b = 0; b < 64; b += 8) {
          h ^= (bits >> b) & 0xffu;
          h *= 0x100000001b3ull;
        }
      }
  return h;
}

TEST(DefectLibrary, GoldenLibraryIsPinned) {
  // Libraries of the default system, pinned bit for bit (factor digest and
  // candidates drawn): any change to the RNG stream, the acceptance test or
  // the network arithmetic shows up here.  The large rows span many rounds
  // of engine words, and every row is generated at 1 to 4 threads: the
  // library must not depend on the thread count.
  struct Golden {
    soc::BusKind bus;
    std::size_t count;
    std::uint64_t seed;
    std::uint64_t digest;
    std::size_t attempts;
  };
  constexpr Golden kGolden[] = {
      {soc::BusKind::kAddress, 200, 1, 0xc877981391c6d14eull, 3887},
      {soc::BusKind::kAddress, 200, 7, 0xe7a5628a3bde5813ull, 3926},
      {soc::BusKind::kAddress, 200, 20010618, 0xa3a616da160645d0ull, 4389},
      {soc::BusKind::kData, 200, 1, 0xc3b7a6474c6b0496ull, 5467},
      {soc::BusKind::kData, 200, 7, 0x8d05ae5458342900ull, 5478},
      {soc::BusKind::kData, 200, 20010618, 0xb04ef34f63f604bdull, 5045},
      {soc::BusKind::kControl, 200, 1, 0x29b6342d0b068794ull, 4125},
      {soc::BusKind::kControl, 200, 7, 0x7527d48ea02fa824ull, 4712},
      {soc::BusKind::kControl, 200, 20010618, 0x01c0581c59069e12ull, 4355},
      {soc::BusKind::kAddress, 5000, 20010618, 0x4d1d8f9949d44961ull, 104912},
      {soc::BusKind::kData, 3000, 20010618, 0xea784a53eb9475fbull, 73152},
      {soc::BusKind::kControl, 15000, 20010618, 0x70c4d8c75ca1f1b9ull, 332401},
  };
  for (const Golden& g : kGolden)
    for (unsigned threads = 1; threads <= 4; ++threads) {
      const DefectLibrary lib = sim::make_defect_library(
          soc::SystemConfig{}, g.bus, g.count, g.seed, 50.0, {threads});
      EXPECT_EQ(factor_digest(lib), g.digest)
          << soc::to_string(g.bus) << " x" << g.count << " seed " << g.seed
          << " threads " << threads;
      EXPECT_EQ(lib.attempts(), g.attempts)
          << soc::to_string(g.bus) << " x" << g.count << " seed " << g.seed
          << " threads " << threads;
    }
}

TEST(DefectLibrary, MaxAttemptsBoundaryIsExact) {
  // The 200-defect address-bus library at seed 1 needs exactly 3887
  // candidates (a golden row above): that many attempts suffice and one
  // fewer fails, serially and on 4 threads.
  const soc::SystemConfig system;
  const RcNetwork nom(system.address_geometry);
  DefectConfig dc =
      sim::defect_config(system, soc::BusKind::kAddress, 200, 1);
  for (unsigned threads : {1u, 4u}) {
    dc.max_attempts = 3887;
    EXPECT_EQ(DefectLibrary::generate(nom, dc, {threads}).attempts(), 3887u)
        << "threads " << threads;
    dc.max_attempts = 3886;
    EXPECT_THROW(DefectLibrary::generate(nom, dc, {threads}),
                 std::runtime_error)
        << "threads " << threads;
  }
}

TEST(DefectLibrary, ProgressIsCalledOncePerRound) {
  // Every candidate draws at least two engine words per factor, and a
  // round holds at most 128 Ki words, so a library that needed W words
  // made at least W / 128 Ki progress calls.  The hook must not change
  // the library.
  const soc::SystemConfig system;
  const DefectLibrary quiet =
      sim::make_defect_library(system, soc::BusKind::kAddress, 200, 1);
  std::size_t calls = 0;
  const DefectLibrary counted = sim::make_defect_library(
      system, soc::BusKind::kAddress, 200, 1, 50.0, {},
      [&calls] { ++calls; });
  const std::size_t width = system.address_geometry.width;
  const std::size_t min_words = counted.attempts() * width * (width - 1);
  EXPECT_GE(calls, 2u);
  EXPECT_GE(calls * (std::size_t{128} << 10), min_words);
  EXPECT_EQ(factor_digest(counted), factor_digest(quiet));
  EXPECT_EQ(counted.attempts(), quiet.attempts());
}

// The library distribution gate.  The pins below come from one library of
// at least 10^6 candidates per bus, seed 1, of the generator that made the
// golden rows; the checks draw fresh libraries at another seed.  The seeds
// are fixed, so these never flake.  The bounds specify any later
// generator: never widen one to let a change through.

TEST(DefectLibrary, AcceptanceRatioMatchesPinnedYield) {
  // Each bus's acceptance ratio over >= 10^5 candidates lies within 3
  // standard errors, sqrt(p (1 - p) / candidates), of the pinned p.
  struct Pinned {
    soc::BusKind bus;
    std::size_t accepted;    // pin: defects at seed 1
    std::size_t candidates;  // pin: candidates at seed 1
    std::size_t count;       // check: defects at seed 20010618
  };
  constexpr Pinned kPinned[] = {
      {soc::BusKind::kAddress, 50'000, 1'027'974, 5000},  // p = 4.864%
      {soc::BusKind::kData, 45'000, 1'069'030, 4500},     // p = 4.209%
      {soc::BusKind::kControl, 47'000, 1'050'315, 4700},  // p = 4.475%
  };
  for (const Pinned& pin : kPinned) {
    const DefectLibrary lib = sim::make_defect_library(
        soc::SystemConfig{}, pin.bus, pin.count, 20010618);
    const double n = static_cast<double>(lib.attempts());
    ASSERT_GE(n, 1e5) << soc::to_string(pin.bus);
    const double p = static_cast<double>(pin.accepted) /
                     static_cast<double>(pin.candidates);
    EXPECT_NEAR(static_cast<double>(lib.size()) / n, p,
                3.0 * std::sqrt(p * (1.0 - p) / n))
        << soc::to_string(pin.bus) << ": " << lib.size() << " of "
        << lib.attempts() << " candidates";
  }
}

TEST(DefectLibrary, DefectiveWireHistogramMatchesPinnedShares) {
  // E9's defective-wire histogram against each wire's pinned share of all
  // defective-wire hits, by Pearson's chi-square test at significance
  // 0.001, with one degree of freedom less than the wires the pin hits.
  // A defect may hit two wires, but over 400 seeds of 1000-defect
  // libraries the statistic's mean, variance and 1% tail matched the
  // chi-square law's.  A wire the pin never hits must stay at 0.
  struct Pinned {
    soc::BusKind bus;
    std::vector<double> hits;  // pin: 50,000 / 45,000 defects at seed 1
    std::size_t count;         // check: defects at seed 20010618
    double critical;           // chi-square 0.999 quantile
  };
  const Pinned kPinned[] = {
      {soc::BusKind::kAddress,
       {0, 1277, 4095, 6511, 7658, 8183, 8316, 7756, 6343, 4170, 1298, 0},
       5000, 27.877},  // 9 degrees of freedom
      {soc::BusKind::kData, {0, 3500, 9493, 12280, 12270, 9267, 3481, 0},
       4500, 20.515},  // 5 degrees of freedom
  };
  const soc::SystemConfig system;
  for (const Pinned& pin : kPinned) {
    const RcNetwork nominal(pin.bus == soc::BusKind::kAddress
                                ? system.address_geometry
                                : system.data_geometry);
    const std::vector<std::size_t> hist =
        sim::make_defect_library(system, pin.bus, pin.count, 20010618)
            .defective_wire_histogram(nominal);
    ASSERT_EQ(hist.size(), pin.hits.size());
    double pinned_hits = 0, hits = 0;
    for (std::size_t w = 0; w < hist.size(); ++w) {
      pinned_hits += pin.hits[w];
      hits += static_cast<double>(hist[w]);
    }
    double chi2 = 0;
    for (std::size_t w = 0; w < hist.size(); ++w) {
      if (pin.hits[w] == 0) {
        EXPECT_EQ(hist[w], 0u) << soc::to_string(pin.bus) << " wire " << w;
        continue;
      }
      const double expected = hits * pin.hits[w] / pinned_hits;
      const double d = static_cast<double>(hist[w]) - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, pin.critical) << soc::to_string(pin.bus);
  }
}

}  // namespace
}  // namespace xtest::xtalk
