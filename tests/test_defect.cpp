#include "xtalk/defect.h"

#include <bit>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "sim/campaign.h"
#include "soc/system.h"
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
  // 200-defect libraries of the default system, pinned bit for bit (factor
  // digest and candidates drawn): any change to the RNG stream, the
  // acceptance test or the network arithmetic shows up here.
  struct Golden {
    soc::BusKind bus;
    std::uint64_t seed;
    std::uint64_t digest;
    std::size_t attempts;
  };
  constexpr Golden kGolden[] = {
      {soc::BusKind::kAddress, 1, 0xc877981391c6d14eull, 3887},
      {soc::BusKind::kAddress, 7, 0xe7a5628a3bde5813ull, 3926},
      {soc::BusKind::kAddress, 20010618, 0xa3a616da160645d0ull, 4389},
      {soc::BusKind::kData, 1, 0xc3b7a6474c6b0496ull, 5467},
      {soc::BusKind::kData, 7, 0x8d05ae5458342900ull, 5478},
      {soc::BusKind::kData, 20010618, 0xb04ef34f63f604bdull, 5045},
      {soc::BusKind::kControl, 1, 0x29b6342d0b068794ull, 4125},
      {soc::BusKind::kControl, 7, 0x7527d48ea02fa824ull, 4712},
      {soc::BusKind::kControl, 20010618, 0x01c0581c59069e12ull, 4355},
  };
  for (const Golden& g : kGolden) {
    const DefectLibrary lib =
        sim::make_defect_library(soc::SystemConfig{}, g.bus, 200, g.seed);
    EXPECT_EQ(factor_digest(lib), g.digest)
        << soc::to_string(g.bus) << " seed " << g.seed;
    EXPECT_EQ(lib.attempts(), g.attempts)
        << soc::to_string(g.bus) << " seed " << g.seed;
  }
}

}  // namespace
}  // namespace xtest::xtalk
