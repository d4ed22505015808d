#include "util/rng.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace xtest::util {
namespace {

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.below(1000), b.below(1000));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.below(1u << 30) == b.below(1u << 30);
  EXPECT_LT(same, 3);
}

TEST(Rng, EngineMatchesStdMt19937_64) {
  // Mt19937_64 must be MT19937-64 exactly: the defect libraries are pinned
  // to the words std::mt19937_64 produces.  Half the words come from
  // operator() and half from fill(), across many twists.
  for (const std::uint64_t seed :
       {0ull, 1ull, 5489ull, 20010618ull, ~0ull}) {
    std::mt19937_64 reference(seed);
    Mt19937_64 engine(seed);
    std::vector<std::uint64_t> block(1000);
    std::size_t mismatches = 0;
    for (int i = 0; i < 500; ++i) {
      for (int k = 0; k < 1000; ++k) mismatches += engine() != reference();
      engine.fill(block.data(), block.size());
      for (const std::uint64_t w : block) mismatches += w != reference();
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine(5489);
  std::uint64_t word = 0;
  for (int i = 0; i < 10000; ++i) word = engine();
  EXPECT_EQ(word, 9981545732273789042ull);
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  // The distribution gate of the library's Gaussians, whose factors are
  // 1 + N(0, 0.5) clamped at 0.  Over 10^6 draws at sigma = 0.5 each band
  // is 3 standard errors: the mean (0.5 / 1000), the variance
  // (sqrt(2 * 0.5^4 / 10^6)) and the share below -1, i.e. of clamped
  // factors (P(Z < -2) = 2.275%).  The seed is fixed, so this never
  // flakes; the bands specify any later sampler and are never widened to
  // let one through.
  constexpr int kDraws = 1'000'000;
  constexpr double kSigma = 0.5;
  constexpr double kPhiMinus2 = 0.022750131948179;
  Rng rng(7);
  double sum = 0, sq = 0;
  int clamped = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.gaussian(kSigma);
    sum += x;
    sq += x * x;
    clamped += 1.0 + x < 0.0;
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 0.0, 0.0015);
  EXPECT_NEAR(sq / kDraws - mean * mean, kSigma * kSigma, 0.0011);
  EXPECT_NEAR(100.0 * clamped / kDraws, 100.0 * kPhiMinus2, 0.045);
}

/// std::mt19937_64 that counts the words read from it.
struct CountingEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() {
    ++words;
    return engine();
  }
  std::mt19937_64 engine;
  std::size_t words = 0;
};

TEST(Rng, GaussianMatchesStdNormalDistribution) {
  // The oracle: Rng::gaussian is the polar step, and the defect libraries
  // are pinned to it, so it must return bit for bit what a fresh
  // std::normal_distribution<double>(0, sigma) returns under libstdc++,
  // reading the same words: 1.2 M draws per seed, and the engines end at
  // the same word.
#ifndef __GLIBCXX__
  GTEST_SKIP() << "the oracle is libstdc++'s normal_distribution";
#endif
  for (const std::uint64_t seed :
       {0ull, 1ull, 5489ull, 20010618ull, ~0ull}) {
    std::mt19937_64 reference(seed);
    Rng rng(seed);
    std::size_t mismatches = 0;
    for (const double sigma : {1.0, 0.5, 5.55})
      for (int i = 0; i < 400'000; ++i) {
        const double want =
            std::normal_distribution<double>(0.0, sigma)(reference);
        mismatches += std::bit_cast<std::uint64_t>(rng.gaussian(sigma)) !=
                      std::bit_cast<std::uint64_t>(want);
      }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(rng.uniform(),
                std::uniform_real_distribution<double>(0.0, 1.0)(reference))
          << "seed " << seed << ": the engines drifted apart";
  }
}

TEST(Rng, PolarGaussiansMapWordPairsInOrder) {
  // A block of word pairs maps to the values of the chain of fresh
  // std::normal_distribution calls that reads those words, in order; the
  // rejected pairs after the last accepted one are the only words the
  // chain has not read.
#ifndef __GLIBCXX__
  GTEST_SKIP() << "the oracle is libstdc++'s normal_distribution";
#endif
  for (const std::uint64_t seed : {1ull, 20010618ull}) {
    constexpr std::size_t kPairs = std::size_t{1} << 20;
    Mt19937_64 engine(seed);
    std::vector<std::uint64_t> words(2 * kPairs);
    engine.fill(words.data(), words.size());
    std::vector<double> values(kPairs);
    values.resize(polar_gaussians(words.data(), kPairs, 0.5, values.data()));
    ASSERT_GT(values.size(), kPairs / 2);

    CountingEngine reference{std::mt19937_64(seed)};
    std::size_t mismatches = 0;
    for (const double v : values)
      mismatches += std::bit_cast<std::uint64_t>(v) !=
                    std::bit_cast<std::uint64_t>(
                        std::normal_distribution<double>(0.0, 0.5)(reference));
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    ASSERT_LE(reference.words, words.size()) << "seed " << seed;
    double none = 0.0;
    EXPECT_EQ(polar_gaussians(words.data() + reference.words,
                              (words.size() - reference.words) / 2, 0.5,
                              &none),
              0u)
        << "seed " << seed;
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

}  // namespace
}  // namespace xtest::util
