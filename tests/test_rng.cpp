#include "util/rng.h"

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
  // The defect distribution is Gaussian with sigma = 50% (3-sigma = 150%);
  // check the generator's sample moments.
  Rng rng(7);
  const double sigma = 0.5;
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian(sigma);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(var), sigma, 0.01);
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
