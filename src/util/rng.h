// Deterministic random number generation for defect-library construction.
//
// All stochastic experiments in the library are seeded explicitly so that a
// campaign is exactly reproducible: the same seed always yields the same
// defect library, hence the same coverage table.

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace xtest::util {

/// MT19937-64 exactly as [rand.eng.mers] and [rand.predef] define the
/// standard `mt19937_64`: the same seeding and the same words for every
/// seed.  libstdc++ writes the twist term as `(y & 1) ? a : 0`, which
/// compiles to a branch that mispredicts on every other word; here it is
/// a mask, and the twist runs as its three index ranges, so `fill`
/// produces words 4-5x faster.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i)
      x_[i] = kF * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }

  result_type operator()() {
    if (p_ == kN) twist();
    return temper(x_[p_++]);
  }

  /// Writes the next `count` words to `out`, in stream order.
  void fill(result_type* out, std::size_t count) {
    while (count > 0) {
      if (p_ == kN) twist();
      const std::size_t take = std::min(count, kN - p_);
      const result_type* state = x_.data() + p_;
      for (std::size_t i = 0; i < take; ++i) out[i] = temper(state[i]);
      p_ += take;
      out += take;
      count -= take;
    }
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kA = 0xb5026f5aa96619e9ull;
  static constexpr result_type kF = 6364136223846793005ull;
  static constexpr result_type kUpper = ~result_type{0} << 31;

  static result_type temper(result_type y) {
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71d67fffeda60000ull;
    y ^= (y << 37) & 0xfff7eee000000000ull;
    return y ^ (y >> 43);
  }

  /// The twisted successor of word `cur`, given its neighbour `next` and
  /// the word `far` m positions ahead.
  static result_type twisted(result_type cur, result_type next,
                             result_type far) {
    const result_type y = (cur & kUpper) | (next & ~kUpper);
    return far ^ (y >> 1) ^ (kA & (0 - (y & 1)));
  }

  void twist() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k)
      x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = twisted(x_[kN - 1], x_[0], x_[kM - 1]);
    p_ = 0;
  }

  std::array<result_type, kN> x_{};
  std::size_t p_ = kN;
};

/// Gaussians of mean 0 and standard deviation `sigma` from engine words,
/// one Marsaglia polar try per word pair (words[2k], words[2k + 1]), k <
/// `pairs`.  Writes the value of every accepted pair to `out`, in pair
/// order, and returns how many there are (`out` has room for `pairs`).
/// Each value is bit for bit what libstdc++'s normal distribution, newly
/// made with (0, sigma), returns when its first accepted try reads that
/// pair (rng.cpp).
std::size_t polar_gaussians(const std::uint64_t* words, std::size_t pairs,
                            double sigma, double* out);

/// The double in [0, 1) Rng::uniform makes of one engine word: the word
/// over 2^64, with the 1.0 that rounding gives the top 1,024 words
/// replaced by the largest double below it.  This is what libstdc++ (GCC
/// 11 and later) computes for uniform_real_distribution<double>(0, 1),
/// whose algorithm the standard leaves open.
inline double unit_interval(std::uint64_t word) {
  const double u = static_cast<double>(word) / 0x1p64;
  return u < 1.0 ? u : std::nextafter(1.0, 0.0);
}

/// Thin wrapper over Mt19937_64 with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Normal with mean 0 and standard deviation `sigma`: the first
  /// accepted polar try of the next word pairs.
  double gaussian(double sigma) {
    std::uint64_t pair[2] = {};
    double g = 0.0;
    do engine_.fill(pair, 2);
    while (polar_gaussians(pair, 1, sigma, &g) == 0);
    return g;
  }

  /// Uniform in [0, 1): unit_interval of the next word.
  double uniform() { return unit_interval(engine_()); }

  /// Uniform integer in [0, n): Lemire's nearly divisionless draw, the
  /// high word of word x n, redrawn while the low word falls below
  /// 2^64 mod n.  This is what libstdc++ (GCC 11 and later) computes for
  /// uniform_int_distribution<uint64_t>(0, n - 1).  Throws
  /// std::invalid_argument for n == 0.
  std::uint64_t below(std::uint64_t n) {
    if (n == 0) throw std::invalid_argument("Rng::below: n must be > 0");
    using Wide = unsigned __int128;
    Wide product = Wide{engine_()} * n;
    if (static_cast<std::uint64_t>(product) < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (static_cast<std::uint64_t>(product) < threshold)
        product = Wide{engine_()} * n;
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

 private:
  Mt19937_64 engine_;
};

}  // namespace xtest::util
