#include "util/rng.h"

#include <cmath>

namespace xtest::util {

// libstdc++'s normal distribution for double, step by step: each
// word goes through generate_canonical<double, 53>, which for a 64-bit
// engine is one word over 2^64, clamped below 1; a try is rejected when
// r^2 > 1 or r^2 == 0; an accepted try returns its second coordinate times
// sqrt(-2 ln r^2 / r^2), then times the stddev plus the mean 0.
//
// This unit is compiled with -ffp-contract=off: fusing x*x + y*y into an
// FMA would round r^2 once instead of twice and change accepted values.
// x86-64's baseline ISA has no FMA, so there the flag changes no code.
std::size_t polar_gaussians(const std::uint64_t* words, std::size_t pairs,
                            double sigma, double* out) {
  const auto canonical = [](std::uint64_t w) {
    const double u = static_cast<double>(w) / 0x1p64;
    return u < 1.0 ? u : std::nextafter(1.0, 0.0);
  };
  std::size_t n = 0;
  for (std::size_t k = 0; k < pairs; ++k) {
    const double x = 2.0 * canonical(words[2 * k]) - 1.0;
    const double y = 2.0 * canonical(words[2 * k + 1]) - 1.0;
    const double r2 = x * x + y * y;
    if (r2 > 1.0 || r2 == 0.0) continue;
    out[n++] = y * std::sqrt(-2.0 * std::log(r2) / r2) * sigma + 0.0;
  }
  return n;
}

}  // namespace xtest::util
