// Strict numbers for scenario values and command-line flags.
//
// std::stoull reads "-1" as 2^64-1 and a cast to a narrower field wraps
// again (4294967297 into an unsigned is 1); strtod reads "nan" and "inf".
// These parsers take the whole text or throw std::invalid_argument, so a
// bad number becomes an error naming its key or flag instead of a
// silently different value.  The scenario key table and every numeric CLI
// flag parse through them.

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

namespace xtest::util {

/// An unsigned integer in C syntax (decimal, 0x hex, leading-0 octal):
/// digits only -- no sign, no surrounding space -- and at most `max`.
std::uint64_t parse_unsigned(const std::string& text, std::uint64_t max);

/// parse_unsigned into T: the value must fit T.
template <typename T>
T parse_unsigned(const std::string& text) {
  static_assert(std::is_integral_v<T>);
  return static_cast<T>(
      parse_unsigned(text, static_cast<std::uint64_t>(
                               std::numeric_limits<T>::max())));
}

/// A finite double in strtod syntax, the whole text: no nan, no inf, no
/// value that overflows to inf.
double parse_finite(const std::string& text);

}  // namespace xtest::util
