#include "util/number.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace xtest::util {

std::uint64_t parse_unsigned(const std::string& text, std::uint64_t max) {
  // strtoull itself skips space and takes a sign; the first byte must be a
  // digit so neither reaches it.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
    throw std::invalid_argument("not an unsigned integer: '" + text + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (end != text.c_str() + text.size())
    throw std::invalid_argument("not an unsigned integer: '" + text + "'");
  if (errno == ERANGE || v > max)
    throw std::invalid_argument("out of range: '" + text + "' (at most " +
                                std::to_string(max) + ")");
  return v;
}

double parse_finite(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
    throw std::invalid_argument("not a number: '" + text + "'");
  char* end = nullptr;
  const double d = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size())
    throw std::invalid_argument("not a number: '" + text + "'");
  if (!std::isfinite(d))
    throw std::invalid_argument("not a finite number: '" + text + "'");
  return d;
}

}  // namespace xtest::util
