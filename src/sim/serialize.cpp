#include "sim/serialize.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/fault_injector.h"
#include "util/number.h"

namespace xtest::sim {

std::string image_to_text(const cpu::MemoryImage& image) {
  std::ostringstream os;
  for (std::size_t a = 0; a < cpu::kMemWords; ++a) {
    if (!image.defined(static_cast<cpu::Addr>(a))) continue;
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%03zx: %02x\n", a,
                  image.at(static_cast<cpu::Addr>(a)));
    os << buf;
  }
  return os.str();
}

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

/// `digits` read as hexadecimal: hex digits only (no prefix, no sign), at
/// most `max`.  Throws std::invalid_argument.
std::uint64_t hex_value(const std::string& digits, std::uint64_t max) {
  if (digits.empty() ||
      !std::all_of(digits.begin(), digits.end(), [](char c) {
        return std::isxdigit(static_cast<unsigned char>(c));
      }))
    throw std::invalid_argument("not a hex number: '" + digits + "'");
  return util::parse_unsigned("0x" + digits, max);
}

}  // namespace

cpu::MemoryImage image_from_text(const std::string& text) {
  util::FaultInjector::global().maybe_fail("serialize.image");
  cpu::MemoryImage image;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto error = [&](const std::string& why) {
      return std::runtime_error("image_from_text: line " +
                                std::to_string(lineno) + ": " + why +
                                " in '" + line + "'");
    };
    // "0x<hex>: <hex>": optional space after the colon, nothing but
    // space after the byte.
    const std::size_t colon = line.find(':');
    if (line.compare(0, 2, "0x") != 0 || colon == std::string::npos)
      throw error("bad line");
    std::size_t begin = colon + 1;
    while (begin < line.size() && is_space(line[begin])) ++begin;
    std::size_t end = begin;
    while (end < line.size() && !is_space(line[end])) ++end;
    if (!std::all_of(line.begin() + static_cast<std::ptrdiff_t>(end),
                     line.end(), is_space))
      throw error("trailing text after the byte");
    std::uint64_t addr = 0, byte = 0;
    try {
      addr = hex_value(line.substr(2, colon - 2), cpu::kMemWords - 1);
    } catch (const std::invalid_argument& e) {
      throw error(std::string("address: ") + e.what());
    }
    try {
      byte = hex_value(line.substr(begin, end - begin), 0xFF);
    } catch (const std::invalid_argument& e) {
      throw error(std::string("byte: ") + e.what());
    }
    const auto a = static_cast<cpu::Addr>(addr);
    if (image.defined(a)) throw error("address defined twice");
    image.set(a, static_cast<std::uint8_t>(byte));
  }
  return image;
}

}  // namespace xtest::sim
