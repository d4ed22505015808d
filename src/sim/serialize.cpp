#include "sim/serialize.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/fault_injector.h"

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

cpu::MemoryImage image_from_text(const std::string& text) {
  util::FaultInjector::global().maybe_fail("serialize.image");
  cpu::MemoryImage image;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    unsigned addr = 0, byte = 0;
    if (std::sscanf(line.c_str(), "0x%x: %x", &addr, &byte) != 2)
      throw std::runtime_error("image_from_text: line " +
                               std::to_string(lineno) + ": bad line '" +
                               line + "'");
    if (addr >= cpu::kMemWords) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "image_from_text: line %zu: address 0x%x outside the "
                    "%u-bit address space",
                    lineno, addr, cpu::kAddrBits);
      throw std::runtime_error(buf);
    }
    if (byte > 0xFF)
      throw std::runtime_error("image_from_text: line " +
                               std::to_string(lineno) +
                               ": byte value wider than 8 bits in '" + line +
                               "'");
    image.set(static_cast<cpu::Addr>(addr),
              static_cast<std::uint8_t>(byte));
  }
  return image;
}

}  // namespace xtest::sim
