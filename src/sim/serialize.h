// Text serialisation of program images.
//
// Campaigns are deterministic given a seed, but real tester flows archive
// the exact program image that produced a result.  The format is plain
// text, diffable, and round-trips exactly: "<addr-hex>: <byte-hex>" per
// defined byte.

#pragma once

#include <string>

#include "cpu/memory_image.h"

namespace xtest::sim {

/// Image -> text ("0x010: 2f\n...").  Only defined bytes are emitted.
std::string image_to_text(const cpu::MemoryImage& image);

/// Text -> image.  Each non-empty line is "0x<hex>: <hex>" (any case, any
/// padding): an address of at most 0xfff, a byte of at most 0xff, then
/// nothing but space.  Throws std::runtime_error naming the offending line
/// on anything else -- a sign, a number too wide for its field, trailing
/// text, an address defined twice.
cpu::MemoryImage image_from_text(const std::string& text);

}  // namespace xtest::sim
