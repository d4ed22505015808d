#include "serve/frame.h"

#include <cstring>

#include "util/crc32.h"

namespace xtest::serve {

namespace {

constexpr std::uint8_t kMaxFrameType =
    static_cast<std::uint8_t>(FrameType::kShutdown);

std::uint32_t load_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return std::uint32_t(b[0]) | std::uint32_t(b[1]) << 8 |
         std::uint32_t(b[2]) << 16 | std::uint32_t(b[3]) << 24;
}

}  // namespace

const char* to_string(FrameError e) {
  switch (e) {
    case FrameError::kNone: return "none";
    case FrameError::kBadMagic: return "bad magic";
    case FrameError::kBadVersion: return "unsupported version";
    case FrameError::kBadType: return "unknown frame type";
    case FrameError::kBadReserved: return "nonzero reserved bits";
    case FrameError::kOversize: return "oversized payload";
    case FrameError::kBadCrc: return "crc mismatch";
  }
  return "?";
}

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(char(v & 0xFF));
  out.push_back(char(v >> 8 & 0xFF));
  out.push_back(char(v >> 16 & 0xFF));
  out.push_back(char(v >> 24 & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, std::uint32_t(v & 0xFFFFFFFFu));
  put_u32(out, std::uint32_t(v >> 32));
}

bool get_u32(std::string_view in, std::size_t& pos, std::uint32_t& v) {
  if (pos + 4 > in.size()) return false;
  v = load_u32(in.data() + pos);
  pos += 4;
  return true;
}

bool get_u64(std::string_view in, std::size_t& pos, std::uint64_t& v) {
  std::uint32_t lo = 0, hi = 0;
  if (!get_u32(in, pos, lo) || !get_u32(in, pos, hi)) return false;
  v = std::uint64_t(lo) | std::uint64_t(hi) << 32;
  return true;
}

std::string encode_frame(const Frame& frame) {
  std::string out;
  out.reserve(kHeaderSize + frame.payload.size() + kTrailerSize);
  out.append(kMagic, sizeof kMagic);
  out.push_back(char(kProtocolVersion));
  out.push_back(char(static_cast<std::uint8_t>(frame.type)));
  out.push_back('\0');
  out.push_back('\0');
  put_u32(out, frame.seq);
  put_u32(out, std::uint32_t(frame.payload.size()));
  out += frame.payload;
  put_u32(out, util::crc32(out.data(), out.size()));
  return out;
}

bool FrameDecoder::feed(const char* data, std::size_t n) {
  if (poisoned()) return false;
  buf_.append(data, n);
  parse();
  return !poisoned();
}

std::optional<Frame> FrameDecoder::next() {
  if (ready_.empty()) return std::nullopt;
  Frame f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

void FrameDecoder::parse() {
  while (!poisoned() && buf_.size() >= kHeaderSize) {
    // Header sanity first, so a hostile length field is rejected before a
    // single payload byte is buffered on its behalf.
    if (std::memcmp(buf_.data(), kMagic, sizeof kMagic) != 0) {
      error_ = FrameError::kBadMagic;
      return;
    }
    const auto version = std::uint8_t(buf_[4]);
    const auto type = std::uint8_t(buf_[5]);
    if (version != kProtocolVersion) {
      error_ = FrameError::kBadVersion;
      return;
    }
    if (type == 0 || type > kMaxFrameType) {
      error_ = FrameError::kBadType;
      return;
    }
    if (buf_[6] != '\0' || buf_[7] != '\0') {
      error_ = FrameError::kBadReserved;
      return;
    }
    const std::uint32_t seq = load_u32(buf_.data() + 8);
    const std::uint32_t len = load_u32(buf_.data() + 12);
    if (len > max_payload_) {
      error_ = FrameError::kOversize;
      return;
    }
    const std::size_t total = kHeaderSize + std::size_t(len) + kTrailerSize;
    if (buf_.size() < total) return;  // truncated so far: wait for more
    const std::uint32_t want = load_u32(buf_.data() + kHeaderSize + len);
    const std::uint32_t got = util::crc32(buf_.data(), kHeaderSize + len);
    if (want != got) {
      error_ = FrameError::kBadCrc;
      return;
    }
    Frame f;
    f.type = static_cast<FrameType>(type);
    f.seq = seq;
    f.payload.assign(buf_, kHeaderSize, len);
    ready_.push_back(std::move(f));
    buf_.erase(0, total);
  }
}

}  // namespace xtest::serve
