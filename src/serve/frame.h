// Length-prefixed binary frame protocol for the campaign service.
//
// Every message between an xtest client and the serve daemon is one frame:
//
//   offset  size  field
//   0       4     magic "XTSV"
//   4       1     protocol version (1)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be 0
//   8       4     sequence number, little-endian (per sender, per
//                 connection, starting at 1; 0 = unsequenced)
//   12      4     payload length N, little-endian (<= max_payload)
//   16      N     payload
//   16+N    4     CRC-32 over bytes [0, 16+N), little-endian -- the same
//                 IEEE CRC-32 the checkpoint format uses (util/crc32.h)
//
// The decoder is incremental and hostile-input-proof: bytes arrive in any
// fragmentation, and the FIRST malformed thing -- wrong magic, unknown
// version or type, nonzero reserved bits, oversized length, CRC mismatch
// -- poisons the stream with a typed FrameError.  Frames completed before
// that point still come out, in order; a poisoned decoder never
// resynchronizes: the server handles those frames, then drops exactly that
// connection (never the process), and the client reconnects.  Truncation
// is not an error, just an incomplete frame waiting for more bytes; the
// connection deadline reaps peers that stall mid-frame (half-open
// connections).
//
// Ack/retransmit discipline rides on the seq field; see README.md
// ("Serve frame protocol") for the per-type payload layouts and the
// delivery contract.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

namespace xtest::serve {

inline constexpr char kMagic[4] = {'X', 'T', 'S', 'V'};
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::size_t kTrailerSize = 4;
/// Default payload cap: a 1 MiB scenario or verdict chunk is already far
/// beyond anything the protocol emits; anything larger is a hostile or
/// corrupt length field and is rejected before buffering.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,       ///< client -> server: first frame, u64 client id
  kHelloAck = 2,    ///< server -> client: banner text
  kSubmit = 3,      ///< u8 priority + scenario text; acked by kSubmitAck
  kSubmitAck = 4,   ///< u32 echoed submit seq + u64 job id
  kEvent = 5,       ///< u64 job + u32 event seq (0 = transient) + u8 kind + text
  kAck = 6,         ///< u64 job + u32 event seq received through
  kResume = 7,      ///< u64 job + u32 last event seq seen (replay after)
  kError = 8,       ///< human-readable error text
  kPing = 9,        ///< liveness / idle-deadline refresh
  kPong = 10,       ///< reply to kPing
  kStatus = 11,     ///< request the job table
  kStatusReply = 12,///< job table text
  kShutdown = 13,   ///< server -> client: daemon is draining, reconnect later
};

/// Job-event kinds carried inside kEvent payloads.
enum class EventKind : std::uint8_t {
  kProgress = 1,  ///< transient (seq 0): "<completed heartbeats>"
  kChunk = 2,     ///< durable: "<offset> <verdict chars (UDTE)>"
  kDone = 3,      ///< durable: "<exit> <degraded> <verdict count>\n<stats json>"
};

struct Frame {
  FrameType type = FrameType::kPing;
  std::uint32_t seq = 0;
  std::string payload;
};

/// What poisoned a decoder.  kNone means the stream is still healthy.
enum class FrameError : std::uint8_t {
  kNone = 0,
  kBadMagic,
  kBadVersion,
  kBadType,
  kBadReserved,
  kOversize,
  kBadCrc,
};

const char* to_string(FrameError e);

/// Serializes one frame (header + payload + CRC trailer).
std::string encode_frame(const Frame& frame);

/// Incremental, allocation-bounded frame parser.  feed() bytes as they
/// arrive; next() yields completed frames in order.  The first protocol
/// violation latches error() and makes feed() inert; frames completed
/// before the violation, in the same feed() or earlier ones, stay queued
/// and next() still yields them.  The caller drains them, then drops the
/// connection.  Never throws on any input.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_payload = kMaxPayload)
      : max_payload_(max_payload) {}

  /// Appends raw bytes; returns false once the stream is poisoned.
  bool feed(const char* data, std::size_t n);
  bool feed(std::string_view bytes) { return feed(bytes.data(), bytes.size()); }

  /// Next completed frame, or nullopt when none is queued: more bytes are
  /// needed, or the stream is poisoned and every frame completed before
  /// the violation has been taken.
  std::optional<Frame> next();

  FrameError error() const { return error_; }
  bool poisoned() const { return error_ != FrameError::kNone; }
  /// Bytes buffered waiting for the rest of a frame (half-open peers hold
  /// this below header+max_payload+trailer by construction).
  std::size_t buffered() const { return buf_.size(); }

 private:
  void parse();

  std::uint32_t max_payload_;
  std::string buf_;
  std::deque<Frame> ready_;
  FrameError error_ = FrameError::kNone;
};

// --- payload encoding helpers ---------------------------------------------
// Little-endian, bounds-checked; get_* return false instead of reading out
// of range so a short payload can never walk off the buffer.

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
bool get_u32(std::string_view in, std::size_t& pos, std::uint32_t& v);
bool get_u64(std::string_view in, std::size_t& pos, std::uint64_t& v);

}  // namespace xtest::serve
