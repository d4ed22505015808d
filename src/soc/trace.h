// Bus transaction tracing.
//
// Records every bus transfer (cycle, bus, direction, held word, driven
// word, received word).  Used to regenerate the paper's Fig. 5 timing
// diagram, to debug test programs, and by tests that assert on exact
// transition sequences.  A campaign that follows one bus records a
// BusTransfer log of that bus instead (System::set_transfer_log).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "soc/bus.h"
#include "util/bitvec.h"
#include "xtalk/maf.h"

namespace xtest::soc {

struct BusEvent {
  std::uint64_t cycle = 0;
  BusKind bus = BusKind::kAddress;
  xtalk::BusDirection direction = xtalk::BusDirection::kCpuToCore;
  /// The word the bus held before the transfer: the transition's v1.
  util::BusWord held;
  util::BusWord driven;
  util::BusWord received;
  bool corrupted = false;  ///< received != driven

  std::string to_string() const;
};

/// One transfer of one bus as plain words: the word the bus held (the
/// transition's v1), the word driven (v2) and the word received.
struct BusTransfer {
  std::uint64_t held = 0;
  std::uint64_t driven = 0;
  std::uint64_t received = 0;
};

class BusTrace {
 public:
  void record(BusEvent e) { events_.push_back(std::move(e)); }
  void clear() { events_.clear(); }

  const std::vector<BusEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Events on one bus only, in order.
  std::vector<BusEvent> on_bus(BusKind k) const;

  /// Multi-line rendering (one line per event).
  std::string render() const;

 private:
  std::vector<BusEvent> events_;
};

}  // namespace xtest::soc
