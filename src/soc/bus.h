// Tri-state system bus with hold-last-value semantics.
//
// The paper's testbed (Section 4.1): "access to busses is controlled by
// tri-state buffers.  When all tri-state buffers are disabled, the signal
// on the bus becomes high impedance ('z').  When 'z' appears, we assume the
// bus holds the last defined value before 'z'."  A TristateBus therefore
// remembers the last driven word; each new transfer forms the transition
// (held, driven), which is what excites crosstalk, and the receiver samples
// the word the error model produces.

#pragma once

#include <optional>

#include "util/bitvec.h"
#include "xtalk/error_model.h"
#include "xtalk/fast_model.h"
#include "xtalk/maf.h"
#include "xtalk/rc_network.h"

namespace xtest::soc {

enum class BusKind : std::uint8_t { kAddress, kData, kControl };

std::string to_string(BusKind k);

class TristateBus {
 public:
  /// A bus powers up holding all zeros (the reset value of its drivers).
  TristateBus(BusKind kind, unsigned width)
      : kind_(kind), width_(width), held_(util::BusWord::zeros(width)) {}

  BusKind kind() const { return kind_; }
  unsigned width() const { return width_; }

  /// Word currently held on the wires.
  util::BusWord held() const { return held_; }

  /// Drives `word` onto the bus and returns what the receiver samples.
  /// `net`/`model` may be null to bypass crosstalk evaluation (ideal bus).
  /// After the transfer the bus holds the *driven* word: the wires settle
  /// to their final values once the glitch/delay transient has passed.
  util::BusWord transfer(util::BusWord word, const xtalk::RcNetwork* net,
                         const xtalk::CrosstalkErrorModel* model);

  /// Hot-path transfer through a precomputed evaluator (bit-identical to
  /// the reference overload on the same network/thresholds).  A quiet bus
  /// (re-driving the held word) skips evaluation entirely when the
  /// evaluator proves the identity -- the most common transfer in real
  /// programs.  `eval` may be null or empty for an ideal bus.
  util::BusWord transfer(util::BusWord word, const xtalk::BusEvaluator* eval);

  /// Resets the held value (e.g. at system reset).
  void reset() { held_ = util::BusWord::zeros(width_); }

  /// Reinstates a previously captured held word (slice restore).  The next
  /// transfer then forms exactly the (held, driven) transition the
  /// uninterrupted run would have formed.
  void restore_held(util::BusWord held) { held_ = held; }

 private:
  BusKind kind_;
  unsigned width_;
  util::BusWord held_;
};

}  // namespace xtest::soc
