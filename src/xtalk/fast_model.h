// Hot-path evaluation of the crosstalk error model.
//
// `CrosstalkErrorModel::receive` is called once per bus transfer -- millions
// of times per defect-simulation campaign -- and the reference implementation
// re-reads the RC network through per-bit `bit()`/`with_bit()` accessors and
// recomputes per-wire capacitance totals on every call.  `BusEvaluator` is
// the production path: it precomputes, once per (network, thresholds) pair
// -- i.e. once per injected defect -- the contiguous coupling rows and the
// per-wire glitch denominators, and evaluates a whole transfer in a single
// pass over packed `std::uint64_t` words.  Stable wires integrate charge
// only over the *toggled* aggressors (`v1 ^ v2`), and the result word is
// mutated locally instead of through chained `with_bit` copies.  Nothing is
// memoized: every transfer is evaluated from the precomputed rows.
//
// Bitwise-equivalence guarantee: `BusEvaluator::receive` performs the exact
// floating-point operations of the reference model in the same order (the
// precomputed denominator is `ground_cap(i) + net_coupling(i)` evaluated the
// same way, aggressor sums accumulate in ascending wire order, and the Miller
// sum keeps the reference's full ascending loop), so its verdicts are
// bit-identical to `CrosstalkErrorModel::receive` -- enforced by the property
// tests in tests/test_fastpath.cpp.

#pragma once

#include <cstdint>
#include <vector>

#include "xtalk/error_model.h"
#include "xtalk/rc_network.h"

namespace xtest::xtalk {

/// Precomputed per-defect receive evaluator.  Immutable after construction,
/// so one instance may be shared by concurrent readers.
class BusEvaluator {
 public:
  /// Empty evaluator (width 0): behaves like an ideal bus.
  BusEvaluator() = default;

  BusEvaluator(const RcNetwork& net, const ErrorModelConfig& config);

  unsigned width() const { return width_; }

  /// True when a quiet transfer (v1 == v2) provably samples the driven word,
  /// letting callers skip evaluation entirely.  Holds whenever the glitch
  /// threshold is positive (always true for calibrated configs).
  bool quiet_is_identity() const { return quiet_is_identity_; }

  /// True when *every* transfer provably samples the driven word: no wire
  /// can glitch or sample late under any transition (worst-case charge /
  /// Miller bounds, computed once at construction).  Calibrated nominal
  /// networks satisfy this by design -- the thresholds sit a cth_ratio
  /// factor above anything the nominal couplings can excite -- so nominal
  /// bus traffic needs no per-transfer evaluation at all.
  bool always_identity() const { return always_identity_; }

  /// Wires that could deviate on some transition (empty iff
  /// always_identity).  receive() only evaluates these; for a single
  /// coupling defect that is typically the victim and its neighbours.
  unsigned active_wires() const {
    return static_cast<unsigned>(active_.size());
  }

  /// The word the receiver samples when `v2` is driven after `v1`.
  /// Bit-identical to CrosstalkErrorModel::receive on the same network.
  std::uint64_t receive(std::uint64_t v1, std::uint64_t v2) const;

 private:
  unsigned width_ = 0;
  bool quiet_is_identity_ = false;
  bool always_identity_ = false;
  double vdd_v_ = 0.0;
  double glitch_threshold_v_ = 0.0;
  double delay_slack_ns_ = 0.0;
  double driver_resistance_ohm_ = 0.0;
  std::vector<double> rows_;          // width x width coupling, row-major
  std::vector<double> glitch_denom_;  // ground_cap(i) + net_coupling(i)
  std::vector<double> ground_;        // ground_cap(i)
  std::vector<unsigned> active_;      // wires whose worst case can deviate
};

}  // namespace xtest::xtalk
