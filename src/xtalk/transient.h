// Numerical transient simulation of the coupled-RC bus.
//
// The analytical error model (error_model.h) uses closed-form
// charge-sharing and Elmore/Miller expressions.  This module provides the
// golden reference those expressions approximate: a trapezoidal-rule
// integration of the full coupled-RC network
//
//     C dV/dt = (S(t) - V) / R
//
// where C is the Maxwell capacitance matrix (C_ii = Cg_i + sum_j Cc_ij,
// C_ij = -Cc_ij), each wire is driven through its driver resistance R
// towards the source step S (v1 -> v2 at t = 0).  From the waveforms we
// extract the victim glitch peak and the 50%-crossing delay, the same
// quantities the analytical model predicts.
//
// Used by the validation tests and the model-validation bench to show the
// analytical detectability boundary tracks the physical one (the property
// the MAF theory rests on).

#pragma once

#include <vector>

#include "xtalk/error_model.h"
#include "xtalk/maf.h"
#include "xtalk/rc_network.h"

namespace xtest::xtalk {

struct TransientConfig {
  double vdd_v = 1.8;
  double time_step_ns = 1e-3;
  double duration_ns = 10.0;  ///< must cover several RC time constants
  /// Fold the implicit trapezoidal update into one dense step matrix at
  /// plan-build time (v' = A v + B s, A = lhs^-1 M, B = lhs^-1 diag(d))
  /// instead of a matvec followed by an LU solve every step.  Same scheme,
  /// different floating-point association; the extracted responses agree
  /// to integrator tolerance.  false = the original matvec + solve path
  /// (still allocation-free per step).
  bool fused_step = true;
};

/// Per-wire summary of one transition's transient response.
struct WireResponse {
  /// Largest signed excursion from the settled (v2) level, in volts.
  /// For a stable wire this is the crosstalk glitch.
  double peak_excursion_v = 0.0;
  /// Time the wire last crosses Vdd/2 towards its final value, in ns
  /// (0 for a wire that never leaves its side).  For a switching wire
  /// this is the transition delay.
  double crossing_time_ns = 0.0;
};

class TransientSimulator {
 public:
  explicit TransientSimulator(TransientConfig config = {})
      : config_(config) {}

  /// Simulates the transition pair on `net` and summarises every wire.
  std::vector<WireResponse> simulate(const RcNetwork& net,
                                     const VectorPair& pair) const;

  /// Full waveform of one wire (for plotting/inspection); samples of V(t)
  /// every time step.
  std::vector<double> waveform(const RcNetwork& net, const VectorPair& pair,
                               unsigned wire) const;

  /// Receiver decision using the transient waveforms and the same
  /// thresholds as the analytical model: a glitch error when the victim
  /// excursion crosses the receiver threshold, a delay error when the 50%
  /// crossing lands after the sampling slack.
  util::BusWord receive(const RcNetwork& net, const VectorPair& pair,
                        const ErrorModelConfig& thresholds) const;

  const TransientConfig& config() const { return config_; }

 private:
  TransientConfig config_;
};

/// Thresholds calibrated against the *transient* MA response instead of
/// the analytical expressions: a bus whose victim net coupling equals
/// `cth_fF` sits exactly on the detectability boundary of
/// TransientSimulator::receive.  Comparing these thresholds with
/// ErrorModelConfig::calibrated quantifies how conservative the closed
/// forms are (the model-validation experiment).
ErrorModelConfig transient_calibrated(const RcNetwork& nominal,
                                      double cth_fF,
                                      const TransientSimulator& sim);

/// Dense LU solver used by the integrator (exposed for testing).
class LuSolver {
 public:
  /// Factorises a square matrix (row-major), partial pivoting.
  explicit LuSolver(std::vector<double> matrix, unsigned n);

  /// Solves A x = b in place.  Allocates a scratch vector per call; hot
  /// loops should use the two-argument overload instead.
  void solve(std::vector<double>& b) const;

  /// Allocation-free solve: `scratch` is sized on first use and reused
  /// across calls (its contents are clobbered).
  void solve(std::vector<double>& b, std::vector<double>& scratch) const;

  bool singular() const { return singular_; }

 private:
  std::vector<double> lu_;
  std::vector<unsigned> perm_;
  unsigned n_;
  bool singular_ = false;
};

}  // namespace xtest::xtalk
