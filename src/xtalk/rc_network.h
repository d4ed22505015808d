// RC model of a parallel on-chip bus.
//
// The paper's defect simulation (Section 5, Figs. 9-10) operates on the
// coupling-capacitance matrix of the bus: nominal values come from wire
// geometry, defects are percentage perturbations of those values, and the
// detectability criterion of Cuviello et al. (ICCAD'99) reduces to "net
// coupling capacitance on some wire exceeds a threshold Cth".
//
// We model each wire with a lumped driver resistance R, a ground capacitance
// Cg, and a symmetric coupling matrix Cc[i][j] whose nominal entries decay
// with wire distance as 1/d^2 (a standard parallel-plate + fringing
// approximation for same-layer neighbours).

#pragma once

#include <cstddef>
#include <vector>

namespace xtest::xtalk {

/// Geometry and electrical parameters of a parallel bus.  Defaults model a
/// 2 mm global bus in a 0.18 um-class process (the paper's DSM context).
struct BusGeometry {
  unsigned width = 8;              ///< number of wires
  double wire_length_um = 2000.0;  ///< parallel run length
  double coupling_fF_per_um = 0.08;  ///< nearest-neighbour coupling per um
  double ground_fF_per_um = 0.06;    ///< wire-to-ground cap per um
  double distance_decay_exponent = 2.0;  ///< Cc(d) = Cc(1) / d^exp
  double driver_resistance_ohm = 500.0;  ///< lumped driver + wire resistance

  bool operator==(const BusGeometry&) const = default;
};

/// Dense symmetric coupling matrix plus per-wire ground caps and driver R.
class RcNetwork {
 public:
  /// Builds nominal capacitances from geometry.
  explicit RcNetwork(const BusGeometry& geometry);

  unsigned width() const { return width_; }

  /// Coupling capacitance between wires i and j in fF (0 when i == j).
  double coupling(unsigned i, unsigned j) const {
    return coupling_[index(i, j)];
  }
  void set_coupling(unsigned i, unsigned j, double fF);

  /// Multiply the coupling between i and j by `factor` (defect injection).
  void scale_coupling(unsigned i, unsigned j, double factor);

  /// Adds quiet capacitive load to wire i -- models coupling to wires of
  /// *another* bus routed alongside (the paper's "crosstalk between two
  /// busses" remark): a quiet neighbour never injects charge but always
  /// loads the wire, damping glitches and stretching delays.
  void add_ground_load(unsigned i, double fF);

  /// Sum of coupling capacitance seen by wire i -- the quantity the paper's
  /// Cth criterion is defined on ("net coupling capacitance C").
  double net_coupling(unsigned i) const;

  /// Largest net coupling over all wires.
  double max_net_coupling() const;

  double ground_cap(unsigned i) const { return ground_[i]; }
  double driver_resistance() const { return driver_resistance_ohm_; }

  const BusGeometry& geometry() const { return geometry_; }

 private:
  std::size_t index(unsigned i, unsigned j) const {
    return static_cast<std::size_t>(i) * width_ + j;
  }

  BusGeometry geometry_;
  unsigned width_;
  double driver_resistance_ohm_;
  std::vector<double> coupling_;  // width x width, symmetric, zero diagonal
  std::vector<double> ground_;    // per wire
};

}  // namespace xtest::xtalk
