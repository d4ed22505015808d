#include "xtalk/rc_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace xtest::xtalk {

RcNetwork::RcNetwork(const BusGeometry& geometry)
    : geometry_(geometry),
      width_(geometry.width),
      driver_resistance_ohm_(geometry.driver_resistance_ohm),
      coupling_(static_cast<std::size_t>(geometry.width) * geometry.width,
                0.0),
      ground_(geometry.width, 0.0) {
  assert(width_ >= 2);
  const double c1 = geometry.coupling_fF_per_um * geometry.wire_length_um;
  for (unsigned i = 0; i < width_; ++i) {
    ground_[i] = geometry.ground_fF_per_um * geometry.wire_length_um;
    for (unsigned j = i + 1; j < width_; ++j) {
      const double d = static_cast<double>(j - i);
      const double c = c1 / std::pow(d, geometry.distance_decay_exponent);
      coupling_[index(i, j)] = c;
      coupling_[index(j, i)] = c;
    }
  }
}

void RcNetwork::set_coupling(unsigned i, unsigned j, double fF) {
  assert(i != j && i < width_ && j < width_);
  coupling_[index(i, j)] = fF;
  coupling_[index(j, i)] = fF;
}

void RcNetwork::scale_coupling(unsigned i, unsigned j, double factor) {
  set_coupling(i, j, coupling(i, j) * factor);
}

void RcNetwork::add_ground_load(unsigned i, double fF) {
  assert(i < width_);
  ground_[i] += fF;
}

double RcNetwork::net_coupling(unsigned i) const {
  double sum = 0.0;
  for (unsigned j = 0; j < width_; ++j) sum += coupling_[index(i, j)];
  return sum;
}

double RcNetwork::max_net_coupling() const {
  double best = 0.0;
  for (unsigned i = 0; i < width_; ++i)
    best = std::max(best, net_coupling(i));
  return best;
}

}  // namespace xtest::xtalk
