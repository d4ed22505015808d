#include "xtalk/transient.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace xtest::xtalk {

LuSolver::LuSolver(std::vector<double> matrix, unsigned n)
    : lu_(std::move(matrix)), perm_(n), n_(n) {
  assert(lu_.size() == static_cast<std::size_t>(n) * n);
  for (unsigned i = 0; i < n_; ++i) perm_[i] = i;
  for (unsigned col = 0; col < n_; ++col) {
    // Partial pivoting.
    unsigned pivot = col;
    double best = std::abs(lu_[col * n_ + col]);
    for (unsigned r = col + 1; r < n_; ++r) {
      const double v = std::abs(lu_[r * n_ + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-30) {
      singular_ = true;
      return;
    }
    if (pivot != col) {
      for (unsigned c = 0; c < n_; ++c)
        std::swap(lu_[col * n_ + c], lu_[pivot * n_ + c]);
      std::swap(perm_[col], perm_[pivot]);
    }
    const double d = lu_[col * n_ + col];
    for (unsigned r = col + 1; r < n_; ++r) {
      const double f = lu_[r * n_ + col] / d;
      lu_[r * n_ + col] = f;
      for (unsigned c = col + 1; c < n_; ++c)
        lu_[r * n_ + c] -= f * lu_[col * n_ + c];
    }
  }
}

void LuSolver::solve(std::vector<double>& b) const {
  std::vector<double> scratch;
  solve(b, scratch);
}

void LuSolver::solve(std::vector<double>& b,
                     std::vector<double>& scratch) const {
  if (singular_) throw std::runtime_error("LuSolver: singular matrix");
  assert(b.size() == n_);
  scratch.resize(n_);
  std::vector<double>& x = scratch;
  for (unsigned i = 0; i < n_; ++i) x[i] = b[perm_[i]];
  // Forward substitution (unit lower triangle).
  for (unsigned i = 0; i < n_; ++i)
    for (unsigned j = 0; j < i; ++j) x[i] -= lu_[i * n_ + j] * x[j];
  // Back substitution.
  for (unsigned i = n_; i-- > 0;) {
    for (unsigned j = i + 1; j < n_; ++j) x[i] -= lu_[i * n_ + j] * x[j];
    x[i] /= lu_[i * n_ + i];
  }
  std::swap(b, scratch);  // solution in b, old b becomes next call's scratch
}

namespace {

/// Maxwell capacitance matrix in fF: diagonal = ground + all couplings,
/// off-diagonal = -coupling.
std::vector<double> maxwell_matrix(const RcNetwork& net) {
  const unsigned n = net.width();
  std::vector<double> c(static_cast<std::size_t>(n) * n, 0.0);
  for (unsigned i = 0; i < n; ++i) {
    c[i * n + i] = net.ground_cap(i) + net.net_coupling(i);
    for (unsigned j = 0; j < n; ++j)
      if (j != i) c[i * n + j] = -net.coupling(i, j);
  }
  return c;
}

// Trapezoidal rule for C dV/dt = D (S - V), with C in fF, t in ns, R in
// ohm: D = 1e6 / R (so that tau = R * C comes out in ns).  Factored afresh
// by every simulate() / waveform() call -- nothing is kept between calls
// -- and stepping never allocates.
struct TransientPlan {
  unsigned n;
  std::vector<double> m;  // C/dt - D/2
  std::vector<double> d;  // per-wire conductance term
  LuSolver lhs;           // C/dt + D/2
  // Fused path: v' = a v + bmat s with a = lhs^-1 m, bmat = lhs^-1 diag(d).
  // Left empty when fusion is off or the lhs is singular (the reference
  // path then reports the singularity exactly as before).
  std::vector<double> a;
  std::vector<double> bmat;

  TransientPlan(const RcNetwork& net, double time_step_ns, bool fuse)
      : n(net.width()),
        m(maxwell_matrix(net)),
        d(n, 0.0),
        lhs([&] {
          std::vector<double> lhs_m = maxwell_matrix(net);
          for (unsigned i = 0; i < n; ++i) {
            const double g = 1e6 / net.driver_resistance();
            for (unsigned j = 0; j < n; ++j) lhs_m[i * n + j] /= time_step_ns;
            lhs_m[i * n + i] += g / 2.0;
          }
          return lhs_m;
        }(),
            net.width()) {
    const double g = 1e6 / net.driver_resistance();
    for (unsigned i = 0; i < n; ++i) {
      for (unsigned j = 0; j < n; ++j) m[i * n + j] /= time_step_ns;
      m[i * n + i] -= g / 2.0;
      d[i] = g;
    }
    if (!fuse || lhs.singular()) return;
    a.assign(static_cast<std::size_t>(n) * n, 0.0);
    bmat.assign(static_cast<std::size_t>(n) * n, 0.0);
    std::vector<double> col(n), scratch;
    for (unsigned j = 0; j < n; ++j) {
      for (unsigned i = 0; i < n; ++i) col[i] = m[i * n + j];
      lhs.solve(col, scratch);
      for (unsigned i = 0; i < n; ++i) a[i * n + j] = col[i];
      for (unsigned i = 0; i < n; ++i) col[i] = i == j ? d[j] : 0.0;
      lhs.solve(col, scratch);
      for (unsigned i = 0; i < n; ++i) bmat[i * n + j] = col[i];
    }
  }

  bool use_fused() const { return !a.empty(); }

  /// Source term that is constant across steps: bs = bmat * s (fused) or
  /// d .* s (reference).
  void source_term(const std::vector<double>& s,
                   std::vector<double>& bs) const {
    bs.assign(n, 0.0);
    if (use_fused()) {
      for (unsigned i = 0; i < n; ++i) {
        double acc = 0.0;
        for (unsigned j = 0; j < n; ++j) acc += bmat[i * n + j] * s[j];
        bs[i] = acc;
      }
    } else {
      for (unsigned i = 0; i < n; ++i) bs[i] = d[i] * s[i];
    }
  }

  /// One step, allocation-free: v advances in place, `next` and `scratch`
  /// are caller-owned buffers reused across steps.
  void step(std::vector<double>& v, const std::vector<double>& bs,
            std::vector<double>& next, std::vector<double>& scratch) const {
    if (use_fused()) {
      for (unsigned i = 0; i < n; ++i) {
        double acc = 0.0;
        for (unsigned j = 0; j < n; ++j) acc += a[i * n + j] * v[j];
        next[i] = acc + bs[i];
      }
    } else {
      for (unsigned i = 0; i < n; ++i) {
        double acc = 0.0;
        for (unsigned j = 0; j < n; ++j) acc += m[i * n + j] * v[j];
        next[i] = acc + bs[i];
      }
      lhs.solve(next, scratch);
    }
    std::swap(v, next);
  }
};

}  // namespace

std::vector<WireResponse> TransientSimulator::simulate(
    const RcNetwork& net, const VectorPair& pair) const {
  const unsigned n = net.width();
  assert(pair.v1.width() == n && pair.v2.width() == n);
  const TransientPlan plan(net, config_.time_step_ns, config_.fused_step);

  std::vector<double> v(n), s(n);
  for (unsigned i = 0; i < n; ++i) {
    v[i] = pair.v1.bit(i) ? config_.vdd_v : 0.0;
    s[i] = pair.v2.bit(i) ? config_.vdd_v : 0.0;
  }
  std::vector<double> bs, next(n, 0.0), scratch;
  plan.source_term(s, bs);

  std::vector<WireResponse> out(n);
  const double half = config_.vdd_v / 2.0;
  std::vector<double> prev = v;
  const auto steps =
      static_cast<std::size_t>(config_.duration_ns / config_.time_step_ns);
  for (std::size_t k = 1; k <= steps; ++k) {
    plan.step(v, bs, next, scratch);
    const double t = static_cast<double>(k) * config_.time_step_ns;
    for (unsigned i = 0; i < n; ++i) {
      const double exc = v[i] - s[i];
      if (std::abs(exc) > std::abs(out[i].peak_excursion_v))
        out[i].peak_excursion_v = exc;
      // Track the last crossing of Vdd/2 (linear interpolation).
      if ((prev[i] - half) * (v[i] - half) < 0.0) {
        const double f = (half - prev[i]) / (v[i] - prev[i]);
        out[i].crossing_time_ns = t - config_.time_step_ns * (1.0 - f);
      }
    }
    prev = v;
  }
  return out;
}

std::vector<double> TransientSimulator::waveform(const RcNetwork& net,
                                                 const VectorPair& pair,
                                                 unsigned wire) const {
  const unsigned n = net.width();
  assert(wire < n);
  const TransientPlan plan(net, config_.time_step_ns, config_.fused_step);
  std::vector<double> v(n), s(n);
  for (unsigned i = 0; i < n; ++i) {
    v[i] = pair.v1.bit(i) ? config_.vdd_v : 0.0;
    s[i] = pair.v2.bit(i) ? config_.vdd_v : 0.0;
  }
  std::vector<double> bs, next(n, 0.0), scratch;
  plan.source_term(s, bs);
  std::vector<double> wf{v[wire]};
  const auto steps =
      static_cast<std::size_t>(config_.duration_ns / config_.time_step_ns);
  for (std::size_t k = 1; k <= steps; ++k) {
    plan.step(v, bs, next, scratch);
    wf.push_back(v[wire]);
  }
  return wf;
}

ErrorModelConfig transient_calibrated(const RcNetwork& nominal,
                                      double cth_fF,
                                      const TransientSimulator& sim) {
  // Scale the center wire's couplings so its net coupling equals Cth, then
  // measure the transient MA responses there.
  const unsigned n = nominal.width();
  const unsigned victim = n / 2;
  RcNetwork at_cth = nominal;
  const double factor = cth_fF / nominal.net_coupling(victim);
  for (unsigned j = 0; j < n; ++j)
    if (j != victim) at_cth.scale_coupling(victim, j, factor);

  ErrorModelConfig cfg;
  cfg.vdd_v = sim.config().vdd_v;
  const VectorPair gp = ma_test(
      n, {victim, MafType::kPositiveGlitch, BusDirection::kCpuToCore});
  cfg.glitch_threshold_v =
      sim.simulate(at_cth, gp)[victim].peak_excursion_v;
  const VectorPair dr = ma_test(
      n, {victim, MafType::kRisingDelay, BusDirection::kCpuToCore});
  cfg.delay_slack_ns = sim.simulate(at_cth, dr)[victim].crossing_time_ns;
  return cfg;
}

util::BusWord TransientSimulator::receive(
    const RcNetwork& net, const VectorPair& pair,
    const ErrorModelConfig& thresholds) const {
  const std::vector<WireResponse> resp = simulate(net, pair);
  util::BusWord out = pair.v2;
  for (unsigned i = 0; i < net.width(); ++i) {
    const bool b1 = pair.v1.bit(i);
    const bool b2 = pair.v2.bit(i);
    if (b1 == b2) {
      const double exc = resp[i].peak_excursion_v;
      const bool flips = b2 ? (-exc >= thresholds.glitch_threshold_v)
                            : (exc >= thresholds.glitch_threshold_v);
      if (flips) out = out.with_bit(i, !b2);
    } else {
      if (resp[i].crossing_time_ns > thresholds.delay_slack_ns)
        out = out.with_bit(i, b1);
    }
  }
  return out;
}

}  // namespace xtest::xtalk
