// Defect library generation (Fig. 10 of the paper).
//
// A candidate defect perturbs every coupling capacitance of the nominal bus
// by an independent Gaussian percentage (the paper uses a 3-sigma point of
// 150%, i.e. sigma = 50%).  A candidate is *recorded* as a defect exactly
// when the net coupling capacitance on some wire exceeds the threshold Cth
// -- the criterion of Cuviello et al. (ICCAD'99) for "some MA test can
// detect it".  Candidates below the threshold are electrically benign and
// are discarded, exactly as in the paper's flow.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/parallel.h"
#include "xtalk/rc_network.h"

namespace xtest::xtalk {

struct DefectConfig {
  /// Gaussian sigma of the capacitance variation, in percent.  The paper's
  /// "3-delta point of 150%" is sigma = 50.
  double sigma_pct = 50.0;
  /// Net-coupling threshold in fF above which a wire is defective.
  double cth_fF = 0.0;
  /// Number of defects to generate.
  std::size_t count = 1000;
  std::uint64_t seed = 20010618;  // DAC 2001 week
  /// Abort knob so mis-calibrated configs fail loudly instead of spinning.
  std::size_t max_attempts = 200'000'000;
};

/// Cth used in all experiments: a fixed multiple of the largest *nominal*
/// net coupling, i.e. the acceptable-glitch-height / delay margin expressed
/// in capacitance terms.  With the default ratio the outermost wires cannot
/// become defective under the paper's 3-sigma = 150% distribution, which is
/// what produces the zero-coverage side lines of Fig. 11.
double recommended_cth(const RcNetwork& nominal, double ratio = 1.6);

/// One recorded defect: a multiplicative factor for every unordered wire
/// pair (i < j), row-major in the upper triangle.
class Defect {
 public:
  /// Throws std::invalid_argument when the factor count does not match the
  /// width or any factor is negative or non-finite (a bad defect must fail
  /// loudly, not poison a campaign).
  Defect(unsigned width, std::vector<double> factors);

  unsigned width() const { return width_; }

  double factor(unsigned i, unsigned j) const;

  /// The nominal network with this defect's perturbation applied.  Throws
  /// std::invalid_argument on a width mismatch.
  RcNetwork apply(const RcNetwork& nominal) const;

  /// Wires whose net coupling exceeds `cth_fF` under this defect: the
  /// net couplings of apply(nominal), summed without building it.  Throws
  /// std::invalid_argument on a width mismatch.
  std::vector<unsigned> defective_wires(const RcNetwork& nominal,
                                        double cth_fF) const;

 private:
  std::size_t tri_index(unsigned i, unsigned j) const;

  unsigned width_;
  std::vector<double> factors_;  // width*(width-1)/2 entries
};

/// A generated library plus generation statistics.
class DefectLibrary {
 public:
  /// Rejection-samples `config.count` defects on `parallel`'s threads;
  /// the library is the same bit for bit at every thread count.
  /// `progress`, when set, is called once per round of engine words
  /// (at most 128 Ki words apart).  Throws std::runtime_error if
  /// `max_attempts` candidates do not yield enough defects.
  static DefectLibrary generate(const RcNetwork& nominal,
                                const DefectConfig& config,
                                const util::ParallelConfig& parallel = {},
                                const std::function<void()>& progress = {});

  /// Wraps an explicit defect list (e.g. a hand-built one) as a library.
  /// The defects are taken as-is; a width that does not match the target
  /// bus surfaces at apply() time, where the campaign quarantines it.
  static DefectLibrary from_defects(const DefectConfig& config,
                                    std::vector<Defect> defects);

  const std::vector<Defect>& defects() const { return defects_; }
  std::size_t size() const { return defects_.size(); }
  const Defect& operator[](std::size_t i) const { return defects_[i]; }

  const DefectConfig& config() const { return config_; }
  /// Candidates drawn, including rejected (benign) ones.
  std::size_t attempts() const { return attempts_; }

  /// Histogram: for each wire, how many library defects make it defective.
  std::vector<std::size_t> defective_wire_histogram(
      const RcNetwork& nominal) const;

 private:
  DefectLibrary(DefectConfig config, std::vector<Defect> defects,
                std::size_t attempts)
      : config_(config), defects_(std::move(defects)), attempts_(attempts) {}

  DefectConfig config_;
  std::vector<Defect> defects_;
  std::size_t attempts_ = 0;
};

}  // namespace xtest::xtalk
