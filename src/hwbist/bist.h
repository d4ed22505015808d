// Hardware-BIST baseline (Bai-Dey-Rajski, DAC 2000).
//
// The paper's Section 1 contrasts the proposed SBST method with a
// hardware built-in self-test scheme: dedicated on-chip pattern generators
// drive every MA vector pair directly onto the interconnect in a special
// test mode, and on-chip detectors compare the received second vector with
// its expected value.  This module models that scheme on the same RC
// network / error model so coverage, over-testing, and area overhead can
// be compared with SBST on equal footing.

#pragma once

#include <functional>
#include <vector>

#include "sim/verdict.h"
#include "util/parallel.h"
#include "xtalk/defect.h"
#include "xtalk/error_model.h"
#include "xtalk/maf.h"
#include "xtalk/rc_network.h"

namespace xtest::hwbist {

/// The library sweep of every BIST baseline: `detects(net)` gives the
/// verdict of `library[i]` applied to `nominal`.  Defects fan out across
/// workers (verdicts written by index: bitwise identical for every thread
/// count); a defect whose evaluation throws is quarantined as kSimError,
/// with one `error_log` line, instead of aborting the sweep; `stats`
/// accumulates when non-null.  BIST has no timeout mechanism, so verdicts
/// are only kDetected / kUndetected / kSimError.
std::vector<sim::Verdict> sweep_library(
    const xtalk::RcNetwork& nominal, const xtalk::DefectLibrary& library,
    const util::ParallelConfig& parallel, util::CampaignStats* stats,
    const std::function<bool(const xtalk::RcNetwork&)>& detects);

class HardwareBist {
 public:
  /// `bidirectional` doubles the pattern set, as for a data bus.
  HardwareBist(unsigned width, bool bidirectional)
      : width_(width),
        faults_(xtalk::enumerate_mafs(width, bidirectional)) {}

  unsigned width() const { return width_; }
  const std::vector<xtalk::MafFault>& patterns() const { return faults_; }

  /// Whether applying fault `f`'s MA pair on `net` produces a receiver
  /// error (the detector flags the chip).
  bool pattern_fails(const xtalk::RcNetwork& net,
                     const xtalk::CrosstalkErrorModel& model,
                     const xtalk::MafFault& f) const;

  /// Whether any MA pattern fails -- the BIST verdict for one defect.
  bool detects(const xtalk::RcNetwork& net,
               const xtalk::CrosstalkErrorModel& model) const;

  /// BIST verdict over a whole library applied to `nominal`
  /// (sweep_library()).
  std::vector<sim::Verdict> run_library(
      const xtalk::RcNetwork& nominal,
      const xtalk::CrosstalkErrorModel& model,
      const xtalk::DefectLibrary& library,
      const util::ParallelConfig& parallel = {},
      util::CampaignStats* stats = nullptr) const;

 private:
  unsigned width_;
  std::vector<xtalk::MafFault> faults_;
};

}  // namespace xtest::hwbist
