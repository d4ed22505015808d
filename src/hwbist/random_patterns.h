// Random-pattern BIST baseline.
//
// Classic hardware BIST generators (LFSR-based) drive pseudo-random vector
// pairs rather than the deterministic MA set.  This baseline quantifies
// what the MAF theory predicts: random pairs rarely assemble the
// worst-case aggressor alignment, so their crosstalk coverage trails the
// 4N MA tests badly until the pattern count gets very large.  Used by the
// random-baseline bench as the second comparison axis next to E7.

#pragma once

#include <vector>

#include "sim/verdict.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "xtalk/defect.h"
#include "xtalk/error_model.h"
#include "xtalk/maf.h"
#include "xtalk/rc_network.h"

namespace xtest::hwbist {

class RandomPatternBist {
 public:
  RandomPatternBist(unsigned width, std::size_t pattern_count,
                    std::uint64_t seed);

  const std::vector<xtalk::VectorPair>& patterns() const { return patterns_; }

  /// True when any random pair produces a receiver error on `net`.
  bool detects(const xtalk::RcNetwork& net,
               const xtalk::CrosstalkErrorModel& model) const;

  /// Verdicts over a library applied to `nominal` (sweep_library()).
  std::vector<sim::Verdict> run_library(
      const xtalk::RcNetwork& nominal,
      const xtalk::CrosstalkErrorModel& model,
      const xtalk::DefectLibrary& library,
      const util::ParallelConfig& parallel = {},
      util::CampaignStats* stats = nullptr) const;

 private:
  unsigned width_;
  std::vector<xtalk::VectorPair> patterns_;
};

}  // namespace xtest::hwbist
