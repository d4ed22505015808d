#include "hwbist/random_patterns.h"

#include "hwbist/bist.h"

namespace xtest::hwbist {

RandomPatternBist::RandomPatternBist(unsigned width,
                                     std::size_t pattern_count,
                                     std::uint64_t seed)
    : width_(width) {
  util::Rng rng(seed);
  patterns_.reserve(pattern_count);
  const std::uint64_t space = std::uint64_t{1} << width;
  for (std::size_t i = 0; i < pattern_count; ++i) {
    patterns_.push_back({util::BusWord(width, rng.below(space)),
                         util::BusWord(width, rng.below(space))});
  }
}

bool RandomPatternBist::detects(const xtalk::RcNetwork& net,
                                const xtalk::CrosstalkErrorModel& model) const {
  for (const auto& p : patterns_)
    if (model.corrupts(net, p)) return true;
  return false;
}

std::vector<sim::Verdict> RandomPatternBist::run_library(
    const xtalk::RcNetwork& nominal, const xtalk::CrosstalkErrorModel& model,
    const xtalk::DefectLibrary& library, const util::ParallelConfig& parallel,
    util::CampaignStats* stats) const {
  return sweep_library(nominal, library, parallel, stats,
                       [&](const auto& net) { return detects(net, model); });
}

}  // namespace xtest::hwbist
