#include "hwbist/bist.h"

#include <chrono>

namespace xtest::hwbist {

bool HardwareBist::pattern_fails(const xtalk::RcNetwork& net,
                                 const xtalk::CrosstalkErrorModel& model,
                                 const xtalk::MafFault& f) const {
  const xtalk::VectorPair pair = xtalk::ma_test(width_, f);
  return model.corrupts(net, pair);
}

bool HardwareBist::detects(const xtalk::RcNetwork& net,
                           const xtalk::CrosstalkErrorModel& model) const {
  for (const xtalk::MafFault& f : faults_)
    if (pattern_fails(net, model, f)) return true;
  return false;
}

std::vector<sim::Verdict> sweep_library(
    const xtalk::RcNetwork& nominal, const xtalk::DefectLibrary& library,
    const util::ParallelConfig& parallel, util::CampaignStats* stats,
    const std::function<bool(const xtalk::RcNetwork&)>& detects) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = library.size();
  std::vector<sim::Verdict> out(n, sim::Verdict::kUndetected);
  const std::vector<util::ItemError> errors = util::parallel_for_items(
      n, parallel, [&](std::size_t i, unsigned) {
        out[i] = detects(library[i].apply(nominal))
                     ? sim::Verdict::kDetected
                     : sim::Verdict::kUndetected;
      });
  for (const util::ItemError& e : errors) {
    out[e.index] = sim::Verdict::kSimError;
    if (stats != nullptr)
      stats->error_log.push_back("defect " + std::to_string(e.index) + ": " +
                                 e.message);
  }
  if (stats != nullptr) {
    stats->threads = parallel.resolve(n);
    stats->defects_simulated += n;
    sim::tally_verdicts(out, *stats);
    stats->wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  }
  return out;
}

std::vector<sim::Verdict> HardwareBist::run_library(
    const xtalk::RcNetwork& nominal, const xtalk::CrosstalkErrorModel& model,
    const xtalk::DefectLibrary& library, const util::ParallelConfig& parallel,
    util::CampaignStats* stats) const {
  return sweep_library(nominal, library, parallel, stats,
                       [&](const auto& net) { return detects(net, model); });
}

}  // namespace xtest::hwbist
