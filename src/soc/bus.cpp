#include "soc/bus.h"

#include <cassert>

namespace xtest::soc {

std::string to_string(BusKind k) {
  switch (k) {
    case BusKind::kAddress: return "addr";
    case BusKind::kData: return "data";
    case BusKind::kControl: return "ctrl";
  }
  return "?";
}

util::BusWord TristateBus::transfer(util::BusWord word,
                                    const xtalk::RcNetwork* net,
                                    const xtalk::CrosstalkErrorModel* model) {
  assert(word.width() == width_);
  const xtalk::VectorPair pair{held_, word};
  util::BusWord received = word;
  if (net != nullptr && model != nullptr) received = model->receive(*net, pair);
  held_ = word;
  return received;
}

util::BusWord TristateBus::transfer(util::BusWord word,
                                    const xtalk::BusEvaluator* eval) {
  assert(word.width() == width_);
  const std::uint64_t held = held_.bits();
  const std::uint64_t driven = word.bits();
  held_ = word;
  if (eval == nullptr || eval->width() == 0) return word;
  // Early exits: an evaluator whose worst case provably never deviates
  // (calibrated nominal networks) samples the driven word on *every*
  // transition, and a quiet bus (no wire toggles) does so whenever the
  // glitch threshold is positive.
  if (eval->always_identity()) return word;
  if (held == driven && eval->quiet_is_identity()) return word;
  return {width_, eval->receive(held, driven)};
}

}  // namespace xtest::soc
