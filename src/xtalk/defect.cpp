#include "xtalk/defect.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace xtest::xtalk {

double recommended_cth(const RcNetwork& nominal, double ratio) {
  return ratio * nominal.max_net_coupling();
}

Defect::Defect(unsigned width, std::vector<double> factors)
    : width_(width), factors_(std::move(factors)) {
  const std::size_t expected =
      static_cast<std::size_t>(width_) * (width_ - 1) / 2;
  if (factors_.size() != expected)
    throw std::invalid_argument(
        "Defect: " + std::to_string(factors_.size()) + " factors for width " +
        std::to_string(width_) + " (expected " + std::to_string(expected) +
        ")");
  for (std::size_t k = 0; k < factors_.size(); ++k)
    if (!std::isfinite(factors_[k]) || factors_[k] < 0.0)
      throw std::invalid_argument(
          "Defect: factor " + std::to_string(k) +
          " is negative or non-finite (" + std::to_string(factors_[k]) + ")");
}

std::size_t Defect::tri_index(unsigned i, unsigned j) const {
  assert(i != j && i < width_ && j < width_);
  if (i > j) std::swap(i, j);
  // Offset of row i in the upper triangle (row i has width-1-i entries).
  const std::size_t row_start =
      static_cast<std::size_t>(i) * width_ - static_cast<std::size_t>(i) * (i + 1) / 2;
  return row_start + (j - i - 1);
}

double Defect::factor(unsigned i, unsigned j) const {
  return factors_[tri_index(i, j)];
}

RcNetwork Defect::apply(const RcNetwork& nominal) const {
  if (nominal.width() != width_)
    throw std::invalid_argument(
        "Defect::apply: defect width " + std::to_string(width_) +
        " does not match bus width " + std::to_string(nominal.width()));
  RcNetwork net = nominal;
  for (unsigned i = 0; i < width_; ++i)
    for (unsigned j = i + 1; j < width_; ++j)
      net.scale_coupling(i, j, factor(i, j));
  return net;
}

std::vector<unsigned> Defect::defective_wires(const RcNetwork& nominal,
                                              double cth_fF) const {
  const RcNetwork net = apply(nominal);
  std::vector<unsigned> out;
  for (unsigned i = 0; i < width_; ++i)
    if (net.net_coupling(i) > cth_fF) out.push_back(i);
  return out;
}

namespace {

/// Engine words per round: the first round is small so a library of a few
/// defects costs little more than its own words; rounds then double up to
/// 1 MiB of words.  Both are even, so every round starts on a word pair.
constexpr std::size_t kFirstRoundWords = std::size_t{4} << 10;
constexpr std::size_t kMaxRoundWords = std::size_t{128} << 10;

}  // namespace

// The library is the serial flow's, bit for bit, at every thread count.
// The serial flow draws one factor per accepted polar try of one
// MT19937-64 stream (util::polar_gaussians), so its factors are a pure
// map of the stream's word pairs, in order.  Only the words themselves
// must be produced in order.  Each round therefore:
//  - fills its word buffer from the engine, serially;
//  - maps its word pairs through the polar step on the threads, each
//    chunk keeping its accepted values in pair order;
//  - appends the chunks' values, in order, after the partial candidate
//    the previous round carried, and runs the Cth acceptance test on
//    every whole candidate in parallel;
//  - walks the candidates in order, counting attempts and keeping
//    accepted defects until `count` is reached.
// At most one round of candidates past the last defect is thrown away.
DefectLibrary DefectLibrary::generate(const RcNetwork& nominal,
                                      const DefectConfig& config,
                                      const util::ParallelConfig& parallel,
                                      const std::function<void()>& progress) {
  if (config.cth_fF <= 0.0)
    throw std::invalid_argument("DefectConfig::cth_fF must be positive");
  const unsigned width = nominal.width();
  if (width < 2)
    throw std::invalid_argument(
        "DefectLibrary::generate: a bus needs at least two wires");
  const std::size_t npairs =
      static_cast<std::size_t>(width) * (width - 1) / 2;
  const double sigma = config.sigma_pct / 100.0;
  util::Mt19937_64 engine(config.seed);

  std::vector<Defect> defects;
  defects.reserve(config.count);
  std::size_t attempts = 0;
  std::vector<std::uint64_t> words;
  std::size_t round_words = kFirstRoundWords;
  std::vector<double> factors;  // the carried partial candidate, then more
  while (defects.size() < config.count) {
    words.resize(round_words);
    engine.fill(words.data(), words.size());
    round_words = std::min(2 * round_words, kMaxRoundWords);

    const std::size_t pairs = words.size() / 2;
    std::vector<std::vector<double>> chunk_factors(parallel.resolve(pairs));
    util::parallel_for_chunks(
        pairs, parallel, [&](std::size_t begin, std::size_t end, unsigned w) {
          std::vector<double> out(end - begin);  // local: no false sharing
          out.resize(util::polar_gaussians(words.data() + 2 * begin,
                                           end - begin, sigma, out.data()));
          for (double& f : out) f = std::max(0.0, 1.0 + f);
          chunk_factors[w] = std::move(out);
        });
    for (const std::vector<double>& v : chunk_factors)
      factors.insert(factors.end(), v.begin(), v.end());

    const std::size_t candidates = factors.size() / npairs;
    std::vector<std::optional<Defect>> accepted(candidates);
    util::parallel_for_chunks(
        candidates, parallel,
        [&](std::size_t begin, std::size_t end, unsigned) {
          for (std::size_t c = begin; c < end; ++c) {
            const auto first = factors.begin() + c * npairs;
            Defect candidate(width, std::vector<double>(first, first + npairs));
            const RcNetwork net = candidate.apply(nominal);
            if (net.max_net_coupling() > config.cth_fF)
              accepted[c] = std::move(candidate);
          }
        });

    for (std::size_t c = 0; c < candidates && defects.size() < config.count;
         ++c) {
      if (++attempts > config.max_attempts)
        throw std::runtime_error(
            "DefectLibrary::generate: defect yield too low; raise sigma or "
            "lower cth_fF");
      if (accepted[c]) defects.push_back(std::move(*accepted[c]));
    }
    factors.erase(factors.begin(), factors.begin() + candidates * npairs);
    if (progress) progress();
  }
  return DefectLibrary(config, std::move(defects), attempts);
}

DefectLibrary DefectLibrary::from_defects(const DefectConfig& config,
                                          std::vector<Defect> defects) {
  DefectConfig c = config;
  c.count = defects.size();
  const std::size_t attempts = defects.size();
  return DefectLibrary(c, std::move(defects), attempts);
}

std::vector<std::size_t> DefectLibrary::defective_wire_histogram(
    const RcNetwork& nominal) const {
  std::vector<std::size_t> hist(nominal.width(), 0);
  for (const Defect& d : defects_)
    for (unsigned w : d.defective_wires(nominal, config_.cth_fF)) ++hist[w];
  return hist;
}

}  // namespace xtest::xtalk
