#include "xtalk/defect.h"

#include <algorithm>
#include <cassert>
#include <cmath>
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

namespace {

void require_width(unsigned width, const RcNetwork& nominal,
                   const char* caller) {
  if (nominal.width() != width)
    throw std::invalid_argument(
        std::string(caller) + ": defect width " + std::to_string(width) +
        " does not match bus width " + std::to_string(nominal.width()));
}

/// Sets `sums[w]` to wire w's net coupling once every pair (i < j) of
/// `nominal` is scaled by its factor in `row` (upper-triangle order, as
/// Defect stores it).  Each wire adds its neighbours in ascending order,
/// which is how RcNetwork::net_coupling sums the network Defect::apply
/// builds; that network's zero diagonal adds +0.0 to a sum that is never
/// negative.  So every sum is the network's, bit for bit (with
/// contraction off: this file is compiled with -ffp-contract=off).
void net_couplings(const RcNetwork& nominal, const double* row,
                   std::vector<double>& sums) {
  const unsigned width = nominal.width();
  sums.assign(width, 0.0);
  for (unsigned i = 0; i < width; ++i)
    for (unsigned j = i + 1; j < width; ++j) {
      const double c = nominal.coupling(i, j) * *row++;
      sums[i] += c;
      sums[j] += c;
    }
}

/// Engine words per round: the first round is small so a library of a few
/// defects costs little more than its own words; rounds then double up to
/// 1 MiB of words.  Both are even, so every round starts on a word pair.
constexpr std::size_t kFirstRoundWords = std::size_t{4} << 10;
constexpr std::size_t kMaxRoundWords = std::size_t{128} << 10;

}  // namespace

RcNetwork Defect::apply(const RcNetwork& nominal) const {
  require_width(width_, nominal, "Defect::apply");
  RcNetwork net = nominal;
  for (unsigned i = 0; i < width_; ++i)
    for (unsigned j = i + 1; j < width_; ++j)
      net.scale_coupling(i, j, factor(i, j));
  return net;
}

std::vector<unsigned> Defect::defective_wires(const RcNetwork& nominal,
                                              double cth_fF) const {
  require_width(width_, nominal, "Defect::defective_wires");
  std::vector<double> sums;
  net_couplings(nominal, factors_.data(), sums);
  std::vector<unsigned> out;
  for (unsigned i = 0; i < width_; ++i)
    if (sums[i] > cth_fF) out.push_back(i);
  return out;
}

// The library is the serial flow's, bit for bit, at every thread count.
// The serial flow draws one factor per accepted polar try of one
// MT19937-64 stream (util::polar_gaussians), so its factors are a pure
// map of the stream's word pairs, in order.  Only the words themselves
// must be produced in order.  Each round therefore:
//  - fills its word buffer from the engine, serially;
//  - maps its word pairs through the polar step on the threads, each
//    chunk keeping its accepted values in pair order;
//  - appends the chunks' values, in order, after the partial candidate
//    the previous round carried;
//  - walks the whole candidates in order, counting attempts, testing
//    each one's row sums against Cth and keeping an accepted one as a
//    Defect, until `count` is reached.
// At most one round of factors past the last defect is thrown away.
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
  std::vector<double> sums;     // one candidate's net couplings
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
    for (std::size_t c = 0; c < candidates && defects.size() < config.count;
         ++c) {
      if (++attempts > config.max_attempts)
        throw std::runtime_error(
            "DefectLibrary::generate: defect yield too low; raise sigma or "
            "lower cth_fF");
      const double* row = factors.data() + c * npairs;
      net_couplings(nominal, row, sums);
      if (std::any_of(sums.begin(), sums.end(),
                      [&](double s) { return s > config.cth_fF; }))
        defects.emplace_back(width, std::vector<double>(row, row + npairs));
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
