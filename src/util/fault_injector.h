// Seeded, deterministic fault injection for resilience testing.
//
// Production code that can fail -- checkpoint I/O, serialize loaders,
// per-defect simulation bodies, response unload -- declares *named
// injection sites*: a call to FaultInjector::global().maybe_fail("site")
// on the failure path.  When the injector is disarmed (the default) a
// site costs one relaxed atomic load; nothing fires, nothing is counted.
// Armed, each hit of a site is counted and a per-site rule decides
// whether that hit fails, so tests, the chaos soak, and CI can drive the
// exact error paths that a real ENOSPC / torn write / wedged simulation
// would take -- reproducibly.
//
// Spec grammar (used by $XTEST_FAULTS and `xtest ... --faults`):
//
//   spec    := entry ["," entry]* [":" seed]
//   entry   := site            fail every hit
//            | site "@" N      fail exactly the Nth hit (1-based), once
//            | site "%" P      fail each hit with probability P in [0,1]
//   site    := dotted name, e.g. checkpoint.rename; a trailing '*'
//              matches any site with that prefix (parallel.*)
//
//   XTEST_FAULTS="checkpoint.rename@2:42"
//   XTEST_FAULTS="parallel.item%0.05,checkpoint.fsync%0.2:7"
//
// Probabilistic decisions are a pure function of (seed, site, hit index),
// so a given seed always fails the same hits of a site no matter how
// threads interleave *other* sites.  configure() resets all counters.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

namespace xtest::util {

/// The exception an armed site throws from maybe_fail().  Derives from
/// std::runtime_error so every real error-handling path (quarantine,
/// flush retry, CLI exit codes) treats it exactly like the genuine
/// failure it stands in for.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class FaultInjector {
 public:
  /// Disarmed: no site ever fires.
  FaultInjector() = default;

  /// Arms the injector with `spec` (grammar above), resetting all hit and
  /// fire counters.  An empty spec disarms.  Throws std::invalid_argument
  /// on a malformed spec.
  void configure(const std::string& spec);

  /// Disarms and clears every rule and counter.
  void disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Counts a hit of `site` and returns true when the matching rule says
  /// this hit fails.  Disarmed: returns false without counting.
  bool fire(const std::string& site);

  /// Literal-site overload for per-instruction / per-defect hot paths:
  /// the disarmed check happens before any std::string materializes.
  bool fire(const char* site) {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return fire(std::string(site));
  }

  /// fire(), but throws InjectedFault("injected fault at <site> (hit N)")
  /// instead of returning true.
  void maybe_fail(const std::string& site);

  /// Literal-site overload, for the same hot paths as fire(const char*).
  void maybe_fail(const char* site) {
    if (armed_.load(std::memory_order_relaxed)) maybe_fail(std::string(site));
  }

  /// Total hits / fires of a concrete site since configure().  Sites are
  /// only tracked while armed.
  std::size_t hits(const std::string& site) const;
  std::size_t fired(const std::string& site) const;

  /// One "site hits=H fired=F" line per tracked site (chaos-soak logs).
  std::string summary() const;

  /// Process-wide injector.  The first call reads $XTEST_FAULTS; a
  /// malformed value prints one warning to stderr and stays disarmed (a
  /// bad knob must not take down a campaign).
  static FaultInjector& global();

 private:
  struct Rule {
    enum class Mode { kAlways, kNth, kProb };
    Mode mode = Mode::kAlways;
    std::uint64_t nth = 0;  // kNth: 1-based hit index that fails
    double prob = 0.0;      // kProb
  };
  struct Counter {
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };

  const Rule* match_locked(const std::string& site) const;

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::uint64_t seed_ = 0;
  std::map<std::string, Rule> rules_;      // key may end in '*' (prefix)
  std::map<std::string, Counter> counts_;  // concrete site names
};

}  // namespace xtest::util
