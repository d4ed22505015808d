// Verdict taxonomy for defect-simulation campaigns.
//
// The paper's detection model has two distinct mechanisms: a response cell
// holding the wrong value when the tester unloads it, and the chip failing
// to signal completion within the test-time budget (a crosstalk defect that
// derails control flow never reaches HLT and is "detected" by the tester
// timeout).  Collapsing both into one bool loses exactly the information an
// in-field test flow needs, and leaves no room to account for a simulation
// that failed outright.  A Verdict keeps the cases apart:
//
//   kUndetected         faulty run matched the gold response
//   kDetected           tester-visible response mismatch, program completed
//   kDetectedByTimeout  program did not reach HLT within the cycle budget
//   kSimError           the simulation itself failed (quarantined defect)
//
// coverage() counts both detected kinds, so existing campaign call sites
// keep their meaning.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/parallel.h"

namespace xtest::sim {

enum class Verdict : std::uint8_t {
  kUndetected = 0,
  kDetected = 1,
  kDetectedByTimeout = 2,
  kSimError = 3,
};

/// Both detection mechanisms count as detected; a SimError does not (the
/// defect's behaviour is unknown, claiming coverage for it would be wrong).
inline bool is_detected(Verdict v) {
  return v == Verdict::kDetected || v == Verdict::kDetectedByTimeout;
}

inline const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kUndetected: return "undetected";
    case Verdict::kDetected: return "detected";
    case Verdict::kDetectedByTimeout: return "detected-by-timeout";
    case Verdict::kSimError: return "sim-error";
  }
  return "?";
}

/// One-character codes for the checkpoint file format.
inline char to_char(Verdict v) {
  switch (v) {
    case Verdict::kUndetected: return 'U';
    case Verdict::kDetected: return 'D';
    case Verdict::kDetectedByTimeout: return 'T';
    case Verdict::kSimError: return 'E';
  }
  return '?';
}

/// Inverse of to_char; returns false for unknown codes.
inline bool verdict_from_char(char c, Verdict& out) {
  switch (c) {
    case 'U': out = Verdict::kUndetected; return true;
    case 'D': out = Verdict::kDetected; return true;
    case 'T': out = Verdict::kDetectedByTimeout; return true;
    case 'E': out = Verdict::kSimError; return true;
  }
  return false;
}

/// Session union: a defect's verdict over a program *set* is the strongest
/// evidence any session produced.  A response mismatch outranks a timeout
/// (it pins the failure to specific cells), a timeout outranks an error,
/// and an error outranks undetected -- a defect whose only session failed
/// to simulate must not be reported as a clean pass.
inline Verdict merge_verdicts(Verdict a, Verdict b) {
  auto rank = [](Verdict v) {
    switch (v) {
      case Verdict::kDetected: return 3;
      case Verdict::kDetectedByTimeout: return 2;
      case Verdict::kSimError: return 1;
      case Verdict::kUndetected: return 0;
    }
    return 0;
  };
  return rank(a) >= rank(b) ? a : b;
}

/// Per-defect outcome of an on-line campaign round sequence (sim/online.h):
/// the verdict plus what the interleaved schedule measured on the way.
struct OnlineOutcome {
  Verdict verdict = Verdict::kUndetected;
  /// Global-clock cycles from activation to the first diverging slice
  /// boundary; 0 for an undetected defect.
  std::uint64_t detection_latency_cycles = 0;
  /// Interleaved rounds this defect's schedule executed.
  std::uint64_t rounds = 0;
  /// Functional-interference counters of this defect's schedule.
  std::uint64_t heartbeats = 0;
  std::uint64_t deadlines_late = 0;
  std::uint64_t deadlines_missed = 0;

  bool operator==(const OnlineOutcome&) const = default;
};

/// A campaign slot's verdict; an off-line outcome is just its verdict.
inline Verdict& verdict_of(Verdict& v) { return v; }
inline Verdict& verdict_of(OnlineOutcome& o) { return o.verdict; }

/// Folds one session's outcome into the defect's merged outcome: the one
/// session fold of the campaign engine and of the supervisor's shard merge.
inline void fold_session(Verdict& merged, Verdict v) {
  merged = merge_verdicts(merged, v);
}
inline void fold_session(OnlineOutcome& merged, const OnlineOutcome& o) {
  // First detecting session wins the latency (the field notices the
  // defect on its first diverging slice boundary).
  if (!is_detected(merged.verdict) && is_detected(o.verdict))
    merged.detection_latency_cycles = o.detection_latency_cycles;
  merged.verdict = merge_verdicts(merged.verdict, o.verdict);
  merged.rounds += o.rounds;
  merged.heartbeats += o.heartbeats;
  merged.deadlines_late += o.deadlines_late;
  merged.deadlines_missed += o.deadlines_missed;
}

struct VerdictCounts {
  std::size_t detected = 0;
  std::size_t detected_by_timeout = 0;
  std::size_t undetected = 0;
  std::size_t sim_errors = 0;

  std::size_t total() const {
    return detected + detected_by_timeout + undetected + sim_errors;
  }
  std::size_t detected_total() const { return detected + detected_by_timeout; }
};

inline VerdictCounts count_verdicts(const std::vector<Verdict>& verdicts) {
  VerdictCounts c;
  for (Verdict v : verdicts) {
    switch (v) {
      case Verdict::kUndetected: ++c.undetected; break;
      case Verdict::kDetected: ++c.detected; break;
      case Verdict::kDetectedByTimeout: ++c.detected_by_timeout; break;
      case Verdict::kSimError: ++c.sim_errors; break;
    }
  }
  return c;
}

/// Adds a campaign's verdict breakdown onto accumulated stats.
inline void tally_verdicts(const std::vector<Verdict>& verdicts,
                           util::CampaignStats& stats) {
  const VerdictCounts c = count_verdicts(verdicts);
  stats.detected += c.detected;
  stats.detected_by_timeout += c.detected_by_timeout;
  stats.undetected += c.undetected;
  stats.sim_errors += c.sim_errors;
}

/// Fraction of the library that is detected (either kind).  Empty input is
/// 0 coverage.
inline double coverage(const std::vector<Verdict>& verdicts) {
  if (verdicts.empty()) return 0.0;
  return static_cast<double>(count_verdicts(verdicts).detected_total()) /
         static_cast<double>(verdicts.size());
}

/// Legacy overload for plain detected/undetected flag vectors (hand-built
/// verdicts in benches and tests).
inline double coverage(const std::vector<bool>& detected) {
  if (detected.empty()) return 0.0;
  std::size_t n = 0;
  for (bool d : detected) n += d;
  return static_cast<double>(n) / static_cast<double>(detected.size());
}

}  // namespace xtest::sim
