// Defect-simulation campaigns (Fig. 9 of the paper).
//
// A campaign takes a defect library for one bus, applies each defect to the
// system, executes a self-test program at speed, and compares the
// tester-visible responses against the gold run.  Because the *whole*
// program executes under the defect, fault masking and incidental
// activations are accounted for, exactly as the paper argues.
//
// Campaigns are resilient: per-defect verdicts carry the full taxonomy of
// sim/verdict.h, a defect whose simulation throws is retried once serially
// and, should that throw too, quarantined as kSimError instead of aborting
// the sweep, and a checkpoint file lets an interrupted campaign resume
// with bitwise-identical results at any thread count.
//
// One engine (campaign.cpp) runs every campaign, off-line and on-line
// (sim/online.h).  It owns the slot bookkeeping -- checkpoint restore and
// record, shard ownership, cancellation, quarantine, progress and stats --
// and a per-defect policy says what one slot is: the whole-program run
// here, the interleaved schedule on-line.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sbst/generator.h"
#include "sbst/program.h"
#include "sim/signature.h"
#include "sim/verdict.h"
#include "soc/system.h"
#include "util/parallel.h"
#include "xtalk/defect.h"

namespace xtest::sim {

/// The parameters of the paper's defect library for one of the system's
/// buses: `count` defects from `seed`, Gaussian perturbation with
/// `sigma_pct`, acceptance at the system's calibrated Cth for that bus.
xtalk::DefectConfig defect_config(const soc::SystemConfig& config,
                                  soc::BusKind bus, std::size_t count,
                                  std::uint64_t seed, double sigma_pct = 50.0);

/// Generates the library defect_config describes, on `parallel`'s threads
/// (the same library at every thread count); `progress` as for
/// xtalk::DefectLibrary::generate.
xtalk::DefectLibrary make_defect_library(
    const soc::SystemConfig& config, soc::BusKind bus, std::size_t count,
    std::uint64_t seed, double sigma_pct = 50.0,
    const util::ParallelConfig& parallel = {},
    const std::function<void()>& progress = {});

/// Thrown when a campaign is cancelled cooperatively (operator SIGINT /
/// SIGTERM via CampaignOptions::cancel, or fault-injection site
/// "campaign.kill" / "campaign.crash").  On the graceful path the final
/// checkpoint has already been flushed when this escapes, so the run is
/// resumable; the CLI maps it to its own exit code so wrappers can tell
/// "interrupted, resumable" from failure.
struct CampaignInterrupted : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One slice of a sharded campaign: shard `index` of `count` owns every
/// defect whose library index is congruent to it modulo `count`.  The
/// assignment is a pure function of (defect index, count) -- independent
/// of thread count and checkpoint schedule -- so any process
/// can compute which slots any shard owns, and taking every slot from its
/// owner recombines the shards into exactly the single-process result.
/// The default {0, 1} owns everything (an unsharded campaign).
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  bool owns(std::size_t defect_index) const {
    return count <= 1 || defect_index % count == index;
  }
  /// Number of defects this shard owns out of a library of `n`.
  std::size_t owned_of(std::size_t n) const {
    if (count <= 1) return n;
    return n / count + (index < n % count ? 1 : 0);
  }
  bool operator==(const ShardSpec&) const = default;
};

/// Resilience and scheduling knobs for one campaign call.  Every member
/// has a default member initializer, so a designated initializer names
/// only the members it sets.
struct CampaignOptions {
  /// Faulty-run cycle budget = gold cycles * cycle_factor + 1000; a run
  /// exhausting it is a tester timeout (kDetectedByTimeout).  This budget
  /// is the campaign's only timeout.
  std::uint64_t cycle_factor = 16;
  util::ParallelConfig parallel;
  /// When non-null the campaign's counters are *added* onto it (sessions
  /// and sweeps accumulate).
  util::CampaignStats* stats = nullptr;
  /// Non-empty enables checkpointing: completed verdicts are periodically
  /// flushed to this file (atomic write-tmp-then-rename) and restored on
  /// the next run with the same file.  run_detection writes section
  /// "campaign", the session entry points one "session<i>" per session.
  std::string checkpoint_path{};
  /// Campaign identity guard stored in the checkpoint; resuming with a
  /// different key throws.  Required with checkpoint_path (the campaign
  /// throws std::invalid_argument without one): ScenarioSpec::checkpoint_key
  /// names every verdict-relevant input, default_checkpoint_key only the
  /// bus and library.
  std::string checkpoint_key{};
  /// Cooperative cancellation: when non-null and set, workers stop picking
  /// up new defects, the checkpoint is flushed, and the campaign throws
  /// CampaignInterrupted.  Wire a signal handler's flag here for graceful
  /// SIGINT/SIGTERM shutdown.
  const std::atomic<bool>* cancel = nullptr;
  /// Shard of the library this call simulates (default: all of it).
  /// Non-owned slots are never simulated, checkpointed, or tallied into
  /// stats; they stay default-outcome placeholders in the returned vector.
  ShardSpec shard{};
  /// When non-null, called after every newly completed verdict (simulated
  /// or retried) -- the worker-process heartbeat hook.  May be invoked
  /// concurrently from several worker threads; must not throw.
  std::function<void()> progress{};
};

/// Runs `program` under every defect of `library` applied to `bus`.
/// Returns one Verdict per defect.
///
/// The gold run is simulated once per call.  Defects then fan out across
/// `options.parallel.resolve(library.size())` workers, each owning its own
/// soc::System; verdicts are written by defect index, so the result is
/// bitwise identical for every thread count (threads = 1 is the exact
/// serial path) and for any interrupt/resume schedule.
std::vector<Verdict> run_detection(const soc::SystemConfig& config,
                                   const sbst::TestProgram& program,
                                   soc::BusKind bus,
                                   const xtalk::DefectLibrary& library,
                                   const CampaignOptions& options = {});

/// Detection by a *set* of programs (multi-session): per-session verdicts
/// are merged with merge_verdicts (a defect is detected when any session
/// detects it).  With checkpointing enabled each session gets its own
/// section ("session<i>") in the same file.
std::vector<Verdict> run_detection_sessions(
    const soc::SystemConfig& config,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options = {});

/// Default checkpoint identity for a (bus, library) pair; a campaign
/// resumed against a different bus, size, seed, sigma, or Cth is rejected.
/// The DefectConfig form names a library without generating it.
std::string default_checkpoint_key(soc::BusKind bus,
                                   const xtalk::DefectConfig& library);
inline std::string default_checkpoint_key(
    soc::BusKind bus, const xtalk::DefectLibrary& library) {
  return default_checkpoint_key(bus, library.config());
}

/// Fig. 11: individual and cumulative defect coverage of the MA tests for
/// each interconnect of a bus.  "The MA test for interconnect i" is the
/// mini-program applying line i's MAF set (4 per direction); individual
/// coverage is its detection rate over the library, cumulative is the
/// union over lines 1..i, `overall` is the full single-session program.
struct PerLineCoverage {
  std::vector<double> individual;
  std::vector<double> cumulative;
  /// Number of line-i MA tests actually placed (0 placed => 0 coverage).
  std::vector<std::size_t> tests_placed;
  double overall = 0.0;
  std::size_t library_size = 0;
};

PerLineCoverage per_line_coverage(const soc::SystemConfig& config,
                                  soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const sbst::GeneratorConfig& base_config,
                                  const CampaignOptions& options = {});

}  // namespace xtest::sim
