// Defect-simulation campaigns (Fig. 9 of the paper).
//
// A campaign takes a defect library for one bus, applies each defect to the
// system, executes a self-test program at speed, and compares the
// tester-visible responses against the gold run.  Because the *whole*
// program executes under the defect, fault masking and incidental
// activations are accounted for, exactly as the paper argues.
//
// Campaigns are resilient: per-defect verdicts carry the full taxonomy of
// sim/verdict.h, a defect whose simulation throws is quarantined as
// kSimError (optionally retried once serially) instead of aborting the
// sweep, and a checkpoint file lets an interrupted campaign resume with
// bitwise-identical results at any thread count.

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

/// Builds the paper's defect library for one of the system's buses:
/// Gaussian perturbation with `sigma_pct`, acceptance at the system's
/// calibrated Cth for that bus.
xtalk::DefectLibrary make_defect_library(const soc::SystemConfig& config,
                                         soc::BusKind bus, std::size_t count,
                                         std::uint64_t seed,
                                         double sigma_pct = 50.0);

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
/// can compute which slots any shard owns, and merge_shard_results can
/// recombine per-shard verdict vectors into exactly the single-process
/// result.  The default {0, 1} owns everything (an unsharded campaign).
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

/// Resilience and scheduling knobs for one campaign call.
struct CampaignOptions {
  /// Faulty-run cycle budget = gold cycles * cycle_factor + 1000; a run
  /// exhausting it is a tester timeout (kDetectedByTimeout).
  std::uint64_t cycle_factor = 16;
  util::ParallelConfig parallel;
  /// When non-null the campaign's counters are *added* onto it (sessions
  /// and sweeps accumulate).
  util::CampaignStats* stats = nullptr;
  /// Retry a quarantined defect once, serially on the calling thread,
  /// before recording kSimError.
  bool retry_errors = true;
  /// Non-empty enables checkpointing: completed verdicts are periodically
  /// flushed to this file (atomic write-tmp-then-rename) and restored on
  /// the next run with the same file.
  std::string checkpoint_path;
  /// Completed verdicts between automatic checkpoint flushes.
  std::size_t checkpoint_every = 32;
  /// Campaign identity guard stored in the checkpoint; resuming with a
  /// different key throws.  Empty = derived from the bus and library.
  std::string checkpoint_key;
  /// Section name inside the checkpoint file (multi-session campaigns use
  /// one section per session).
  std::string checkpoint_section = "campaign";
  /// Cooperative cancellation: when non-null and set, workers stop picking
  /// up new defects, the checkpoint is flushed, and the campaign throws
  /// CampaignInterrupted.  Wire a signal handler's flag here for graceful
  /// SIGINT/SIGTERM shutdown.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-defect wall-clock watchdog in milliseconds (0 = off): a single
  /// defect simulation exceeding this is quarantined as kSimError instead
  /// of wedging its worker for the whole cycle budget.
  std::uint64_t defect_deadline_ms = 0;
  /// Shard of the library this call simulates (default: all of it).
  /// Non-owned slots are never simulated, checkpointed, or tallied into
  /// stats; they stay kUndetected placeholders in the returned vector, and
  /// merge_shard_results recombines the slices.
  ShardSpec shard;
  /// When non-null, called after every newly completed verdict (simulated
  /// or retried) -- the worker-process heartbeat hook.  May be invoked
  /// concurrently from several worker threads; must not throw.
  std::function<void()> progress;
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
                                   const CampaignOptions& options);

/// Positional convenience overload (pre-resilience call sites).
std::vector<Verdict> run_detection(const soc::SystemConfig& config,
                                   const sbst::TestProgram& program,
                                   soc::BusKind bus,
                                   const xtalk::DefectLibrary& library,
                                   std::uint64_t cycle_factor = 16,
                                   const util::ParallelConfig& parallel = {},
                                   util::CampaignStats* stats = nullptr);

/// Detection by a *set* of programs (multi-session): per-session verdicts
/// are merged with merge_verdicts (a defect is detected when any session
/// detects it).  With checkpointing enabled each session gets its own
/// section ("session<i>") in the same file.
std::vector<Verdict> run_detection_sessions(
    const soc::SystemConfig& config,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options);

std::vector<Verdict> run_detection_sessions(
    const soc::SystemConfig& config,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, std::uint64_t cycle_factor = 16,
    const util::ParallelConfig& parallel = {},
    util::CampaignStats* stats = nullptr);

/// Default checkpoint identity for a (bus, library) pair; a campaign
/// resumed against a different bus, size, seed, sigma, or Cth is rejected.
std::string default_checkpoint_key(soc::BusKind bus,
                                   const xtalk::DefectLibrary& library);

/// One shard's slice of a campaign: the spec it ran under, its full-size
/// verdict vector (non-owned slots are placeholders and ignored by the
/// merge), and its stats.
struct ShardResult {
  ShardSpec shard;
  std::vector<Verdict> verdicts;
  util::CampaignStats stats;
};

/// Recombines per-shard campaign results into the single-process result:
/// verdict i is taken from the shard that owns i, so the merged vector is
/// bitwise identical to an unsharded run of the same campaign; the merged
/// stats are the raw-counter sums (CampaignStats::merge_from), from which
/// every derived ratio recomputes correctly.  Requires a complete,
/// consistent partition -- all shards agreeing on `count` and vector
/// size, with every shard index 0..count-1 present exactly once -- and
/// throws std::invalid_argument naming the violation otherwise.
std::vector<Verdict> merge_shard_results(const std::vector<ShardResult>& shards,
                                         util::CampaignStats* stats = nullptr);

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
                                  std::uint64_t cycle_factor = 16,
                                  const util::ParallelConfig& parallel = {},
                                  util::CampaignStats* stats = nullptr);

}  // namespace xtest::sim
