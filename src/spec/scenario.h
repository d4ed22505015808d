// Declarative scenario layer: one spec to drive system, campaign, bench,
// and CLI.
//
// The paper's experiments are a family of *configurations* -- bus
// geometries, Cth ratio, clock-period scaling, defect-library parameters,
// test-program selection (Sections 4-5) -- and before this layer every
// consumer (CLI subcommands, 18 bench binaries, the examples, dozens of
// tests) rebuilt its configuration by hand.  A ScenarioSpec is the single
// value type that fully describes one experiment; consumers materialize
// the pieces they need (system, defect library, program sessions,
// campaign options) from it instead of hand-assembling them.
//
// Scenarios have a line-oriented `key = value` text format:
//
//   # comment
//   name = paper-baseline
//   bus = addr
//   defects = 1000
//   address.wire_length_um = 2000
//   campaign.threads = 4
//
// Unset keys keep their defaults, so a scenario file only states what it
// changes.  serialize_scenario emits every key and parse round-trips it
// exactly: parse_scenario(serialize_scenario(s)) == s for every valid
// spec.  Malformed input fails loudly with the offending 1-based line
// number; the CLI maps SpecParseError to its usage exit code (2) and
// missing files to its I/O exit code (3), reusing the PR 2 taxonomy.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sbst/generator.h"
#include "sim/campaign.h"
#include "sim/supervisor.h"
#include "soc/online.h"
#include "soc/system.h"
#include "util/parallel.h"
#include "xtalk/defect.h"

namespace xtest::spec {

/// Malformed scenario text: unknown key, unparsable value, duplicate key.
/// `line` is the offending 1-based line number (0 = whole-document error,
/// e.g. a validation failure).
struct SpecParseError : std::runtime_error {
  SpecParseError(int line_no, const std::string& message)
      : std::runtime_error(line_no > 0 ? "scenario line " +
                                             std::to_string(line_no) + ": " +
                                             message
                                       : "scenario: " + message),
        line(line_no) {}
  int line;
};

/// Scenario file that cannot be read (distinct from malformed content so
/// the CLI can keep its usage-vs-I/O exit-code split).
struct SpecIoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One fully-described experiment.  Field defaults ARE the paper baseline:
/// a default-constructed ScenarioSpec reproduces the hard-coded
/// configuration every consumer used before this layer existed.
struct ScenarioSpec {
  std::string name = "custom";
  std::string description;

  /// Bus under test for the defect campaign.
  soc::BusKind bus = soc::BusKind::kAddress;

  // Defect-library generation (Fig. 10): count, Gaussian sigma, seed.
  // Acceptance happens at the system's calibrated Cth for `bus`.
  std::size_t defect_count = 200;
  std::uint64_t seed = 20010618;
  double sigma_pct = 50.0;

  /// Electrical configuration: geometries, cth_ratio, clock_period_scale,
  /// and the hot-path knob (fast_receive).
  soc::SystemConfig system;

  /// SBST program selection: bus/test-kind groups, placement order,
  /// compaction group size, usable address space.
  sbst::GeneratorConfig program;

  /// Session splitting (Section 5): at most `max_sessions` greedy
  /// sessions; 1 runs the single greedy session only.
  int max_sessions = 6;

  // Campaign scheduling and resilience (sim::CampaignOptions).
  std::uint64_t cycle_factor = 16;
  unsigned threads = 0;  ///< 0 = auto ($XTEST_THREADS / hardware)
  /// Also run the hardware-BIST baseline over the same library and report
  /// the coverage comparison (the paper's Section 1 argument).
  bool compare_bist = false;
  /// Multi-process execution (campaign.workers): when > 0 the CLI runs
  /// the campaign under a supervisor with this many crash-isolated worker
  /// processes, each owning shard k of `workers` and its own checkpoint;
  /// 0 = in-process (the default).  Mutually exclusive with a non-trivial
  /// `shard_count` -- a worker IS a shard.
  std::size_t workers = 0;
  /// Shard of the defect library this campaign simulates
  /// (campaign.shard = "K/N", sim::ShardSpec): shard K owns every defect
  /// index congruent to K mod N.  The default 0/1 owns everything.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  /// On-line in-field mode (keys `online.*`, soc::OnlineConfig): when
  /// enabled the campaign interleaves self-test slices with a functional
  /// workload and reports detection latency and MMIO interference
  /// (sim/online.h).  Off by default -- the paper baseline is off-line.
  /// Shards and runs under `workers` like an off-line campaign.
  soc::OnlineConfig online;

  bool operator==(const ScenarioSpec&) const = default;

  // --- materializers -----------------------------------------------------

  /// Defect library for `bus` at the system's calibrated Cth, generated
  /// on `threads` threads; `progress` is called once per round of engine
  /// words (xtalk::DefectLibrary::generate).
  xtalk::DefectLibrary make_library(
      const std::function<void()>& progress = {}) const;

  /// The self-test program sessions this scenario selects (at most
  /// `max_sessions`).
  std::vector<sbst::GenerationResult> make_sessions() const;

  /// Campaign options carrying this scenario's scheduling/resilience
  /// fields.  Checkpointing stays per-run (CLI flag), not per-scenario.
  sim::CampaignOptions campaign_options(util::CampaignStats* stats) const;

  /// Checkpoint identity of this scenario's campaign, without generating
  /// its library: sim::default_checkpoint_key of sim::defect_config, then
  /// " key=value" for every scenario key whose value differs from
  /// ScenarioSpec{} and that can change a verdict (the key table's
  /// `keyed` column: not name, description, the hot-path switches,
  /// threads, checkpoint cadence, compare_bist, workers, shard, nor the
  /// library keys bus, defects, seed and sigma_pct), so a
  /// paper-baseline scenario keeps the plain library key and a resume
  /// across any other edit is refused.
  std::string checkpoint_key() const;

  /// Sanity checks a spec must pass before a campaign can run on the
  /// embedded CPU: bus widths must match the architecture (the CPU drives
  /// a 12-bit address / 8-bit data / 3-wire control bus), counts must be
  /// non-zero.  Throws SpecParseError (line 0) naming the violation.
  void validate() const;
};

/// The supervisor job for `spec` (whose `workers` it runs as shards): the
/// worker binary ($XTEST_WORKER_BINARY, else this executable), the
/// checkpoint sections of the spec's live sessions, spec.checkpoint_key,
/// whether it is an on-line campaign, and the worker-facing scenario file
/// `<checkpoint_base>.job.scn` -- the spec with `workers = 0`, so a worker
/// never spawns workers of its own.  The defect library is left to the
/// workers.  The caller owns deleting that file.  Throws SpecIoError when
/// the binary cannot be resolved or the file cannot be written.
sim::SupervisorJob make_supervisor_job(const ScenarioSpec& spec,
                                       const std::string& checkpoint_base,
                                       const std::string& fault_spec);

/// Scenario -> text.  Emits every key in a fixed order, full precision
/// (%.17g for doubles), so parse_scenario round-trips exactly.
std::string serialize_scenario(const ScenarioSpec& spec);

/// Text -> scenario.  Unset keys default; unknown keys, duplicate keys and
/// bad values throw SpecParseError with the 1-based line number.
ScenarioSpec parse_scenario(const std::string& text);

/// Names of the built-in scenarios, in display order.
const std::vector<std::string>& builtin_scenario_names();

/// The built-in with that name, or nullopt.
std::optional<ScenarioSpec> find_builtin(const std::string& name);

/// A built-in by name; throws SpecParseError if it does not exist.  Use
/// this when the name is a compile-time constant (benches, examples).
ScenarioSpec builtin_scenario(const std::string& name);

/// Resolves `name_or_file`: a built-in name wins, otherwise the argument
/// is a scenario file path (SpecIoError when unreadable, SpecParseError
/// when malformed).
ScenarioSpec load_scenario(const std::string& name_or_file);

}  // namespace xtest::spec
