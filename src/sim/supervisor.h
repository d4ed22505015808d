// Crash-isolated sharded campaign execution.
//
// A Supervisor runs one campaign as N worker *processes*, each owning the
// shard of the defect library congruent to its index mod N
// (sim::ShardSpec), each writing its own v2 CRC-checkpoint.  Workers are
// re-executions of this very binary ("<xtest> campaign --scenario <job>
// --shard k/N --checkpoint <per-shard path> --stats-json
// --heartbeat-fd 3"), so the job description travels as a scenario file
// -- the same wire format `xtest scenarios --dump` emits.
//
// The parent monitors a pipe-based heartbeat per worker (one byte per
// completed verdict, plus one on startup); inside the worker, every
// simulation is bounded by the tester's cycle budget.  A worker that exits
// nonzero, dies on a signal, or goes silent for 30 s is SIGKILLed (if
// needed) and respawned with exponential backoff; durable progress --
// the shard checkpoint's content changing between failures -- resets the
// retry budget, so a worker that keeps moving is never quarantined no
// matter how often it is killed.  A shard that exhausts its retries
// *without* durable progress is quarantined: its completed verdicts are
// salvaged from the checkpoint, its unfinished defects are reported as
// kSimError with an error_log entry, and the campaign still completes
// (graceful degradation; the CLI maps this to its own exit code).
//
// Because every shard resumes from its own checkpoint and the shard
// assignment is a pure function of the defect index, the merged verdicts
// are bitwise identical to a single-process run for ANY kill schedule
// that does not end in quarantine -- the property the chaos worker-kill
// soak enforces.  Fault-injection sites "supervisor.spawn" (spawn
// attempt fails), "supervisor.heartbeat" (a worker's heartbeat is
// treated as lost) and, in the worker, "worker.exit" (abrupt _Exit mid
// campaign) make the retry/backoff/salvage paths deterministically
// testable.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/verdict.h"
#include "util/parallel.h"

namespace xtest::sim {

/// The campaign one supervisor run executes, described entirely by data
/// a worker process can reconstruct: the scenario file is the job's wire
/// format, the checkpoint key/sections pin the resume identity.
struct SupervisorJob {
  /// Worker executable (normally util::current_executable()).
  std::string binary;
  /// Scenario file handed to every worker via --scenario.  Must describe
  /// the campaign with workers = 0 and shard = 0/1 -- the supervisor
  /// overrides the shard per worker on the command line.
  std::string scenario_path;
  /// Size of the defect library the scenario generates.
  std::size_t defect_count = 0;
  /// Checkpoint sections the campaign writes, in session order
  /// ("session0", "session2", ...): exactly the non-empty sessions the
  /// scenario materializes.
  std::vector<std::string> sections;
  /// Campaign identity (ScenarioSpec::checkpoint_key) shared by all
  /// shards; guards every per-shard file against the wrong campaign.
  std::string checkpoint_key;
  /// The scenario is an on-line one: its checkpoint sections carry full
  /// OnlineOutcomes, and the result carries them too.
  bool online = false;
  /// Per-shard checkpoint files are "<checkpoint_base>.shard<k>".
  std::string checkpoint_base;
  /// Fault-injection spec forwarded verbatim to every worker's --faults
  /// (empty = none).  Worker sites (worker.exit, campaign.*,
  /// checkpoint.*) fire in the workers; supervisor.* sites fire here.
  std::string fault_spec;
};

struct SupervisorOptions {
  /// Worker processes = shard count.
  std::size_t workers = 2;
  /// Respawns granted to a shard between durable-progress events; a
  /// failure with progress since the last one refills the budget.
  std::size_t worker_retries = 3;
  /// Initial respawn backoff; doubles per progress-less failure, capped
  /// at 5 s.
  std::uint64_t worker_backoff_ms = 50;
  /// Chaos mode: when > 0, SIGKILL a random live worker roughly every
  /// this many milliseconds (seeded by chaos_seed, capped at
  /// chaos_max_kills).  Chaos kills are supervisor-inflicted and never
  /// consume the victim's retry budget.
  std::uint64_t chaos_kill_ms = 0;
  std::uint64_t chaos_seed = 0;
  /// 0 = 3 kills per worker.
  std::size_t chaos_max_kills = 0;
  /// Cooperative cancellation (SIGINT/SIGTERM): workers get SIGTERM,
  /// flush their checkpoints, and the run throws CampaignInterrupted --
  /// resumable exactly like a single-process campaign.  The flag is also
  /// honoured *inside* respawn-backoff windows: a cancel during a backoff
  /// wait aborts promptly instead of sleeping the window out.
  const std::atomic<bool>* cancel = nullptr;
  /// When non-null, called from the monitor loop with the number of new
  /// worker heartbeats just drained (a worker beats once at startup, once
  /// per round of library generation and once per completed verdict).
  /// This is how the serve daemon streams live progress for a supervised
  /// job; must not throw.
  std::function<void(std::size_t)> on_progress;
  /// Supervisor event log (spawns, kills, backoff, quarantine); null =
  /// silent.
  std::ostream* log = nullptr;
};

/// Where one shard ended up, for reporting.
struct ShardOutcome {
  std::size_t shard = 0;
  std::size_t spawns = 0;
  bool quarantined = false;
  /// Last exit description ("exit 0", "signal 9 (SIGKILL)", ...).
  std::string last_status;
};

struct SupervisorResult {
  /// Merged verdicts, bitwise identical to a single-process run when no
  /// shard was quarantined.
  std::vector<Verdict> verdicts;
  /// On-line jobs only: the merged per-defect outcomes, folded over
  /// sessions like the in-process campaign (`verdicts` are theirs).
  std::vector<OnlineOutcome> outcomes;
  /// Raw-counter merge of the final attempt of every completed shard
  /// (killed attempts die with their counters); quarantined shards
  /// contribute their salvaged verdict breakdown plus one error_log
  /// entry per shard and kSimError for every unrecovered defect.
  util::CampaignStats stats;
  std::vector<ShardOutcome> shards;
  std::size_t respawns = 0;
  std::size_t chaos_kills = 0;
  std::size_t heartbeats = 0;

  std::vector<std::size_t> quarantined() const {
    std::vector<std::size_t> q;
    for (const ShardOutcome& s : shards)
      if (s.quarantined) q.push_back(s.shard);
    return q;
  }
  bool degraded() const {
    for (const ShardOutcome& s : shards)
      if (s.quarantined) return true;
    return false;
  }
};

class Supervisor {
 public:
  Supervisor(SupervisorJob job, SupervisorOptions options);

  /// Runs the supervised campaign to completion (or quarantine) and
  /// merges the per-shard checkpoints.  Throws CampaignInterrupted on
  /// operator cancellation, std::runtime_error on an unusable job.
  SupervisorResult run();

  /// "<base>.shard<k>" -- the per-shard checkpoint naming contract,
  /// shared with tests and docs.
  static std::string shard_checkpoint_path(const std::string& base,
                                           std::size_t shard);

  /// Removes the per-shard checkpoints of a `workers`-shard run at `base`.
  static void remove_shard_checkpoints(const std::string& base,
                                       std::size_t workers);

 private:
  SupervisorJob job_;
  SupervisorOptions opt_;
};

}  // namespace xtest::sim
