// Crash-isolated sharded campaigns: shard assignment and merge, stats
// raw-counter merging, tag-aware checkpoint tmp cleanup, and the
// Supervisor's worker-process lifecycle (spawn retry, heartbeat-timeout
// kills, crash/respawn/resume, quarantine after exhausted retries), off-line
// and on-line.
//
// The Supervisor.* tests spawn the real xtest binary (XTEST_BINARY_PATH,
// injected by CMake) as worker processes against a scenario file written
// to the test temp dir -- the same wire format the CLI uses.

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "sim/online.h"
#include "sim/supervisor.h"
#include "sim/verdict.h"
#include "spec/scenario.h"
#include "util/fault_injector.h"
#include "util/parallel.h"

namespace xtest::sim {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  f << text;
  ASSERT_TRUE(f.good()) << path;
}

// A small single-session data-bus campaign: big enough that every shard
// of up to 4 owns work, small enough that a worker process finishes in
// well under a second.
spec::ScenarioSpec worker_spec(std::size_t defects) {
  spec::ScenarioSpec s;
  s.name = "supervisor-test";
  s.bus = soc::BusKind::kData;
  s.defect_count = defects;
  s.max_sessions = 1;
  s.threads = 1;
  return s;
}

std::vector<Verdict> serial_verdicts(const spec::ScenarioSpec& s,
                                     util::CampaignStats* stats = nullptr) {
  util::CampaignStats local;
  CampaignOptions opts = s.campaign_options(stats != nullptr ? stats : &local);
  return run_detection_sessions(s.system, s.make_sessions(), s.bus,
                                s.make_library(), opts);
}

// The on-line twin of worker_spec: the default interleaved schedule over
// the same small single-session campaign.
spec::ScenarioSpec online_worker_spec(std::size_t defects) {
  spec::ScenarioSpec s = worker_spec(defects);
  s.online.enabled = true;
  return s;
}

OnlineResult serial_outcomes(const spec::ScenarioSpec& s,
                             util::CampaignStats& stats) {
  return run_online_detection_sessions(s.system, s.online, s.make_sessions(),
                                       s.bus, s.make_library(),
                                       s.campaign_options(&stats));
}

// Builds the SupervisorJob for `spec` exactly like the CLI does: scenario
// file as the job wire format, per-shard checkpoints under a unique base.
// Cleans its files up on destruction (and stale shard checkpoints from a
// previous failed run on construction).
struct SupervisorFixture {
  spec::ScenarioSpec spec;
  std::string base;
  SupervisorJob job;

  SupervisorFixture(spec::ScenarioSpec s, const std::string& tag,
                    std::string fault_spec = "")
      : spec(std::move(s)), base(temp_path("xtest_sup_" + tag + ".ckpt")) {
    remove_shard_files();
    job.binary = XTEST_BINARY_PATH;
    job.scenario_path = base + ".job.scn";
    job.defect_count = spec.defect_count;
    job.sections = {"session0"};
    job.checkpoint_key = spec.checkpoint_key();
    job.online = spec.online.enabled;
    job.checkpoint_base = base;
    job.fault_spec = std::move(fault_spec);
    write_file(job.scenario_path, spec::serialize_scenario(spec));
  }

  ~SupervisorFixture() {
    std::error_code ec;
    fs::remove(job.scenario_path, ec);
    remove_shard_files();
  }

  void remove_shard_files() {
    std::error_code ec;
    for (std::size_t k = 0; k < 16; ++k)
      fs::remove(Supervisor::shard_checkpoint_path(base, k), ec);
  }
};

// Arms the process-wide injector (supervisor.* sites fire in the parent,
// i.e. in this test process) and guarantees disarm on scope exit.
struct GlobalFaults {
  explicit GlobalFaults(const std::string& spec) {
    util::FaultInjector::global().configure(spec);
  }
  ~GlobalFaults() { util::FaultInjector::global().disarm(); }
};

// ---------------------------------------------------------------------------
// Shard assignment.

TEST(ShardSpec, OwnershipPartitionsTheLibrary) {
  constexpr std::size_t kDefects = 13;
  for (std::size_t count = 1; count <= 5; ++count) {
    std::size_t owned_total = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const ShardSpec shard{k, count};
      std::size_t owned = 0;
      for (std::size_t i = 0; i < kDefects; ++i) {
        // Exactly one shard owns each index.
        std::size_t owners = 0;
        for (std::size_t j = 0; j < count; ++j)
          owners += ShardSpec{j, count}.owns(i) ? 1 : 0;
        EXPECT_EQ(owners, 1u) << "index " << i << " count " << count;
        owned += shard.owns(i) ? 1 : 0;
      }
      EXPECT_EQ(owned, shard.owned_of(kDefects))
          << "shard " << k << "/" << count;
      owned_total += owned;
    }
    EXPECT_EQ(owned_total, kDefects);
  }
}

TEST(ShardSpec, TrivialShardOwnsEverything) {
  const ShardSpec all;  // {0, 1}
  EXPECT_TRUE(all.owns(0));
  EXPECT_TRUE(all.owns(999));
  EXPECT_EQ(all.owned_of(42), 42u);
}

// ---------------------------------------------------------------------------
// In-process shard/merge equivalence.

TEST(ShardMerge, ShardedRunsMergeToTheSerialResultBitwise) {
  const spec::ScenarioSpec s = worker_spec(12);
  util::CampaignStats serial_stats;
  const std::vector<Verdict> serial = serial_verdicts(s, &serial_stats);

  for (const std::size_t count : {2u, 4u}) {
    // Slot i comes from shard i mod count; stats sum with merge_from.
    std::vector<Verdict> merged(serial.size());
    util::CampaignStats merged_stats;
    for (std::size_t k = 0; k < count; ++k) {
      util::CampaignStats shard_stats;
      CampaignOptions opts = s.campaign_options(&shard_stats);
      opts.shard = {k, count};
      const std::vector<Verdict> part = run_detection_sessions(
          s.system, s.make_sessions(), s.bus, s.make_library(), opts);
      for (std::size_t i = k; i < part.size(); i += count) merged[i] = part[i];
      merged_stats.merge_from(shard_stats);
    }
    EXPECT_EQ(merged, serial) << count << " shards";
    // The verdict breakdown is a raw-counter sum over shards and must
    // reproduce the serial breakdown exactly.
    EXPECT_EQ(merged_stats.detected, serial_stats.detected);
    EXPECT_EQ(merged_stats.detected_by_timeout,
              serial_stats.detected_by_timeout);
    EXPECT_EQ(merged_stats.undetected, serial_stats.undetected);
    EXPECT_EQ(merged_stats.sim_errors, serial_stats.sim_errors);
    // Only shard 0 books the gold runs, so cycles sum exactly too; so do
    // the head cycles the defect runs took from the gold runs.
    EXPECT_EQ(merged_stats.simulated_cycles, serial_stats.simulated_cycles);
    EXPECT_GT(serial_stats.gold_prefix_cycles, 0u);
    EXPECT_EQ(merged_stats.gold_prefix_cycles,
              serial_stats.gold_prefix_cycles);
  }
}

// ---------------------------------------------------------------------------
// Stats merging: raw counters sum; ratios recompute from the sums.

TEST(CampaignStatsMerge, RatiosRecomputeFromMergedRawCounters) {
  util::CampaignStats a;
  a.defects_simulated = 90;
  a.wall_seconds = 1.5;  // 60 defects/s over 1.5 s
  a.threads = 2;
  a.detected = 7;
  a.error_log = {"defect 3: boom"};

  a.library_seconds = 0.25;
  a.gold_seconds = 0.125;

  util::CampaignStats b;
  b.defects_simulated = 10;
  b.wall_seconds = 0.5;  // 20 defects/s over only 0.5 s
  b.threads = 4;
  b.detected = 2;
  b.error_log = {"defect 8: bang"};
  b.gold_prefix_cycles = 640;
  b.library_seconds = 0.5;
  b.program_seconds = 0.0625;
  b.gold_seconds = 0.25;
  b.simulate_seconds = 0.375;
  b.checkpoint_seconds = 0.03125;

  a.merge_from(b);

  // (90 + 10) / (1.5 + 0.5), NOT the mean of 60 and 20: the long shard
  // dominates because the merge sums raw counters.
  EXPECT_DOUBLE_EQ(a.defects_per_second(), 100.0 / 2.0);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 2.0);
  EXPECT_EQ(a.threads, 4u);
  EXPECT_EQ(a.detected, 9u);
  ASSERT_EQ(a.error_log.size(), 2u);
  EXPECT_EQ(a.error_log[1], "defect 8: bang");
  // The phase timers sum across workers, like wall_seconds.
  EXPECT_EQ(a.gold_prefix_cycles, 640u);
  EXPECT_DOUBLE_EQ(a.library_seconds, 0.75);
  EXPECT_DOUBLE_EQ(a.program_seconds, 0.0625);
  EXPECT_DOUBLE_EQ(a.gold_seconds, 0.375);
  EXPECT_DOUBLE_EQ(a.simulate_seconds, 0.375);
  EXPECT_DOUBLE_EQ(a.checkpoint_seconds, 0.03125);
}

TEST(CampaignStatsMerge, JsonLineRoundTripsThroughParse) {
  util::CampaignStats st;
  st.defects_simulated = 120;
  st.simulated_cycles = 987654;
  st.wall_seconds = 1.25;
  st.threads = 3;
  st.detected = 70;
  st.detected_by_timeout = 5;
  st.undetected = 40;
  st.sim_errors = 5;
  st.retries = 2;
  st.restored_from_checkpoint = 11;
  st.salvaged_sections = 1;
  st.dropped_slots = 4;
  st.flush_failures = 1;
  st.gold_prefix_cycles = 456789;
  st.library_seconds = 0.5;
  st.program_seconds = 0.015625;
  st.gold_seconds = 0.125;
  st.simulate_seconds = 0.75;
  st.checkpoint_seconds = 0.0625;

  util::CampaignStats got;
  ASSERT_TRUE(util::parse_stats_json(st.json("roundtrip"), got));
  EXPECT_EQ(got.defects_simulated, st.defects_simulated);
  EXPECT_EQ(got.simulated_cycles, st.simulated_cycles);
  EXPECT_NEAR(got.wall_seconds, st.wall_seconds, 1e-9);
  EXPECT_EQ(got.threads, st.threads);
  EXPECT_EQ(got.detected, st.detected);
  EXPECT_EQ(got.detected_by_timeout, st.detected_by_timeout);
  EXPECT_EQ(got.undetected, st.undetected);
  EXPECT_EQ(got.sim_errors, st.sim_errors);
  EXPECT_EQ(got.retries, st.retries);
  EXPECT_EQ(got.restored_from_checkpoint, st.restored_from_checkpoint);
  EXPECT_EQ(got.salvaged_sections, st.salvaged_sections);
  EXPECT_EQ(got.dropped_slots, st.dropped_slots);
  EXPECT_EQ(got.flush_failures, st.flush_failures);
  EXPECT_EQ(got.gold_prefix_cycles, st.gold_prefix_cycles);
  EXPECT_NEAR(got.library_seconds, st.library_seconds, 1e-9);
  EXPECT_NEAR(got.program_seconds, st.program_seconds, 1e-9);
  EXPECT_NEAR(got.gold_seconds, st.gold_seconds, 1e-9);
  EXPECT_NEAR(got.simulate_seconds, st.simulate_seconds, 1e-9);
  EXPECT_NEAR(got.checkpoint_seconds, st.checkpoint_seconds, 1e-9);
}

TEST(CampaignStatsMerge, ParseRejectsLinesWithoutAStatsObject) {
  util::CampaignStats out;
  EXPECT_FALSE(util::parse_stats_json("no json here", out));
  EXPECT_FALSE(util::parse_stats_json("{\"unrelated\": 1}", out));
}

// ---------------------------------------------------------------------------
// Tag-aware checkpoint tmp cleanup (concurrent per-shard writers).

TEST(CheckpointTags, StaleTmpCleanupOnlyTouchesItsOwnTag) {
  const std::string path = temp_path("tagged.ckpt");
  std::error_code ec;
  fs::remove(path, ec);
  const std::string untagged_tmp = path + ".tmp.12345";
  const std::string s0_tmp = path + ".tmp.s0.23456";
  const std::string s1_tmp = path + ".tmp.s1.34567";
  write_file(untagged_tmp, "torn write\n");
  write_file(s0_tmp, "torn write\n");
  write_file(s1_tmp, "torn write\n");

  // Shard 0's checkpoint cleans only shard 0's stale tmps: the untagged
  // one and shard 1's survive.
  { CampaignCheckpoint ck(path, "key", 32, "s0"); }
  EXPECT_FALSE(fs::exists(s0_tmp));
  EXPECT_TRUE(fs::exists(untagged_tmp));
  EXPECT_TRUE(fs::exists(s1_tmp));

  // An untagged checkpoint cleans only untagged tmps.
  { CampaignCheckpoint ck(path, "key"); }
  EXPECT_FALSE(fs::exists(untagged_tmp));
  EXPECT_TRUE(fs::exists(s1_tmp));

  { CampaignCheckpoint ck(path, "key", 32, "s1"); }
  EXPECT_FALSE(fs::exists(s1_tmp));
  fs::remove(path, ec);
}

TEST(CheckpointTags, CrashBetweenFsyncAndRenameResumesFromLastRename) {
  const std::string path = temp_path("fsync_crash.ckpt");
  std::error_code ec;
  fs::remove(path, ec);

  // A worker flushes two verdicts durably (tmp + fsync + rename)...
  {
    CampaignCheckpoint ck(path, "key", 1, "s0");
    ck.restore("session0", 4);
    ck.record("session0", 0, Verdict::kDetected);
    ck.record("session0", 2, Verdict::kUndetected);
  }
  // ...then dies after fsync of the NEXT flush but before its rename: the
  // in-flight tmp is left behind with state the rename never published.
  const std::string orphan = path + ".tmp.s0.99999";
  write_file(orphan, "newer state that never got renamed\n");

  // The respawned worker removes the orphan and resumes from the last
  // *renamed* checkpoint -- the two published verdicts, nothing more.
  CampaignCheckpoint ck(path, "key", 1, "s0");
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_EQ(ck.salvage().dropped_slots, 0u);
  const auto slots = ck.restore("session0", 4);
  ASSERT_EQ(slots.size(), 4u);
  EXPECT_EQ(slots[0], Verdict::kDetected);
  EXPECT_FALSE(slots[1].has_value());
  EXPECT_EQ(slots[2], Verdict::kUndetected);
  EXPECT_FALSE(slots[3].has_value());
  fs::remove(path, ec);
}

// ---------------------------------------------------------------------------
// Supervisor process tests (spawn the real xtest binary as workers).

TEST(Supervisor, SupervisedRunMatchesSerialBitwise) {
  const spec::ScenarioSpec s = worker_spec(10);
  util::CampaignStats serial_stats;
  const std::vector<Verdict> serial = serial_verdicts(s, &serial_stats);

  SupervisorFixture fx(s, "serial_match");
  SupervisorOptions opt;
  opt.workers = 3;
  SupervisorResult r = Supervisor(fx.job, opt).run();

  EXPECT_EQ(r.verdicts, serial);
  EXPECT_FALSE(r.degraded());
  EXPECT_EQ(r.respawns, 0u);
  EXPECT_GT(r.heartbeats, 0u);
  ASSERT_EQ(r.shards.size(), 3u);
  for (const ShardOutcome& sh : r.shards) {
    EXPECT_EQ(sh.spawns, 1u) << "shard " << sh.shard;
    EXPECT_FALSE(sh.quarantined) << "shard " << sh.shard;
  }
  // The merged breakdown reproduces the single-process campaign's.
  EXPECT_EQ(r.stats.detected, serial_stats.detected);
  EXPECT_EQ(r.stats.detected_by_timeout, serial_stats.detected_by_timeout);
  EXPECT_EQ(r.stats.undetected, serial_stats.undetected);
  EXPECT_EQ(r.stats.sim_errors, serial_stats.sim_errors);
}

TEST(Supervisor, OnlineRunMatchesInProcessOutcomes) {
  const spec::ScenarioSpec s = online_worker_spec(10);
  util::CampaignStats serial_stats;
  const OnlineResult serial = serial_outcomes(s, serial_stats);

  for (const std::size_t workers : {1u, 3u}) {
    SupervisorFixture fx(s, "online_match_w" + std::to_string(workers));
    SupervisorOptions opt;
    opt.workers = workers;
    const SupervisorResult r = Supervisor(fx.job, opt).run();

    EXPECT_FALSE(r.degraded()) << workers << " workers";
    EXPECT_EQ(r.outcomes, serial.outcomes) << workers << " workers";
    EXPECT_EQ(r.verdicts, serial.verdicts) << workers << " workers";
    EXPECT_EQ(r.stats.online_rounds, serial_stats.online_rounds);
    EXPECT_EQ(r.stats.online_mmio_heartbeats,
              serial_stats.online_mmio_heartbeats);
    EXPECT_EQ(r.stats.online_deadlines_late,
              serial_stats.online_deadlines_late);
    EXPECT_EQ(r.stats.online_deadlines_missed,
              serial_stats.online_deadlines_missed);
    EXPECT_EQ(r.stats.online_detection_latency_cycles,
              serial_stats.online_detection_latency_cycles);
    EXPECT_EQ(r.stats.online_latency_samples,
              serial_stats.online_latency_samples);
  }
}

TEST(Supervisor, ChaosKillsLandAndResumeToTheInProcessVerdicts) {
  // Chaos kills are due on a worker's heartbeats since its spawn, not on
  // wall time: a 12-defect campaign finishes in milliseconds, and a kill
  // due within half of a shard's verdicts (here the first three beats)
  // still finds the worker running.  Every kill resumes from the shard
  // checkpoint to the in-process verdicts.
  const spec::ScenarioSpec s = worker_spec(12);
  const std::vector<Verdict> serial = serial_verdicts(s);

  SupervisorFixture fx(s, "chaos_kills");
  SupervisorOptions opt;
  opt.workers = 2;
  opt.chaos_seed = 12;
  opt.chaos_max_kills = 4;
  const SupervisorResult r = Supervisor(fx.job, opt).run();

  EXPECT_GE(r.chaos_kills, 1u);
  EXPECT_LE(r.chaos_kills, 4u);
  EXPECT_GE(r.respawns, r.chaos_kills);
  EXPECT_FALSE(r.degraded());
  EXPECT_EQ(r.verdicts, serial);
}

TEST(Supervisor, MoreWorkersThanDefectsLeavesEmptyShardsHealthy) {
  const spec::ScenarioSpec s = worker_spec(3);
  const std::vector<Verdict> serial = serial_verdicts(s);

  SupervisorFixture fx(s, "empty_shards");
  SupervisorOptions opt;
  opt.workers = 5;  // shards 3 and 4 own zero defects
  SupervisorResult r = Supervisor(fx.job, opt).run();

  EXPECT_EQ(r.verdicts, serial);
  EXPECT_FALSE(r.degraded());
  EXPECT_EQ(r.shards.size(), 5u);
}

TEST(Supervisor, CrashingWorkersResumeFromCheckpointProgress) {
  const spec::ScenarioSpec s = worker_spec(8);
  // At 8 slots the checkpoint flushes after every verdict, so each doomed
  // attempt still publishes durable progress before worker.exit kills it
  // on its 3rd verdict -- progress refills the retry budget, so the
  // shards converge no matter how many attempts it takes.
  const std::vector<Verdict> serial = serial_verdicts(s);

  SupervisorFixture fx(s, "crash_resume", "worker.exit@3");
  SupervisorOptions opt;
  opt.workers = 2;
  opt.worker_backoff_ms = 1;
  SupervisorResult r = Supervisor(fx.job, opt).run();

  EXPECT_EQ(r.verdicts, serial);
  EXPECT_FALSE(r.degraded());
  EXPECT_GE(r.respawns, 1u);
  EXPECT_GT(r.stats.restored_from_checkpoint, 0u);
}

TEST(Supervisor, RetriesExhaustedQuarantinesTheShard) {
  const spec::ScenarioSpec s = worker_spec(6);
  // Every flush fails: every attempt dies on its first verdict with
  // nothing durable, so there is never progress to refill the budget.
  SupervisorFixture fx(s, "quarantine", "worker.exit@1,checkpoint.rename");
  SupervisorOptions opt;
  opt.workers = 2;
  opt.worker_retries = 1;
  opt.worker_backoff_ms = 1;
  SupervisorResult r = Supervisor(fx.job, opt).run();

  // Graceful degradation: the run completes (no throw), both shards are
  // quarantined, every unrecovered defect reads kSimError, and each shard
  // leaves one error_log entry behind.
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.quarantined().size(), 2u);
  ASSERT_EQ(r.verdicts.size(), 6u);
  for (const Verdict v : r.verdicts) EXPECT_EQ(v, Verdict::kSimError);
  EXPECT_EQ(r.stats.sim_errors, 6u);
  EXPECT_EQ(r.stats.error_log.size(), 2u);
  // worker_retries = 1 means exactly 2 spawns per shard: the first
  // attempt plus one progress-less retry.
  for (const ShardOutcome& sh : r.shards) EXPECT_EQ(sh.spawns, 2u);
}

TEST(Supervisor, OnlineRetriesExhaustedQuarantinesTheShard) {
  const spec::ScenarioSpec s = online_worker_spec(6);

  SupervisorFixture fx(s, "online_quarantine",
                       "worker.exit@1,checkpoint.rename");
  SupervisorOptions opt;
  opt.workers = 2;
  opt.worker_retries = 1;
  opt.worker_backoff_ms = 1;
  SupervisorResult r = Supervisor(fx.job, opt).run();

  // The on-line result degrades like the off-line one: every unrecovered
  // outcome is a bare kSimError, with the same tally and error_log.
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.quarantined().size(), 2u);
  ASSERT_EQ(r.outcomes.size(), 6u);
  OnlineOutcome sim_error;
  sim_error.verdict = Verdict::kSimError;
  for (const OnlineOutcome& o : r.outcomes) EXPECT_EQ(o, sim_error);
  EXPECT_EQ(r.verdicts, std::vector<Verdict>(6, Verdict::kSimError));
  EXPECT_EQ(r.stats.sim_errors, 6u);
  EXPECT_EQ(r.stats.error_log.size(), 2u);
}

TEST(Supervisor, SpawnFailureIsRetriedWithBackoff) {
  const spec::ScenarioSpec s = worker_spec(6);
  const std::vector<Verdict> serial = serial_verdicts(s);

  SupervisorFixture fx(s, "spawn_retry");
  // supervisor.spawn fires in THIS process: the first spawn attempt fails
  // synthetically and must be retried after backoff.
  GlobalFaults faults("supervisor.spawn@1");
  SupervisorOptions opt;
  opt.workers = 2;
  opt.worker_backoff_ms = 1;
  SupervisorResult r = Supervisor(fx.job, opt).run();

  EXPECT_EQ(r.verdicts, serial);
  EXPECT_FALSE(r.degraded());
  EXPECT_GE(r.respawns, 1u);
  EXPECT_EQ(util::FaultInjector::global().fired("supervisor.spawn"), 1u);
}

TEST(Supervisor, HeartbeatLossRacesNormalExitAndStaysClean) {
  const spec::ScenarioSpec s = worker_spec(8);
  const std::vector<Verdict> serial = serial_verdicts(s);

  SupervisorFixture fx(s, "hb_race");
  // The first received heartbeat batch is treated as lost, expiring that
  // worker's deadline immediately.  The SIGKILL then *races* the worker's
  // own completion: either the kill lands mid-campaign (failure path,
  // respawn, resume from checkpoint) or the worker exits 0 first and the
  // reap path must honor the clean exit despite the pending kill intent.
  // Both outcomes must end in the serial verdicts with no quarantine.
  GlobalFaults faults("supervisor.heartbeat@1");
  SupervisorOptions opt;
  opt.workers = 2;
  opt.worker_backoff_ms = 1;
  SupervisorResult r = Supervisor(fx.job, opt).run();

  EXPECT_EQ(r.verdicts, serial);
  EXPECT_FALSE(r.degraded());
  EXPECT_EQ(util::FaultInjector::global().fired("supervisor.heartbeat"), 1u);
}

}  // namespace
}  // namespace xtest::sim
