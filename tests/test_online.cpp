// On-line campaign contract (src/sim/online.h): bitwise determinism
// across thread counts and shards, kill/resume through the on-line
// checkpoint sections, electrical-backend self-consistency, interference
// accounting, and the schedule-keyed checkpoint refusal.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sbst/slice.h"
#include "sim/online.h"
#include "sim/campaign.h"
#include "soc/online.h"
#include "spec/scenario.h"
#include "util/fault_injector.h"
#include "util/parallel.h"
#include "xtalk/electrical.h"

using namespace xtest;

namespace {

struct Fixture {
  soc::SystemConfig config;
  soc::OnlineConfig online;
  sbst::TestProgram program;
  xtalk::DefectLibrary library;
  /// The campaign's checkpoint identity (ScenarioSpec::checkpoint_key).
  std::string key;
};

Fixture make_fixture(std::size_t defects = 24) {
  spec::ScenarioSpec scn;
  scn.max_sessions = 1;
  scn.defect_count = defects;
  scn.online.enabled = true;
  return {scn.system, scn.online, scn.make_sessions()[0].program,
          scn.make_library(), scn.checkpoint_key()};
}

std::string temp_checkpoint(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("xtest_online_") + tag + ".ckpt"))
      .string();
}

struct InjectorGuard {
  ~InjectorGuard() { util::FaultInjector::global().disarm(); }
};

/// online-baseline (every session) on `bus`, with `defects` defects.
spec::ScenarioSpec online_scenario(soc::BusKind bus, std::size_t defects) {
  spec::ScenarioSpec scn = spec::builtin_scenario("online-baseline");
  scn.bus = bus;
  scn.defect_count = defects;
  return scn;
}

/// The global cycles of the gold schedules of `sessions`, stepped through
/// the scheduler directly.
std::uint64_t gold_schedule_cycles(
    const spec::ScenarioSpec& scn,
    const std::vector<sbst::GenerationResult>& sessions) {
  const soc::OnlineWorkload workload = soc::make_default_workload();
  std::uint64_t cycles = 0;
  for (const sbst::GenerationResult& session : sessions) {
    if (session.program.tests.empty()) continue;
    soc::System system(scn.system);
    soc::InterleavedScheduler sched(system, scn.online, workload);
    sbst::ProgramSlice slice(session.program);
    while (!slice.halted()) {
      sched.run_functional_window();
      sched.begin_test_slice();
      const std::uint64_t before = slice.cycles();
      sched.end_test_slice(
          slice.run(system, scn.online.slice_cycles).cycles - before);
    }
    cycles += sched.global_cycles();
  }
  return cycles;
}

/// The verdict tallies, simulated cycles and every on-line counter of two
/// campaigns agree.
void expect_same_counters(const util::CampaignStats& a,
                          const util::CampaignStats& b,
                          const std::string& where) {
  EXPECT_EQ(a.defects_simulated, b.defects_simulated) << where;
  EXPECT_EQ(a.simulated_cycles, b.simulated_cycles) << where;
  EXPECT_EQ(a.detected, b.detected) << where;
  EXPECT_EQ(a.detected_by_timeout, b.detected_by_timeout) << where;
  EXPECT_EQ(a.undetected, b.undetected) << where;
  EXPECT_EQ(a.sim_errors, b.sim_errors) << where;
  EXPECT_EQ(a.online_rounds, b.online_rounds) << where;
  EXPECT_EQ(a.online_mmio_heartbeats, b.online_mmio_heartbeats) << where;
  EXPECT_EQ(a.online_deadlines_late, b.online_deadlines_late) << where;
  EXPECT_EQ(a.online_deadlines_missed, b.online_deadlines_missed) << where;
  EXPECT_EQ(a.online_detection_latency_cycles,
            b.online_detection_latency_cycles)
      << where;
  EXPECT_EQ(a.online_latency_samples, b.online_latency_samples) << where;
}

/// The lowest slot that, in `outcomes`, repeats the detected outcome of a
/// lower slot: a slot whose run is shared with another (equal latencies,
/// rounds and heartbeats are what one shared run gives).
std::size_t first_sharing_member(
    const std::vector<sim::OnlineOutcome>& outcomes) {
  for (std::size_t j = 0; j < outcomes.size(); ++j)
    for (std::size_t i = 0; i < j; ++i)
      if (sim::is_detected(outcomes[j].verdict) && outcomes[i] == outcomes[j])
        return j;
  return outcomes.size();
}

TEST(OnlineCampaign, ThreadCountInvariant) {
  const Fixture s = make_fixture();
  sim::CampaignOptions serial;
  serial.parallel = {1};
  const sim::OnlineResult one = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      serial);
  sim::CampaignOptions four;
  four.parallel = {4};
  const sim::OnlineResult many = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      four);
  EXPECT_EQ(one.verdicts, many.verdicts);
  EXPECT_EQ(one.outcomes, many.outcomes);
  EXPECT_EQ(one.gold, many.gold);
}

TEST(OnlineCampaign, DetectedDefectsCarryLatency) {
  const Fixture s = make_fixture();
  sim::CampaignOptions opts;
  opts.parallel = {1};
  const sim::OnlineResult r = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      opts);
  std::size_t detected = 0;
  for (const sim::OnlineOutcome& o : r.outcomes) {
    if (sim::is_detected(o.verdict)) {
      ++detected;
      EXPECT_GT(o.detection_latency_cycles, 0u);
    } else {
      EXPECT_EQ(o.detection_latency_cycles, 0u);
    }
    EXPECT_GT(o.rounds, 0u);
  }
  EXPECT_GT(detected, 0u);          // the library is not all-benign
  EXPECT_GT(r.gold.rounds, 1u);     // the schedule really interleaves
  EXPECT_GT(r.gold.heartbeats, 0u); // the workload really runs
}

TEST(OnlineCampaign, KillResumeMatchesUninterrupted) {
  const Fixture s = make_fixture();
  util::CampaignStats ref_stats;
  sim::CampaignOptions ref_opts;
  ref_opts.parallel = {1};
  ref_opts.stats = &ref_stats;
  const sim::OnlineResult ref = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      ref_opts);

  const std::string ckpt = temp_checkpoint("kill_resume");
  std::remove(ckpt.c_str());
  util::CampaignStats stats;
  sim::CampaignOptions opts;
  opts.parallel = {2};
  opts.stats = &stats;
  opts.checkpoint_path = ckpt;
  opts.checkpoint_key = s.key;

  InjectorGuard guard;
  util::FaultInjector::global().configure("campaign.kill@5");
  EXPECT_THROW(sim::run_online_detection(s.config, s.online, s.program,
                                         soc::BusKind::kAddress, s.library,
                                         opts),
               sim::CampaignInterrupted);
  util::FaultInjector::global().disarm();

  const sim::OnlineResult resumed = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      opts);
  std::remove(ckpt.c_str());
  EXPECT_EQ(resumed.verdicts, ref.verdicts);
  EXPECT_EQ(resumed.outcomes, ref.outcomes);
  EXPECT_GT(stats.restored_from_checkpoint, 0u);
  // The resumed run reports exactly the uninterrupted aggregates: the
  // interrupted attempt contributed nothing to the on-line sums.
  EXPECT_EQ(stats.online_rounds, ref_stats.online_rounds);
  EXPECT_EQ(stats.online_mmio_heartbeats, ref_stats.online_mmio_heartbeats);
  EXPECT_EQ(stats.online_deadlines_late, ref_stats.online_deadlines_late);
  EXPECT_EQ(stats.online_deadlines_missed,
            ref_stats.online_deadlines_missed);
  EXPECT_EQ(stats.online_detection_latency_cycles,
            ref_stats.online_detection_latency_cycles);
  EXPECT_EQ(stats.online_latency_samples, ref_stats.online_latency_samples);
  EXPECT_EQ(stats.detected, ref_stats.detected);
  EXPECT_EQ(stats.undetected, ref_stats.undetected);
}

TEST(OnlineCampaign, FastPathMatchesTheOracle) {
  // On every bus, at 1 and 4 threads, the fast path (slots resumed from
  // gold's round states, runs shared between slots) gives the outcomes,
  // the gold schedule and every counter of the oracle, which runs every
  // slot's whole schedule from reset: no trajectory, and every defect
  // cycle stepped.
  for (const soc::BusKind bus : {soc::BusKind::kAddress, soc::BusKind::kData,
                                 soc::BusKind::kControl}) {
    const spec::ScenarioSpec scn = online_scenario(bus, 80);
    const auto sessions = scn.make_sessions();
    const auto lib = scn.make_library();
    const std::uint64_t gold = gold_schedule_cycles(scn, sessions);
    soc::SystemConfig oracle_cfg = scn.system;
    oracle_cfg.fast_receive = false;
    for (const unsigned threads : {1u, 4u}) {
      const std::string where =
          soc::to_string(bus) + " threads=" + std::to_string(threads);
      util::CampaignStats fast_stats, oracle_stats;
      sim::CampaignOptions opts = scn.campaign_options(&fast_stats);
      opts.parallel = {threads};
      const sim::OnlineResult fast = sim::run_online_detection_sessions(
          scn.system, scn.online, sessions, bus, lib, opts);
      opts.stats = &oracle_stats;
      const sim::OnlineResult oracle = sim::run_online_detection_sessions(
          oracle_cfg, scn.online, sessions, bus, lib, opts);
      EXPECT_EQ(fast.outcomes, oracle.outcomes) << where;
      EXPECT_EQ(fast.gold, oracle.gold) << where;
      expect_same_counters(fast_stats, oracle_stats, where);
      EXPECT_GT(fast_stats.trajectories, 0u) << where;
      EXPECT_LT(fast_stats.stepped_cycles, oracle_stats.stepped_cycles)
          << where;
      EXPECT_EQ(oracle_stats.trajectories, 0u) << where;
      EXPECT_EQ(oracle_stats.gold_prefix_cycles, 0u) << where;
      EXPECT_EQ(oracle_stats.stepped_cycles,
                oracle_stats.simulated_cycles - gold)
          << where;
    }
  }
}

TEST(OnlineCampaign, SharedRunCountersAreThreadAndShardInvariant) {
  // trajectories, stepped_cycles and gold_prefix_cycles depend only on the
  // slots one call shares, never on the thread count; a slot's gold prefix
  // (the gold round state it resumes from) does not depend on the other
  // slots at all, so the shards' prefixes sum to the unsharded one.
  const spec::ScenarioSpec scn = online_scenario(soc::BusKind::kAddress, 120);
  const auto sessions = scn.make_sessions();
  const auto lib = scn.make_library();
  util::CampaignStats one, four, shards;
  sim::CampaignOptions opts = scn.campaign_options(&one);
  opts.parallel = {1};
  sim::run_online_detection_sessions(scn.system, scn.online, sessions,
                                     scn.bus, lib, opts);
  opts.stats = &four;
  opts.parallel = {4};
  sim::run_online_detection_sessions(scn.system, scn.online, sessions,
                                     scn.bus, lib, opts);
  EXPECT_GT(one.trajectories, 0u);
  EXPECT_GT(one.gold_prefix_cycles, 0u);
  EXPECT_EQ(one.trajectories, four.trajectories);
  EXPECT_EQ(one.stepped_cycles, four.stepped_cycles);
  EXPECT_EQ(one.gold_prefix_cycles, four.gold_prefix_cycles);
  for (std::size_t k = 0; k < 2; ++k) {
    util::CampaignStats part;
    opts.stats = &part;
    opts.shard = {k, 2};
    sim::run_online_detection_sessions(scn.system, scn.online, sessions,
                                       scn.bus, lib, opts);
    shards.merge_from(part);
  }
  EXPECT_EQ(shards.gold_prefix_cycles, one.gold_prefix_cycles);
  EXPECT_EQ(shards.simulated_cycles, one.simulated_cycles);
}

TEST(OnlineCampaign, KillInsideASharedRunResumes) {
  // A serial campaign killed after half its slots, where a slot on each
  // side of the kill shares one run, resumes to the uninterrupted
  // outcomes and counters: the resumed call groups only the slots left.
  const Fixture s = make_fixture(60);
  util::CampaignStats ref_stats;
  sim::CampaignOptions ref_opts;
  ref_opts.parallel = {1};
  ref_opts.stats = &ref_stats;
  const sim::OnlineResult ref = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      ref_opts);
  const std::size_t kill_after = 30;
  bool straddles = false;
  for (std::size_t i = 0; i < kill_after; ++i)
    for (std::size_t j = kill_after; j < ref.outcomes.size(); ++j)
      straddles |= sim::is_detected(ref.outcomes[i].verdict) &&
                   ref.outcomes[i] == ref.outcomes[j];
  ASSERT_TRUE(straddles) << "no shared run spans the kill point";

  const std::string ckpt = temp_checkpoint("kill_shared");
  std::remove(ckpt.c_str());
  util::CampaignStats stats;
  sim::CampaignOptions opts;
  opts.parallel = {1};
  opts.stats = &stats;
  opts.checkpoint_path = ckpt;
  opts.checkpoint_key = s.key;
  InjectorGuard guard;
  util::FaultInjector::global().configure("campaign.kill@" +
                                          std::to_string(kill_after));
  EXPECT_THROW(sim::run_online_detection(s.config, s.online, s.program,
                                         soc::BusKind::kAddress, s.library,
                                         opts),
               sim::CampaignInterrupted);
  util::FaultInjector::global().disarm();
  const std::uint64_t first_trajectories = stats.trajectories;
  opts.parallel = {4};
  const sim::OnlineResult resumed = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      opts);
  std::remove(ckpt.c_str());
  EXPECT_EQ(resumed.outcomes, ref.outcomes);
  EXPECT_EQ(resumed.gold, ref.gold);
  EXPECT_EQ(stats.restored_from_checkpoint, kill_after);
  EXPECT_GT(first_trajectories, 0u);
  EXPECT_GT(stats.trajectories, first_trajectories);
  // The tallies and on-line sums cover the completed call only.
  EXPECT_EQ(stats.online_rounds, ref_stats.online_rounds);
  EXPECT_EQ(stats.online_mmio_heartbeats, ref_stats.online_mmio_heartbeats);
  EXPECT_EQ(stats.online_detection_latency_cycles,
            ref_stats.online_detection_latency_cycles);
  EXPECT_EQ(stats.online_latency_samples, ref_stats.online_latency_samples);
  EXPECT_EQ(stats.detected, ref_stats.detected);
  EXPECT_EQ(stats.undetected, ref_stats.undetected);
}

TEST(OnlineCampaign, FaultOnASharedSlotRetriesItAlone) {
  // parallel.item fails the slot loop's item for a slot that took another
  // slot's shared run; the serial retry runs it alone (gold scan, resume
  // from gold's round state) to the same outcome and cycles.
  const Fixture s = make_fixture(60);
  util::CampaignStats ref_stats;
  sim::CampaignOptions opts;
  opts.parallel = {1};
  opts.stats = &ref_stats;
  const sim::OnlineResult ref = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      opts);
  const std::size_t member = first_sharing_member(ref.outcomes);
  ASSERT_LT(member, ref.outcomes.size()) << "no slot shares a run";
  util::CampaignStats stats;
  opts.stats = &stats;
  InjectorGuard guard;
  // One thread hands the items out in slot order: hit k is slot k - 1.
  util::FaultInjector::global().configure("parallel.item@" +
                                          std::to_string(member + 1));
  const sim::OnlineResult retried = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      opts);
  util::FaultInjector::global().disarm();
  EXPECT_EQ(retried.outcomes, ref.outcomes);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.sim_errors, 0u);
  EXPECT_EQ(stats.simulated_cycles, ref_stats.simulated_cycles);
  EXPECT_EQ(stats.gold_prefix_cycles, ref_stats.gold_prefix_cycles);
}

TEST(OnlineCampaign, ScheduleChangeRejectsStaleCheckpoint) {
  const Fixture s = make_fixture(6);
  const std::string ckpt = temp_checkpoint("key_mismatch");
  std::remove(ckpt.c_str());
  sim::CampaignOptions opts;
  opts.parallel = {1};
  opts.checkpoint_path = ckpt;
  opts.checkpoint_key = s.key;
  sim::run_online_detection(s.config, s.online, s.program,
                            soc::BusKind::kAddress, s.library, opts);
  // A different interleaving schedule, keyed like the CLI keys it.
  spec::ScenarioSpec scn;
  scn.max_sessions = 1;
  scn.defect_count = 6;
  scn.online.enabled = true;
  scn.online.slice_cycles += 128;
  opts.checkpoint_key = scn.checkpoint_key();
  try {
    sim::run_online_detection(s.config, scn.online, s.program,
                              soc::BusKind::kAddress, s.library, opts);
    FAIL() << "stale checkpoint accepted across a schedule change";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("key mismatch"), std::string::npos);
  }
  std::remove(ckpt.c_str());
}

TEST(OnlineCampaign, RetiredCheckpointFormatIsRefusedUntouched) {
  // On-line campaigns checkpoint into the one v2 format now; a file in the
  // separate on-line format of earlier releases is not a checkpoint, so
  // the resume is refused naming the file, and the file is left alone.
  const Fixture s = make_fixture(3);
  const std::string ckpt = temp_checkpoint("old_format");
  // The retired format's magic line, in two pieces so its name survives
  // only as this test's input.
  const std::string text =
      "xtest-online-" "checkpoint v1\n"
      "key bus=addr count=3 seed=20010618 sigma=50 cth=756.48000000000002 "
      "online slice=512 workload=256 deadline=1024\n"
      "crc f4b96088\n"
      "slot session0 0 D 621 1 8 0 0 c73b63bc\n"
      "slot session0 1 D 557 1 8 0 0 76e4bca6\n";
  std::ofstream(ckpt, std::ios::binary) << text;
  sim::CampaignOptions opts;
  opts.parallel = {1};
  opts.checkpoint_path = ckpt;
  opts.checkpoint_key = s.key;
  try {
    sim::run_online_detection(s.config, s.online, s.program,
                              soc::BusKind::kAddress, s.library, opts);
    ADD_FAILURE() << "an old-format on-line checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(ckpt), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("not a checkpoint file"),
              std::string::npos)
        << e.what();
  }
  std::ifstream in(ckpt, std::ios::binary);
  std::ostringstream back;
  back << in.rdbuf();
  EXPECT_EQ(back.str(), text);
  std::remove(ckpt.c_str());
}

TEST(OnlineCampaign, ElectricalBackendsSelfConsistent) {
  for (const xtalk::ElectricalBackend backend :
       {xtalk::ElectricalBackend::kFullSwing,
        xtalk::ElectricalBackend::kLowSwing}) {
    Fixture s = make_fixture(12);
    s.config.electrical.backend = backend;
    // The library is generated against the same electricals the campaign
    // simulates, like ScenarioSpec::make_library does.
    spec::ScenarioSpec scn;
    scn.max_sessions = 1;
    scn.defect_count = 12;
    scn.system.electrical.backend = backend;
    s.library = scn.make_library();
    sim::CampaignOptions opts;
    opts.parallel = {1};
    const sim::OnlineResult a = sim::run_online_detection(
        s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
        opts);
    opts.parallel = {4};
    const sim::OnlineResult b = sim::run_online_detection(
        s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
        opts);
    EXPECT_EQ(a.outcomes, b.outcomes)
        << "backend " << xtalk::to_string(backend);
  }
}

TEST(OnlineCampaign, TightDeadlineShowsInterference) {
  const Fixture s = make_fixture(1);
  soc::OnlineConfig tight = s.online;
  tight.slice_cycles = 512;
  tight.workload_cycles = 64;
  tight.deadline_cycles = 16;  // every test slice blows the deadline
  sim::CampaignOptions opts;
  opts.parallel = {1};
  const sim::OnlineResult r = sim::run_online_detection(
      s.config, tight, s.program, soc::BusKind::kAddress, s.library, opts);
  EXPECT_GT(r.gold.deadlines_late + r.gold.deadlines_missed, 0u);
}

TEST(OnlineCampaign, ShardsMergeToTheUnshardedRun) {
  // The engine shards an on-line campaign like an off-line one: taking
  // slot i from shard i mod 2 gives the unsharded per-defect outcomes,
  // and the shards' stats summed with merge_from give every on-line
  // counter (the gold schedule is booked on shard 0 only), at any thread
  // count.
  spec::ScenarioSpec scn = spec::builtin_scenario("online-baseline");
  scn.defect_count = 13;  // odd: the shards own 7 and 6 defects
  const auto sessions = scn.make_sessions();
  const auto lib = scn.make_library();
  for (const unsigned threads : {1u, 4u}) {
    util::CampaignStats whole_stats;
    sim::CampaignOptions opts = scn.campaign_options(&whole_stats);
    opts.parallel = {threads};
    const sim::OnlineResult whole = sim::run_online_detection_sessions(
        scn.system, scn.online, sessions, scn.bus, lib, opts);

    std::vector<sim::OnlineOutcome> outcomes(lib.size());
    util::CampaignStats merged;
    for (std::size_t k = 0; k < 2; ++k) {
      util::CampaignStats shard_stats;
      opts.stats = &shard_stats;
      opts.shard = {k, 2};
      const sim::OnlineResult part = sim::run_online_detection_sessions(
          scn.system, scn.online, sessions, scn.bus, lib, opts);
      EXPECT_EQ(part.gold, whole.gold);
      for (std::size_t i = k; i < lib.size(); i += 2)
        outcomes[i] = part.outcomes[i];
      merged.merge_from(shard_stats);
    }
    EXPECT_EQ(outcomes, whole.outcomes) << "threads=" << threads;
    EXPECT_EQ(merged.online_rounds, whole_stats.online_rounds);
    EXPECT_EQ(merged.online_mmio_heartbeats,
              whole_stats.online_mmio_heartbeats);
    EXPECT_EQ(merged.online_deadlines_late, whole_stats.online_deadlines_late);
    EXPECT_EQ(merged.online_deadlines_missed,
              whole_stats.online_deadlines_missed);
    EXPECT_EQ(merged.online_detection_latency_cycles,
              whole_stats.online_detection_latency_cycles);
    EXPECT_EQ(merged.online_latency_samples,
              whole_stats.online_latency_samples);
    EXPECT_EQ(merged.detected, whole_stats.detected);
    EXPECT_EQ(merged.detected_by_timeout, whole_stats.detected_by_timeout);
    EXPECT_EQ(merged.undetected, whole_stats.undetected);
    EXPECT_EQ(merged.defects_simulated, whole_stats.defects_simulated);
    EXPECT_EQ(merged.simulated_cycles, whole_stats.simulated_cycles);
  }
}

TEST(OnlineCampaign, StatsMinusOutcomesIsTheGoldSchedule) {
  // The engine books exactly the gold schedules plus every owned outcome
  // into the on-line counters; the CLI's gold line (and a supervised
  // run's, whose outcomes come from the shard checkpoints) rests on it.
  const spec::ScenarioSpec scn = spec::builtin_scenario("online-baseline");
  util::CampaignStats stats;
  const sim::OnlineResult r = sim::run_online_detection_sessions(
      scn.system, scn.online, scn.make_sessions(), scn.bus,
      scn.make_library(), scn.campaign_options(&stats));
  sim::OnlineOutcome sum;
  for (const sim::OnlineOutcome& o : r.outcomes) {
    sum.rounds += o.rounds;
    sum.heartbeats += o.heartbeats;
    sum.deadlines_late += o.deadlines_late;
    sum.deadlines_missed += o.deadlines_missed;
  }
  EXPECT_GT(r.gold.rounds, 0u);
  EXPECT_EQ(stats.online_rounds - sum.rounds, r.gold.rounds);
  EXPECT_EQ(stats.online_mmio_heartbeats - sum.heartbeats,
            r.gold.heartbeats);
  EXPECT_EQ(stats.online_deadlines_late - sum.deadlines_late,
            r.gold.deadlines_late);
  EXPECT_EQ(stats.online_deadlines_missed - sum.deadlines_missed,
            r.gold.deadlines_missed);
}

TEST(OnlineCampaign, SessionsMergeFirstDetectionWins) {
  spec::ScenarioSpec scn;
  scn.defect_count = 12;
  const auto sessions = scn.make_sessions();
  const auto lib = scn.make_library();
  soc::OnlineConfig online;
  sim::CampaignOptions opts;
  opts.parallel = {1};
  const sim::OnlineResult merged = sim::run_online_detection_sessions(
      scn.system, online, sessions, scn.bus, lib, opts);
  ASSERT_EQ(merged.verdicts.size(), lib.size());
  std::uint64_t single_gold_rounds = 0;
  std::size_t live = 0;
  for (const auto& sess : sessions) {
    if (sess.program.tests.empty()) continue;
    ++live;
    sim::OnlineResult one = sim::run_online_detection(
        scn.system, online, sess.program, scn.bus, lib, opts);
    single_gold_rounds += one.gold.rounds;
  }
  ASSERT_GT(live, 1u);
  EXPECT_EQ(merged.gold.rounds, single_gold_rounds);
  for (const sim::OnlineOutcome& o : merged.outcomes)
    if (sim::is_detected(o.verdict)) {
      EXPECT_GT(o.detection_latency_cycles, 0u);
    }
}

TEST(OnlineCampaign, EmptySessionSetRejected) {
  spec::ScenarioSpec scn;
  scn.defect_count = 2;
  const auto lib = scn.make_library();
  std::vector<sbst::GenerationResult> none(1);  // a session with no tests
  sim::CampaignOptions opts;
  opts.parallel = {1};
  EXPECT_THROW(sim::run_online_detection_sessions(scn.system, {}, none,
                                                  scn.bus, lib, opts),
               std::runtime_error);
}

TEST(OnlineCampaign, StatsJsonRoundTripsOnlineCounters) {
  util::CampaignStats stats;
  stats.online_rounds = 7;
  stats.online_mmio_heartbeats = 42;
  stats.online_deadlines_late = 3;
  stats.online_deadlines_missed = 1;
  stats.online_detection_latency_cycles = 12345;
  stats.online_latency_samples = 9;
  util::CampaignStats parsed;
  ASSERT_TRUE(util::parse_stats_json(stats.json("campaign"), parsed));
  EXPECT_EQ(parsed.online_rounds, stats.online_rounds);
  EXPECT_EQ(parsed.online_mmio_heartbeats, stats.online_mmio_heartbeats);
  EXPECT_EQ(parsed.online_deadlines_late, stats.online_deadlines_late);
  EXPECT_EQ(parsed.online_deadlines_missed, stats.online_deadlines_missed);
  EXPECT_EQ(parsed.online_detection_latency_cycles,
            stats.online_detection_latency_cycles);
  EXPECT_EQ(parsed.online_latency_samples, stats.online_latency_samples);
}

}  // namespace
