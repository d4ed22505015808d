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

#include "sim/online.h"
#include "sim/campaign.h"
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
  scn.multi_session = false;
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
  scn.multi_session = false;
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
    scn.multi_session = false;
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
    if (sim::is_detected(o.verdict))
      EXPECT_GT(o.detection_latency_cycles, 0u);
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
