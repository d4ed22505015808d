#include "tools/cli.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace xtest::cli {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun run_cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Cli, UsageOnUnknownCommand) {
  const CliRun r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, GenerateSummary) {
  const CliRun r = run_cli({"generate"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("| session |"), std::string::npos);
  EXPECT_NE(r.out.find("| 0"), std::string::npos);
}

TEST(Cli, GenerateWritesImages) {
  const std::string prefix = temp_path("prog");
  const CliRun r = run_cli({"generate", "--out", prefix});
  EXPECT_EQ(r.code, 0);
  std::ifstream img(prefix + "0.img");
  EXPECT_TRUE(img.good());
}

TEST(Cli, AssembleRunRoundTrip) {
  const std::string src = temp_path("t.s");
  const std::string img = temp_path("t.img");
  {
    std::ofstream f(src);
    f << "        .org 0x010\n"
         "        lda v\n"
         "        hlt\n"
         "        .org 0x80\n"
         "v:      .byte 0x42\n";
  }
  const CliRun a = run_cli({"assemble", src, "--out", img});
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_NE(a.out.find("entry 0x010"), std::string::npos);

  const CliRun r = run_cli({"run", img, "--entry", "0x010"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("reason=hlt"), std::string::npos);
  EXPECT_NE(r.out.find("acc=0x42"), std::string::npos);
}

TEST(Cli, RunWithTraceShowsWaveforms) {
  const std::string src = temp_path("t2.s");
  const std::string img = temp_path("t2.img");
  {
    std::ofstream f(src);
    f << "nop\nhlt\n";
  }
  ASSERT_EQ(run_cli({"assemble", src, "--out", img}).code, 0);
  const CliRun r = run_cli({"run", img, "--entry", "0", "--trace"});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("addr[11]"), std::string::npos);
  EXPECT_NE(r.out.find("data[ 7]"), std::string::npos);
}

TEST(Cli, DisasmListsImage) {
  const std::string src = temp_path("t3.s");
  const std::string img = temp_path("t3.img");
  {
    std::ofstream f(src);
    f << "add 0xf07\nhlt\n";
  }
  ASSERT_EQ(run_cli({"assemble", src, "--out", img}).code, 0);
  const CliRun r = run_cli({"disasm", img});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("add 0xf07"), std::string::npos);
}

TEST(Cli, CampaignReportsCoverage) {
  const CliRun r = run_cli({"campaign", "--bus", "data", "--defects", "20",
                            "--seed", "7"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("bus=data defects=20 coverage=100.0%"),
            std::string::npos);
}

TEST(Cli, CampaignReportsHotPathCounters) {
  const CliRun r = run_cli({"campaign", "--bus", "data", "--defects", "10",
                            "--seed", "7031", "--stats-json"});
  ASSERT_EQ(r.code, 0) << r.err;
  // Human-readable counters line: every (defect, session) slot was
  // simulated, 10 defects x 6 sessions.
  EXPECT_NE(r.out.find("simulations=60 cycles="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("defects/sec="), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("cache_"), std::string::npos) << r.out;
  // --stats-json appends the machine-readable record.
  EXPECT_NE(r.out.find("{\"campaign\":\"campaign\""), std::string::npos);
  EXPECT_NE(r.out.find("\"simulated_cycles\":"), std::string::npos);
}

TEST(Cli, CampaignThreadsFlagKeepsCoverageIdentical) {
  const CliRun serial = run_cli({"campaign", "--bus", "addr", "--defects",
                                 "15", "--seed", "7", "--threads", "1"});
  const CliRun par = run_cli({"campaign", "--bus", "addr", "--defects", "15",
                              "--seed", "7", "--threads", "4"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(par.code, 0) << par.err;
  // The coverage line (everything before the stats line) must be bitwise
  // identical at any thread count; only the stats line may differ.
  EXPECT_EQ(serial.out.substr(0, serial.out.find('\n')),
            par.out.substr(0, par.out.find('\n')));
  EXPECT_NE(serial.out.find("threads=1 "), std::string::npos);
  EXPECT_NE(par.out.find("threads=4 "), std::string::npos);
}

TEST(Cli, ErrorsAreReported) {
  // I/O failures and usage mistakes get distinct exit codes.
  EXPECT_EQ(run_cli({"assemble", "/nonexistent.s"}).code, kExitIo);
  EXPECT_EQ(run_cli({"run", "/nonexistent.img", "--entry", "0"}).code,
            kExitIo);
  EXPECT_EQ(run_cli({"campaign", "--bus", "bogus"}).code, kExitUsage);
  EXPECT_EQ(run_cli({"campaign", "--defects", "lots"}).code, kExitUsage);
  EXPECT_EQ(run_cli({"run", "x.img"}).code, kExitUsage);  // missing --entry
  const CliRun r = run_cli({"run"});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, CorruptImageIsSimulationError) {
  const std::string img = temp_path("corrupt.img");
  {
    std::ofstream f(img);
    f << "0x010: zz\n";
  }
  const CliRun r = run_cli({"run", img, "--entry", "0x010"});
  EXPECT_EQ(r.code, kExitSim);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
  EXPECT_NE(r.err.find("line 1"), std::string::npos);
}

TEST(Cli, BadFaultSpecIsAUsageError) {
  const CliRun r = run_cli({"campaign", "--bus", "data", "--defects", "4",
                            "--faults", "site@@"});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("fault spec"), std::string::npos) << r.err;
}

TEST(Cli, FaultsFlagInjectsAndTheRetryPathAbsorbsIt) {
  const CliRun r = run_cli({"campaign", "--bus", "data", "--defects", "10",
                            "--seed", "7", "--threads", "1", "--faults",
                            "parallel.item@3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("retries=1 "), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("sim_errors=0\n"), std::string::npos) << r.out;
}

TEST(Cli, InterruptFlagExitsWithCode5AndResumeCompletes) {
  const std::string ckpt = temp_path("cli_interrupt.ckpt");
  std::remove(ckpt.c_str());
  const std::vector<std::string> args = {"campaign",  "--bus",
                                         "data",      "--defects",
                                         "10",        "--seed",
                                         "7",         "--checkpoint",
                                         ckpt};
  interrupt_flag().store(true);
  const CliRun stopped = run_cli(args);
  interrupt_flag().store(false);
  EXPECT_EQ(stopped.code, kExitInterrupted);
  EXPECT_NE(stopped.err.find("interrupted"), std::string::npos)
      << stopped.err;
  EXPECT_NE(stopped.err.find("resume"), std::string::npos) << stopped.err;

  const CliRun resumed = run_cli(args);
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_NE(resumed.out.find("coverage=100.0%"), std::string::npos)
      << resumed.out;
  std::remove(ckpt.c_str());
}

TEST(Cli, ChaosSoakSmokeRunPasses) {
  const CliRun r = run_cli({"chaos", "--bus", "data", "--defects", "6",
                            "--cycles", "3", "--threads", "1", "--seed",
                            "7"});
  ASSERT_EQ(r.code, 0) << r.err << r.out;
  EXPECT_NE(r.out.find("verdicts identical"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("chaos soak passed"), std::string::npos) << r.out;
}

TEST(Cli, CampaignCheckpointResumesAndReportsRestored) {
  const std::string ckpt = temp_path("cli_campaign.ckpt");
  std::remove(ckpt.c_str());
  const std::vector<std::string> args = {"campaign",  "--bus",
                                         "data",      "--defects",
                                         "12",        "--seed",
                                         "7",         "--checkpoint",
                                         ckpt};
  const CliRun first = run_cli(args);
  ASSERT_EQ(first.code, 0) << first.err;
  EXPECT_NE(first.out.find("restored=0 "), std::string::npos);

  // Second invocation finds every verdict already on disk.
  const CliRun second = run_cli(args);
  ASSERT_EQ(second.code, 0) << second.err;
  EXPECT_EQ(second.out.find("restored=0 "), std::string::npos);
  EXPECT_EQ(first.out.substr(0, first.out.find('\n')),
            second.out.substr(0, second.out.find('\n')));
  std::remove(ckpt.c_str());
}

std::string line_starting_with(const std::string& text,
                               const std::string& prefix) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return line;
  return {};
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// Temp-directory files whose name starts with `prefix`.
std::vector<std::filesystem::path> temp_files_with_prefix(
    const std::string& prefix) {
  std::vector<std::filesystem::path> found;
  for (const auto& e : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path()))
    if (e.path().filename().string().rfind(prefix, 0) == 0)
      found.push_back(e.path());
  return found;
}

TEST(Cli, CheckpointRefusesAResumeAcrossAnyVerdictSetting) {
  // The checkpoint key covers every scenario setting that can change a
  // verdict, not only the library: a paper-baseline checkpoint must not
  // restore its verdicts into a low-swing or a slower-clock campaign.
  const std::string ckpt = temp_path("cli_key_edit.ckpt");
  std::remove(ckpt.c_str());
  const std::string dump =
      run_cli({"scenarios", "--dump", "paper-baseline"}).out;
  const std::string base = temp_path("key_edit_base.scn");
  const std::string low = temp_path("key_edit_low.scn");
  const std::string slow = temp_path("key_edit_slow.scn");
  std::ofstream(base) << dump;
  std::ofstream(low) << replaced(dump, "system.electrical = full-swing",
                                 "system.electrical = low-swing");
  std::ofstream(slow) << replaced(dump, "system.clock_period_scale = 1\n",
                                  "system.clock_period_scale = 1.5\n");
  const auto campaign = [&ckpt](const std::string& scenario) {
    return run_cli({"campaign", "--scenario", scenario, "--defects", "20",
                    "--threads", "1", "--checkpoint", ckpt});
  };
  const CliRun first = campaign(base);
  ASSERT_EQ(first.code, 0) << first.err;
  for (const std::string& edited : {low, slow}) {
    const CliRun r = campaign(edited);
    EXPECT_EQ(r.code, 4) << edited << '\n' << r.out;
    EXPECT_NE(r.err.find("key mismatch"), std::string::npos) << r.err;
  }
  // The unedited scenario still resumes every verdict.
  const CliRun again = campaign(base);
  ASSERT_EQ(again.code, 0) << again.err;
  EXPECT_EQ(again.out.find("restored=0 "), std::string::npos) << again.out;
  EXPECT_EQ(line_starting_with(again.out, "detected="),
            line_starting_with(first.out, "detected="));
  for (const std::string& f : {ckpt, base, low, slow}) std::remove(f.c_str());
}

TEST(Cli, ShardFlagRunsOneSliceOfTheLibrary) {
  // Shard 1 of 3 over 12 defects owns indices 1, 4, 7, 10.
  const CliRun r = run_cli({"campaign", "--bus", "data", "--defects", "12",
                            "--seed", "7", "--threads", "1", "--shard",
                            "1/3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("shard=1/3 owned=4"), std::string::npos) << r.out;
}

TEST(Cli, BadShardSpecsAreUsageErrors) {
  // Shard index out of range, missing '/', and --workers + --shard
  // (a worker IS a shard) are all rejected before anything runs.
  EXPECT_EQ(run_cli({"campaign", "--shard", "3/2"}).code, 2);
  EXPECT_EQ(run_cli({"campaign", "--shard", "2"}).code, 2);
  EXPECT_EQ(run_cli({"campaign", "--workers", "2", "--shard", "0/2"}).code, 2);
}

TEST(Cli, SupervisedWorkersMatchTheSerialVerdictLines) {
  // run() here executes in the test binary, so point the supervisor's
  // worker processes at the real xtest executable.
  ASSERT_EQ(setenv("XTEST_WORKER_BINARY", XTEST_BINARY_PATH, 1), 0);
  const std::vector<std::string> serial_args = {
      "campaign", "--bus", "data",      "--defects", "10",
      "--seed",   "7",     "--threads", "1"};
  std::vector<std::string> supervised_args = serial_args;
  supervised_args.insert(supervised_args.end(), {"--workers", "2"});
  const CliRun serial = run_cli(serial_args);
  const CliRun supervised = run_cli(supervised_args);
  unsetenv("XTEST_WORKER_BINARY");

  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(supervised.code, 0) << supervised.err << supervised.out;
  // Coverage and verdict breakdown are bitwise identical to the serial
  // run; the supervised summary adds its worker accounting line.
  EXPECT_EQ(line_starting_with(supervised.out, "bus="),
            line_starting_with(serial.out, "bus="));
  EXPECT_EQ(line_starting_with(supervised.out, "detected="),
            line_starting_with(serial.out, "detected="));
  EXPECT_NE(supervised.out.find("workers=2 "), std::string::npos)
      << supervised.out;
  EXPECT_NE(supervised.out.find("quarantined=0"), std::string::npos)
      << supervised.out;
}

TEST(Cli, SupervisedOnlineMatchesInProcess) {
  // An on-line campaign runs under --workers like an off-line one: the
  // coverage, verdict-breakdown and both on-line lines equal the
  // in-process run's.
  ASSERT_EQ(setenv("XTEST_WORKER_BINARY", XTEST_BINARY_PATH, 1), 0);
  const std::vector<std::string> serial_args = {
      "campaign", "--scenario", "online-baseline", "--defects", "12",
      "--threads", "1"};
  std::vector<std::string> supervised_args = serial_args;
  supervised_args.insert(supervised_args.end(), {"--workers", "2"});
  const CliRun serial = run_cli(serial_args);
  const CliRun supervised = run_cli(supervised_args);
  unsetenv("XTEST_WORKER_BINARY");

  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(supervised.code, 0) << supervised.err << supervised.out;
  for (const char* prefix :
       {"bus=", "detected=", "online gold:", "online latency:"}) {
    EXPECT_FALSE(line_starting_with(serial.out, prefix).empty()) << prefix;
    EXPECT_EQ(line_starting_with(supervised.out, prefix),
              line_starting_with(serial.out, prefix))
        << prefix;
  }
}

TEST(Cli, DegradedSupervisedOnlineRunPrintsNoGoldLine) {
  // Every worker dies on its first outcome with nothing durable (every
  // checkpoint flush fails), so both shards are quarantined: the stats
  // miss them, and a gold line derived from those stats would be a
  // wrapped counter.
  ASSERT_EQ(setenv("XTEST_WORKER_BINARY", XTEST_BINARY_PATH, 1), 0);
  const std::string base = temp_path("degraded_online.ckpt");
  const CliRun r = run_cli(
      {"campaign", "--scenario", "online-baseline", "--defects", "6",
       "--threads", "1", "--workers", "2", "--worker-retries", "1",
       "--worker-backoff-ms", "1", "--faults",
       "worker.exit@1,checkpoint.rename", "--checkpoint", base});
  unsetenv("XTEST_WORKER_BINARY");
  for (const char* shard : {".shard0", ".shard1"})
    std::remove((base + shard).c_str());

  EXPECT_EQ(r.code, kExitDegraded) << r.err << r.out;
  EXPECT_NE(r.out.find("quarantined=2"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("online gold:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("online latency: samples=0 "), std::string::npos)
      << r.out;
}

TEST(Cli, SupervisedRunRemovesItsDefaultCheckpointsSoAnEditIsNotReplayed) {
  // Without --checkpoint a supervised run keeps its shard checkpoints at
  // a temp path named by scenario name, bus, seed and key digest.  A
  // completed run must remove them, and the same name and seed with a
  // slower tester clock must simulate instead of restoring.
  ASSERT_EQ(setenv("XTEST_WORKER_BINARY", XTEST_BINARY_PATH, 1), 0);
  const std::string prefix = "xtest_ckpt-replay_data_7";
  for (const auto& f : temp_files_with_prefix(prefix))
    std::filesystem::remove(f);
  const std::string text =
      "name = ckpt-replay\nbus = data\ndefects = 40\nseed = 7\n"
      "campaign.threads = 1\ncampaign.workers = 2\n";
  const std::string at_speed = temp_path("ckpt_replay_at_speed.scn");
  const std::string slow = temp_path("ckpt_replay_slow.scn");
  std::ofstream(at_speed) << text;
  std::ofstream(slow) << text << "system.clock_period_scale = 3\n";

  const CliRun first = run_cli({"campaign", "--scenario", at_speed});
  ASSERT_EQ(first.code, 0) << first.err << first.out;
  EXPECT_TRUE(temp_files_with_prefix(prefix).empty());

  const CliRun second = run_cli({"campaign", "--scenario", slow});
  const CliRun in_process =
      run_cli({"campaign", "--scenario", slow, "--workers", "0"});
  unsetenv("XTEST_WORKER_BINARY");
  ASSERT_EQ(second.code, 0) << second.err << second.out;
  ASSERT_EQ(in_process.code, 0) << in_process.err;
  EXPECT_NE(second.out.find("restored=0 "), std::string::npos) << second.out;
  EXPECT_EQ(line_starting_with(second.out, "detected="),
            line_starting_with(in_process.out, "detected="));
  // The edit changes the verdicts, so a replay could not pass the above.
  EXPECT_NE(line_starting_with(first.out, "detected="),
            line_starting_with(second.out, "detected="));
  std::remove(at_speed.c_str());
  std::remove(slow.c_str());
}

TEST(Cli, SupervisedDefaultCheckpointsOfAnEditedScenarioStartFresh) {
  // A degraded supervised run keeps its default shard checkpoints so the
  // same command resumes them.  The key digest in their name means an
  // edited scenario (slower tester clock) starts fresh instead of
  // restoring verdicts the edit would change.
  ASSERT_EQ(setenv("XTEST_WORKER_BINARY", XTEST_BINARY_PATH, 1), 0);
  const std::string prefix = "xtest_key-digest_data_7";
  for (const auto& f : temp_files_with_prefix(prefix))
    std::filesystem::remove(f);
  const std::string text =
      "name = key-digest\nbus = data\ndefects = 40\nseed = 7\n"
      "campaign.threads = 1\ncampaign.workers = 2\n";
  const std::string at_speed = temp_path("key_digest_at_speed.scn");
  const std::string slow = temp_path("key_digest_slow.scn");
  std::ofstream(at_speed) << text;
  std::ofstream(slow) << text << "system.clock_period_scale = 3\n";

  const CliRun degraded =
      run_cli({"campaign", "--scenario", at_speed, "--worker-retries", "0",
               "--worker-backoff-ms", "1", "--faults", "worker.exit@5"});
  EXPECT_EQ(degraded.code, 6) << degraded.err << degraded.out;
  EXPECT_FALSE(temp_files_with_prefix(prefix).empty());

  const CliRun edited = run_cli({"campaign", "--scenario", slow});
  const CliRun in_process =
      run_cli({"campaign", "--scenario", slow, "--workers", "0"});
  unsetenv("XTEST_WORKER_BINARY");
  ASSERT_EQ(edited.code, 0) << edited.err << edited.out;
  ASSERT_EQ(in_process.code, 0) << in_process.err;
  EXPECT_NE(edited.out.find("restored=0 "), std::string::npos) << edited.out;
  EXPECT_EQ(line_starting_with(edited.out, "detected="),
            line_starting_with(in_process.out, "detected="));
  for (const auto& f : temp_files_with_prefix(prefix))
    std::filesystem::remove(f);
  std::remove(at_speed.c_str());
  std::remove(slow.c_str());
}

TEST(Cli, ScenarioFlagMatchesDefaultCampaignAtEveryThreadCount) {
  // `--scenario paper-baseline` must be bitwise identical to the
  // hard-coded default path: same verdicts, signatures, and coverage.
  for (const char* threads : {"1", "4"}) {
    const CliRun plain = run_cli({"campaign", "--bus", "data", "--defects",
                                  "12", "--seed", "7", "--threads", threads});
    const CliRun spec =
        run_cli({"campaign", "--scenario", "paper-baseline", "--bus", "data",
                 "--defects", "12", "--seed", "7", "--threads", threads});
    ASSERT_EQ(plain.code, 0) << plain.err;
    ASSERT_EQ(spec.code, 0) << spec.err;
    EXPECT_EQ(plain.out.substr(0, plain.out.find('\n')),
              spec.out.substr(0, spec.out.find('\n')))
        << "threads=" << threads;
  }
}

TEST(Cli, ScenariosSubcommandListsEveryBuiltin) {
  const CliRun r = run_cli({"scenarios"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* name :
       {"paper-baseline", "wide-bus-32", "slow-tester", "control-bus",
        "bist-compare", "stress-1k-defects"})
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
}

TEST(Cli, ScenariosDumpRoundTripsThroughAFile) {
  const CliRun dump = run_cli({"scenarios", "--dump", "slow-tester"});
  ASSERT_EQ(dump.code, 0) << dump.err;
  EXPECT_NE(dump.out.find("name = slow-tester"), std::string::npos);
  EXPECT_NE(dump.out.find("system.clock_period_scale = 3"),
            std::string::npos);

  const std::string path = temp_path("slow.scn");
  {
    std::ofstream f(path);
    f << dump.out;
  }
  const CliRun redump = run_cli({"scenarios", "--dump", path});
  ASSERT_EQ(redump.code, 0) << redump.err;
  EXPECT_EQ(dump.out, redump.out);

  const CliRun ran = run_cli({"campaign", "--scenario", path, "--bus",
                              "data", "--defects", "6", "--seed", "7"});
  ASSERT_EQ(ran.code, 0) << ran.err;
  EXPECT_NE(ran.out.find("bus=data defects=6"), std::string::npos) << ran.out;
}

TEST(Cli, ScenarioWithARemovedKeyIsAUsageErrorNamingIt) {
  // Keys of deleted acceleration layers and knobs are plain unknown keys
  // now: an old scenario file still carrying one fails loudly instead of
  // being silently accepted.
  for (const char* line :
       {"campaign.batched = true", "campaign.gold_cache_capacity = 256",
        "system.transition_cache = true", "campaign.retry_errors = true",
        "campaign.defect_deadline_ms = 0",
        "campaign.checkpoint_every = 32"}) {
    const std::string path = temp_path("removed_key.scn");
    {
      std::ofstream f(path);
      f << "name = old\n" << line << "\n";
    }
    const CliRun r = run_cli({"campaign", "--scenario", path});
    EXPECT_EQ(r.code, kExitUsage) << line;
    const std::string key(line, std::string(line).find(' '));
    EXPECT_NE(r.err.find("unknown key '" + key + "'"), std::string::npos)
        << r.err;
    std::remove(path.c_str());
  }
}

TEST(Cli, ScenariosDumpRoundTripsOnlineAndElectricalKeys) {
  const CliRun dump = run_cli({"scenarios", "--dump", "online-baseline"});
  ASSERT_EQ(dump.code, 0) << dump.err;
  ASSERT_NE(dump.out.find("online.enabled = true"), std::string::npos)
      << dump.out;
  ASSERT_NE(dump.out.find("online.slice_cycles = 512"), std::string::npos)
      << dump.out;
  ASSERT_NE(dump.out.find("system.electrical = full-swing"),
            std::string::npos)
      << dump.out;

  // Overriding the electrical backend and the slice budget in a scenario
  // file survives a dump round-trip.
  std::string text = dump.out;
  const std::string slice_key = "online.slice_cycles = 512";
  text.replace(text.find(slice_key), slice_key.size(),
               "online.slice_cycles = 96");
  const std::string elec_key = "system.electrical = full-swing";
  text.replace(text.find(elec_key), elec_key.size(),
               "system.electrical = low-swing");
  const std::string path = temp_path("online.scn");
  {
    std::ofstream f(path);
    f << text;
  }
  const CliRun redump = run_cli({"scenarios", "--dump", path});
  ASSERT_EQ(redump.code, 0) << redump.err;
  EXPECT_NE(redump.out.find("online.slice_cycles = 96"), std::string::npos)
      << redump.out;
  EXPECT_NE(redump.out.find("system.electrical = low-swing"),
            std::string::npos)
      << redump.out;

  // The low-swing built-in dumps its backend too.
  const CliRun low = run_cli({"scenarios", "--dump", "low-swing-bus"});
  ASSERT_EQ(low.code, 0) << low.err;
  EXPECT_NE(low.out.find("system.electrical = low-swing"),
            std::string::npos)
      << low.out;
}

TEST(Cli, UnknownElectricalBackendIsAUsageErrorNamingTheKey) {
  const CliRun dump = run_cli({"scenarios", "--dump", "paper-baseline"});
  ASSERT_EQ(dump.code, 0) << dump.err;
  std::string text = dump.out;
  const std::string key = "system.electrical = full-swing";
  ASSERT_NE(text.find(key), std::string::npos) << text;
  text.replace(text.find(key), key.size(),
               "system.electrical = half-swing");
  const std::string path = temp_path("badswing.scn");
  {
    std::ofstream f(path);
    f << text;
  }
  const CliRun bad = run_cli({"campaign", "--scenario", path});
  EXPECT_EQ(bad.code, kExitUsage);
  EXPECT_NE(bad.err.find("system.electrical"), std::string::npos) << bad.err;
  EXPECT_NE(bad.err.find("full-swing"), std::string::npos) << bad.err;
}

TEST(Cli, BadOnlineValueIsAUsageErrorNamingTheKey) {
  const CliRun dump = run_cli({"scenarios", "--dump", "online-baseline"});
  ASSERT_EQ(dump.code, 0) << dump.err;
  std::string text = dump.out;
  const std::string key = "online.deadline_cycles = 1024";
  ASSERT_NE(text.find(key), std::string::npos) << text;
  text.replace(text.find(key), key.size(), "online.deadline_cycles = soon");
  const std::string path = temp_path("badonline.scn");
  {
    std::ofstream f(path);
    f << text;
  }
  const CliRun bad = run_cli({"campaign", "--scenario", path});
  EXPECT_EQ(bad.code, kExitUsage);
  EXPECT_NE(bad.err.find("online.deadline_cycles"), std::string::npos)
      << bad.err;
}

TEST(Cli, OnlineCampaignReportsLatencyAndInterference) {
  const CliRun r = run_cli({"campaign", "--scenario", "online-baseline",
                            "--defects", "8", "--stats-json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("online gold: rounds="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("online latency: samples="), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"online_detection_latency_cycles\":"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"online_rounds\":"), std::string::npos) << r.out;
}

TEST(Cli, UnknownScenarioNameIsAnIoError) {
  const CliRun r = run_cli({"campaign", "--scenario", "no-such-scenario"});
  EXPECT_EQ(r.code, kExitIo);
  EXPECT_NE(r.err.find("cannot open scenario"), std::string::npos) << r.err;
  // A path that opens but cannot be read (a directory) is an I/O error
  // too, never an empty scenario that runs the defaults.
  const CliRun dir = run_cli({"campaign", "--scenario", ::testing::TempDir()});
  EXPECT_EQ(dir.code, kExitIo);
  EXPECT_NE(dir.err.find("cannot read"), std::string::npos) << dir.err;
}

TEST(Cli, MalformedScenarioFileIsAUsageErrorNamingTheLine) {
  const std::string path = temp_path("bad.scn");
  {
    std::ofstream f(path);
    f << "# comment\n"
         "bus = addr\n"
         "defects = lots\n";
  }
  const CliRun r = run_cli({"campaign", "--scenario", path});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("line 3"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("defects"), std::string::npos) << r.err;
}

TEST(Cli, UnknownFlagIsAUsageError) {
  const CliRun r = run_cli({"campaign", "--wibble"});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("unknown flag '--wibble'"), std::string::npos)
      << r.err;
}

TEST(Cli, UsageIsGeneratedFromTheFlagTable) {
  // usage() and the parser consume the same table, so every flag the
  // parser accepts must appear in the usage text (the drift the old
  // hand-maintained usage string allowed).
  const CliRun r = run_cli({"frobnicate"});
  for (const char* flag :
       {"--scenario", "--bus", "--defects", "--seed", "--threads",
        "--checkpoint", "--faults", "--stats-json", "--entry", "--trace",
        "--max-cycles", "--cycles", "--dump", "--out"})
    EXPECT_NE(r.err.find(flag), std::string::npos) << flag;
  EXPECT_NE(r.err.find("paper-baseline"), std::string::npos);
}

TEST(Cli, RemovedFlagsAreUsageErrors) {
  // The wall-clock defect deadline, the retry switch and the daemon's
  // retry knobs are gone; a script still passing one fails loudly.
  const std::vector<std::vector<std::string>> calls = {
      {"campaign", "--no-retry"},
      {"campaign", "--defect-deadline-ms", "5"},
      {"serve", "--job-retries", "1"}};
  for (const std::vector<std::string>& args : calls) {
    const CliRun r = run_cli(args);
    EXPECT_EQ(r.code, kExitUsage) << args[1];
    EXPECT_NE(r.err.find("unknown flag '" + args[1] + "'"),
              std::string::npos)
        << r.err;
  }
  const CliRun usage = run_cli({"frobnicate"});
  EXPECT_NE(usage.err.find("  xtest serve [--socket PATH] [--port N] "
                           "[--queue FILE] [--idle-timeout-ms MS]\n"
                           "              [--faults SPEC]\n"),
            std::string::npos)
      << usage.err;
}

TEST(Cli, NegativeHeartbeatFdIsAUsageErrorNamingTheFlag) {
  // stoull would wrap "-1" into a huge descriptor; the CLI must reject the
  // sign up front instead of failing later with EBADF.
  const CliRun r = run_cli({"campaign", "--defects", "4", "--heartbeat-fd",
                            "-1"});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("--heartbeat-fd"), std::string::npos) << r.err;
}

TEST(Cli, NumericFlagsThatWouldWrapAreUsageErrorsNamingTheFlag) {
  // A sign or a value too wide for its field was once read as a different
  // number: --defects -3 became 2^64-3 and failed much later, exit 4.
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"--defects", {"campaign", "--defects", "-3"}},
       {"--defects", {"campaign", "--defects", "+3"}},
       {"--threads", {"campaign", "--threads", "4294967297"}},
       {"--seed", {"campaign", "--seed", "-1"}},
       {"--workers", {"campaign", "--workers", "-2"}},
       {"--shard", {"campaign", "--shard", "-1/2"}},
       {"--worker-retries", {"campaign", "--workers", "2",
                             "--worker-retries", "-1"}},
       {"--port", {"serve", "--port", "65537", "--queue", "q"}},
       {"--port", {"submit", "--port", "-1"}},
       {"--priority", {"submit", "--port", "1", "--priority", "4294967296"}},
       {"--cycles", {"chaos", "--cycles", "-1"}}};
  // Should a supervised case get past its flags, its workers must be the
  // real xtest, not this test binary.
  ASSERT_EQ(setenv("XTEST_WORKER_BINARY", XTEST_BINARY_PATH, 1), 0);
  for (const auto& [flag, args] : cases) {
    const CliRun r = run_cli(args);
    EXPECT_EQ(r.code, kExitUsage) << flag << ": " << r.err;
    EXPECT_NE(r.err.find(flag + ": "), std::string::npos) << r.err;
  }
  unsetenv("XTEST_WORKER_BINARY");
}

TEST(Cli, ScenarioNumbersThatWouldWrapAreUsageErrorsNamingKeyAndLine) {
  for (const char* line :
       {"defects = -1", "campaign.threads = 4294967297",
        "address.width = 4294967308", "sessions.max = 4294967297",
        "program.usable_limit = 65537", "sigma_pct = nan",
        "system.swing_ratio = nan", "system.clock_period_scale = inf"}) {
    const std::string path = temp_path("wrapping_number.scn");
    std::ofstream(path) << "name = wraps\n" << line << "\n";
    const CliRun r = run_cli({"campaign", "--scenario", path});
    std::remove(path.c_str());
    const std::string key(line, std::string(line).find(' '));
    EXPECT_EQ(r.code, kExitUsage) << line << ": " << r.err;
    EXPECT_NE(r.err.find("scenario line 2: " + key + ": "), std::string::npos)
        << r.err;
  }
}

TEST(Cli, InterruptStopsLibraryGenerationAtItsFirstRound) {
  // With the flag already set, a worker writes its startup beat and stops
  // at the first round of library generation instead of generating all
  // 20,000 defects (hundreds of rounds, one beat each) first.
  const std::string path = temp_path("interrupted_beats");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  ASSERT_GE(fd, 0);
  interrupt_flag().store(true);
  const CliRun r =
      run_cli({"campaign", "--bus", "addr", "--defects", "20000",
               "--threads", "2", "--heartbeat-fd", std::to_string(fd)});
  interrupt_flag().store(false);
  ::close(fd);
  EXPECT_EQ(r.code, kExitInterrupted) << r.err;
  EXPECT_NE(r.err.find("resume"), std::string::npos) << r.err;
  EXPECT_LE(std::filesystem::file_size(path), 2u);
  std::filesystem::remove(path);
}

TEST(Cli, ClosedHeartbeatFdIsAUsageErrorNamingTheFlag) {
  // Descriptor 973 is valid syntax but not open in this process.
  const CliRun r = run_cli({"campaign", "--defects", "4", "--heartbeat-fd",
                            "973"});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("--heartbeat-fd: descriptor 973 is not open"),
            std::string::npos)
      << r.err;
}

TEST(Cli, WorkerBeatsWhileGeneratingItsLibrary) {
  // A large library takes longer to generate than the supervisor's
  // heartbeat timeout, so a worker also beats once per round of library
  // generation: more bytes than the startup beat plus one per simulation.
  const std::string path = temp_path("worker_beats");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  ASSERT_GE(fd, 0);
  const CliRun r =
      run_cli({"campaign", "--bus", "addr", "--defects", "400", "--threads",
               "2", "--heartbeat-fd", std::to_string(fd)});
  ::close(fd);
  ASSERT_EQ(r.code, 0) << r.err;
  const std::size_t at = r.out.find("simulations=");
  ASSERT_NE(at, std::string::npos) << r.out;
  const std::size_t simulations = std::stoul(r.out.substr(at + 12));
  EXPECT_EQ(simulations, 2400u);
  EXPECT_GT(std::filesystem::file_size(path), 1 + simulations);
  std::filesystem::remove(path);
}

TEST(Cli, ServeRequiresExactlyOneEndpointAndAQueue) {
  const CliRun neither = run_cli({"serve", "--queue", temp_path("q1")});
  EXPECT_EQ(neither.code, kExitUsage);
  EXPECT_NE(neither.err.find("--socket"), std::string::npos) << neither.err;

  const CliRun both = run_cli({"serve", "--socket", temp_path("s.sock"),
                               "--port", "1", "--queue", temp_path("q2")});
  EXPECT_EQ(both.code, kExitUsage);

  const CliRun no_queue = run_cli({"serve", "--socket", temp_path("s.sock")});
  EXPECT_EQ(no_queue.code, kExitUsage);
  EXPECT_NE(no_queue.err.find("--queue"), std::string::npos) << no_queue.err;
}

TEST(Cli, SubmitRequiresAnEndpointAndAValidPriority) {
  const CliRun no_endpoint = run_cli({"submit"});
  EXPECT_EQ(no_endpoint.code, kExitUsage);

  const CliRun bad_priority = run_cli({"submit", "--port", "1", "--priority",
                                       "12"});
  EXPECT_EQ(bad_priority.code, kExitUsage);
  EXPECT_NE(bad_priority.err.find("--priority"), std::string::npos)
      << bad_priority.err;

  const CliRun negative = run_cli({"submit", "--port", "1", "--priority",
                                   "-3"});
  EXPECT_EQ(negative.code, kExitUsage);
}

TEST(Cli, RunAcceptsAScenarioForTheSystemConfig) {
  const std::string src = temp_path("scn_run.s");
  const std::string img = temp_path("scn_run.img");
  {
    std::ofstream f(src);
    f << "        lda v\n"
         "        hlt\n"
         "        .org 0x80\n"
         "v:      .byte 0x21\n";
  }
  ASSERT_EQ(run_cli({"assemble", src, "--out", img}).code, 0);
  const CliRun r = run_cli(
      {"run", img, "--entry", "0", "--scenario", "slow-tester"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("acc=0x21"), std::string::npos) << r.out;
}

}  // namespace
}  // namespace xtest::cli
