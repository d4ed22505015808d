// The crash-durable file layer (util/durable_file.h) and the two formats
// built on it: the shared reader, writer, tmp sweep and CRC line codec,
// then a seeded mutation fuzz over a campaign checkpoint and a serve job
// queue.  A damaged file may be refused or partly forgotten; a load must
// never hand back a slot or a job that was not written.  The same fuzz
// covers the stats JSON line a supervisor reads from each worker.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/queue.h"
#include "sim/checkpoint.h"
#include "util/crc32.h"
#include "util/durable_file.h"
#include "util/fault_injector.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace xtest {
namespace {

namespace fs = std::filesystem;

/// A fresh directory of its own, so tmp sweeps and leftover checks see
/// only this test's files.
class FreshDir {
 public:
  explicit FreshDir(const std::string& name)
      : path_(::testing::TempDir() + "xtest_durable_" + name + "_" +
              std::to_string(static_cast<long>(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~FreshDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(path_))
      out.push_back(e.path().filename().string());
    return out;
  }

 private:
  std::string path_;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

// --- the shared layer ------------------------------------------------------

TEST(DurableFile, ReadTellsAnAbsentFileFromAnEmptyOne) {
  const FreshDir dir("read");
  EXPECT_EQ(util::read_file(dir.file("absent")), std::nullopt);
  write_file(dir.file("empty"), "");
  EXPECT_EQ(util::read_file(dir.file("empty")), "");
  const std::string bytes("two\nlines\0with a NUL\n", 21);
  write_file(dir.file("bytes"), bytes);
  EXPECT_EQ(util::read_file(dir.file("bytes")), bytes);
  // A directory opens but cannot be read: an error, not an empty file.
  fs::create_directory(dir.file("subdir"));
  EXPECT_THROW(util::read_file(dir.file("subdir")), std::runtime_error);
}

TEST(DurableFile, FailureAtEveryStepKeepsTheOldFileAndLeavesNoTmp) {
  const FreshDir dir("write");
  const std::string path = dir.file("state");
  util::write_durable(path, "old\n", "s0", "fuzzsite");
  for (const char* step : {"open", "write", "fsync", "rename"}) {
    util::FaultInjector::global().configure(std::string("fuzzsite.") + step +
                                            "@1");
    EXPECT_THROW(util::write_durable(path, "new\n", "s0", "fuzzsite"),
                 util::InjectedFault)
        << step;
    util::FaultInjector::global().disarm();
    EXPECT_EQ(util::read_file(path), "old\n") << step;
    EXPECT_EQ(dir.names(), std::vector<std::string>{"state"}) << step;
  }
  // Without a site no fault site is consulted.
  util::FaultInjector::global().configure("fuzzsite.open");
  util::write_durable(path, "new\n");
  util::FaultInjector::global().disarm();
  EXPECT_EQ(util::read_file(path), "new\n");
  EXPECT_EQ(dir.names(), std::vector<std::string>{"state"});
}

TEST(DurableFile, CrcLineRoundTripsAndRejectsNearMisses) {
  const std::string line = util::crc_line("covered bytes\n");
  std::uint32_t crc = 0;
  ASSERT_TRUE(util::parse_crc_line(line, crc)) << line;
  EXPECT_EQ(crc, util::crc32("covered bytes\n"));
  for (const char* bad : {"crc 0123456", "crc 012345678", "crc 0123456G",
                          "crc 0123ABCD", "CRC 01234567", "crc-01234567", ""})
    EXPECT_FALSE(util::parse_crc_line(bad, crc)) << bad;
}

// --- seeded mutation fuzz over both formats --------------------------------

/// 1-3 random edits: a bit flip, a byte insert, a byte delete or a
/// truncation.
std::string mutate(std::string s, util::Rng& rng) {
  const std::uint64_t edits = 1 + rng.below(3);
  for (std::uint64_t k = 0; k < edits && !s.empty(); ++k) {
    const std::size_t at = rng.below(s.size());
    switch (rng.below(4)) {
      case 0: s[at] = static_cast<char>(s[at] ^ (1 << rng.below(8))); break;
      case 1: s.insert(at, 1, static_cast<char>(rng.below(256))); break;
      case 2: s.erase(at, 1); break;
      default: s.resize(at); break;
    }
  }
  return s;
}

constexpr int kFuzzCases = 3000;

TEST(DurableFormats, MutatedCheckpointNeverRestoresAWrongSlot) {
  using sim::OnlineOutcome;
  using sim::Verdict;
  const FreshDir dir("fuzz_ckpt");
  const std::string path = dir.file("campaign.ckpt");
  // Two off-line sections and one on-line section, each with a pending
  // slot, exactly as a campaign writes them.
  const std::vector<std::optional<Verdict>> alpha = {
      Verdict::kDetected, std::nullopt, Verdict::kDetectedByTimeout,
      Verdict::kUndetected, Verdict::kSimError};
  const std::vector<std::optional<Verdict>> beta = {
      std::nullopt, Verdict::kUndetected, Verdict::kDetected};
  std::vector<std::optional<OnlineOutcome>> gamma(4);
  gamma[0] = OnlineOutcome{Verdict::kDetected, 621, 3, 24, 1, 2};
  gamma[2] = OnlineOutcome{Verdict::kUndetected, 0, 9, 72, 0, 0};
  gamma[3] = OnlineOutcome{Verdict::kDetectedByTimeout, 90, 1, 8, 0, 1};
  {
    sim::CampaignCheckpoint ck(path, "fuzz-key");
    ck.restore("alpha", alpha.size());
    ck.restore("beta", beta.size());
    ck.restore_outcomes("gamma", gamma.size());
    for (std::size_t i = 0; i < alpha.size(); ++i)
      if (alpha[i]) ck.record("alpha", i, *alpha[i]);
    for (std::size_t i = 0; i < beta.size(); ++i)
      if (beta[i]) ck.record("beta", i, *beta[i]);
    for (std::size_t i = 0; i < gamma.size(); ++i)
      if (gamma[i]) ck.record("gamma", i, *gamma[i]);
    ck.flush();
  }
  const std::string valid = util::read_file(path).value();

  const auto check = [](const auto& got, const auto& written, int n) {
    for (std::size_t i = 0; i < got.size(); ++i)
      if (got[i]) {
        EXPECT_EQ(got[i], written[i]) << "case " << n << " slot " << i;
      }
  };
  util::Rng rng(0xC0FFEE);
  int refused = 0, restored_some = 0;
  for (int n = 0; n < kFuzzCases; ++n) {
    write_file(path, mutate(valid, rng));
    try {
      sim::CampaignCheckpoint ck(path, "fuzz-key");
      check(ck.restore("alpha", alpha.size()), alpha, n);
      check(ck.restore("beta", beta.size()), beta, n);
      check(ck.restore_outcomes("gamma", gamma.size()), gamma, n);
      restored_some += ck.completed() > 0;
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  // Both outcomes occur: the fuzz reaches past the magic line.
  EXPECT_GT(refused, 0);
  EXPECT_GT(restored_some, kFuzzCases / 10);
}

TEST(DurableFormats, MutatedStatsJsonParsesOrThrowsTyped) {
  // A worker's --stats-json line reaches the supervisor through a pipe
  // from a process that may die mid-printf: a damaged line parses, is not
  // a stats line, or throws the typed error -- never anything else (an
  // out-of-range cast would be undefined behaviour).
  util::Rng rng(0x57A75);
  int parsed = 0, refused = 0;
  for (int n = 0; n < kFuzzCases; ++n) {
    util::CampaignStats st;
    st.defects_simulated = rng.below(1u << 20);
    st.simulated_cycles = rng.below(std::uint64_t{1} << 40);
    st.wall_seconds = static_cast<double>(rng.below(100000)) / 1000.0;
    st.threads = static_cast<unsigned>(1 + rng.below(64));
    st.detected = rng.below(5000);
    st.undetected = rng.below(5000);
    st.retries = rng.below(10);
    st.online_rounds = rng.below(1u << 20);
    st.online_detection_latency_cycles = rng.below(std::uint64_t{1} << 32);
    util::CampaignStats out;
    try {
      parsed += util::parse_stats_json(mutate(st.json("fuzz"), rng), out);
    } catch (const util::StatsJsonError&) {
      ++refused;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, 0);
}

TEST(DurableFormats, MutatedQueueNeverReloadsAWrongJob) {
  using serve::Job;
  using serve::JobState;
  const FreshDir dir("fuzz_queue");
  const std::string path = dir.file("jobs.queue");
  std::vector<Job> written;
  {
    serve::JobQueue q(path);
    q.enqueue("name = queued\nbus = data\n", 7);
    Job* done = q.find(q.enqueue("name = done\n", 5));
    done->state = JobState::kDone;
    done->verdicts = "DUTE";
    done->stats_json = "{\"defects\":4}";
    done->degraded = true;
    done->exit_code = 6;
    done->attempts = 1;
    Job* failed = q.find(q.enqueue("name = failed\n", 0));
    failed->state = JobState::kFailed;
    failed->exit_code = 4;
    failed->error = "boom";
    failed->attempts = 2;
    q.persist();
    written = q.jobs();
  }
  const std::string valid = util::read_file(path).value();

  util::Rng rng(0xBADC0DE);
  int refused = 0, reloaded_some = 0;
  for (int n = 0; n < kFuzzCases; ++n) {
    write_file(path, mutate(valid, rng));
    serve::JobQueue q(path);
    try {
      q.load();
    } catch (const std::runtime_error&) {
      ++refused;
      continue;
    }
    for (const Job& j : q.jobs()) {
      ASSERT_TRUE(j.id >= 1 && j.id <= written.size()) << "case " << n;
      const Job& w = written[j.id - 1];
      EXPECT_TRUE(j.priority == w.priority && j.state == w.state &&
                  j.scenario == w.scenario && j.verdicts == w.verdicts &&
                  j.stats_json == w.stats_json && j.degraded == w.degraded &&
                  j.exit_code == w.exit_code && j.error == w.error &&
                  j.attempts == w.attempts)
          << "case " << n << " job " << j.id;
    }
    reloaded_some += !q.jobs().empty();
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(reloaded_some, kFuzzCases / 10);
}

}  // namespace
}  // namespace xtest
