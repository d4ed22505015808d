// Campaign service tests: frame codec (hostile-input-proof), persistent
// job queue (salvage), and the live daemon end to end -- submit/stream,
// malformed-byte rejection, submit dedupe (per connection, and by client
// id across connections), reconnect replay, idle reap, job retry and
// in-band job failure, and restart-resume from the queue file.  Server
// tests run the daemon in-process on an ephemeral loopback port but spawn
// REAL worker processes (XTEST_BINARY_PATH), exactly like test_supervisor.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/client.h"
#include "serve/frame.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "sim/campaign.h"
#include "sim/online.h"
#include "sim/supervisor.h"
#include "spec/scenario.h"
#include "util/durable_file.h"
#include "util/fault_injector.h"
#include "util/net.h"
#include "util/parallel.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/subprocess.h"

namespace xtest::serve {
namespace {

// --- frame codec -----------------------------------------------------------

Frame make_frame(FrameType type, std::uint32_t seq, std::string payload) {
  Frame f;
  f.type = type;
  f.seq = seq;
  f.payload = std::move(payload);
  return f;
}

TEST(Frame, RoundTripsEveryType) {
  for (std::uint8_t t = 1; t <= static_cast<std::uint8_t>(FrameType::kShutdown);
       ++t) {
    const Frame in = make_frame(static_cast<FrameType>(t), 7u * t,
                                "payload for type " + std::to_string(t));
    FrameDecoder dec;
    ASSERT_TRUE(dec.feed(encode_frame(in)));
    const auto out = dec.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->type, in.type);
    EXPECT_EQ(out->seq, in.seq);
    EXPECT_EQ(out->payload, in.payload);
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_FALSE(dec.poisoned());
  }
}

TEST(Frame, DecodesByteAtATime) {
  const std::string bytes =
      encode_frame(make_frame(FrameType::kSubmit, 42, "one byte at a time"));
  FrameDecoder dec;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    ASSERT_TRUE(dec.feed(bytes.data() + i, 1));
    ASSERT_FALSE(dec.next().has_value()) << "frame completed early at " << i;
  }
  ASSERT_TRUE(dec.feed(bytes.data() + bytes.size() - 1, 1));
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, "one byte at a time");
}

TEST(Frame, DecodesSeveralFramesFromOneFeed) {
  std::string bytes;
  for (int i = 0; i < 5; ++i)
    bytes += encode_frame(
        make_frame(FrameType::kEvent, std::uint32_t(i), std::to_string(i)));
  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(bytes));
  for (int i = 0; i < 5; ++i) {
    const auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->payload, std::to_string(i));
  }
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Frame, TruncationIsIncompleteNotError) {
  const std::string bytes =
      encode_frame(make_frame(FrameType::kSubmit, 1, "truncated mid-flight"));
  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(bytes.data(), bytes.size() / 2));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.poisoned());
  EXPECT_GT(dec.buffered(), 0u);
}

TEST(Frame, BadMagicPoisons) {
  std::string bytes = encode_frame(make_frame(FrameType::kPing, 1, ""));
  bytes[0] = 'x';
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), FrameError::kBadMagic);
  EXPECT_FALSE(dec.next().has_value());
  // Poisoned decoders never resynchronize, even on valid bytes.
  EXPECT_FALSE(dec.feed(encode_frame(make_frame(FrameType::kPing, 2, ""))));
}

TEST(Frame, BadVersionPoisons) {
  std::string bytes = encode_frame(make_frame(FrameType::kPing, 1, ""));
  bytes[4] = 9;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), FrameError::kBadVersion);
}

TEST(Frame, BadTypePoisons) {
  for (const std::uint8_t bad : {std::uint8_t(0), std::uint8_t(14),
                                 std::uint8_t(255)}) {
    std::string bytes = encode_frame(make_frame(FrameType::kPing, 1, ""));
    bytes[5] = static_cast<char>(bad);
    FrameDecoder dec;
    EXPECT_FALSE(dec.feed(bytes));
    EXPECT_EQ(dec.error(), FrameError::kBadType);
  }
}

TEST(Frame, NonzeroReservedPoisons) {
  std::string bytes = encode_frame(make_frame(FrameType::kPing, 1, ""));
  bytes[6] = 1;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), FrameError::kBadReserved);
}

TEST(Frame, OversizeLengthRejectedBeforeBuffering) {
  // A hostile length field alone -- no payload bytes ever arrive -- must
  // poison as soon as the header is readable.
  std::string header;
  header.append(kMagic, sizeof kMagic);
  header.push_back(char(kProtocolVersion));
  header.push_back(char(static_cast<std::uint8_t>(FrameType::kSubmit)));
  header.push_back('\0');
  header.push_back('\0');
  put_u32(header, 1);
  put_u32(header, 0xFFFFFFFFu);  // 4 GiB "payload"
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(header));
  EXPECT_EQ(dec.error(), FrameError::kOversize);
  EXPECT_LE(dec.buffered(), kHeaderSize);
}

TEST(Frame, CorruptedByteFailsCrc) {
  std::string bytes =
      encode_frame(make_frame(FrameType::kSubmit, 3, "check my integrity"));
  bytes[kHeaderSize + 4] ^= 0x20;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), FrameError::kBadCrc);
}

TEST(Frame, FuzzedBytesNeverThrow) {
  // Property: arbitrary bytes either decode or poison; feed() never
  // throws and never fabricates a frame that passes CRC by luck (the
  // 1-in-2^32 chance is below fuzz-budget noise).
  util::Rng rng(20010618);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder dec;
    const std::size_t n = 1 + rng.below(512);
    std::string junk(n, '\0');
    for (char& c : junk) c = static_cast<char>(rng.below(256));
    dec.feed(junk);
    while (dec.next().has_value()) {
    }
    SUCCEED();
  }
}

TEST(Frame, FuzzMutatedValidFramesRoundTripOrPoison) {
  util::Rng rng(42);
  for (int round = 0; round < 200; ++round) {
    std::string payload(rng.below(64), 'x');
    for (char& c : payload) c = static_cast<char>('a' + rng.below(26));
    const Frame in = make_frame(
        static_cast<FrameType>(1 + rng.below(13)),
        static_cast<std::uint32_t>(rng.below(1u << 20)), payload);
    std::string bytes = encode_frame(in);
    const bool mutate = rng.below(2) == 0;
    if (mutate) bytes[rng.below(bytes.size())] ^= char(1 + rng.below(255));
    FrameDecoder dec;
    dec.feed(bytes);
    const auto out = dec.next();
    if (!mutate) {
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(out->payload, in.payload);
      EXPECT_EQ(out->type, in.type);
      EXPECT_EQ(out->seq, in.seq);
    } else if (out.has_value()) {
      // A mutation that still decodes must have produced a frame whose
      // bytes re-encode identically (i.e. it flipped nothing the CRC
      // covers -- impossible -- or cancelled out).  Accept only exact
      // equality with the original.
      EXPECT_EQ(encode_frame(*out), encode_frame(in));
    } else {
      EXPECT_TRUE(dec.poisoned() || dec.buffered() > 0);
    }
  }
}

TEST(Frame, FuzzMutatedFrameStreamsDecodeAPrefixOrPoison) {
  // A connection's byte stream, damaged anywhere and cut into arbitrary
  // fragments: the frames before the first damaged byte decode exactly;
  // every later frame is bytes really in the stream, at the offset where
  // the decoder read it; poison is for good (the frames completed before
  // it drain, then nothing more); the buffer stays bounded; nothing
  // throws.
  constexpr std::size_t kBound = kHeaderSize + kMaxPayload + kTrailerSize;
  util::Rng rng(0x5743EA);
  int poisoned = 0, decoded_past_damage = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<Frame> frames(2 + rng.below(7));
    std::vector<std::size_t> ends;  // offset just past each frame's bytes
    std::string valid;
    for (Frame& f : frames) {
      std::string payload(rng.below(257), '\0');
      for (char& c : payload) c = static_cast<char>(rng.below(256));
      f = make_frame(static_cast<FrameType>(1 + rng.below(13)),
                     static_cast<std::uint32_t>(rng.below(1ull << 32)),
                     std::move(payload));
      valid += encode_frame(f);
      ends.push_back(valid.size());
    }
    std::string bytes = valid;
    const std::uint64_t edits = 1 + rng.below(3);
    for (std::uint64_t k = 0; k < edits && !bytes.empty(); ++k) {
      const std::size_t at = rng.below(bytes.size());
      switch (rng.below(5)) {
        case 0:
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.below(8)));
          break;
        case 1: bytes.insert(at, 1, static_cast<char>(rng.below(256))); break;
        case 2: bytes.erase(at, 1); break;
        case 3: bytes.resize(at); break;
        default: {  // a duplicated frame, inserted at a frame boundary
          const std::size_t f = rng.below(frames.size());
          const std::size_t begin = f == 0 ? 0 : ends[f - 1];
          bytes.insert(std::min(ends[rng.below(ends.size())], bytes.size()),
                       valid, begin, ends[f] - begin);
        }
      }
    }
    const std::size_t damage = static_cast<std::size_t>(
        std::mismatch(bytes.begin(), bytes.end(), valid.begin(), valid.end())
            .first -
        bytes.begin());

    FrameDecoder dec;
    std::size_t offset = 0;  // stream offset of the next decoded frame
    std::size_t decoded = 0;
    bool dead = false;
    for (std::size_t pos = 0; pos < bytes.size();) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.below(64), bytes.size() - pos);
      bool fed = false;
      ASSERT_NO_THROW(fed = dec.feed(bytes.data() + pos, n)) << round;
      pos += n;
      EXPECT_LE(dec.buffered(), kBound) << round;
      if (dead) {
        EXPECT_FALSE(fed) << round;
        EXPECT_FALSE(dec.next().has_value()) << round;
        continue;
      }
      while (const std::optional<Frame> f = dec.next()) {
        const std::string enc = encode_frame(*f);
        if (offset + enc.size() <= damage) {
          ASSERT_LT(decoded, frames.size()) << round;
          EXPECT_EQ(enc, encode_frame(frames[decoded])) << round;
        } else {
          EXPECT_EQ(bytes.compare(offset, enc.size(), enc), 0) << round;
          ++decoded_past_damage;
        }
        offset += enc.size();
        ++decoded;
      }
      if (!fed) {
        dead = true;
        ++poisoned;
        EXPECT_TRUE(dec.poisoned()) << round;
        EXPECT_FALSE(dec.next().has_value()) << round;
      }
    }
    // Damage cannot stop the decoder before it: every whole frame ahead
    // of the first damaged byte came out.
    const auto intact = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), damage) - ends.begin());
    EXPECT_GE(decoded, intact) << round;
  }
  // The fuzz reaches both kinds of damage: fatal, and frames past it.
  EXPECT_GT(poisoned, 0);
  EXPECT_GT(decoded_past_damage, 0);
}

TEST(Frame, PayloadHelpersAreBoundsChecked) {
  std::string buf;
  put_u32(buf, 0xDEADBEEFu);
  put_u64(buf, 0x0123456789ABCDEFull);
  std::size_t pos = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  ASSERT_TRUE(get_u32(buf, pos, u32));
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(get_u64(buf, pos, u64));
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  // Reads past the end fail instead of walking off the buffer.
  EXPECT_FALSE(get_u32(buf, pos, u32));
  pos = buf.size() - 3;
  EXPECT_FALSE(get_u32(buf, pos, u32));
  pos = buf.size() - 7;
  EXPECT_FALSE(get_u64(buf, pos, u64));
}

// --- retry helpers ---------------------------------------------------------

TEST(Retry, WriteFullAndReadFullMoveEveryByte) {
  util::Pipe p = util::make_pipe();
  const std::string msg = "short write discipline";
  ASSERT_TRUE(util::write_full(p.write_fd, msg.data(), msg.size()));
  std::string got(msg.size(), '\0');
  ASSERT_EQ(util::read_full(p.read_fd, got.data(), got.size()),
            static_cast<ssize_t>(msg.size()));
  EXPECT_EQ(got, msg);
  util::close_fd(p.write_fd);
  // EOF: read_full reports the short count, not an error.
  char extra[8];
  EXPECT_EQ(util::read_full(p.read_fd, extra, sizeof extra), 0);
  util::close_fd(p.read_fd);
}

TEST(Retry, RetryEintrPassesThroughResults) {
  int calls = 0;
  const long r = util::retry_eintr([&]() -> long {
    ++calls;
    if (calls < 3) {
      errno = EINTR;
      return -1;
    }
    return 17;
  });
  EXPECT_EQ(r, 17);
  EXPECT_EQ(calls, 3);
  errno = ENOENT;
  const long e = util::retry_eintr([]() -> long { return -1; });
  EXPECT_EQ(e, -1);
}

// --- job queue -------------------------------------------------------------

std::string temp_file(const std::string& name) {
  return ::testing::TempDir() + "xtest_serve_" + name + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

TEST(JobQueue, PriorityOrderFifoWithinBand) {
  JobQueue q("");  // in-memory
  q.enqueue("scn-a", 3);
  q.enqueue("scn-b", 7);
  q.enqueue("scn-c", 7);
  q.enqueue("scn-d", 9);
  ASSERT_NE(q.next_queued(), nullptr);
  EXPECT_EQ(q.next_queued()->scenario, "scn-d");
  q.next_queued()->state = JobState::kDone;
  EXPECT_EQ(q.next_queued()->scenario, "scn-b");  // FIFO inside priority 7
  q.next_queued()->state = JobState::kDone;
  EXPECT_EQ(q.next_queued()->scenario, "scn-c");
}

TEST(JobQueue, PersistsAndReloadsEverything) {
  const std::string path = temp_file("queue_roundtrip");
  std::remove(path.c_str());
  {
    JobQueue q(path);
    q.enqueue("multi\nline\nscenario", 4);
    const std::uint64_t id = q.enqueue("second", 8);
    Job* j = q.find(id);
    j->state = JobState::kDone;
    j->verdicts = "DDUT";
    j->stats_json = "{\"defects\":4}";
    j->exit_code = 0;
    j->attempts = 1;
    q.persist();
  }
  JobQueue q2(path);
  EXPECT_EQ(q2.load(), 2u);
  EXPECT_EQ(q2.salvage_dropped(), 0u);
  ASSERT_NE(q2.find(1), nullptr);
  EXPECT_EQ(q2.find(1)->scenario, "multi\nline\nscenario");
  EXPECT_EQ(q2.find(1)->state, JobState::kQueued);
  ASSERT_NE(q2.find(2), nullptr);
  EXPECT_EQ(q2.find(2)->state, JobState::kDone);
  EXPECT_EQ(q2.find(2)->verdicts, "DDUT");
  EXPECT_EQ(q2.find(2)->stats_json, "{\"defects\":4}");
  // New ids continue past everything reloaded.
  EXPECT_EQ(q2.enqueue("third", 5), 3u);
  std::remove(path.c_str());
}

TEST(JobQueue, RunningJobReloadsAsQueued) {
  const std::string path = temp_file("queue_running");
  std::remove(path.c_str());
  {
    JobQueue q(path);
    const std::uint64_t id = q.enqueue("interrupted", 5);
    q.find(id)->state = JobState::kRunning;
    q.persist();
  }
  JobQueue q2(path);
  ASSERT_EQ(q2.load(), 1u);
  EXPECT_EQ(q2.find(1)->state, JobState::kQueued);
  std::remove(path.c_str());
}

TEST(JobQueue, TornTailKeepsValidPrefix) {
  const std::string path = temp_file("queue_torn");
  std::remove(path.c_str());
  {
    JobQueue q(path);
    q.enqueue("job-one", 5);
    q.enqueue("job-two", 5);
  }
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec);
  // Truncate at every byte offset: load must never throw and must keep a
  // valid prefix of records (possibly zero).
  for (std::uintmax_t cut = 0; cut < size; cut += 7) {
    {
      JobQueue q(path);
      q.enqueue("job-one", 5);
      q.enqueue("job-two", 5);
    }
    std::filesystem::resize_file(path, cut, ec);
    ASSERT_FALSE(ec);
    JobQueue q2(path);
    const std::size_t kept = q2.load();
    EXPECT_LE(kept, 2u);
    for (const Job& j : q2.jobs())
      EXPECT_TRUE(j.scenario == "job-one" || j.scenario == "job-two");
  }
  std::remove(path.c_str());
}

TEST(JobQueue, ForeignFileRefusedLoudly) {
  const std::string path = temp_file("queue_foreign");
  {
    std::ofstream out(path);
    out << "this is not a queue file\n";
  }
  JobQueue q(path);
  EXPECT_THROW(q.load(), std::runtime_error);
  std::remove(path.c_str());
}

TEST(JobQueue, WrappingRecordLengthsAreDamageNotAnOffset) {
  // Two payload lengths whose sum wraps to one byte before the record:
  // the loader must drop the record, never index outside the file.
  const std::string path = temp_file("queue_wrap");
  std::remove(path.c_str());
  { JobQueue(path).persist(); }
  const std::string header = util::read_file(path).value();
  const std::string head = "job 1 5 0 0 0 0 9223372036854775808 ";
  const std::string tail = " 0 0\n";
  const std::size_t pos = header.size() + head.size() + 19 + tail.size();
  const std::string wrap = std::to_string((std::size_t{1} << 63) - 1 - pos);
  ASSERT_EQ(wrap.size(), 19u);
  {
    std::ofstream out(path);
    out << header << head << wrap << tail << "payload\n";
  }
  JobQueue q(path);
  EXPECT_EQ(q.load(), 0u);
  EXPECT_EQ(q.salvage_dropped(), 1u);
  std::remove(path.c_str());
}

TEST(JobQueue, LoadSweepsAStaleTmpFromAKilledPersist) {
  const std::string path = temp_file("queue_stale_tmp");
  std::remove(path.c_str());
  {
    JobQueue q(path);
    q.enqueue("survivor", 5);
  }
  // A daemon SIGKILLed mid-persist leaves its tmp; a tagged writer's tmp
  // on the same path is not the queue's to sweep.
  const std::string stale = path + ".tmp.4242";
  const std::string tagged = path + ".tmp.s0.4242";
  for (const std::string& tmp : {stale, tagged}) {
    std::ofstream out(tmp);
    out << "torn write\n";
  }
  JobQueue q(path);
  EXPECT_EQ(q.load(), 1u);
  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_TRUE(std::filesystem::exists(tagged));
  std::remove(tagged.c_str());
  std::remove(path.c_str());
}

TEST(JobQueue, FileBytesArePinned) {
  // A restarted daemon must reload any queue an older one wrote: a queue
  // with a queued, a done and a failed job is exactly these bytes.
  const std::string path = temp_file("queue_golden");
  std::remove(path.c_str());
  {
    JobQueue q(path);
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
  }
  EXPECT_EQ(util::read_file(path).value_or(""),
            "xtest-serve-queue v1\n"
            "next 4\n"
            "crc fb0f7b66\n"
            "job 1 7 0 0 0 0 25 0 0 0\n"
            "name = queued\n"
            "bus = data\n"
            "\n"
            "crc 0b3c4b12\n"
            "job 2 5 2 1 6 1 12 4 13 0\n"
            "name = done\n"
            "DUTE{\"defects\":4}\n"
            "crc 68a893bb\n"
            "job 3 0 3 2 4 0 14 0 0 4\n"
            "name = failed\n"
            "boom\n"
            "crc 7727c8ad\n");
  std::remove(path.c_str());
}

TEST(JobQueue, EnqueueRollsBackWhenPersistFails) {
  const std::string path = temp_file("queue_rollback");
  std::remove(path.c_str());
  JobQueue q(path);
  util::FaultInjector::global().configure("serve.enqueue@1");
  EXPECT_THROW(q.enqueue("doomed", 5), std::exception);
  util::FaultInjector::global().disarm();
  EXPECT_TRUE(q.jobs().empty());
  // The rolled-back id is reissued, so ids stay dense and durable.
  EXPECT_EQ(q.enqueue("survivor", 5), 1u);
  std::remove(path.c_str());
}

// --- live daemon -----------------------------------------------------------

spec::ScenarioSpec serve_spec(std::size_t defects = 6) {
  spec::ScenarioSpec s;
  s.name = "serve-test";
  s.bus = soc::BusKind::kData;
  s.defect_count = defects;
  s.max_sessions = 1;
  s.threads = 1;
  s.workers = 2;
  return s;
}

std::string reference_chars(const spec::ScenarioSpec& s) {
  const auto lib = s.make_library();
  const auto sessions = s.make_sessions();
  const sim::CampaignOptions opts = s.campaign_options(nullptr);
  const std::vector<sim::Verdict> v =
      s.online.enabled
          ? sim::run_online_detection_sessions(s.system, s.online, sessions,
                                               s.bus, lib, opts)
                .verdicts
          : sim::run_detection_sessions(s.system, sessions, s.bus, lib, opts);
  std::string chars;
  for (const sim::Verdict verdict : v) chars.push_back(sim::to_char(verdict));
  return chars;
}

class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // In-process daemon, real worker processes: point workers at the
    // built binary, not this test executable.
    ::setenv("XTEST_WORKER_BINARY", XTEST_BINARY_PATH, 1);
    queue_path_ = temp_file(std::string("srv_") +
                            ::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name());
    std::remove(queue_path_.c_str());
  }

  void TearDown() override {
    stop();
    util::FaultInjector::global().disarm();
    std::remove(queue_path_.c_str());
    // Per-job scratch (checkpoints, job scenario files).
    for (std::uint64_t id = 1; id <= 8; ++id) {
      const std::string base = job_base(id);
      std::remove((base + ".job.scn").c_str());
      sim::Supervisor::remove_shard_checkpoints(base, 80);
    }
  }

  void start(ServerOptions o = {}) {
    cancel_.store(false);
    if (::getenv("XTEST_SERVE_TEST_LOG")) o.log = &std::cerr;
    o.tcp_port = 0;
    o.queue_path = queue_path_;
    o.cancel = &cancel_;
    server_ = std::make_unique<Server>(std::move(o));
    server_->start();
    port_ = server_->bound_port();
    thread_ = std::thread([this] { pending_ = server_->run(); });
  }

  void stop() {
    cancel_.store(true);
    if (thread_.joinable()) thread_.join();
    server_.reset();
  }

  /// The per-job checkpoint base the daemon derives from the queue path.
  std::string job_base(std::uint64_t id) const {
    return queue_path_ + ".job" + std::to_string(id) + ".ckpt";
  }

  ClientOptions client_options() const {
    ClientOptions o;
    o.tcp_port = port_;
    o.reconnect_backoff_ms = 20;
    return o;
  }

  std::string queue_path_;
  std::atomic<bool> cancel_{false};
  std::unique_ptr<Server> server_;
  std::thread thread_;
  std::uint16_t port_ = 0;
  std::size_t pending_ = SIZE_MAX;
};

TEST_F(ServeFixture, SubmitStreamsBitwiseEqualVerdicts) {
  const spec::ScenarioSpec s = serve_spec();
  const std::string reference = reference_chars(s);
  start();
  Client c(client_options());
  const std::uint64_t job = c.submit(spec::serialize_scenario(s), 5);
  EXPECT_EQ(job, 1u);
  const JobResult r = c.wait(job);
  EXPECT_FALSE(r.failed);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.verdicts, reference);
  EXPECT_FALSE(r.stats_json.empty());
  stop();
  EXPECT_EQ(pending_, 0u);
}

TEST_F(ServeFixture, ReplayAfterReconnectMatches) {
  const spec::ScenarioSpec s = serve_spec();
  const std::string reference = reference_chars(s);
  start();
  std::uint64_t job = 0;
  {
    Client first(client_options());
    job = first.submit(spec::serialize_scenario(s), 5);
    const JobResult r = first.wait(job);
    EXPECT_EQ(r.verdicts, reference);
  }  // first client gone
  // A brand-new client resumes from seq 0 and gets the identical stream.
  Client second(client_options());
  const JobResult replay = second.wait(job);
  EXPECT_EQ(replay.verdicts, reference);
  EXPECT_EQ(replay.exit_code, 0);
}

TEST_F(ServeFixture, MalformedBytesDropOnlyThatConnection) {
  start();
  int fd = util::connect_tcp(port_);
  ASSERT_GE(fd, 0);
  const std::string garbage = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
  ASSERT_TRUE(util::write_full(fd, garbage.data(), garbage.size()));
  // The daemon answers with a kError frame and closes; read to EOF.
  char buf[4096];
  while (util::retry_eintr([&] { return ::read(fd, buf, sizeof buf); }) > 0) {
  }
  util::close_fd(fd);
  // The daemon is alive and well for the next client.
  Client c(client_options());
  EXPECT_NO_THROW(c.status());
  EXPECT_GE(server_->stats().frames_rejected, 1u);
}

TEST_F(ServeFixture, OversizedFrameRejectedWithoutCrash) {
  start();
  int fd = util::connect_tcp(port_);
  ASSERT_GE(fd, 0);
  std::string header;
  header.append(kMagic, sizeof kMagic);
  header.push_back(char(kProtocolVersion));
  header.push_back(char(static_cast<std::uint8_t>(FrameType::kSubmit)));
  header.push_back('\0');
  header.push_back('\0');
  put_u32(header, 1);
  put_u32(header, kMaxPayload + 1);
  ASSERT_TRUE(util::write_full(fd, header.data(), header.size()));
  char buf[4096];
  while (util::retry_eintr([&] { return ::read(fd, buf, sizeof buf); }) > 0) {
  }
  util::close_fd(fd);
  Client c(client_options());
  EXPECT_NO_THROW(c.status());
}

TEST_F(ServeFixture, SubmitRetransmitIsDedupedPerConnection) {
  const spec::ScenarioSpec s = serve_spec(4);
  start();
  int fd = util::connect_tcp(port_);
  ASSERT_GE(fd, 0);
  Frame submit;
  submit.type = FrameType::kSubmit;
  submit.seq = 11;
  submit.payload.push_back(char(5));
  submit.payload += spec::serialize_scenario(s);
  const std::string bytes = encode_frame(submit);
  // The "ack was lost" path: the client sends the same submit twice.
  ASSERT_TRUE(util::write_full(fd, bytes.data(), bytes.size()));
  ASSERT_TRUE(util::write_full(fd, bytes.data(), bytes.size()));
  FrameDecoder dec;
  std::vector<Frame> acks;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (acks.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    char buf[4096];
    const ssize_t n =
        util::retry_eintr([&] { return ::read(fd, buf, sizeof buf); });
    if (n <= 0) break;
    ASSERT_TRUE(dec.feed(buf, static_cast<std::size_t>(n)));
    while (auto f = dec.next())
      if (f->type == FrameType::kSubmitAck) acks.push_back(*f);
  }
  util::close_fd(fd);
  ASSERT_EQ(acks.size(), 2u);
  // Both acks name the SAME job: one submit, one enqueue.
  std::size_t pos = 0;
  std::uint32_t echo0 = 0, echo1 = 0;
  std::uint64_t job0 = 0, job1 = 0;
  ASSERT_TRUE(get_u32(acks[0].payload, pos, echo0));
  ASSERT_TRUE(get_u64(acks[0].payload, pos, job0));
  pos = 0;
  ASSERT_TRUE(get_u32(acks[1].payload, pos, echo1));
  ASSERT_TRUE(get_u64(acks[1].payload, pos, job1));
  EXPECT_EQ(echo0, 11u);
  EXPECT_EQ(echo1, 11u);
  EXPECT_EQ(job0, job1);
  Client c(client_options());
  const std::string status = c.status();
  EXPECT_EQ(status.find("job 2"), std::string::npos) << status;
}

/// Sends `frames` on a fresh connection and returns the job id of the
/// first kSubmitAck it reads back (0 when none arrives).
std::uint64_t submit_on_new_connection(std::uint16_t port,
                                       const std::vector<Frame>& frames) {
  int fd = util::connect_tcp(port);
  if (fd < 0) return 0;
  for (const Frame& f : frames) {
    const std::string bytes = encode_frame(f);
    if (!util::write_full(fd, bytes.data(), bytes.size())) {
      util::close_fd(fd);
      return 0;
    }
  }
  FrameDecoder dec;
  std::uint64_t job = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (job == 0 && std::chrono::steady_clock::now() < deadline) {
    char buf[4096];
    const ssize_t n =
        util::retry_eintr([&] { return ::read(fd, buf, sizeof buf); });
    if (n <= 0 || !dec.feed(buf, static_cast<std::size_t>(n))) break;
    while (auto f = dec.next()) {
      std::size_t pos = 0;
      std::uint32_t echo = 0;
      if (f->type == FrameType::kSubmitAck &&
          get_u32(f->payload, pos, echo) && get_u64(f->payload, pos, job))
        break;
    }
  }
  util::close_fd(fd);
  return job;
}

TEST_F(ServeFixture, SubmitResentOnANewConnectionIsDedupedByClientId) {
  // The ack is lost with its connection; the client reconnects, says the
  // same Hello and resends the same seq.  The daemon must ack the job it
  // already has instead of enqueueing a second one.
  const spec::ScenarioSpec s = serve_spec(4);
  start();
  std::string id;
  put_u64(id, 0x5eedf00dcafe0001ull);
  std::string submit(1, char(5));
  submit += spec::serialize_scenario(s);
  const std::vector<Frame> frames = {make_frame(FrameType::kHello, 0, id),
                                     make_frame(FrameType::kSubmit, 7, submit)};
  const std::uint64_t first = submit_on_new_connection(port_, frames);
  const std::uint64_t second = submit_on_new_connection(port_, frames);
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, first);
  Client c(client_options());
  const std::string status = c.status();
  EXPECT_NE(status.find("job 1 "), std::string::npos) << status;
  EXPECT_EQ(status.find("job 2"), std::string::npos) << status;
}

TEST_F(ServeFixture, LostSubmitAckDoesNotEnqueueTwice) {
  // The daemon's first socket write -- the one carrying the ack -- fails
  // and drops the connection after the job is queued; Client::submit
  // reconnects and resends.
  const spec::ScenarioSpec s = serve_spec(4);
  start();
  util::FaultInjector::global().configure("serve.write@1");
  Client c(client_options());
  const std::uint64_t job = c.submit(spec::serialize_scenario(s), 5);
  util::FaultInjector::global().disarm();
  EXPECT_EQ(job, 1u);
  const std::string status = c.status();
  EXPECT_EQ(status.find("job 2"), std::string::npos) << status;
}

TEST_F(ServeFixture, SubmitOfANegativeDefectCountIsRejected) {
  start();
  Client c(client_options());
  try {
    c.submit("name = negative\ndefects = -1\n", 5);
    FAIL() << "a wrapped defect count was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("defects"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(c.status(), "");  // nothing was queued
}

TEST_F(ServeFixture, InvalidScenarioIsRejectedInBand) {
  start();
  Client c(client_options());
  EXPECT_THROW(c.submit("definitely = not\na = scenario", 5),
               std::runtime_error);
  // The daemon survives the rejection.
  EXPECT_NO_THROW(c.status());
}

TEST_F(ServeFixture, OnlineJobStreamsBitwiseEqualVerdicts) {
  // The daemon runs every job supervised; an on-line job's shards carry
  // full outcomes through their checkpoints and stream the in-process
  // verdicts.
  spec::ScenarioSpec s = spec::builtin_scenario("online-baseline");
  s.defect_count = 6;
  s.max_sessions = 1;
  s.threads = 1;
  const std::string reference = reference_chars(s);
  start();
  Client c(client_options());
  const JobResult r = c.wait(c.submit(spec::serialize_scenario(s), 5));
  EXPECT_FALSE(r.failed) << r.error;
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.verdicts, reference);
}

TEST_F(ServeFixture, FinishedJobRemovesEveryShardCheckpoint) {
  // The worker count has no upper bound; a finished job must leave none
  // of its shard checkpoints behind, however many it had.
  spec::ScenarioSpec s = serve_spec(1);
  s.workers = 65;
  start();
  Client c(client_options());
  const std::uint64_t job = c.submit(spec::serialize_scenario(s), 5);
  const JobResult r = c.wait(job);
  EXPECT_FALSE(r.failed) << r.error;
  stop();
  for (std::size_t k = 0; k < s.workers; ++k) {
    const std::string shard =
        sim::Supervisor::shard_checkpoint_path(job_base(job), k);
    EXPECT_FALSE(std::filesystem::exists(shard)) << shard;
  }
}

TEST_F(ServeFixture, JobWhoseRunThrowsIsRetriedThenRecovers) {
  // An empty directory where the job's worker scenario file goes makes
  // the first attempt's write throw; that attempt's cleanup removes the
  // directory, so the retry runs the job to the in-process verdicts.
  const spec::ScenarioSpec s = serve_spec(4);
  const std::string reference = reference_chars(s);
  const std::string blocker = job_base(1) + ".job.scn";
  std::filesystem::remove_all(blocker);
  ASSERT_TRUE(std::filesystem::create_directory(blocker));
  start();
  Client c(client_options());
  const JobResult r = c.wait(c.submit(spec::serialize_scenario(s), 5));
  EXPECT_FALSE(r.failed) << r.error;
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.verdicts, reference);
  EXPECT_EQ(server_->stats().job_retries, 1u);
}

TEST_F(ServeFixture, JobWhoseRunKeepsThrowingFailsInBand) {
  // A directory cleanup cannot remove fails every attempt: after its
  // retries the job fails in band, exit 4, naming the path.
  const std::string blocker = job_base(1) + ".job.scn";
  std::filesystem::remove_all(blocker);
  ASSERT_TRUE(std::filesystem::create_directory(blocker));
  std::ofstream(blocker + "/pin") << "x";
  start();
  Client c(client_options());
  const JobResult r =
      c.wait(c.submit(spec::serialize_scenario(serve_spec(4)), 5));
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.error.find(blocker), std::string::npos) << r.error;
  const ServerStats st = server_->stats();
  EXPECT_EQ(st.job_retries, 2u);
  EXPECT_EQ(st.jobs_failed, 1u);
  stop();
  std::filesystem::remove_all(blocker);
}

TEST_F(ServeFixture, EnqueueFaultRejectsSubmitAndRollsBack) {
  start();
  Client c(client_options());
  util::FaultInjector::global().configure("serve.enqueue@1");
  EXPECT_THROW(c.submit(spec::serialize_scenario(serve_spec(4)), 5),
               std::runtime_error);
  util::FaultInjector::global().disarm();
  // The daemon recovers and the rolled-back id is reissued.
  const std::uint64_t job =
      c.submit(spec::serialize_scenario(serve_spec(4)), 5);
  EXPECT_EQ(job, 1u);
}

TEST_F(ServeFixture, IdleConnectionsAreReaped) {
  ServerOptions o;
  o.idle_timeout_ms = 150;
  start(std::move(o));
  int fd = util::connect_tcp(port_);
  ASSERT_GE(fd, 0);
  // Say nothing: the half-open deadline must close us.
  char buf[16];
  const ssize_t n =
      util::retry_eintr([&] { return ::read(fd, buf, sizeof buf); });
  EXPECT_LE(n, 0);
  util::close_fd(fd);
  EXPECT_GE(server_->stats().idle_reaped, 1u);
}

TEST_F(ServeFixture, DrainRequeuesRunningJobAndRestartResumes) {
  const spec::ScenarioSpec s = serve_spec(8);
  const std::string reference = reference_chars(s);
  start();
  std::uint64_t job = 0;
  {
    Client c(client_options());
    job = c.submit(spec::serialize_scenario(s), 5);
    // Watch until the job stream is live, then abandon mid-stream (the
    // client-kill shape) and drain the daemon mid-run.
    const JobResult peek =
        c.wait(job, [](const JobEvent&) { return false; });
    EXPECT_TRUE(peek.aborted);
    c.kill_connection();
  }
  stop();  // SIGTERM shape: drain, requeue the running job, persist

  // Second daemon incarnation on the same queue file.
  start();
  Client c2(client_options());
  const JobResult r = c2.wait(job);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.verdicts, reference);
  stop();
  EXPECT_EQ(pending_, 0u);
}

TEST_F(ServeFixture, StatusListsJobs) {
  const spec::ScenarioSpec s = serve_spec(4);
  start();
  Client c(client_options());
  const std::uint64_t job = c.submit(spec::serialize_scenario(s), 7);
  const std::string status = c.status();
  EXPECT_NE(status.find("job " + std::to_string(job)), std::string::npos);
  EXPECT_NE(status.find("prio=7"), std::string::npos);
}

// --- stats json hardening (parse_stats_json contract) ----------------------

TEST(StatsJson, TruncatedObjectThrowsTyped) {
  util::CampaignStats out;
  EXPECT_THROW(
      util::parse_stats_json("{\"defects\":12,\"retries\":0", out),
      util::StatsJsonError);
}

TEST(StatsJson, MalformedKnownValueThrowsTyped) {
  util::CampaignStats out;
  EXPECT_THROW(util::parse_stats_json("{\"defects\": twelve}", out),
               util::StatsJsonError);
  EXPECT_THROW(util::parse_stats_json("{\"wall_seconds\": nan}", out),
               util::StatsJsonError);
}

TEST(StatsJson, OutOfRangeCounterThrowsTyped) {
  // An integer counter holds only what its type holds; anything else is
  // damage, never a cast.
  for (const char* line :
       {"{\"defects\":-1}", "{\"detected\":1e300}", "{\"retries\":2.5}",
        "{\"threads\":4294967296}",
        "{\"simulated_cycles\":18446744073709551616}"}) {
    util::CampaignStats out;
    EXPECT_THROW(util::parse_stats_json(line, out), util::StatsJsonError)
        << line;
  }
  // The edges still parse: the largest `unsigned`, a negative zero, and a
  // fractional double where the field is one.
  util::CampaignStats ok;
  EXPECT_TRUE(util::parse_stats_json(
      "{\"threads\":4294967295,\"defects\":-0,\"wall_seconds\":0.5}", ok));
  EXPECT_EQ(ok.threads, 4294967295u);
  EXPECT_EQ(ok.defects_simulated, 0u);
  EXPECT_DOUBLE_EQ(ok.wall_seconds, 0.5);
}

TEST(StatsJson, ConflictingDuplicateKeyThrowsTyped) {
  util::CampaignStats out;
  EXPECT_THROW(
      util::parse_stats_json("{\"defects\":12,\"defects\":13}", out),
      util::StatsJsonError);
  // Agreeing duplicates are merely redundant, not damaged.
  util::CampaignStats ok;
  EXPECT_TRUE(
      util::parse_stats_json("{\"defects\":12,\"defects\":12}", ok));
  EXPECT_EQ(ok.defects_simulated, 12u);
}

TEST(StatsJson, FuzzRoundTripProperty) {
  // Property: for randomized stats, json() -> parse -> json() is a fixed
  // point on every raw counter parse_stats_json restores.
  util::Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    util::CampaignStats st;
    st.defects_simulated = rng.below(1u << 20);
    st.simulated_cycles = rng.below(1u << 30);
    st.retries = rng.below(100);
    st.restored_from_checkpoint = rng.below(100);
    st.salvaged_sections = rng.below(10);
    st.dropped_slots = rng.below(1000);
    st.online_rounds = rng.below(1u << 20);
    st.online_detection_latency_cycles = rng.below(1u << 30);
    util::CampaignStats back;
    ASSERT_TRUE(util::parse_stats_json(st.json("fuzz"), back));
    EXPECT_EQ(back.defects_simulated, st.defects_simulated);
    EXPECT_EQ(back.simulated_cycles, st.simulated_cycles);
    EXPECT_EQ(back.retries, st.retries);
    EXPECT_EQ(back.restored_from_checkpoint, st.restored_from_checkpoint);
    EXPECT_EQ(back.salvaged_sections, st.salvaged_sections);
    EXPECT_EQ(back.dropped_slots, st.dropped_slots);
    EXPECT_EQ(back.online_rounds, st.online_rounds);
    EXPECT_EQ(back.online_detection_latency_cycles,
              st.online_detection_latency_cycles);
  }
}

}  // namespace
}  // namespace xtest::serve
