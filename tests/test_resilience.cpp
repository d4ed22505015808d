// Campaign resilience: verdict taxonomy, defect quarantine, and
// checkpoint/resume equivalence.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hwbist/bist.h"
#include "hwbist/random_patterns.h"
#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "sim/signature.h"
#include "sim/verdict.h"
#include "util/fault_injector.h"

namespace xtest::sim {
namespace {

constexpr std::uint64_t kSeed = 20010618;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---------------------------------------------------------------------------
// Verdict taxonomy.

TEST(Verdicts, ClassifyCoversAllThreeTesterOutcomes) {
  ResponseSnapshot gold;
  gold.completed = true;
  gold.values = {0x42, 0x17};

  ResponseSnapshot same = gold;
  EXPECT_EQ(classify(gold, same), Verdict::kUndetected);

  ResponseSnapshot mismatch = gold;
  mismatch.values[1] = 0x18;
  EXPECT_EQ(classify(gold, mismatch), Verdict::kDetected);

  // Never reached HLT: the tester times out -- even if the response cells
  // happen to hold the expected values.
  ResponseSnapshot hung = gold;
  hung.completed = false;
  EXPECT_EQ(classify(gold, hung), Verdict::kDetectedByTimeout);
}

TEST(Verdicts, CharCodesRoundTrip) {
  for (const Verdict v : {Verdict::kUndetected, Verdict::kDetected,
                          Verdict::kDetectedByTimeout, Verdict::kSimError}) {
    Verdict back = Verdict::kUndetected;
    ASSERT_TRUE(verdict_from_char(to_char(v), back));
    EXPECT_EQ(back, v);
  }
  Verdict unused;
  EXPECT_FALSE(verdict_from_char('x', unused));
  EXPECT_FALSE(verdict_from_char('.', unused));
}

TEST(Verdicts, MergePrefersStrongerEvidence) {
  using V = Verdict;
  EXPECT_EQ(merge_verdicts(V::kUndetected, V::kDetected), V::kDetected);
  EXPECT_EQ(merge_verdicts(V::kDetected, V::kDetectedByTimeout),
            V::kDetected);
  EXPECT_EQ(merge_verdicts(V::kUndetected, V::kDetectedByTimeout),
            V::kDetectedByTimeout);
  // A failed simulation must not be laundered into a clean pass.
  EXPECT_EQ(merge_verdicts(V::kSimError, V::kUndetected), V::kSimError);
  EXPECT_EQ(merge_verdicts(V::kSimError, V::kDetected), V::kDetected);
}

TEST(Verdicts, SimErrorIsNotCountedAsCoverage) {
  EXPECT_FALSE(is_detected(Verdict::kSimError));
  EXPECT_FALSE(is_detected(Verdict::kUndetected));
  EXPECT_TRUE(is_detected(Verdict::kDetected));
  EXPECT_TRUE(is_detected(Verdict::kDetectedByTimeout));
}

// ---------------------------------------------------------------------------
// Control-flow derailment is a timeout detection.

TEST(Resilience, DerailedJumpClassifiesAsDetectedByTimeout) {
  // A two-instruction program: JMP to a HLT.  The JMP's byte-2 fetch at v1
  // followed by the target fetch at v2 is exactly the MA test of a rising
  // delay on address line 5, so forcing that MAF corrupts the target
  // address: the victim bit stays low and the fetch lands at 0x000 in
  // undefined memory.  Undefined bytes read 0x00 = LDA, so the derailed
  // core executes an endless load sled and never reaches HLT -- the tester
  // sees a timeout, not a response mismatch.
  const xtalk::MafFault fault{5, xtalk::MafType::kRisingDelay,
                              xtalk::BusDirection::kCpuToCore};
  const xtalk::VectorPair pair = ma_test(cpu::kAddrBits, fault);
  const auto v1 = static_cast<cpu::Addr>(pair.v1.bits());
  const auto v2 = static_cast<cpu::Addr>(pair.v2.bits());

  sbst::TestProgram prog;
  prog.entry = static_cast<cpu::Addr>(v1 - 1);
  const auto jmp = cpu::encode_memref(cpu::Opcode::kJmp, v2);
  prog.image.set(prog.entry, jmp[0]);
  prog.image.set(v1, jmp[1]);
  prog.image.set(v2, cpu::encode_single(cpu::SingleOp::kHlt));
  prog.image.set(0x080, 0x42);
  prog.response_cells = {0x080};

  soc::System sys;
  const ResponseSnapshot gold = run_and_capture(sys, prog, 10'000);
  ASSERT_TRUE(gold.completed);
  ASSERT_EQ(gold.reason, cpu::HaltReason::kHltInstruction);

  sys.set_forced_maf(soc::ForcedMaf{soc::BusKind::kAddress, fault});
  const ResponseSnapshot hung =
      run_and_capture(sys, prog, gold.cycles * 16 + 1000);
  EXPECT_FALSE(hung.completed);
  EXPECT_EQ(hung.reason, cpu::HaltReason::kRunning);
  EXPECT_EQ(classify(gold, hung), Verdict::kDetectedByTimeout);
}

// ---------------------------------------------------------------------------
// Fault containment: a throwing defect is quarantined, not fatal.

xtalk::DefectLibrary poisoned_library(const xtalk::DefectLibrary& clean,
                                      std::size_t bad_index) {
  // A defect of the wrong bus width: constructible (4 wires, 6 factors),
  // but apply() on the 12-wire address bus throws -- deterministically, on
  // the first attempt and on the retry.
  std::vector<xtalk::Defect> defects = clean.defects();
  defects[bad_index] =
      xtalk::Defect(4, std::vector<double>(6, 1.0));
  return xtalk::DefectLibrary::from_defects(clean.config(), defects);
}

TEST(Resilience, ThrowingDefectIsQuarantinedAsSimError) {
  const soc::SystemConfig cfg;
  const auto clean_lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 12, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> clean =
      run_detection(cfg, prog.program, soc::BusKind::kAddress, clean_lib);

  constexpr std::size_t kBad = 5;
  const auto lib = poisoned_library(clean_lib, kBad);

  for (const unsigned threads : {1u, 4u}) {
    util::CampaignStats stats;
    CampaignOptions options;
    options.parallel = {threads};
    options.stats = &stats;
    const std::vector<Verdict> det =
        run_detection(cfg, prog.program, soc::BusKind::kAddress, lib,
                      options);

    // The campaign completed with exactly one quarantined defect; every
    // other verdict is untouched by its neighbour's failure.
    ASSERT_EQ(det.size(), lib.size());
    EXPECT_EQ(count_verdicts(det).sim_errors, 1u) << "threads=" << threads;
    EXPECT_EQ(det[kBad], Verdict::kSimError);
    for (std::size_t i = 0; i < det.size(); ++i)
      if (i != kBad) {
        EXPECT_EQ(det[i], clean[i]) << i;
      }

    EXPECT_EQ(stats.retries, 1u);     // retried once, serially
    EXPECT_EQ(stats.sim_errors, 1u);  // ...and still failed
    ASSERT_EQ(stats.error_log.size(), 1u);
    EXPECT_NE(stats.error_log[0].find("defect 5"), std::string::npos)
        << stats.error_log[0];
  }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume.

TEST(Checkpoint, RecordsRestoreAndSurviveReopen) {
  const std::string path = temp_path("ckpt_roundtrip");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "unit-test-key", /*flush_every=*/2);
    auto slots = ck.restore("campaign", 4);
    ASSERT_EQ(slots.size(), 4u);
    for (const auto& s : slots) EXPECT_FALSE(s.has_value());
    ck.record("campaign", 1, Verdict::kDetected);
    ck.record("campaign", 3, Verdict::kDetectedByTimeout);
    ck.flush();
    EXPECT_EQ(ck.completed(), 2u);
  }
  {
    CampaignCheckpoint ck(path, "unit-test-key");
    const auto slots = ck.restore("campaign", 4);
    EXPECT_FALSE(slots[0].has_value());
    EXPECT_EQ(slots[1], Verdict::kDetected);
    EXPECT_FALSE(slots[2].has_value());
    EXPECT_EQ(slots[3], Verdict::kDetectedByTimeout);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsKeyMismatchAndGarbage) {
  const std::string path = temp_path("ckpt_mismatch");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "bus=addr count=10 seed=1");
    ck.restore("campaign", 10);
    ck.flush();
  }
  EXPECT_THROW(CampaignCheckpoint(path, "bus=data count=10 seed=1"),
               std::runtime_error);
  {
    std::ofstream f(path);
    f << "not a checkpoint at all\n";
  }
  EXPECT_THROW(CampaignCheckpoint(path, "bus=addr count=10 seed=1"),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Resilience, ResumedCampaignIsBitwiseIdenticalToUninterrupted) {
  // Simulate a campaign killed halfway: the checkpoint holds the first
  // half of the verdicts, then a fresh run resumes from the file.  The
  // resumed verdict vector must be bitwise identical to an uninterrupted
  // run -- for every bus and at every thread count.
  const soc::SystemConfig cfg;
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();

  for (const soc::BusKind bus : {soc::BusKind::kAddress, soc::BusKind::kData,
                                 soc::BusKind::kControl}) {
    const auto lib = make_defect_library(cfg, bus, 10, kSeed);
    const std::vector<Verdict> uninterrupted =
        run_detection(cfg, prog.program, bus, lib);

    for (const unsigned threads : {1u, 4u}) {
      const std::string path =
          temp_path("ckpt_resume_" + soc::to_string(bus) + "_" +
                    std::to_string(threads));
      std::remove(path.c_str());
      {
        CampaignCheckpoint half(path, default_checkpoint_key(bus, lib));
        half.restore("campaign", lib.size());
        for (std::size_t i = 0; i < lib.size() / 2; ++i)
          half.record("campaign", i, uninterrupted[i]);
        half.flush();
      }

      util::CampaignStats stats;
      CampaignOptions options;
      options.parallel = {threads};
      options.stats = &stats;
      options.checkpoint_path = path;
      options.checkpoint_key = default_checkpoint_key(bus, lib);
      const std::vector<Verdict> resumed =
          run_detection(cfg, prog.program, bus, lib, options);

      EXPECT_EQ(resumed, uninterrupted)
          << soc::to_string(bus) << " threads=" << threads;
      EXPECT_EQ(stats.restored_from_checkpoint, lib.size() / 2);
      EXPECT_EQ(stats.defects_simulated, lib.size() - lib.size() / 2);

      // The finished checkpoint restores every slot.
      CampaignCheckpoint done(path, default_checkpoint_key(bus, lib));
      const auto slots = done.restore("campaign", lib.size());
      for (std::size_t i = 0; i < lib.size(); ++i)
        EXPECT_EQ(slots[i], uninterrupted[i]) << i;
      std::remove(path.c_str());
    }
  }
}

TEST(Resilience, SessionCampaignResumesWithPerSessionSections) {
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 8, kSeed);
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  const std::vector<Verdict> uninterrupted =
      run_detection_sessions(cfg, sessions, soc::BusKind::kData, lib);

  const std::string path = temp_path("ckpt_sessions");
  std::remove(path.c_str());
  for (const unsigned threads : {1u, 4u}) {
    util::CampaignStats stats;
    CampaignOptions options;
    options.parallel = {threads};
    options.stats = &stats;
    options.checkpoint_path = path;
    options.checkpoint_key = default_checkpoint_key(soc::BusKind::kData, lib);
    const std::vector<Verdict> det = run_detection_sessions(
        cfg, sessions, soc::BusKind::kData, lib, options);
    EXPECT_EQ(det, uninterrupted) << "threads=" << threads;
  }
  // The second loop iteration restored every session section of the first.
  std::remove(path.c_str());
}

TEST(Resilience, CheckpointPathWithoutAKeyIsRefused) {
  // The campaign has no identity of its own to guess: a checkpoint with no
  // key is refused before any file is touched.
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 2, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::string path = temp_path("ckpt_no_key");
  std::remove(path.c_str());
  CampaignOptions options;
  options.checkpoint_path = path;
  try {
    run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
    ADD_FAILURE() << "a checkpoint without a key was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------------
// Checkpoint corruption matrix: every damaged file either salvages a valid
// prefix or restarts cleanly -- never an unhandled exception, and never a
// wrong verdict.

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

TEST(Checkpoint, TruncatedMidSectionSalvagesLongestValidPrefix) {
  const std::string path = temp_path("ckpt_truncate_mid");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "k");
    for (const char* s : {"s0", "s1", "s2"}) ck.restore(s, 4);
    for (std::size_t i = 0; i < 4; ++i) {
      ck.record("s0", i, Verdict::kDetected);
      ck.record("s1", i, Verdict::kUndetected);
      ck.record("s2", i, Verdict::kDetectedByTimeout);
    }
    ck.flush();
  }
  const std::string full = read_file(path);
  const std::size_t cut = full.find("section s2");
  ASSERT_NE(cut, std::string::npos);
  write_file(path, full.substr(0, cut + 5));  // mid "section s2" header

  CampaignCheckpoint ck(path, "k");
  EXPECT_TRUE(ck.salvage().salvaged);
  EXPECT_EQ(ck.salvage().sections_kept, 2u);
  const auto s0 = ck.restore("s0", 4);
  const auto s2 = ck.restore("s2", 4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s0[i], Verdict::kDetected) << i;
    EXPECT_FALSE(s2[i].has_value()) << i;  // lost tail re-simulates
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, FlippedVerdictCharFailsTheSectionCrc) {
  const std::string path = temp_path("ckpt_bitflip");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "k");
    ck.restore("campaign", 6);
    for (std::size_t i = 0; i < 6; ++i)
      ck.record("campaign", i, Verdict::kDetected);
    ck.flush();
  }
  // Flip one verdict char to another *valid* char: only the CRC can tell.
  std::string text = read_file(path);
  const std::size_t crc2 = text.rfind("crc ");
  ASSERT_NE(crc2, std::string::npos);
  const std::size_t slot0 = crc2 - 7;  // 6 slot chars + newline before it
  ASSERT_EQ(text[slot0], 'D');
  text[slot0] = 'U';
  write_file(path, text);

  CampaignCheckpoint ck(path, "k");
  EXPECT_TRUE(ck.salvage().salvaged);
  EXPECT_EQ(ck.salvage().sections_kept, 0u);
  // Every completed verdict in the damaged tail is counted as lost work.
  EXPECT_EQ(ck.salvage().dropped_slots, 6u);
  for (const auto& slot : ck.restore("campaign", 6))
    EXPECT_FALSE(slot.has_value());
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptHeaderRestartsCleanlyInsteadOfMisreportingTheKey) {
  const std::string path = temp_path("ckpt_badheader");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "key-one");
    ck.restore("campaign", 4);
    ck.record("campaign", 0, Verdict::kDetected);
    ck.flush();
  }
  std::string text = read_file(path);
  const std::size_t crc_digit = text.find("\ncrc ") + 5;
  text[crc_digit] = text[crc_digit] == '0' ? '1' : '0';
  write_file(path, text);

  // A corrupt header means the stored key is unverifiable: even a
  // *different* campaign key must restart cleanly, not throw "mismatch"
  // against garbage.
  for (const char* key : {"key-one", "key-two"}) {
    CampaignCheckpoint ck(path, key);
    EXPECT_TRUE(ck.salvage().salvaged) << key;
    EXPECT_EQ(ck.salvage().sections_kept, 0u) << key;
    EXPECT_EQ(ck.completed(), 0u) << key;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, EmptyFileStartsFresh) {
  const std::string path = temp_path("ckpt_empty");
  write_file(path, "");
  CampaignCheckpoint ck(path, "k");
  EXPECT_FALSE(ck.salvage().salvaged);
  EXPECT_EQ(ck.completed(), 0u);
  for (const auto& slot : ck.restore("campaign", 3))
    EXPECT_FALSE(slot.has_value());
  std::remove(path.c_str());
}

TEST(Checkpoint, LegacyV1FileIsRefusedAndLeftUntouched) {
  // The pre-CRC v1 format is retired: like any foreign file it is refused
  // with an error naming the path, whatever its key, and never rewritten.
  const std::string path = temp_path("ckpt_v1");
  const std::string v1 =
      "xtest-checkpoint v1\n"
      "key k\n"
      "section campaign 4\n"
      "UD..\n";
  write_file(path, v1);
  for (const char* key : {"k", "other"}) {
    try {
      CampaignCheckpoint ck(path, key);
      ADD_FAILURE() << "a v1 checkpoint loaded under key " << key;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("not a checkpoint file"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(read_file(path), v1);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncationAtEveryByteOffsetSalvagesOrRestartsNeverThrows) {
  // The acceptance bar of the resilience layer: cut a valid v2 file at
  // *any* byte offset and reopening must yield a usable checkpoint whose
  // every restored slot matches what was recorded -- a slot is allowed to
  // be forgotten (re-simulated on resume), never wrong.  Both section
  // kinds: off-line verdicts, and on-line outcomes with their extra lines.
  const Verdict v[4] = {Verdict::kDetected, Verdict::kUndetected,
                        Verdict::kDetectedByTimeout, Verdict::kSimError};
  const auto outcome = [&v](std::size_t i) {
    return OnlineOutcome{.verdict = v[i],
                         .detection_latency_cycles = 100 * i + 7,
                         .rounds = i + 1,
                         .heartbeats = 8 * i,
                         .deadlines_late = i % 2,
                         .deadlines_missed = i / 2};
  };
  for (const bool online : {false, true}) {
    const std::string path = temp_path("ckpt_everyoffset_src");
    std::remove(path.c_str());
    {
      CampaignCheckpoint ck(path, "k");
      for (const char* section : {"alpha", "beta"}) {
        if (online)
          ck.restore_outcomes(section, 4);
        else
          ck.restore(section, 4);
      }
      for (std::size_t i = 0; i < 4; ++i) {
        if (online) {
          ck.record("alpha", i, outcome(i));
          ck.record("beta", i, outcome(3 - i));
        } else {
          ck.record("alpha", i, v[i]);
          ck.record("beta", i, v[3 - i]);
        }
      }
      ck.flush();
    }
    const std::string full = read_file(path);
    ASSERT_GT(full.size(), 40u);

    const std::string cut_path = temp_path("ckpt_everyoffset_cut");
    for (std::size_t len = 0; len <= full.size(); ++len) {
      write_file(cut_path, full.substr(0, len));
      try {
        CampaignCheckpoint ck(cut_path, "k");
        if (online) {
          const auto alpha = ck.restore_outcomes("alpha", 4);
          const auto beta = ck.restore_outcomes("beta", 4);
          for (std::size_t i = 0; i < 4; ++i) {
            if (alpha[i]) {
              EXPECT_EQ(*alpha[i], outcome(i)) << "len=" << len;
            }
            if (beta[i]) {
              EXPECT_EQ(*beta[i], outcome(3 - i)) << "len=" << len;
            }
          }
        } else {
          const auto alpha = ck.restore("alpha", 4);
          const auto beta = ck.restore("beta", 4);
          for (std::size_t i = 0; i < 4; ++i) {
            if (alpha[i]) {
              EXPECT_EQ(*alpha[i], v[i]) << "len=" << len;
            }
            if (beta[i]) {
              EXPECT_EQ(*beta[i], v[3 - i]) << "len=" << len;
            }
          }
        }
        if (len + 1 < full.size()) {
          // A real truncation (more than the trailing newline) always
          // cuts the last group's CRC line: something is salvaged or
          // dropped.
          EXPECT_TRUE(ck.salvage().salvaged || ck.completed() < 8u)
              << "len=" << len << " online=" << online;
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "truncation at byte " << len << " (online="
                      << online << ") threw: " << e.what();
      }
    }
    std::remove(path.c_str());
    std::remove(cut_path.c_str());
  }
}

TEST(Checkpoint, OfflineV2BytesArePinned) {
  // The supervisor's merge and external tooling read this format: an
  // off-line checkpoint is exactly these bytes, CRCs included.
  const std::string path = temp_path("ckpt_golden");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "golden-key");
    ck.restore("session0", 4);
    ck.restore("session2", 4);
    ck.record("session0", 0, Verdict::kDetected);
    ck.record("session0", 2, Verdict::kDetectedByTimeout);
    ck.record("session2", 1, Verdict::kUndetected);
    ck.record("session2", 3, Verdict::kSimError);
    ck.flush();
  }
  EXPECT_EQ(read_file(path),
            "xtest-checkpoint v2\n"
            "key golden-key\n"
            "crc e967a2e5\n"
            "section session0 4\n"
            "D.T.\n"
            "crc 461ae79d\n"
            "section session2 4\n"
            ".U.E\n"
            "crc d83fd880\n");
  std::remove(path.c_str());
}

TEST(Checkpoint, OnlineSectionRoundTripsFullOutcomes) {
  const std::string path = temp_path("ckpt_online_roundtrip");
  std::remove(path.c_str());
  const OnlineOutcome detected{.verdict = Verdict::kDetected,
                               .detection_latency_cycles = 621,
                               .rounds = 3,
                               .heartbeats = 24,
                               .deadlines_late = 1,
                               .deadlines_missed = 2};
  {
    CampaignCheckpoint ck(path, "k");
    ck.restore_outcomes("session0", 3);
    ck.record("session0", 2, detected);
    ck.flush();
  }
  CampaignCheckpoint ck(path, "k");
  const auto slots = ck.restore_outcomes("session0", 3);
  EXPECT_FALSE(slots[0].has_value());
  EXPECT_FALSE(slots[1].has_value());
  EXPECT_EQ(slots[2], detected);
  // A section keeps its kind: an off-line campaign cannot resume it.
  EXPECT_THROW(ck.restore("session0", 3), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, ConcurrentRecordsAndFlushesStaySerializable) {
  const std::string path = temp_path("ckpt_concurrent");
  std::remove(path.c_str());
  constexpr std::size_t kSlots = 64;
  {
    CampaignCheckpoint ck(path, "k", /*flush_every=*/5);
    ck.restore("a", kSlots);
    ck.restore("b", kSlots);
    // Two recorders plus a flusher hammering the same file -- the model of
    // a signal-triggered final flush racing in-flight workers.
    std::thread ra([&] {
      for (std::size_t i = 0; i < kSlots; ++i)
        ck.record("a", i, Verdict::kDetected);
    });
    std::thread rb([&] {
      for (std::size_t i = 0; i < kSlots; ++i)
        ck.record("b", i, Verdict::kUndetected);
    });
    std::thread fl([&] {
      for (int i = 0; i < 25; ++i) ck.flush();
    });
    ra.join();
    rb.join();
    fl.join();
    ck.flush();
    EXPECT_EQ(ck.completed(), 2 * kSlots);
  }
  CampaignCheckpoint ck(path, "k");
  EXPECT_FALSE(ck.salvage().salvaged);
  const auto a = ck.restore("a", kSlots);
  const auto b = ck.restore("b", kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(a[i], Verdict::kDetected) << i;
    EXPECT_EQ(b[i], Verdict::kUndetected) << i;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Deterministic fault injection through the campaign layers.

/// Disarms the process-wide injector even when a test fails mid-way:
/// leaked injector state would poison every later test in this binary.
struct GlobalInjectorGuard {
  ~GlobalInjectorGuard() { util::FaultInjector::global().disarm(); }
};

TEST(Resilience, InjectedWorkerFaultIsRetriedAndRecovers) {
  GlobalInjectorGuard guard;
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 8, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> clean =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib);

  // The 5th simulation body throws once; the serial retry on a fresh
  // simulator must absorb it without a trace in the verdicts.
  util::FaultInjector::global().configure("parallel.item@5");
  util::CampaignStats stats;
  CampaignOptions options;
  options.parallel = {1u};
  options.stats = &stats;
  const std::vector<Verdict> det =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
  EXPECT_EQ(det, clean);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.sim_errors, 0u);
  EXPECT_TRUE(stats.error_log.empty());
}

TEST(Resilience, InjectedBistSweepFaultIsQuarantinedAtItsIndex) {
  GlobalInjectorGuard guard;
  const soc::SystemConfig cfg;
  const soc::System sys(cfg);
  const auto lib = make_defect_library(cfg, soc::BusKind::kAddress, 8, kSeed);
  const hwbist::HardwareBist ma(12, false);
  const hwbist::RandomPatternBist rnd(12, 48, kSeed);
  using Sweep = std::function<std::vector<Verdict>(util::CampaignStats*)>;
  const Sweep sweeps[] = {
      [&](util::CampaignStats* s) {
        return ma.run_library(sys.nominal_address_network(),
                              sys.address_model(), lib, {1u}, s);
      },
      [&](util::CampaignStats* s) {
        return rnd.run_library(sys.nominal_address_network(),
                               sys.address_model(), lib, {1u}, s);
      }};
  for (const Sweep& sweep : sweeps) {
    const std::vector<Verdict> clean = sweep(nullptr);
    // The 4th defect (index 3) throws; the sweep quarantines it alone.
    util::FaultInjector::global().configure("parallel.item@4");
    util::CampaignStats stats;
    const std::vector<Verdict> faulty = sweep(&stats);
    util::FaultInjector::global().disarm();
    ASSERT_EQ(faulty.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i)
      EXPECT_EQ(faulty[i], i == 3 ? Verdict::kSimError : clean[i]) << i;
    EXPECT_EQ(stats.sim_errors, 1u);
    ASSERT_EQ(stats.error_log.size(), 1u);
    EXPECT_EQ(stats.error_log[0].rfind("defect 3: ", 0), 0u)
        << stats.error_log[0];
  }
}

TEST(Resilience, GracefulKillFlushesACheckpointAndResumeMatches) {
  GlobalInjectorGuard guard;
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 10, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> reference =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib);

  const std::string path = temp_path("ckpt_graceful_kill");
  std::remove(path.c_str());
  CampaignOptions options;
  options.parallel = {1u};
  options.checkpoint_path = path;
  options.checkpoint_key = default_checkpoint_key(soc::BusKind::kData, lib);

  util::FaultInjector::global().configure("campaign.kill@3");
  try {
    run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint flushed"),
              std::string::npos)
        << e.what();
  }
  util::FaultInjector::global().disarm();

  util::CampaignStats stats;
  options.stats = &stats;
  const std::vector<Verdict> resumed =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
  EXPECT_EQ(resumed, reference);
  EXPECT_EQ(stats.restored_from_checkpoint, 3u);
  std::remove(path.c_str());
}

TEST(Resilience, HardCrashKeepsOnlyPeriodicallyFlushedVerdicts) {
  GlobalInjectorGuard guard;
  const soc::SystemConfig cfg;
  // 32 slots: the checkpoint flushes every 32 / 16 = 2 records.
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 32, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> reference =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib);

  const std::string path = temp_path("ckpt_hard_crash");
  std::remove(path.c_str());
  CampaignOptions options;
  options.parallel = {1u};
  options.checkpoint_path = path;
  options.checkpoint_key = default_checkpoint_key(soc::BusKind::kData, lib);

  // Crash after the 5th new verdict: records 1-4 were flushed in pairs,
  // record 5 lived only in memory and dies with the "process".
  util::FaultInjector::global().configure("campaign.crash@5");
  try {
    run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted& e) {
    EXPECT_NE(std::string(e.what()).find("simulated crash"),
              std::string::npos)
        << e.what();
  }
  util::FaultInjector::global().disarm();

  util::CampaignStats stats;
  options.stats = &stats;
  const std::vector<Verdict> resumed =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
  EXPECT_EQ(resumed, reference);
  EXPECT_EQ(stats.restored_from_checkpoint, 4u);
  std::remove(path.c_str());
}

TEST(Checkpoint, FlushCountDoesNotGrowWithTheLibrary) {
  GlobalInjectorGuard guard;
  // Every flush ends in one checkpoint.rename hit; an unrelated rule arms
  // the injector so it counts them without failing any.
  const std::string path = temp_path("ckpt_flush_count");
  // Six sessions flush about 16 * (1 + 1/2 + ... + 1/6) times, give or
  // take one per session.
  const double bound = 16.0 * (1.0 + 1.0 / 2 + 1.0 / 3 + 1.0 / 4 + 1.0 / 5 +
                               1.0 / 6) + 6.0;
  for (const std::size_t n : {std::size_t{64}, std::size_t{4096}}) {
    std::remove(path.c_str());
    util::FaultInjector::global().configure("unrelated.site");
    {
      CampaignCheckpoint ck(path, "k");
      for (int session = 0; session < 6; ++session) {
        const std::string section = "session" + std::to_string(session);
        ck.restore(section, n);
        for (std::size_t i = 0; i < n; ++i)
          ck.record(section, i, Verdict::kDetected);
      }
    }
    const std::size_t flushes =
        util::FaultInjector::global().hits("checkpoint.rename");
    util::FaultInjector::global().disarm();
    EXPECT_GT(flushes, 0u) << n;
    EXPECT_LE(static_cast<double>(flushes), bound) << n;
  }
  std::remove(path.c_str());
}

TEST(Resilience, CancelFlagStopsTheCampaignBeforeNewWork) {
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 6, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();

  std::atomic<bool> cancel{true};
  util::CampaignStats stats;
  CampaignOptions options;
  options.stats = &stats;
  options.cancel = &cancel;
  EXPECT_THROW(
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options),
      CampaignInterrupted);
  EXPECT_EQ(stats.defects_simulated, 0u);
}

TEST(Resilience, SalvagedCheckpointResumeIsBitwiseIdentical) {
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 8, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> reference =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib);

  const std::string path = temp_path("ckpt_salvage_resume");
  std::remove(path.c_str());
  CampaignOptions options;
  options.checkpoint_path = path;
  options.checkpoint_key = default_checkpoint_key(soc::BusKind::kData, lib);
  run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);

  // Chop the tail off the finished checkpoint: the resumed campaign must
  // notice, report the loss, re-simulate the dropped slots, and land on
  // the exact same verdicts.
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() - 4));

  util::CampaignStats stats;
  options.stats = &stats;
  const std::vector<Verdict> resumed =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
  EXPECT_EQ(resumed, reference);
  EXPECT_GT(stats.dropped_slots, 0u);
  ASSERT_FALSE(stats.error_log.empty());
  EXPECT_NE(stats.error_log[0].find("salvaged"), std::string::npos)
      << stats.error_log[0];
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// FaultEnv: tolerant checks CI runs with $XTEST_FAULTS exported (ambient
// probabilistic injection, plus ASan/UBSan).  They assert survival
// invariants -- no crash, no wrong verdict, bounded retries -- rather than
// exact outcomes, so they pass under any injected-fault schedule and
// trivially when the injector is disarmed.

TEST(FaultEnv, CampaignCompletesUnderAmbientInjection) {
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 12, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();

  const std::string path = temp_path("ckpt_faultenv");
  std::remove(path.c_str());
  util::CampaignStats stats;
  CampaignOptions options;
  options.stats = &stats;
  options.checkpoint_path = path;
  options.checkpoint_key = default_checkpoint_key(soc::BusKind::kData, lib);

  std::vector<Verdict> det;
  bool completed = false;
  for (int attempt = 0; attempt < 50 && !completed; ++attempt) {
    try {
      det = run_detection(cfg, prog.program, soc::BusKind::kData, lib,
                          options);
      completed = true;
    } catch (const CampaignInterrupted&) {
      // ambient campaign.kill/crash: resume from the checkpoint
    } catch (const util::InjectedFault&) {
      // ambient fault outside the quarantine (e.g. the gold run): retry
    }
  }
  ASSERT_TRUE(completed) << "campaign never completed in 50 attempts";
  ASSERT_EQ(det.size(), lib.size());
  for (const Verdict v : det) {
    Verdict roundtrip;
    EXPECT_TRUE(verdict_from_char(to_char(v), roundtrip));
  }
  std::remove(path.c_str());
}

TEST(FaultEnv, CheckpointNeverRestoresAWrongVerdictUnderInjection) {
  const std::string path = temp_path("ckpt_faultenv_record");
  std::remove(path.c_str());
  constexpr std::size_t kSlots = 24;
  {
    CampaignCheckpoint ck(path, "k", /*flush_every=*/1);
    ck.restore("campaign", kSlots);
    for (std::size_t i = 0; i < kSlots; ++i)
      ck.record("campaign", i, Verdict::kDetected);  // failed flushes defer
    try {
      ck.flush();
    } catch (const std::exception&) {
      // an injected flush failure loses durability, nothing else
    }
    EXPECT_EQ(ck.completed(), kSlots);  // in-memory state is never lost
  }
  // Whatever subset of flushes survived, a restored slot is either still
  // pending or holds exactly the recorded verdict.
  std::ifstream exists(path);
  if (!exists.good()) return;  // every flush failed: a fresh start is fine
  CampaignCheckpoint ck(path, "k");
  for (const auto& slot : ck.restore("campaign", kSlots)) {
    if (slot) {
      EXPECT_EQ(*slot, Verdict::kDetected);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xtest::sim
