// Cross-module property and exhaustive tests.

#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/assembler.h"
#include "cpu/cpu.h"
#include "sbst/generator.h"
#include "sim/serialize.h"
#include "sim/verify.h"
#include "soc/system.h"

namespace xtest {
namespace {

// ---------------------------------------------------------------------------
// Exhaustive ALU semantics against an independent reference.

class AluPort : public cpu::BusPort {
 public:
  std::uint8_t read(cpu::Addr a) override { return mem[a]; }
  void write(cpu::Addr a, std::uint8_t d) override { mem[a] = d; }
  void internal_cycle() override {}
  std::array<std::uint8_t, cpu::kMemWords> mem{};
};

struct AluResult {
  std::uint8_t acc;
  bool c, v, z, n;
};

AluResult run_binop(cpu::Opcode op, std::uint8_t a, std::uint8_t m) {
  AluPort port;
  // lda A; <op> M; hlt
  port.mem[0x000] = 0x03;  // lda page 3
  port.mem[0x001] = 0x00;
  port.mem[0x002] =
      static_cast<std::uint8_t>((static_cast<unsigned>(op) << 4) | 0x3);
  port.mem[0x003] = 0x01;
  port.mem[0x004] = 0xF8;  // hlt
  port.mem[0x300] = a;
  port.mem[0x301] = m;
  cpu::Cpu core(port);
  core.reset(0);
  core.run(1000);
  const cpu::Flags f = core.flags();
  return {core.acc(), f.c, f.v, f.z, f.n};
}

TEST(ExhaustiveAlu, AddMatchesReferenceForAllOperands) {
  for (unsigned a = 0; a < 256; a += 3) {
    for (unsigned m = 0; m < 256; m += 7) {
      const AluResult r = run_binop(cpu::Opcode::kAdd,
                                    static_cast<std::uint8_t>(a),
                                    static_cast<std::uint8_t>(m));
      const unsigned sum = a + m;
      ASSERT_EQ(r.acc, sum & 0xFF) << a << "+" << m;
      ASSERT_EQ(r.c, sum > 0xFF);
      const bool v = (~(a ^ m) & (a ^ sum) & 0x80) != 0;
      ASSERT_EQ(r.v, v);
      ASSERT_EQ(r.z, (sum & 0xFF) == 0);
      ASSERT_EQ(r.n, (sum & 0x80) != 0);
    }
  }
}

TEST(ExhaustiveAlu, SubMatchesReferenceForAllOperands) {
  for (unsigned a = 0; a < 256; a += 5) {
    for (unsigned m = 0; m < 256; m += 11) {
      const AluResult r = run_binop(cpu::Opcode::kSub,
                                    static_cast<std::uint8_t>(a),
                                    static_cast<std::uint8_t>(m));
      const unsigned diff = a - m;
      ASSERT_EQ(r.acc, diff & 0xFF);
      ASSERT_EQ(r.c, a >= m);  // no borrow
      const bool v = ((a ^ m) & (a ^ diff) & 0x80) != 0;
      ASSERT_EQ(r.v, v);
    }
  }
}

TEST(ExhaustiveAlu, LogicOpsMatchReference) {
  for (unsigned a = 0; a < 256; a += 17) {
    for (unsigned m = 0; m < 256; m += 13) {
      ASSERT_EQ(run_binop(cpu::Opcode::kAnd, a, m).acc, a & m);
      ASSERT_EQ(run_binop(cpu::Opcode::kOra, a, m).acc, a | m);
      ASSERT_EQ(run_binop(cpu::Opcode::kXra, a, m).acc, a ^ m);
    }
  }
}

// ---------------------------------------------------------------------------
// Shift identities.

TEST(ShiftProperties, AslIsAddToSelf) {
  for (unsigned a = 0; a < 256; ++a) {
    AluPort port;
    port.mem[0x000] = 0x03;
    port.mem[0x001] = 0x00;
    port.mem[0x002] = 0xF5;  // asl
    port.mem[0x003] = 0xF8;  // hlt
    port.mem[0x300] = static_cast<std::uint8_t>(a);
    cpu::Cpu core(port);
    core.reset(0);
    core.run(1000);
    ASSERT_EQ(core.acc(), (a << 1) & 0xFF);
    ASSERT_EQ(core.flags().c, (a & 0x80) != 0);
  }
}

TEST(ShiftProperties, AsrPreservesSign) {
  for (unsigned a = 0; a < 256; ++a) {
    AluPort port;
    port.mem[0x000] = 0x03;
    port.mem[0x001] = 0x00;
    port.mem[0x002] = 0xF6;  // asr
    port.mem[0x003] = 0xF8;
    port.mem[0x300] = static_cast<std::uint8_t>(a);
    cpu::Cpu core(port);
    core.reset(0);
    core.run(1000);
    const unsigned expect = (a >> 1) | (a & 0x80);
    ASSERT_EQ(core.acc(), expect);
  }
}

// ---------------------------------------------------------------------------
// MA-test structural properties across widths and victims.

class MaProperties
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(MaProperties, GlitchPairsAreComplementaryAcrossTypes) {
  const auto [width, victim] = GetParam();
  const auto gp = xtalk::ma_test(
      width, {victim, xtalk::MafType::kPositiveGlitch,
              xtalk::BusDirection::kCpuToCore});
  const auto gn = xtalk::ma_test(
      width, {victim, xtalk::MafType::kNegativeGlitch,
              xtalk::BusDirection::kCpuToCore});
  EXPECT_EQ(gp.v1.inverted(), gn.v1);
  EXPECT_EQ(gp.v2.inverted(), gn.v2);
  const auto dr = xtalk::ma_test(
      width, {victim, xtalk::MafType::kRisingDelay,
              xtalk::BusDirection::kCpuToCore});
  const auto df = xtalk::ma_test(
      width, {victim, xtalk::MafType::kFallingDelay,
              xtalk::BusDirection::kCpuToCore});
  EXPECT_EQ(dr.v1, df.v2);
  EXPECT_EQ(dr.v2, df.v1);
}

TEST_P(MaProperties, FaultyV2DiffersInExactlyTheVictim) {
  const auto [width, victim] = GetParam();
  for (xtalk::MafType t : xtalk::kAllMafTypes) {
    const xtalk::MafFault f{victim, t, xtalk::BusDirection::kCpuToCore};
    const auto pair = xtalk::ma_test(width, f);
    const auto bad = xtalk::faulty_v2(f, pair);
    EXPECT_EQ(bad.hamming_distance(pair.v2), 1u);
    EXPECT_NE(bad.bit(victim), pair.v2.bit(victim));
  }
}

/// Every (width, victim) of widths {2, 4, 8, 12, 16} and victims {0, 1,
/// 5, 11, 15} with a victim wire on the bus.
std::vector<std::tuple<unsigned, unsigned>> sweep_points() {
  std::vector<std::tuple<unsigned, unsigned>> points;
  for (unsigned width : {2u, 4u, 8u, 12u, 16u})
    for (unsigned victim : {0u, 1u, 5u, 11u, 15u})
      if (victim < width) points.emplace_back(width, victim);
  return points;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaProperties,
                         ::testing::ValuesIn(sweep_points()));

// ---------------------------------------------------------------------------
// Generated programs round-trip through serialisation and still verify.

TEST(ProgramProperties, SerialisedProgramStillFullyEffective) {
  const sbst::GenerationResult gen =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  sbst::TestProgram copy = gen.program;
  copy.image = sim::image_from_text(sim::image_to_text(gen.program.image));
  const sim::VerificationResult ver = sim::verify_program(copy);
  EXPECT_TRUE(ver.all_effective());
}

TEST(ProgramProperties, DisassemblyListsEveryChainJmp) {
  // Every piece of the chain ends in a JMP; the disassembly of the image
  // must contain at least as many jmps as response groups.
  const sbst::GenerationResult gen =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::string listing = cpu::disassemble_image(gen.program.image);
  std::size_t jmps = 0;
  for (std::size_t pos = 0; (pos = listing.find("jmp ", pos)) !=
                            std::string::npos;
       ++pos)
    ++jmps;
  EXPECT_GE(jmps, gen.program.response_cells.size() / 2);
}

// ---------------------------------------------------------------------------
// Whole-system determinism.

TEST(SystemProperties, RunsAreBitExactAcrossSystems) {
  const sbst::GenerationResult gen =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  soc::System a, b;
  const auto ra = sim::run_and_capture(a, gen.program, 1'000'000);
  const auto rb = sim::run_and_capture(b, gen.program, 1'000'000);
  EXPECT_TRUE(ra.matches(rb));
  EXPECT_EQ(ra.cycles, rb.cycles);
}

TEST(SystemProperties, GroupSignaturesAreAccumulatedSums) {
  // For every fully one-hot compacted group, the gold signature equals the
  // modular sum of its members' pass values (Fig. 8's arithmetic).
  const sbst::GenerationResult gen =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const sim::VerificationResult ver = sim::verify_program(gen.program);

  std::map<int, unsigned> sums;
  std::map<int, bool> pure;  // group contains only fresh one-hot passes
  for (const auto& t : gen.program.tests) {
    if (t.group < 0) continue;
    sums[t.group] += t.pass_value;
    const bool one_hot =
        t.pass_value != 0 && (t.pass_value & (t.pass_value - 1)) == 0;
    if (!pure.count(t.group)) pure[t.group] = true;
    pure[t.group] = pure[t.group] && one_hot &&
                    (t.scheme == sbst::Scheme::kAddrDelay ||
                     t.scheme == sbst::Scheme::kAddrGlitch);
  }
  int checked = 0;
  for (const auto& [group, sum] : sums) {
    if (!pure[group]) continue;
    // Locate the group's response cell via any member test.
    for (std::size_t i = 0; i < gen.program.tests.size(); ++i) {
      if (gen.program.tests[i].group != group) continue;
      const cpu::Addr cell = gen.program.tests[i].response_cell;
      for (std::size_t k = 0; k < gen.program.response_cells.size(); ++k)
        if (gen.program.response_cells[k] == cell) {
          EXPECT_EQ(ver.gold.values[k], sum & 0xFF) << "group " << group;
          ++checked;
        }
      break;
    }
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// Signature-compaction properties (Sec. 4.3).
//
// A response group accumulates up to 8 one-hot pass values with ADD into a
// single signature byte.  The diagnosis code relies on two arithmetic
// facts: distinct one-hot contributions sum without carries (so the gold
// signature is their OR, and a missing contribution flips exactly its own
// bit), and the detection guarantee that any single wrong contribution
// changes the byte.  Beyond 8 members the one-hot space is exhausted and
// wrap-around aliasing becomes possible -- which is exactly why
// GeneratorConfig::group_size must stay <= 8.

TEST(SignatureCompaction, SingleFlippedPassValueAlwaysChangesSignature) {
  // For every group size 1..8, every failing member, and every wrong
  // contribution byte, the ADD signature differs from gold.
  for (unsigned size = 1; size <= 8; ++size) {
    std::uint8_t gold = 0;
    for (unsigned k = 0; k < size; ++k)
      gold = static_cast<std::uint8_t>(gold + (1u << k));
    for (unsigned fail = 0; fail < size; ++fail) {
      const std::uint8_t pass = static_cast<std::uint8_t>(1u << fail);
      for (unsigned wrong = 0; wrong < 256; ++wrong) {
        if (wrong == pass) continue;
        const std::uint8_t observed =
            static_cast<std::uint8_t>(gold - pass + wrong);
        ASSERT_NE(observed, gold)
            << "size " << size << " member " << fail << " wrong " << wrong;
      }
    }
  }
}

TEST(SignatureCompaction, MissingContributionFlipsExactlyItsOwnBit) {
  // Distinct one-hot values sum carry-free, so a test that never ran
  // (contribution 0) flips precisely its one-hot bit: the XOR-overlap rule
  // diagnose() uses implicates the failing test uniquely.
  for (unsigned size = 1; size <= 8; ++size) {
    std::uint8_t gold = 0;
    for (unsigned k = 0; k < size; ++k)
      gold = static_cast<std::uint8_t>(gold + (1u << k));
    for (unsigned fail = 0; fail < size; ++fail) {
      const std::uint8_t pass = static_cast<std::uint8_t>(1u << fail);
      const std::uint8_t observed = static_cast<std::uint8_t>(gold - pass);
      EXPECT_EQ(static_cast<std::uint8_t>(gold ^ observed), pass);
      // No other member's one-hot value overlaps the flipped bits.
      for (unsigned other = 0; other < size; ++other)
        if (other != fail) {
          EXPECT_EQ((gold ^ observed) & (1u << other), 0u);
        }
    }
  }
}

TEST(SignatureCompaction, NinthMemberWrapsAndAliases) {
  // Pigeonhole: a 9th member must reuse a one-hot value, and the ADD
  // accumulation then carries -- two different failing tests become
  // indistinguishable (alias), so over-full groups lose diagnosability.
  std::uint8_t gold = 0;
  for (unsigned k = 0; k < 8; ++k)
    gold = static_cast<std::uint8_t>(gold + (1u << k));
  const std::uint8_t dup = 0x01;  // 9th member reuses bit 0
  gold = static_cast<std::uint8_t>(gold + dup);  // 0xFF + 1 wraps to 0x00
  EXPECT_EQ(gold, 0x00);  // the wrap itself: signature no longer the OR
  // Member 0 failing (contributing 0) and the duplicate failing alias:
  const std::uint8_t member0_fails = static_cast<std::uint8_t>(gold - 0x01);
  const std::uint8_t dup_fails = static_cast<std::uint8_t>(gold - dup);
  EXPECT_EQ(member0_fails, dup_fails);
}

TEST(SignatureCompaction, GeneratedGroupsStayWithinCapacity) {
  // Generator invariant guarding the wrap hazard above: no response group
  // ever accumulates more than group_size (8) contributions, so a fully
  // one-hot group can never exhaust the 8 distinct slots and wrap.
  const std::vector<sbst::GenerationResult> sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  std::size_t groups_checked = 0;
  for (const auto& s : sessions) {
    std::map<int, unsigned> counts;
    for (const auto& t : s.program.tests)
      if (t.group >= 0) ++counts[t.group];
    for (const auto& [group, n] : counts) {
      EXPECT_LE(n, 8u) << "group " << group << " over one-hot capacity";
      ++groups_checked;
    }
  }
  EXPECT_GT(groups_checked, 0u);
}

TEST(SignatureCompaction, GeneratedPureOneHotGroupsNeverAliasOrWrap) {
  // For the Fig. 8 groups built entirely from fresh one-hot slots (the
  // allocator's value-sharing fallback can also adopt an existing cell's
  // arbitrary byte as a pass value; those groups are excluded exactly as
  // in GroupSignaturesAreAccumulatedSums above), the slots must be
  // distinct and sum carry-free: signature == OR, so a single missing
  // contribution flips precisely its own bit and diagnosis stays sound.
  const std::vector<sbst::GenerationResult> sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  std::size_t groups_checked = 0;
  for (const auto& s : sessions) {
    std::map<int, unsigned> sums, ors;
    std::map<int, bool> pure;
    for (const auto& t : s.program.tests) {
      if (t.group < 0) continue;
      const std::uint8_t p = t.pass_value;
      const bool one_hot = p != 0 && (p & (p - 1)) == 0;
      if (!pure.count(t.group)) pure[t.group] = true;
      pure[t.group] = pure[t.group] && one_hot &&
                      (t.scheme == sbst::Scheme::kAddrDelay ||
                       t.scheme == sbst::Scheme::kAddrGlitch);
      sums[t.group] += p;
      ors[t.group] |= p;
    }
    for (const auto& [group, is_pure] : pure) {
      if (!is_pure) continue;
      EXPECT_LE(sums[group], 0xFFu) << "group " << group << " wrapped";
      EXPECT_EQ(sums[group], ors[group])
          << "group " << group << " has duplicate one-hot slots";
      ++groups_checked;
    }
  }
  EXPECT_GT(groups_checked, 0u);
}

}  // namespace
}  // namespace xtest
