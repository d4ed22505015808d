// Property tests for sbst::ProgramSlice (src/sbst/slice.h): splitting a
// self-test program at ANY instruction boundary and resuming must be
// invisible -- same memory image, same cycle count, same halt reason as
// the uninterrupted run -- at 1 and 4 checker threads, and across
// different System instances.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "sbst/generator.h"
#include "sbst/slice.h"
#include "soc/system.h"
#include "spec/scenario.h"
#include "util/parallel.h"

using namespace xtest;

namespace {

constexpr std::uint64_t kBudget = 1u << 20;  // far past any session's halt

/// The uninterrupted reference: one slice, one budget.
soc::SliceState unsliced(const soc::SystemConfig& cfg,
                         const sbst::TestProgram& prog) {
  soc::System sys(cfg);
  sbst::ProgramSlice slice(prog);
  slice.run(sys, kBudget);
  EXPECT_TRUE(slice.halted());
  return slice.state();
}

/// Cumulative cycle count after every instruction: run(1) always rounds up
/// to the next instruction boundary, so stepping with budget 1 enumerates
/// exactly the places a slice can be cut.
std::vector<std::uint64_t> instruction_boundaries(
    const soc::SystemConfig& cfg, const sbst::TestProgram& prog) {
  soc::System sys(cfg);
  sbst::ProgramSlice slice(prog);
  std::vector<std::uint64_t> cuts;
  while (!slice.halted() && slice.cycles() < kBudget) {
    slice.run(sys, 1);
    cuts.push_back(slice.cycles());
  }
  EXPECT_TRUE(slice.halted());
  return cuts;
}

void expect_same_state(const soc::SliceState& got,
                       const soc::SliceState& want, std::uint64_t cut) {
  EXPECT_EQ(got.cpu.cycles, want.cpu.cycles) << "cut at " << cut;
  EXPECT_EQ(got.cpu.reason, want.cpu.reason) << "cut at " << cut;
  EXPECT_EQ(got.cpu.pc, want.cpu.pc) << "cut at " << cut;
  EXPECT_EQ(got.cpu.acc, want.cpu.acc) << "cut at " << cut;
  EXPECT_EQ(got.memory, want.memory) << "cut at " << cut;
}

/// The property itself: for every boundary, run [0, cut] on one System and
/// [cut, halt] on ANOTHER System, and compare with the unsliced run.  The
/// boundary sweep is itself sharded over `threads` workers (each worker
/// owns private Systems, so this also soaks concurrent slicing).
void check_every_boundary(unsigned threads) {
  const soc::SystemConfig cfg;  // the paper-baseline electricals
  // A compact but complete program: single-session generation over both
  // buses exercises every test kind the generator emits.
  spec::ScenarioSpec scn;
  scn.max_sessions = 1;
  const sbst::TestProgram prog = scn.make_sessions()[0].program;

  const soc::SliceState want = unsliced(cfg, prog);
  const std::vector<std::uint64_t> cuts = instruction_boundaries(cfg, prog);
  ASSERT_FALSE(cuts.empty());
  // The last boundary IS the halt; cutting there is the unsliced run.
  const auto errors = util::parallel_for_items(
      cuts.size(), {threads}, [&](std::size_t i, unsigned) {
        soc::System first(cfg);
        soc::System second(cfg);
        sbst::ProgramSlice slice(prog);
        slice.run(first, cuts[i]);  // budget == absolute cycles: first run
        EXPECT_EQ(slice.cycles(), cuts[i]);
        if (!slice.halted()) slice.run(second, kBudget);
        EXPECT_TRUE(slice.halted());
        expect_same_state(slice.state(), want, cuts[i]);
      });
  EXPECT_TRUE(errors.empty());
}

TEST(ProgramSlice, EveryBoundaryReferenceSerial) { check_every_boundary(1); }

TEST(ProgramSlice, EveryBoundaryReferenceThreaded) { check_every_boundary(4); }

// Many short slices alternating between two Systems: a fixed ping-pong
// budget schedule must land on exactly the unsliced run's state.
TEST(ProgramSlice, PingPongAcrossSystemsMatchesUnsliced) {
  spec::ScenarioSpec scn;
  scn.max_sessions = 1;
  const sbst::TestProgram prog = scn.make_sessions()[0].program;
  const soc::SystemConfig cfg;
  const soc::SliceState want = unsliced(cfg, prog);

  soc::System a(cfg);
  soc::System b(cfg);
  sbst::ProgramSlice slice(prog);
  std::uint64_t budget = 7;  // deliberately ragged budgets
  int swaps = 0;
  while (!slice.halted()) {
    ASSERT_LT(slice.cycles(), kBudget);
    slice.run(++swaps % 2 ? a : b, budget);
    budget = budget * 3 + 1;
  }
  expect_same_state(slice.state(), want, 0);
  EXPECT_GE(swaps, 2);
}

// Responses can be unloaded from a parked slice without any System: the
// suspended memory IS the tester-visible state.
TEST(ProgramSlice, MemoryAtReadsSuspendedMemory) {
  spec::ScenarioSpec scn;
  scn.max_sessions = 1;
  const sbst::TestProgram prog = scn.make_sessions()[0].program;
  soc::System sys;
  sbst::ProgramSlice slice(prog);
  slice.run(sys, kBudget);
  ASSERT_TRUE(slice.halted());
  for (const cpu::Addr cell : prog.response_cells)
    EXPECT_EQ(slice.memory_at(cell), slice.state().memory[cell]);
}

}  // namespace
