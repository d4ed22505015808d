// Resumable execution slices of a self-test program.
//
// Off-line campaigns run a TestProgram to completion in one call; the
// on-line testing mode needs to stop the program at an instruction
// boundary, give the core back to functional work, and later continue as
// if nothing happened.  A ProgramSlice owns exactly that lifecycle: the
// first run() loads the program into the system, every subsequent run()
// reinstates the saved architectural state (soc::SliceState -- CPU
// registers, memory, bus held words) and continues for another cycle
// budget.
//
// The invariant the slice property tests pin down: for ANY sequence of
// budgets, the concatenated slices produce the same memory contents, the
// same cycle count, and the same halt reason as the single uninterrupted
// run -- under any defect, across different System instances.  Budgets
// land on instruction boundaries the same way Cpu::run's cumulative cycle
// cap does (the instruction in flight always completes), so slicing is
// exact by construction.

#pragma once

#include <cstdint>

#include "sbst/program.h"
#include "soc/system.h"

namespace xtest::sbst {

class ProgramSlice {
 public:
  /// Binds to `program`, which must outlive the slice.  Nothing runs yet.
  explicit ProgramSlice(const TestProgram& program) : program_(&program) {}

  /// Runs up to `budget` more cycles on `system` (rounded up to the
  /// instruction boundary, as Cpu::run does).  The first call performs the
  /// tester's load_and_reset; later calls restore the suspended state --
  /// on the same System or any other with compatible configuration.  The
  /// suspended state is captured before returning.
  soc::RunResult run(soc::System& system, std::uint64_t budget);

  bool started() const { return started_; }
  bool halted() const { return started_ && state_.cpu.reason !=
                                               cpu::HaltReason::kRunning; }
  /// Cycles consumed so far (across all slices).
  std::uint64_t cycles() const { return started_ ? state_.cpu.cycles : 0; }
  cpu::HaltReason reason() const { return state_.cpu.reason; }

  const TestProgram& program() const { return *program_; }
  const soc::SliceState& state() const { return state_; }

  /// Byte at `addr` in the suspended memory (response-cell unloading from
  /// a parked slice, without touching any System).
  std::uint8_t memory_at(cpu::Addr addr) const {
    return state_.memory[addr & cpu::kAddrMask];
  }

 private:
  const TestProgram* program_;
  soc::SliceState state_;
  bool started_ = false;
};

}  // namespace xtest::sbst
