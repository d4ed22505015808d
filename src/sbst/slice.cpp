#include "sbst/slice.h"

namespace xtest::sbst {

soc::RunResult ProgramSlice::run(soc::System& system, std::uint64_t budget) {
  if (!started_) {
    system.load_and_reset(program_->image, program_->entry);
    started_ = true;
  } else {
    system.restore_slice(state_);
  }
  // Cpu::run takes a *cumulative* cap, so "budget more cycles" is the
  // consumed count plus the budget; the instruction in flight at the cap
  // completes.
  const std::uint64_t consumed = state_.cpu.cycles;
  const soc::RunResult result = system.run(consumed + budget);
  state_ = system.save_slice();
  return result;
}

}  // namespace xtest::sbst
