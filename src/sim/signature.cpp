#include "sim/signature.h"

#include "util/fault_injector.h"

namespace xtest::sim {

ResponseSnapshot capture(const soc::System& system,
                         const sbst::TestProgram& program,
                         const soc::RunResult& rr) {
  util::FaultInjector::global().maybe_fail("signature.capture");
  ResponseSnapshot snap;
  snap.completed =
      rr.halted && rr.reason == cpu::HaltReason::kHltInstruction;
  snap.reason = rr.reason;
  snap.cycles = rr.cycles;
  snap.values.reserve(program.response_cells.size());
  for (cpu::Addr a : program.response_cells)
    snap.values.push_back(system.memory().read(a));
  return snap;
}

ResponseSnapshot run_and_capture(soc::System& system,
                                 const sbst::TestProgram& program,
                                 std::uint64_t max_cycles,
                                 const soc::SliceState* from) {
  if (from != nullptr)
    system.restore_slice(*from);
  else
    system.load_and_reset(program.image, program.entry);
  return capture(system, program, system.run(max_cycles));
}

}  // namespace xtest::sim
