// Test-response capture.
//
// After a self-test run the external tester unloads the program's response
// cells and compares them with the expected (gold) values; it also notices
// when the chip fails to signal completion within the test-time budget.
// A ResponseSnapshot is exactly what the tester sees.

#pragma once

#include <cstdint>
#include <vector>

#include "cpu/cpu.h"
#include "sbst/program.h"
#include "sim/verdict.h"
#include "soc/system.h"

namespace xtest::sim {

struct ResponseSnapshot {
  /// Response bytes, parallel to TestProgram::response_cells.
  std::vector<std::uint8_t> values;
  /// Whether the program reached HLT within the cycle budget.
  bool completed = false;

  /// Not part of detection (a tester only sees responses + timeout):
  cpu::HaltReason reason = cpu::HaltReason::kRunning;
  std::uint64_t cycles = 0;

  /// Detection = any response byte differs or completion status differs.
  bool matches(const ResponseSnapshot& o) const {
    return completed == o.completed && values == o.values;
  }
};

/// The tester's unload after a run that ended with `rr`: the response
/// cells read from `system`'s memory.  Consults fault-injection site
/// "signature.capture".
ResponseSnapshot capture(const soc::System& system,
                         const sbst::TestProgram& program,
                         const soc::RunResult& rr);

/// Loads the program, runs it (at most `max_cycles`, a cumulative cap),
/// and captures the responses from memory.  With `from` the run resumes
/// from that suspended state (sbst::ProgramSlice) instead of the reset;
/// `from` must be a state of this program.
ResponseSnapshot run_and_capture(soc::System& system,
                                 const sbst::TestProgram& program,
                                 std::uint64_t max_cycles,
                                 const soc::SliceState* from = nullptr);

/// Tester-visible verdict for one faulty run against the gold run: a run
/// that never signals completion is a timeout detection (the paper's
/// control-derailment case), a completed run with differing response bytes
/// is a plain detection, and a matching run is undetected.
inline Verdict classify(const ResponseSnapshot& gold,
                        const ResponseSnapshot& observed) {
  if (observed.matches(gold)) return Verdict::kUndetected;
  if (!observed.completed) return Verdict::kDetectedByTimeout;
  return Verdict::kDetected;
}

}  // namespace xtest::sim
