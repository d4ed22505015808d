// On-line (in-field) interleaved execution: functional workload windows
// alternating with self-test slices on the same core.
//
// The off-line flow of the paper dedicates the processor to the self-test
// program.  In-field testing cannot: the core owes its functional workload
// service deadlines, so the SBST session is cut into slices
// (sbst/slice.h) and interleaved with functional windows.  The scheduler
// here owns that alternation on one soc::System:
//
//   round := [functional window of workload_cycles] [test slice of
//             slice_cycles]
//
// Both contexts are full SliceState snapshots, so each swap-in replays
// the exact architectural state (memory, registers, bus held words) the
// context last saw; bus transfers stay cycle-accurate through the same
// BusEvaluator as any off-line run.  The functional window attaches the
// DeadlineDevice MMIO window; the test slice detaches it.  At a round
// boundary the whole schedule is a ScheduleState, so a run can stop
// there and resume on another System.
//
// Functional interference is measured at the MMIO seam: the workload
// writes a heartbeat register, and the device timestamps every write on
// the *global* interleaved clock.  A heartbeat arriving more than
// deadline_cycles after its predecessor is late; more than twice that is
// missed.  Both counters are pure functions of the schedule and the
// applied defect, so campaigns over them stay bitwise deterministic.

#pragma once

#include <cstdint>

#include "cpu/memory_image.h"
#include "soc/mmio.h"
#include "soc/system.h"

namespace xtest::soc {

/// On-line mode knobs (spec keys `online.*`).  Disabled by default: the
/// paper-baseline scenario is the classic off-line campaign.
struct OnlineConfig {
  bool enabled = false;
  /// Cycle budget of one self-test slice (rounded up to the instruction
  /// boundary, like every Cpu::run cap).
  std::uint64_t slice_cycles = 512;
  /// Cycle budget of one functional workload window.
  std::uint64_t workload_cycles = 256;
  /// Heartbeat service deadline on the global interleaved clock.
  std::uint64_t deadline_cycles = 1024;

  bool operator==(const OnlineConfig&) const = default;
};

/// The functional program a round's window executes: an endless loop that
/// strobes the heartbeat register and generates ordinary load/store bus
/// traffic.  `mmio_base` is where the scheduler maps the DeadlineDevice.
struct OnlineWorkload {
  cpu::MemoryImage image;
  cpu::Addr entry = 0;
  cpu::Addr mmio_base = 0xFF0;
};

/// The built-in heartbeat workload (assembled once per call).
OnlineWorkload make_default_workload();

/// Interference counters of one interleaved run.
struct InterferenceCounters {
  std::uint64_t heartbeats = 0;
  std::uint64_t deadlines_late = 0;    ///< gap in (deadline, 2*deadline]
  std::uint64_t deadlines_missed = 0;  ///< gap beyond 2*deadline
};

/// What the heartbeat device carries from one functional window to the
/// next: the last heartbeat's global time, the register's value and the
/// counters.
struct DeadlineState {
  std::uint64_t last_heartbeat = 0;
  std::uint8_t last_value = 0;
  InterferenceCounters counters;
};

/// Heartbeat register with deadline accounting on the global clock.
class DeadlineDevice : public MmioDevice {
 public:
  explicit DeadlineDevice(std::uint64_t deadline_cycles)
      : deadline_cycles_(deadline_cycles) {}

  /// Arms timestamping for one functional window: heartbeat timestamps
  /// are `global_offset + cpu->cycles()` until the next begin_window.
  void begin_window(const cpu::Cpu* cpu, std::uint64_t global_offset) {
    cpu_ = cpu;
    global_offset_ = global_offset;
  }

  std::uint8_t read(cpu::Addr) override { return state_.last_value; }

  void write(cpu::Addr, std::uint8_t data) override {
    state_.last_value = data;
    const std::uint64_t now =
        cpu_ != nullptr ? global_offset_ + cpu_->cycles() : global_offset_;
    account(now);
  }

  /// Accounts the gap from the last heartbeat to `global_now` (end of the
  /// campaign: a workload that died mid-run still shows its starvation).
  void finish(std::uint64_t global_now) { account(global_now); }

  const InterferenceCounters& counters() const { return state_.counters; }

  const DeadlineState& state() const { return state_; }
  void restore(const DeadlineState& state) { state_ = state; }

 private:
  void account(std::uint64_t now) {
    const std::uint64_t gap = now - state_.last_heartbeat;
    if (deadline_cycles_ > 0) {
      if (gap > 2 * deadline_cycles_)
        ++state_.counters.deadlines_missed;
      else if (gap > deadline_cycles_)
        ++state_.counters.deadlines_late;
    }
    ++state_.counters.heartbeats;
    state_.last_heartbeat = now;
  }

  std::uint64_t deadline_cycles_;
  const cpu::Cpu* cpu_ = nullptr;
  std::uint64_t global_offset_ = 0;
  DeadlineState state_;
};

/// Everything an interleaved run carries across a round boundary, where
/// neither context is swapped in: both contexts' suspended states,
/// whether the workload has started, the heartbeat device, the global
/// clock and the round count.  A run resumed from it continues exactly as
/// the run that never stopped: every round swaps each context in from its
/// saved state (held bus words included) before it runs, so nothing else
/// of the System carries over a boundary.  Before round 0 nothing has
/// started, so a state with `rounds == 0` is the schedule's reset.
struct ScheduleState {
  SliceState test;
  SliceState functional;
  bool functional_started = false;
  DeadlineState device;
  std::uint64_t global_cycles = 0;
  std::uint64_t rounds = 0;
};

/// Alternates the functional workload and caller-run test slices on one
/// System.  The caller owns the test context (an sbst::ProgramSlice);
/// this class owns the functional context and the global clock.
class InterleavedScheduler {
 public:
  /// `workload` must outlive the scheduler.
  InterleavedScheduler(System& system, const OnlineConfig& config,
                       const OnlineWorkload& workload)
      : system_(system),
        config_(config),
        workload_(&workload),
        device_(config.deadline_cycles) {}

  /// One functional window: swap in the workload context (deadline device
  /// attached), run workload_cycles, swap out.  Advances the global clock
  /// by the cycles the window actually consumed.
  void run_functional_window();

  /// Prepares the core for a test slice: detaches every MMIO window.  The
  /// caller then runs its ProgramSlice against the system and reports the
  /// consumed cycles.
  void begin_test_slice() { system_.clear_mmio(); }
  void end_test_slice(std::uint64_t cycles_consumed) {
    global_cycles_ += cycles_consumed;
    ++rounds_;
  }

  /// Closes the interference accounting (tail gap since the last
  /// heartbeat).  Call once, after the last round.
  void finish() { device_.finish(global_cycles_); }

  /// The schedule at a round boundary, with the caller's suspended test
  /// context.
  ScheduleState save(const SliceState& test) const {
    return {test, functional_state_, functional_started_, device_.state(),
            global_cycles_, rounds_};
  }
  /// Resumes at a saved round boundary; the caller resumes its test
  /// context from `state.test` (sbst::ProgramSlice's resuming constructor).
  void restore(const ScheduleState& state) {
    functional_state_ = state.functional;
    functional_started_ = state.functional_started;
    device_.restore(state.device);
    global_cycles_ = state.global_cycles;
    rounds_ = state.rounds;
  }

  std::uint64_t global_cycles() const { return global_cycles_; }
  std::uint64_t rounds() const { return rounds_; }
  const InterferenceCounters& interference() const {
    return device_.counters();
  }

 private:
  System& system_;
  OnlineConfig config_;
  const OnlineWorkload* workload_;
  DeadlineDevice device_;
  SliceState functional_state_;
  bool functional_started_ = false;
  std::uint64_t global_cycles_ = 0;
  std::uint64_t rounds_ = 0;
};

}  // namespace xtest::soc
