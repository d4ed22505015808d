// The CPU-memory system of Section 4, with crosstalk-aware buses.
//
// Wires together: the PARWAN-style core, the 4K memory, optional
// memory-mapped peripheral cores, a 12-bit unidirectional address bus, an
// 8-bit bidirectional data bus, and the 3-wire RD/WR/CS control bus (the
// paper's deferred "future study").  Every bus transaction runs through
// the high-level crosstalk error model against the bus's current RC
// network; injecting a defect is replacing a network with its perturbed
// version.
//
// Forced-MAF injection (ideal single-fault behaviour, used to verify that
// a generated test actually observes its target fault) corrupts a transfer
// exactly when the transition fully excites the forced fault -- the MA
// pair is the unique such transition.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "cpu/cpu.h"
#include "cpu/memory_image.h"
#include "soc/bus.h"
#include "soc/control.h"
#include "soc/memory.h"
#include "soc/mmio.h"
#include "soc/trace.h"
#include "xtalk/defect.h"
#include "xtalk/electrical.h"
#include "xtalk/error_model.h"
#include "xtalk/maf.h"
#include "xtalk/rc_network.h"

namespace xtest::soc {

struct SystemConfig {
  xtalk::BusGeometry address_geometry{.width = cpu::kAddrBits};
  xtalk::BusGeometry data_geometry{.width = cpu::kDataBits};
  xtalk::BusGeometry control_geometry{.width = kControlBits};
  /// Cth = ratio * max nominal net coupling; calibrates the error-model
  /// thresholds and is the defect-library acceptance threshold.
  double cth_ratio = 1.6;
  /// Clock-period multiplier relative to the rated (at-speed) clock.
  /// 1.0 = normal operational speed; larger values model a slow external
  /// tester clocking the system below speed: the sampling slack grows
  /// proportionally and marginal delay defects stop being observable --
  /// the paper's core argument for at-speed self-test (Section 1).
  double clock_period_scale = 1.0;
  /// Hot-path control: the precomputed per-defect BusEvaluator.  Both
  /// paths produce bit-identical received words (tests/test_fastpath.cpp);
  /// `false` selects the reference evaluation, the equivalence oracle.
  bool fast_receive = true;
  /// Electrical backend of every bus receiver (xtalk/electrical.h).  The
  /// default full-swing backend reproduces the paper's calibration
  /// bit-for-bit; low-swing recalibrates the thresholds for a reduced
  /// swing with a level restorer.
  xtalk::ElectricalConfig electrical;

  bool operator==(const SystemConfig&) const = default;
};

struct RunResult {
  std::uint64_t cycles = 0;
  bool halted = false;
  cpu::HaltReason reason = cpu::HaltReason::kRunning;
};

/// Ideal single-MAF fault for test verification.
struct ForcedMaf {
  soc::BusKind bus;
  xtalk::MafFault fault;
};

/// Complete architectural snapshot of a suspended program: CPU registers,
/// the 4K memory, and the held word of each tri-state bus.  restore_slice
/// reinstates all of it, so execution resumed from a SliceState forms
/// exactly the bus transitions the uninterrupted run would have formed --
/// the invariant the slice property tests pin down.
struct SliceState {
  cpu::CpuState cpu;
  std::array<std::uint8_t, cpu::kMemWords> memory{};
  util::BusWord addr_held = util::BusWord::zeros(cpu::kAddrBits);
  util::BusWord data_held = util::BusWord::zeros(cpu::kDataBits);
  util::BusWord ctrl_held = util::BusWord::zeros(kControlBits);
};

class System : public cpu::BusPort {
 public:
  explicit System(const SystemConfig& config = {});

  // --- configuration -----------------------------------------------------
  const xtalk::RcNetwork& nominal_address_network() const {
    return nominal_addr_net_;
  }
  const xtalk::RcNetwork& nominal_data_network() const {
    return nominal_data_net_;
  }
  const xtalk::RcNetwork& nominal_control_network() const {
    return nominal_ctrl_net_;
  }
  double address_cth() const { return addr_cth_; }
  double data_cth() const { return data_cth_; }
  double control_cth() const { return ctrl_cth_; }
  const xtalk::CrosstalkErrorModel& address_model() const {
    return addr_model_;
  }
  const xtalk::CrosstalkErrorModel& data_model() const { return data_model_; }
  const xtalk::CrosstalkErrorModel& control_model() const {
    return ctrl_model_;
  }
  /// Whether transfers run through the BusEvaluator (SystemConfig).
  bool fast_receive() const { return fast_receive_; }
  /// The evaluator `bus` currently receives through: the nominal one, or
  /// the one the last set_*_network built for an injected defect.
  const xtalk::BusEvaluator& evaluator(BusKind bus) const {
    return bus == BusKind::kAddress ? addr_.eval
           : bus == BusKind::kData  ? data_.eval
                                    : ctrl_.eval;
  }

  /// Defect injection: replace a bus's RC network (pass the defect-applied
  /// network).  Rebuilds the bus's fast evaluator.  `clear_defects`
  /// restores all nominals.
  void set_address_network(xtalk::RcNetwork net);
  void set_data_network(xtalk::RcNetwork net);
  void set_control_network(xtalk::RcNetwork net);
  void clear_defects();

  /// Forces (or clears) an ideal MAF, applied on top of the model result.
  void set_forced_maf(std::optional<ForcedMaf> f) { forced_ = f; }

  /// Attach a peripheral core at [base, base+size).  The window shadows
  /// memory for CPU accesses.
  void attach_mmio(cpu::Addr base, cpu::Addr size, MmioDevice* device);

  /// Detaches every MMIO window (the interleaved scheduler swaps windows
  /// between the functional and the test context).
  void clear_mmio() { mmio_.clear(); }

  void set_trace(BusTrace* trace) { trace_ = trace; }

  // --- slicing -------------------------------------------------------------

  /// Captures the architectural state of the (suspended) program: CPU
  /// registers, memory and bus held words.
  SliceState save_slice() const;

  /// Reinstates a captured state.  Execution continued with run() is
  /// bitwise-identical to the run that never stopped: the defect channels
  /// are deliberately NOT part of the state -- they belong to the
  /// simulator, not to the suspended program.
  void restore_slice(const SliceState& state);

  // --- operation ----------------------------------------------------------
  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }
  cpu::Cpu& processor() { return cpu_; }
  const cpu::Cpu& processor() const { return cpu_; }

  /// Tester action: load a program image and reset into it.
  void load_and_reset(const cpu::MemoryImage& image, cpu::Addr entry);

  /// Runs until HLT/illegal or the cycle cap.  At-speed self-test phase.
  RunResult run(std::uint64_t max_cycles);

  // --- cpu::BusPort -------------------------------------------------------
  std::uint8_t read(cpu::Addr addr) override;
  void write(cpu::Addr addr, std::uint8_t data) override;
  void internal_cycle() override;

 private:
  struct MmioWindow {
    cpu::Addr base;
    cpu::Addr size;
    MmioDevice* device;
  };

  /// Address-bus transfer (CPU drives); returns address memory receives.
  cpu::Addr send_address(cpu::Addr addr);
  /// Data-bus transfer; returns the byte the receiver samples.
  std::uint8_t send_data(std::uint8_t byte, xtalk::BusDirection direction);
  /// Control-bus transfer (CPU drives); returns the word memory receives.
  ControlView send_control(bool write);

  /// One bus's active evaluation state: the defect-applied network and
  /// its precomputed fast evaluator.
  struct BusChannel {
    xtalk::RcNetwork net;
    xtalk::BusEvaluator eval;
  };

  util::BusWord apply_bus(TristateBus& bus, const BusChannel& channel,
                          const xtalk::CrosstalkErrorModel& model,
                          util::BusWord driven, xtalk::BusDirection direction);

  void set_network(BusChannel& channel, const xtalk::CrosstalkErrorModel& model,
                   xtalk::RcNetwork net);

  std::uint8_t core_read(cpu::Addr addr);
  void core_write(cpu::Addr addr, std::uint8_t data);
  MmioWindow* window_at(cpu::Addr addr);

  xtalk::RcNetwork nominal_addr_net_;
  xtalk::RcNetwork nominal_data_net_;
  xtalk::RcNetwork nominal_ctrl_net_;
  double addr_cth_;
  double data_cth_;
  double ctrl_cth_;
  xtalk::CrosstalkErrorModel addr_model_;
  xtalk::CrosstalkErrorModel data_model_;
  xtalk::CrosstalkErrorModel ctrl_model_;
  bool fast_receive_;
  // Nominal evaluators, prebuilt so clear_defects (once per defect in a
  // campaign) restores them by copy instead of re-deriving rows.
  xtalk::BusEvaluator nominal_addr_eval_;
  xtalk::BusEvaluator nominal_data_eval_;
  xtalk::BusEvaluator nominal_ctrl_eval_;
  BusChannel addr_;  // active (possibly defect-applied)
  BusChannel data_;
  BusChannel ctrl_;

  TristateBus addr_bus_{BusKind::kAddress, cpu::kAddrBits};
  TristateBus data_bus_{BusKind::kData, cpu::kDataBits};
  TristateBus ctrl_bus_{BusKind::kControl, kControlBits};
  Memory memory_;
  std::vector<MmioWindow> mmio_;
  cpu::Cpu cpu_{*this};
  BusTrace* trace_ = nullptr;
  std::optional<ForcedMaf> forced_;
};

}  // namespace xtest::soc
