// Cycle-level model of the PARWAN-style embedded processor core.
//
// The SBST method depends only on the *bus transaction sequence* each
// instruction produces (Fig. 5 of the paper), so the core is modelled at
// the granularity of clock cycles that either carry one bus transaction or
// are internal.  For a two-byte memory-reference instruction the sequence
// is exactly the paper's:
//
//   cycle 1  fetch byte 1      addr bus <- Ai,     data bus <- M[Ai]
//   cycle 2  decode            buses hold ("z" keeps the last driven value)
//   cycle 3  fetch byte 2      addr bus <- Ai+1,   data bus <- M[Ai+1]
//   cycle 4  operand access    addr bus <- Ax,     data bus <- M[Ax] or ACC
//   cycle 5  execute           buses hold
//
// All bus traffic goes through a BusPort implemented by the SoC, which
// applies the crosstalk error model; the core consumes whatever (possibly
// corrupted) bytes come back, so defect effects propagate through real
// instruction semantics -- including derailed control flow on corrupted
// fetches, which is what makes whole-program fault simulation meaningful.

#pragma once

#include <cstdint>

#include "cpu/isa.h"

namespace xtest::cpu {

/// Why the core stopped.
enum class HaltReason : std::uint8_t {
  kRunning,
  kHltInstruction,
  kIllegalOpcode,
};

/// Processor status flags.
struct Flags {
  bool v = false;  ///< signed overflow
  bool c = false;  ///< carry / no-borrow
  bool z = false;  ///< zero
  bool n = false;  ///< negative (bit 7)

  /// Packed into the branch-condition nibble layout (N Z C V).
  std::uint8_t mask() const {
    return static_cast<std::uint8_t>((n ? kCondN : 0) | (z ? kCondZ : 0) |
                                     (c ? kCondC : 0) | (v ? kCondV : 0));
  }
};

/// The SoC side of the processor's bus interface.  Every call is one clock
/// cycle; read/write carry a bus transaction, internal_cycle holds buses.
class BusPort {
 public:
  virtual ~BusPort() = default;
  virtual std::uint8_t read(Addr addr) = 0;
  virtual void write(Addr addr, std::uint8_t data) = 0;
  virtual void internal_cycle() = 0;
};

/// Complete architectural state of the core.  A suspended program slice
/// (soc::SliceState) lifts it out with state() and writes it back with
/// restore(), after which the core continues the run as if it had never
/// stopped.
struct CpuState {
  Addr pc = 0;
  std::uint8_t acc = 0;
  Flags flags;
  HaltReason reason = HaltReason::kHltInstruction;
  std::uint64_t cycles = 0;
};

class Cpu {
 public:
  explicit Cpu(BusPort& port) : port_(port) {}

  void reset(Addr entry);

  /// Executes one instruction (multiple cycles).  No-op when halted.
  void step();

  /// Steps until halt or until the cycle counter reaches `max_cycles`.
  /// Returns true when the core halted by itself.
  bool run(std::uint64_t max_cycles);

  bool halted() const { return reason_ != HaltReason::kRunning; }
  HaltReason halt_reason() const { return reason_; }

  Addr pc() const { return pc_; }
  std::uint8_t acc() const { return acc_; }
  Flags flags() const { return flags_; }
  std::uint64_t cycles() const { return cycles_; }

  /// Test hooks.
  void set_acc(std::uint8_t a) { acc_ = a; }
  void set_flags(Flags f) { flags_ = f; }

  /// Slice save/restore (see CpuState).
  CpuState state() const { return {pc_, acc_, flags_, reason_, cycles_}; }
  void restore(const CpuState& s) {
    pc_ = s.pc;
    acc_ = s.acc;
    flags_ = s.flags;
    reason_ = s.reason;
    cycles_ = s.cycles;
  }

 private:
  std::uint8_t bus_read(Addr a);
  void bus_write(Addr a, std::uint8_t d);
  void internal();

  void set_zn(std::uint8_t value);
  void exec_memref(const Decoded& d, std::uint8_t offset_byte);
  void exec_single(SingleOp op);

  BusPort& port_;
  Addr pc_ = 0;
  std::uint8_t acc_ = 0;
  Flags flags_;
  HaltReason reason_ = HaltReason::kHltInstruction;  // not started
  std::uint64_t cycles_ = 0;
};

}  // namespace xtest::cpu
