#include "soc/system.h"

namespace xtest::soc {

namespace {

/// Backend-calibrated thresholds with the sampling slack stretched by the
/// clock scale (a slower clock tolerates proportionally slower
/// transitions).
xtalk::ErrorModelConfig scaled_calibration(
    const xtalk::ElectricalConfig& electrical, const xtalk::RcNetwork& nominal,
    double cth, double clock_scale) {
  xtalk::ErrorModelConfig cfg =
      xtalk::calibrate_electrical(electrical, nominal, cth);
  cfg.delay_slack_ns *= clock_scale;
  return cfg;
}

}  // namespace

System::System(const SystemConfig& config)
    : nominal_addr_net_(config.address_geometry),
      nominal_data_net_(config.data_geometry),
      nominal_ctrl_net_(config.control_geometry),
      addr_cth_(xtalk::recommended_cth(nominal_addr_net_, config.cth_ratio)),
      data_cth_(xtalk::recommended_cth(nominal_data_net_, config.cth_ratio)),
      ctrl_cth_(xtalk::recommended_cth(nominal_ctrl_net_, config.cth_ratio)),
      addr_model_(scaled_calibration(config.electrical, nominal_addr_net_,
                                     addr_cth_, config.clock_period_scale)),
      data_model_(scaled_calibration(config.electrical, nominal_data_net_,
                                     data_cth_, config.clock_period_scale)),
      ctrl_model_(scaled_calibration(config.electrical, nominal_ctrl_net_,
                                     ctrl_cth_, config.clock_period_scale)),
      fast_receive_(config.fast_receive),
      nominal_addr_eval_(nominal_addr_net_, addr_model_.config()),
      nominal_data_eval_(nominal_data_net_, data_model_.config()),
      nominal_ctrl_eval_(nominal_ctrl_net_, ctrl_model_.config()),
      addr_{nominal_addr_net_, nominal_addr_eval_},
      data_{nominal_data_net_, nominal_data_eval_},
      ctrl_{nominal_ctrl_net_, nominal_ctrl_eval_} {}

void System::set_network(BusChannel& channel,
                         const xtalk::CrosstalkErrorModel& model,
                         xtalk::RcNetwork net) {
  channel.net = std::move(net);
  channel.eval = xtalk::BusEvaluator(channel.net, model.config());
}

void System::set_address_network(xtalk::RcNetwork net) {
  set_network(addr_, addr_model_, std::move(net));
}

void System::set_data_network(xtalk::RcNetwork net) {
  set_network(data_, data_model_, std::move(net));
}

void System::set_control_network(xtalk::RcNetwork net) {
  set_network(ctrl_, ctrl_model_, std::move(net));
}

void System::clear_defects() {
  addr_.net = nominal_addr_net_;
  data_.net = nominal_data_net_;
  ctrl_.net = nominal_ctrl_net_;
  addr_.eval = nominal_addr_eval_;
  data_.eval = nominal_data_eval_;
  ctrl_.eval = nominal_ctrl_eval_;
}

void System::attach_mmio(cpu::Addr base, cpu::Addr size, MmioDevice* device) {
  mmio_.push_back({base, size, device});
}

void System::load_and_reset(const cpu::MemoryImage& image, cpu::Addr entry) {
  memory_.load(image);
  addr_bus_.reset();
  data_bus_.reset();
  ctrl_bus_.reset();
  cpu_.reset(entry);
}

SliceState System::save_slice() const {
  SliceState s;
  s.cpu = cpu_.state();
  s.memory = memory_.raw();
  s.addr_held = addr_bus_.held();
  s.data_held = data_bus_.held();
  s.ctrl_held = ctrl_bus_.held();
  return s;
}

void System::restore_slice(const SliceState& state) {
  memory_.restore_raw(state.memory);
  addr_bus_.restore_held(state.addr_held);
  data_bus_.restore_held(state.data_held);
  ctrl_bus_.restore_held(state.ctrl_held);
  cpu_.restore(state.cpu);
}

RunResult System::run(std::uint64_t max_cycles) {
  cpu_.run(max_cycles);
  return {cpu_.cycles(), cpu_.halted(), cpu_.halt_reason()};
}

util::BusWord System::apply_bus(TristateBus& bus, const BusChannel& channel,
                                const xtalk::CrosstalkErrorModel& model,
                                util::BusWord driven,
                                xtalk::BusDirection direction) {
  const xtalk::VectorPair pair{bus.held(), driven};
  util::BusWord received =
      fast_receive_
          ? bus.transfer(driven, &channel.eval)
          : bus.transfer(driven, &channel.net, &model);
  if (forced_ && forced_->bus == bus.kind() &&
      forced_->fault.direction == direction &&
      xtalk::fully_excites(forced_->fault, pair)) {
    received = xtalk::faulty_v2(forced_->fault, pair);
  }
  if (trace_ != nullptr) {
    trace_->record(BusEvent{cpu_.cycles(), bus.kind(), direction, pair.v1,
                            driven, received, received != driven});
  }
  if (transfer_log_ != nullptr && bus.kind() == transfer_bus_)
    transfer_log_->push_back({pair.v1.bits(), driven.bits(), received.bits()});
  return received;
}

cpu::Addr System::send_address(cpu::Addr addr) {
  const util::BusWord received =
      apply_bus(addr_bus_, addr_, addr_model_,
                util::BusWord(cpu::kAddrBits, addr),
                xtalk::BusDirection::kCpuToCore);
  return static_cast<cpu::Addr>(received.bits());
}

std::uint8_t System::send_data(std::uint8_t byte,
                               xtalk::BusDirection direction) {
  const util::BusWord received =
      apply_bus(data_bus_, data_, data_model_,
                util::BusWord(cpu::kDataBits, byte), direction);
  return static_cast<std::uint8_t>(received.bits());
}

ControlView System::send_control(bool write) {
  const util::BusWord received =
      apply_bus(ctrl_bus_, ctrl_, ctrl_model_, control_word(write),
                xtalk::BusDirection::kCpuToCore);
  return ControlView(received);
}

System::MmioWindow* System::window_at(cpu::Addr addr) {
  for (auto& w : mmio_)
    if (addr >= w.base && addr < static_cast<cpu::Addr>(w.base + w.size))
      return &w;
  return nullptr;
}

std::uint8_t System::core_read(cpu::Addr addr) {
  if (MmioWindow* w = window_at(addr))
    return w->device->read(static_cast<cpu::Addr>(addr - w->base));
  return memory_.read(addr);
}

void System::core_write(cpu::Addr addr, std::uint8_t data) {
  if (MmioWindow* w = window_at(addr)) {
    w->device->write(static_cast<cpu::Addr>(addr - w->base), data);
    return;
  }
  memory_.write(addr, data);
}

std::uint8_t System::read(cpu::Addr addr) {
  // CPU drives the address and control buses; the addressed core sees the
  // (possibly corrupted) words and answers on the data bus.
  const cpu::Addr seen = send_address(addr);
  const ControlView ctrl = send_control(/*write=*/false);
  if (!ctrl.cs) {
    // No core selected: nothing drives the data bus; the CPU samples the
    // held (floating) word.
    return static_cast<std::uint8_t>(data_bus_.held().bits());
  }
  if (ctrl.wr) {
    // Spurious write: a WR glitch during a read captures whatever the
    // floating data bus holds -- destructive.
    core_write(seen, static_cast<std::uint8_t>(data_bus_.held().bits()));
  }
  if (!ctrl.rd) {
    // Dropped read strobe: the core never drives; floating value sampled.
    return static_cast<std::uint8_t>(data_bus_.held().bits());
  }
  const std::uint8_t byte = core_read(seen);
  return send_data(byte, xtalk::BusDirection::kCoreToCpu);
}

void System::write(cpu::Addr addr, std::uint8_t data) {
  const cpu::Addr seen = send_address(addr);
  const ControlView ctrl = send_control(/*write=*/true);
  // The CPU drives the data bus regardless of what the core received.
  const std::uint8_t byte = send_data(data, xtalk::BusDirection::kCpuToCore);
  // A dropped WR (or CS) loses the store; a spurious RD during a write is
  // a transient bus contention with no architectural effect here.
  if (ctrl.cs && ctrl.wr) core_write(seen, byte);
}

void System::internal_cycle() {
  // Buses hold their last driven values; nothing to evaluate.
}

}  // namespace xtest::soc
