#include "sim/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "sbst/slice.h"
#include "sim/checkpoint.h"
#include "sim/online.h"
#include "util/fault_injector.h"

namespace xtest::sim {

namespace {

using Clock = std::chrono::steady_clock;

const xtalk::RcNetwork& nominal_net(const soc::System& system,
                                    soc::BusKind bus) {
  switch (bus) {
    case soc::BusKind::kAddress: return system.nominal_address_network();
    case soc::BusKind::kData: return system.nominal_data_network();
    case soc::BusKind::kControl: return system.nominal_control_network();
  }
  return system.nominal_address_network();
}

/// The nominal network exactly as soc::System derives it, without
/// building a whole simulator.
xtalk::RcNetwork nominal_network(const soc::SystemConfig& config,
                                 soc::BusKind bus) {
  const xtalk::BusGeometry& geometry =
      bus == soc::BusKind::kAddress ? config.address_geometry
      : bus == soc::BusKind::kData  ? config.data_geometry
                                    : config.control_geometry;
  return xtalk::RcNetwork(geometry);
}

const xtalk::CrosstalkErrorModel& error_model(const soc::System& system,
                                             soc::BusKind bus) {
  switch (bus) {
    case soc::BusKind::kAddress: return system.address_model();
    case soc::BusKind::kData: return system.data_model();
    case soc::BusKind::kControl: return system.control_model();
  }
  return system.address_model();
}

void apply_defect(soc::System& system, soc::BusKind bus,
                  const xtalk::Defect& defect) {
  const xtalk::RcNetwork net = defect.apply(nominal_net(system, bus));
  switch (bus) {
    case soc::BusKind::kAddress: system.set_address_network(net); break;
    case soc::BusKind::kData: system.set_data_network(net); break;
    case soc::BusKind::kControl: system.set_control_network(net); break;
  }
}

/// Adds one outcome's on-line counters (the gold schedule's included).
void book(util::CampaignStats&, Verdict) {}
void book(util::CampaignStats& stats, const OnlineOutcome& o) {
  stats.online_rounds += o.rounds;
  stats.online_mmio_heartbeats += o.heartbeats;
  stats.online_deadlines_late += o.deadlines_late;
  stats.online_deadlines_missed += o.deadlines_missed;
  if (is_detected(o.verdict)) {
    stats.online_detection_latency_cycles += o.detection_latency_cycles;
    ++stats.online_latency_samples;
  }
}

/// What one slot's run cost in simulated clock cycles: all of them, the
/// head of them taken from the gold run instead of being stepped, and the
/// cycles the slot's own run stepped (0 for a slot that took a shared run:
/// the policy counts those once).
struct SlotCycles {
  std::uint64_t total = 0;
  std::uint64_t from_gold = 0;
  std::uint64_t stepped = 0;

  SlotCycles& operator+=(const SlotCycles& c) {
    total += c.total;
    from_gold += c.from_gold;
    stepped += c.stepped;
    return *this;
  }
};

/// What a policy's batch step stepped: one representative run per
/// trajectory off gold, and the cycles of those runs and of the re-runs
/// that keep their fork states.
struct SharedWork {
  std::uint64_t trajectories = 0;
  std::uint64_t stepped_cycles = 0;
};

/// Worker w's private simulator, built on first use.
using SystemFor = std::function<soc::System&(unsigned)>;

enum class ItemStatus : std::uint8_t { kSkipped, kDone, kThrew };

/// Runs body(k, worker) for every k of [0, count) on `parallel`'s threads
/// until `cancelled()`.  Items go out in blocks of about an eighth of a
/// worker's share, so a few long items (representative runs) spread over
/// the workers and many short ones (scans) cost few handouts.  An item
/// whose body throws is reported in the returned status, never rethrown.
/// Unlike util::parallel_for_items it consults no fault-injection site:
/// these items are not slots.
template <typename Body>
std::vector<ItemStatus> for_each_item(std::size_t count,
                                      const util::ParallelConfig& parallel,
                                      const std::function<bool()>& cancelled,
                                      Body&& body) {
  std::vector<ItemStatus> status(count, ItemStatus::kSkipped);
  const std::size_t block =
      std::max<std::size_t>(1, count / (8 * parallel.resolve(count)));
  std::atomic<std::size_t> next{0};
  // The chunks only fix the worker count; the blocks are handed out here.
  util::parallel_for_chunks(
      count, parallel, [&](std::size_t, std::size_t, unsigned w) {
        for (std::size_t begin; (begin = next.fetch_add(block)) < count;) {
          const std::size_t end = std::min(count, begin + block);
          for (std::size_t k = begin; k < end && !cancelled(); ++k) {
            try {
              body(k, w);
              status[k] = ItemStatus::kDone;
            } catch (...) {
              status[k] = ItemStatus::kThrew;
            }
          }
        }
      });
  return status;
}

// --- recording the bus under test ------------------------------------------

/// Applies `defect` to `system` for one run and, when it goes, leaves the
/// system defect-free with no MMIO window mapped, throw or not (an on-line
/// run can throw inside a functional window).
class DefectRun {
 public:
  DefectRun(soc::System& system, soc::BusKind bus, const xtalk::Defect& defect)
      : system_(system) {
    apply_defect(system, bus, defect);
  }
  ~DefectRun() {
    system_.clear_mmio();
    system_.clear_defects();
  }
  DefectRun(const DefectRun&) = delete;
  DefectRun& operator=(const DefectRun&) = delete;

 private:
  soc::System& system_;
};

/// One transfer on the bus under test: the word the bus held, the word
/// driven, the word received, and the resume point of its run before it,
/// where a run that leaves this one at this transfer resumes.  For gold
/// that is an index k into its states (0 = the reset, k = states[k - 1]);
/// for a representative, a point of its schedule (an instruction boundary
/// off-line, a round on-line).
struct Transfer {
  std::uint64_t held;
  std::uint64_t driven;
  std::uint64_t received;
  std::uint64_t resume;
};

/// Follows the bus under test through one run: the system logs that bus's
/// transfers alone, and tag() moves the ones logged since its last call
/// into `out` with the resume point before them.
class Recorder {
 public:
  Recorder(soc::System& system, soc::BusKind bus, std::vector<Transfer>& out)
      : system_(system), bus_(bus), out_(out) {
    system.set_transfer_log(bus, &log_);
  }
  ~Recorder() { system_.set_transfer_log(bus_, nullptr); }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void tag(std::uint64_t resume) {
    for (const soc::BusTransfer& t : log_)
      out_.push_back({t.held, t.driven, t.received, resume});
    log_.clear();
  }

 private:
  soc::System& system_;
  soc::BusKind bus_;
  std::vector<Transfer>& out_;
  std::vector<soc::BusTransfer> log_;
};

// --- schedules -------------------------------------------------------------
// A schedule is how one slot's run goes: how it is recorded and resumed,
// and how it is judged.  It names the slot's `Outcome` and the `State` a
// run resumes from (nullptr = the reset), and supplies:
//
//   Outcome gold(soc::System&, const sbst::TestProgram&,
//                std::uint64_t& cycles, Recorder*, std::vector<State>&)
//     the defect-free run; with a recorder it tags each transfer with k,
//     where states[k - 1] (which it keeps) is the state before it;
//   Outcome run(soc::System&, const State* from, Recorder*,
//               std::uint64_t& cycles) const
//     the applied defect's run from `from` to its end, judged against
//     gold; with a recorder it tags each transfer with a resume point;
//   std::vector<State> states_at(soc::System&, const State* from,
//                                const std::vector<std::uint64_t>&) const
//     re-runs that run and keeps its state at each of the given
//     (ascending) resume points;
//   static std::uint64_t cycles_at(const State*)
//     the cycle count of a state (0 for the reset);
//   void unload() const
//     the tester's unload of a run whose outcome a slot takes from another.
// A run leaves the simulator to its caller (DefectRun cleans it up).

/// The off-line schedule (Fig. 9): the whole program runs under the defect
/// and its tester-visible responses are classified against the gold run.
/// Gold keeps a snapshot every kSnapshotCycles; a representative's resume
/// points are instruction boundaries, so it runs one instruction at a time
/// while recording, and a fork state is kept by re-running to it.
class WholeProgramRun {
 public:
  using Outcome = Verdict;
  using State = soc::SliceState;

  explicit WholeProgramRun(const CampaignOptions& options)
      : cycle_factor_(options.cycle_factor) {}

  Verdict gold(soc::System& system, const sbst::TestProgram& program,
               std::uint64_t& cycles, Recorder* rec,
               std::vector<State>& snapshots) {
    program_ = &program;
    gold_ = rec != nullptr ? record_gold(system, program, *rec, snapshots)
                           : run_and_capture(system, program, kGoldCap);
    if (!gold_.completed)
      throw std::runtime_error("gold run did not complete; bad program");
    budget_ = gold_.cycles * cycle_factor_ + 1000;
    cycles = gold_.cycles;
    return Verdict::kUndetected;
  }

  Verdict run(soc::System& system, const State* from, Recorder* rec,
              std::uint64_t& cycles) const {
    ResponseSnapshot snap;
    if (rec == nullptr) {
      snap = run_and_capture(system, *program_, budget_, from);
    } else {
      resume(system, from);
      const cpu::Cpu& cpu = system.processor();
      while (!cpu.halted() && cpu.cycles() < budget_) {
        const std::uint64_t boundary = cpu.cycles();
        system.run(boundary + 1);  // one instruction
        rec->tag(boundary);
      }
      // A run at its end steps nothing more: this only reads the result.
      snap = capture(system, *program_, system.run(budget_));
    }
    cycles = snap.cycles;
    return classify(gold_, snap);
  }

  std::vector<State> states_at(
      soc::System& system, const State* from,
      const std::vector<std::uint64_t>& boundaries) const {
    resume(system, from);
    std::vector<State> states;
    states.reserve(boundaries.size());
    for (const std::uint64_t b : boundaries) {
      system.run(b);
      if (system.processor().cycles() != b)
        throw std::logic_error("fork re-run left its recorded run");
      states.push_back(system.save_slice());
    }
    return states;
  }

  static std::uint64_t cycles_at(const State* s) {
    return s != nullptr ? s->cpu.cycles : 0;
  }

  /// The tester still unloads a run whose outcome was shared, so the
  /// fault injector sees every slot.
  void unload() const {
    util::FaultInjector::global().maybe_fail("signature.capture");
  }

 private:
  /// Cycle cap of the gold run.
  static constexpr std::uint64_t kGoldCap = 1'000'000;
  /// Gold cycles between two snapshots.  A slot resumed from one
  /// re-simulates at most this much of gold (plus the instruction in
  /// flight); a snapshot is about 4 KB.
  static constexpr std::uint64_t kSnapshotCycles = 64;

  /// The gold run, sliced into kSnapshotCycles budgets through
  /// sbst::ProgramSlice: records every transfer of the bus under test and
  /// the state after every budget, then unloads the responses once.
  static ResponseSnapshot record_gold(soc::System& system,
                                      const sbst::TestProgram& program,
                                      Recorder& rec,
                                      std::vector<State>& snapshots) {
    sbst::ProgramSlice slice(program);
    soc::RunResult rr;
    for (;;) {
      rr = slice.run(system,
                     std::min(kSnapshotCycles, kGoldCap - slice.cycles()));
      rec.tag(snapshots.size());
      if (slice.halted() || slice.cycles() >= kGoldCap) break;
      snapshots.push_back(slice.state());
    }
    return capture(system, program, rr);
  }

  /// Puts `system` in `from` (nullptr = the reset).
  void resume(soc::System& system, const State* from) const {
    if (from != nullptr)
      system.restore_slice(*from);
    else
      system.load_and_reset(program_->image, program_->entry);
  }

  std::uint64_t cycle_factor_;
  const sbst::TestProgram* program_ = nullptr;
  ResponseSnapshot gold_;
  std::uint64_t budget_ = 0;
};

/// The on-line schedule (sim/online.h): rounds of a functional window and
/// a test slice, with the defect live in both (a field defect does not
/// care who owns the bus), detected at the first slice boundary whose
/// snapshot diverges from the gold one.  Resume points are round
/// boundaries: gold keeps the soc::ScheduleState before each round, a run
/// tags each transfer of both contexts with its round, and a fork state is
/// kept by re-running whole rounds to it.
class InterleavedSchedule {
 public:
  using Outcome = OnlineOutcome;
  using State = soc::ScheduleState;

  explicit InterleavedSchedule(const soc::OnlineConfig& online)
      : online_(online), workload_(soc::make_default_workload()) {
    if (online.slice_cycles == 0 || online.workload_cycles == 0)
      throw std::invalid_argument(
          "on-line campaign: slice_cycles and workload_cycles must be > 0");
  }

  /// Runs rounds until the program halts, keeping every slice-boundary
  /// snapshot.  The gold schedule may not exceed the off-line gold run's
  /// absolute budget.  The engine discards the gold simulator afterwards,
  /// so a throw here needs no MMIO cleanup.
  OnlineOutcome gold(soc::System& system, const sbst::TestProgram& program,
                     std::uint64_t& cycles, Recorder* rec,
                     std::vector<State>& states) {
    program_ = &program;
    gold_.clear();
    soc::InterleavedScheduler sched(system, online_, workload_);
    sbst::ProgramSlice slice(program);
    for (;;) {
      gold_.push_back(round(sched, slice, system));
      if (rec != nullptr) rec->tag(gold_.size() - 1);
      if (slice.halted()) break;
      if (slice.cycles() >= 1'000'000)
        throw std::runtime_error(
            "gold on-line run did not complete; bad program");
      if (rec != nullptr) states.push_back(sched.save(slice.state()));
    }
    if (slice.reason() != cpu::HaltReason::kHltInstruction)
      throw std::runtime_error(
          "gold on-line run halted abnormally; bad program");
    OnlineOutcome out;
    finish(sched, out, cycles);
    fold_session(gold_total, out);
    return out;
  }

  OnlineOutcome run(soc::System& system, const State* from, Recorder* rec,
                    std::uint64_t& cycles) const {
    soc::InterleavedScheduler sched(system, online_, workload_);
    sbst::ProgramSlice slice = resume(sched, from);
    OnlineOutcome out;
    for (std::uint64_t r = sched.rounds(); r < gold_.size(); ++r) {
      const RoundSnap snap = round(sched, slice, system);
      if (rec != nullptr) rec->tag(r);
      const RoundSnap& g = gold_[r];
      const bool value_div = snap.values != g.values;
      const bool halt_div =
          snap.halted != g.halted ||
          (snap.halted && g.halted && snap.reason != g.reason);
      if (value_div || halt_div) {
        // A schedule still running after the gold schedule completed with
        // matching responses is the on-line tester timeout; everything
        // else pins the defect to a response or completion mismatch.
        out.verdict = !snap.halted && g.halted && !value_div
                          ? Verdict::kDetectedByTimeout
                          : Verdict::kDetected;
        out.detection_latency_cycles = snap.global_cycles;
        break;
      }
      if (snap.halted) break;  // matched gold to completion: undetected
    }
    finish(sched, out, cycles);
    return out;
  }

  std::vector<State> states_at(soc::System& system, const State* from,
                               const std::vector<std::uint64_t>& rounds) const {
    soc::InterleavedScheduler sched(system, online_, workload_);
    sbst::ProgramSlice slice = resume(sched, from);
    std::vector<State> states;
    states.reserve(rounds.size());
    for (const std::uint64_t r : rounds) {
      while (sched.rounds() < r) round(sched, slice, system);
      states.push_back(sched.save(slice.state()));
    }
    return states;
  }

  static std::uint64_t cycles_at(const State* s) {
    return s != nullptr ? s->global_cycles : 0;
  }

  /// The on-line tester compares at slice boundaries; it has no unload.
  void unload() const {}

  /// Interference of every gold schedule run so far (one per session).
  OnlineOutcome gold_total;

 private:
  /// What the tester sees at one slice boundary: the response cells
  /// unloaded from the *suspended* slice memory, the completion status,
  /// and the global-clock stamp of the boundary.
  struct RoundSnap {
    std::vector<std::uint8_t> values;
    bool halted = false;
    cpu::HaltReason reason = cpu::HaltReason::kRunning;
    std::uint64_t global_cycles = 0;
  };

  /// Puts `sched` in `from` and returns the test context there (nullptr,
  /// or a state before round 0, = the reset).
  sbst::ProgramSlice resume(soc::InterleavedScheduler& sched,
                            const State* from) const {
    if (from == nullptr || from->rounds == 0)
      return sbst::ProgramSlice(*program_);
    sched.restore(*from);
    return sbst::ProgramSlice(*program_, from->test);
  }

  /// One round: a functional window, then one test slice.
  RoundSnap round(soc::InterleavedScheduler& sched, sbst::ProgramSlice& slice,
                  soc::System& system) const {
    sched.run_functional_window();
    sched.begin_test_slice();
    const std::uint64_t before = slice.cycles();
    const soc::RunResult rr = slice.run(system, online_.slice_cycles);
    sched.end_test_slice(rr.cycles - before);
    RoundSnap snap;
    snap.values.reserve(program_->response_cells.size());
    for (cpu::Addr a : program_->response_cells)
      snap.values.push_back(slice.memory_at(a));
    snap.halted = slice.halted();
    snap.reason = slice.reason();
    snap.global_cycles = sched.global_cycles();
    return snap;
  }

  static void finish(soc::InterleavedScheduler& sched, OnlineOutcome& out,
                     std::uint64_t& cycles) {
    sched.finish();
    out.rounds = sched.rounds();
    const soc::InterferenceCounters& c = sched.interference();
    out.heartbeats = c.heartbeats;
    out.deadlines_late = c.deadlines_late;
    out.deadlines_missed = c.deadlines_missed;
    cycles = sched.global_cycles();
  }

  soc::OnlineConfig online_;
  soc::OnlineWorkload workload_;
  const sbst::TestProgram* program_ = nullptr;
  std::vector<RoundSnap> gold_;
};

// --- shared trajectories ---------------------------------------------------
// The per-defect policy of the engine (run_slots): what one slot of a
// campaign is.  It names the slot's `Outcome` and supplies four steps; the
// engine owns the rest:
//
//   Outcome gold(soc::System&, const sbst::TestProgram&, std::uint64_t& cycles)
//     runs the program defect-free on a fresh simulator, once per program
//     before any defect, and returns the gold run's own outcome;
//   SharedWork share(const xtalk::DefectLibrary&,
//                    const std::vector<std::size_t>& slots,
//                    const util::ParallelConfig&, const SystemFor&,
//                    const std::function<bool()>& cancelled)
//     works out the outcomes of `slots` (the call's owned, unrestored
//     slots) together before the slot loop, sharing runs between them;
//   Outcome simulate(soc::System&, const xtalk::DefectLibrary&,
//                    std::size_t i, SlotCycles& cycles) const
//     slot i's outcome in the slot loop, concurrently with other workers;
//     throws on a simulation failure;
//   Outcome run_alone(soc::System&, const xtalk::Defect&,
//                     SlotCycles& cycles) const
//     runs one defect by itself, the serial retry of a failed slot.
// A step that simulates leaves the simulator defect-free, throw or not.

/// The one trajectory tree of both schedules (DESIGN D7, D9).
///
/// Divergence first: until the first transfer on the bus under test whose
/// received word the defect changes, a defect run *is* the gold run,
/// transfer for transfer.  So the gold step records that bus's transfers
/// and the schedule's states; a slot whose defect changes no received word
/// takes gold's outcome without stepping the CPU, and one that does
/// resumes from the state before its first deviating transfer.
///
/// Shared trajectories: the same holds between defect runs.  share() puts
/// the slots that first leave gold at the same transfer with the same
/// received word in one group.  The group's representative, its lowest
/// defect index, runs once from that state and records its own transfers;
/// each other member scans them with its own evaluator.  A member that
/// never deviates takes the representative's outcome, and the others form
/// child groups the same way, each resuming from the representative's
/// state before its fork transfer.  A received word is a function of the
/// (held, driven) pair, so a scan evaluates each distinct pair of a
/// trajectory once, in order of first occurrence, and every transition is
/// still evaluated under every defect (DESIGN D1).  With fast_receive off
/// (the oracle) nothing is recorded or shared and every slot runs from
/// reset.
template <typename Schedule>
class SharedTrajectories {
 public:
  using Outcome = typename Schedule::Outcome;
  using State = typename Schedule::State;

  SharedTrajectories(const soc::SystemConfig& config, soc::BusKind bus,
                     Schedule schedule)
      : schedule_(std::move(schedule)),
        bus_(bus),
        nominal_(nominal_network(config, bus)) {}

  const Schedule& schedule() const { return schedule_; }

  Outcome gold(soc::System& system, const sbst::TestProgram& program,
               std::uint64_t& cycles) {
    transfers_.clear();
    states_.clear();
    scan_ = system.fast_receive();
    std::optional<Recorder> rec;
    if (scan_) rec.emplace(system, bus_, transfers_);
    const Outcome out = schedule_.gold(system, program, cycles,
                                       rec ? &*rec : nullptr, states_);
    trajectories_.assign(1, {out, cycles, cycles});
    gold_pairs_ = distinct_pairs(transfers_, 0);
    thresholds_ = error_model(system, bus_).config();
    return out;
  }

  SharedWork share(const xtalk::DefectLibrary& library,
                   const std::vector<std::size_t>& slots,
                   const util::ParallelConfig& parallel,
                   const SystemFor& system_for,
                   const std::function<bool()>& cancelled) {
    slots_.assign(library.size(), Slot{});
    trajectories_.resize(1);  // gold's
    SharedWork work;
    if (!scan_) return work;
    std::vector<Group> level = leave_gold(library, slots, parallel, cancelled);
    // Holds the fork states `level` resumes from while it runs.
    std::vector<std::vector<State>> states;
    while (!level.empty() && !cancelled())
      level = next_level(library, level, states, work, parallel, system_for,
                         cancelled);
    return work;
  }

  Outcome simulate(soc::System& system, const xtalk::DefectLibrary& library,
                   std::size_t i, SlotCycles& cycles) const {
    const Slot s = slots_[i];
    switch (s.status) {
      case Slot::kNone: return run_alone(system, library[i], cycles);
      case Slot::kFailed: throw std::runtime_error("its shared run failed");
      case Slot::kTaken: schedule_.unload(); break;
      case Slot::kUnloaded: break;  // in the representative's own run
    }
    const Trajectory& t = trajectories_[s.trajectory];
    cycles = {t.cycles, t.from_gold, 0};
    return t.outcome;
  }

  Outcome run_alone(soc::System& system, const xtalk::Defect& defect,
                    SlotCycles& cycles) const {
    const DefectRun defect_run(system, bus_, defect);
    const State* from = nullptr;
    if (scan_) {
      const Deviation d =
          first_deviation(system.evaluator(bus_), gold_pairs_);
      if (!d) {
        schedule_.unload();
        const Trajectory& gold = trajectories_.front();
        cycles = {gold.cycles, gold.from_gold, 0};
        return gold.outcome;
      }
      from = gold_state(d.at);
    }
    std::uint64_t total = 0;
    const Outcome out = schedule_.run(system, from, nullptr, total);
    const std::uint64_t head = Schedule::cycles_at(from);
    cycles = {total, head, total - head};
    return out;
  }

 private:
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

  /// A distinct (held, driven) pair of a trajectory, the word received on
  /// it there, and the index of its first transfer.
  struct Pair {
    std::uint64_t held;
    std::uint64_t driven;
    std::uint64_t received;
    std::size_t first;
  };

  /// A scan's result: the first transfer whose received word the scanning
  /// defect changes, and the word it receives there; `at == kNever` when
  /// it changes none.
  struct Deviation {
    std::size_t at = kNever;
    std::uint64_t word = 0;
    explicit operator bool() const { return at != kNever; }
  };

  /// A slot that deviates at transfer `at` of its group's trajectory,
  /// receiving `word` there.
  struct Fork {
    std::size_t at;
    std::uint64_t word;
    std::size_t slot;
  };

  /// Slots whose received words on the bus under test have matched so
  /// far, so their runs are one run up to here.  The representative
  /// (members.front(), the lowest defect index) runs from `from` (nullptr
  /// = the reset); its transfer number `fork`, counted from `from`, is the
  /// one where the group left its parent.  The other members scan the
  /// transfers after it.  `from_gold` is what the members' runs take from
  /// gold: the cycles of the gold state their level-1 ancestor resumed
  /// from.
  struct Group {
    std::vector<std::size_t> members;
    const State* from = nullptr;
    std::size_t fork = 0;
    std::uint64_t from_gold = 0;
    // The representative's run:
    std::vector<Transfer> transfers;
    std::vector<Pair> pairs;  // of the transfers after `fork`
    Outcome outcome{};
    std::uint64_t cycles = 0;
  };

  /// One run's outcome and cycles, and what its slots take from gold,
  /// kept once for every slot that shares it.  trajectories_[0] is gold.
  struct Trajectory {
    Outcome outcome{};
    std::uint64_t cycles = 0;
    std::uint64_t from_gold = 0;
  };

  /// One slot's result from share().  kTaken: a shared run's outcome whose
  /// unload is still due; kUnloaded: a representative's own outcome;
  /// kFailed: its shared run threw, so the slot goes to the serial retry;
  /// kNone: share() did not reach it, so the slot runs alone.
  struct Slot {
    enum Status : std::uint8_t { kNone, kTaken, kUnloaded, kFailed };
    Status status = kNone;
    std::uint32_t trajectory = 0;
  };

  /// The gold state a run that leaves gold at transfer `at` resumes from
  /// (nullptr = the reset).
  const State* gold_state(std::size_t at) const {
    const std::uint64_t k = transfers_[at].resume;
    return k > 0 ? &states_[k - 1] : nullptr;
  }

  /// The distinct (held, driven) pairs of transfers[from..], in order of
  /// first occurrence.  The set compares both words; its hash only picks
  /// a bucket.
  static std::vector<Pair> distinct_pairs(const std::vector<Transfer>& t,
                                          std::size_t from) {
    struct Hash {
      std::size_t operator()(
          const std::pair<std::uint64_t, std::uint64_t>& k) const {
        return std::hash<std::uint64_t>{}(k.first * 0x9E3779B97F4A7C15ull ^
                                          k.second);
      }
    };
    std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, Hash> seen;
    seen.reserve(t.size() - std::min(from, t.size()));
    std::vector<Pair> pairs;
    for (std::size_t k = from; k < t.size(); ++k)
      if (seen.emplace(t[k].held, t[k].driven).second)
        pairs.push_back({t[k].held, t[k].driven, t[k].received, k});
    return pairs;
  }

  /// The first transfer whose received word `eval` changes: pairs come in
  /// order of first occurrence, so the first pair that deviates holds it.
  /// Compared with the trajectory's received word, not the driven one, so
  /// the scan does not rest on nominal buses receiving what they are
  /// driven.
  static Deviation first_deviation(const xtalk::BusEvaluator& eval,
                                   const std::vector<Pair>& pairs) {
    for (const Pair& p : pairs) {
      const std::uint64_t word = eval.receive(p.held, p.driven);
      if (word != p.received) return {p.first, word};
    }
    return {};
  }

  /// Scans `pairs_of(k)` with slot slots[k]'s evaluator for every k on
  /// `parallel`'s threads, then hands each result to `found(k, deviation)`
  /// in slot order.  A slot whose scan throws is marked kFailed.
  template <typename PairsOf, typename Found>
  void scan(const xtalk::DefectLibrary& library,
            const std::vector<std::size_t>& slots,
            const util::ParallelConfig& parallel,
            const std::function<bool()>& cancelled, PairsOf&& pairs_of,
            Found&& found) {
    std::vector<Deviation> dev(slots.size());
    const std::vector<ItemStatus> status = for_each_item(
        slots.size(), parallel, cancelled, [&](std::size_t k, unsigned) {
          dev[k] = first_deviation(
              xtalk::BusEvaluator(library[slots[k]].apply(nominal_),
                                  thresholds_),
              pairs_of(k));
        });
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (status[k] == ItemStatus::kThrew)
        slots_[slots[k]].status = Slot::kFailed;
      else if (status[k] == ItemStatus::kDone)
        found(k, dev[k]);
    }
  }

  /// Gold is level 0: each slot scans it.  A slot that never deviates
  /// takes gold's outcome; the others group by their fork, each group
  /// resuming from the gold state before its fork transfer.
  std::vector<Group> leave_gold(const xtalk::DefectLibrary& library,
                                const std::vector<std::size_t>& slots,
                                const util::ParallelConfig& parallel,
                                const std::function<bool()>& cancelled) {
    std::vector<Fork> forks;
    scan(library, slots, parallel, cancelled,
         [&](std::size_t) -> const std::vector<Pair>& { return gold_pairs_; },
         [&](std::size_t k, const Deviation& d) {
           if (d)
             forks.push_back({d.at, d.word, slots[k]});
           else
             slots_[slots[k]] = {Slot::kTaken, 0};
         });
    std::vector<Group> groups = groups_of(
        forks, transfers_, [&](std::size_t at) { return gold_state(at); });
    for (Group& g : groups) g.from_gold = Schedule::cycles_at(g.from);
    return groups;
  }

  /// One level of the tree: each group's representative runs, the other
  /// members scan its transfers, and those that deviate form the next
  /// level, whose fork states one re-run per representative keeps in
  /// `states` (the states `level` resumes from are done with by then).
  std::vector<Group> next_level(
      const xtalk::DefectLibrary& library, std::vector<Group>& level,
      std::vector<std::vector<State>>& states, SharedWork& work,
      const util::ParallelConfig& parallel, const SystemFor& system_for,
      const std::function<bool()>& cancelled) {
    const std::vector<ItemStatus> ran = for_each_item(
        level.size(), parallel, cancelled, [&](std::size_t g, unsigned w) {
          run_representative(system_for(w), library, level[g]);
        });
    std::vector<std::size_t> members;
    std::vector<std::size_t> member_group;
    std::vector<std::uint32_t> trajectory(level.size());
    for (std::size_t g = 0; g < level.size(); ++g) {
      const Group& group = level[g];
      if (ran[g] == ItemStatus::kSkipped) continue;
      ++work.trajectories;
      if (ran[g] == ItemStatus::kThrew) {
        // Quarantine: the representative and its members run alone.
        for (const std::size_t i : group.members)
          slots_[i].status = Slot::kFailed;
        continue;
      }
      work.stepped_cycles += group.cycles - Schedule::cycles_at(group.from);
      trajectory[g] = static_cast<std::uint32_t>(trajectories_.size());
      trajectories_.push_back({group.outcome, group.cycles, group.from_gold});
      slots_[group.members.front()] = {Slot::kUnloaded, trajectory[g]};
      for (std::size_t m = 1; m < group.members.size(); ++m) {
        members.push_back(group.members[m]);
        member_group.push_back(g);
      }
    }
    std::vector<std::vector<Fork>> forks(level.size());
    scan(library, members, parallel, cancelled,
         [&](std::size_t k) -> const std::vector<Pair>& {
           return level[member_group[k]].pairs;
         },
         [&](std::size_t k, const Deviation& d) {
           const std::size_t g = member_group[k];
           if (!d)
             slots_[members[k]] = {Slot::kTaken, trajectory[g]};
           else
             forks[g].push_back({d.at, d.word, members[k]});
         });
    // The resume points before the fork transfers, per group.
    std::vector<std::vector<std::uint64_t>> points(level.size());
    for (std::size_t g = 0; g < level.size(); ++g) {
      std::vector<std::uint64_t>& p = points[g];
      for (const Fork& f : forks[g])
        p.push_back(level[g].transfers[f.at].resume);
      std::sort(p.begin(), p.end());
      p.erase(std::unique(p.begin(), p.end()), p.end());
    }
    std::vector<std::vector<State>> kept(level.size());
    const std::vector<ItemStatus> rerun = for_each_item(
        level.size(), parallel, cancelled, [&](std::size_t g, unsigned w) {
          if (!points[g].empty())
            kept[g] = fork_states(system_for(w), library, level[g], points[g]);
        });
    std::vector<Group> next;
    for (std::size_t g = 0; g < level.size(); ++g) {
      const std::vector<std::uint64_t>& p = points[g];
      if (p.empty() || rerun[g] == ItemStatus::kSkipped) continue;
      if (rerun[g] == ItemStatus::kThrew) {
        for (const Fork& f : forks[g]) slots_[f.slot].status = Slot::kFailed;
        continue;
      }
      work.stepped_cycles += Schedule::cycles_at(&kept[g].back()) -
                             Schedule::cycles_at(level[g].from);
      const std::vector<Transfer>& parent = level[g].transfers;
      for (Group& child : groups_of(forks[g], parent, [&](std::size_t at) {
             const auto it =
                 std::lower_bound(p.begin(), p.end(), parent[at].resume);
             return &kept[g][it - p.begin()];
           })) {
        child.from_gold = level[g].from_gold;
        next.push_back(std::move(child));
      }
    }
    states = std::move(kept);
    return next;
  }

  /// Cuts `forks` (in ascending slot order) into groups, one per
  /// (transfer, word), each with its members ascending.  A group resumes
  /// from `state_at(at)`, the state at the resume point of `parent`'s
  /// transfer `at`, and its representative's run counts transfers from
  /// there.
  template <typename StateAt>
  static std::vector<Group> groups_of(const std::vector<Fork>& forks,
                                      const std::vector<Transfer>& parent,
                                      StateAt&& state_at) {
    std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> index;
    std::vector<Group> groups;
    for (const Fork& f : forks) {
      const auto [it, fresh] =
          index.try_emplace({f.at, f.word}, groups.size());
      if (fresh) {
        std::size_t first = f.at;
        while (first > 0 && parent[first - 1].resume == parent[f.at].resume)
          --first;
        groups.push_back({});
        groups.back().from = state_at(f.at);
        groups.back().fork = f.at - first;
      }
      groups[it->second].members.push_back(f.slot);
    }
    return groups;
  }

  /// Runs `group`'s representative from group.from to its end, recording
  /// each transfer on the bus under test with the resume point before it.
  void run_representative(soc::System& system,
                          const xtalk::DefectLibrary& library,
                          Group& group) const {
    const DefectRun defect_run(system, bus_, library[group.members.front()]);
    Recorder rec(system, bus_, group.transfers);
    group.outcome = schedule_.run(system, group.from, &rec, group.cycles);
    if (group.members.size() > 1)
      group.pairs = distinct_pairs(group.transfers, group.fork + 1);
  }

  /// Re-runs `group`'s representative from group.from and keeps its state
  /// at each of `points` (ascending resume points of its run).
  std::vector<State> fork_states(soc::System& system,
                                 const xtalk::DefectLibrary& library,
                                 const Group& group,
                                 const std::vector<std::uint64_t>& points)
      const {
    const DefectRun defect_run(system, bus_, library[group.members.front()]);
    return schedule_.states_at(system, group.from, points);
  }

  Schedule schedule_;
  soc::BusKind bus_;
  xtalk::RcNetwork nominal_;
  xtalk::ErrorModelConfig thresholds_;
  bool scan_ = false;
  std::vector<Transfer> transfers_;
  std::vector<Pair> gold_pairs_;
  std::vector<State> states_;
  std::vector<Trajectory> trajectories_;
  std::vector<Slot> slots_;
};


// --- the engine ------------------------------------------------------------

/// Runs `program` under every defect of `library` through `policy`: the
/// gold step once, the policy's batch step over the slots this call
/// simulates, then one outcome per defect, checkpointed (when
/// options.checkpoint_path is set) in `section`.  Defects fan out across
/// `options.parallel.resolve(library.size())` workers, each owning its own
/// soc::System; outcomes are written by defect index, so the result is
/// bitwise identical for every thread count (threads = 1 is the exact
/// serial path), for any interrupt/resume schedule, and for any sharding
/// once each slot is taken from the shard that owns it.
template <typename Policy>
std::vector<typename Policy::Outcome> run_slots(
    const soc::SystemConfig& config, const sbst::TestProgram& program,
    const xtalk::DefectLibrary& library, const CampaignOptions& options,
    const std::string& section, Policy& policy) {
  using Outcome = typename Policy::Outcome;
  const auto start = Clock::now();
  const auto seconds_since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  const std::size_t n = library.size();
  const ShardSpec shard = options.shard;
  if (shard.count == 0 || (shard.count > 1 && shard.index >= shard.count))
    throw std::invalid_argument(
        "campaign shard " + std::to_string(shard.index) + "/" +
        std::to_string(shard.count) + ": index must be < count");
  if (!options.checkpoint_path.empty() && options.checkpoint_key.empty())
    throw std::invalid_argument("campaign checkpoint " +
                                options.checkpoint_path +
                                ": no checkpoint key given");
  // Every shard runs the gold step, shard 0 alone books it: merged shard
  // stats then equal the unsharded run's.
  const bool books_gold = shard.index == 0;
  // One completed-verdict notification (checkpoint already updated); the
  // worker-process heartbeat and the deterministic worker.exit chaos site
  // hang off this.
  const auto notify_progress = [&options] {
    if (options.progress) options.progress();
  };
  std::uint64_t gold_cycles = 0;
  Outcome gold;
  const auto gold_start = Clock::now();
  {
    soc::System gold_system(config);
    gold = policy.gold(gold_system, program, gold_cycles);
  }
  const double gold_seconds = seconds_since(gold_start);

  std::vector<Outcome> outcomes(n);
  // Slots already carrying an outcome from a previous (interrupted) run.
  std::vector<std::uint8_t> restored(n, 0);
  std::size_t restored_count = 0;

  std::unique_ptr<CampaignCheckpoint> checkpoint;
  double checkpoint_seconds = 0.0;
  if (!options.checkpoint_path.empty()) {
    const auto open_start = Clock::now();
    // append(), not "s" + std::to_string(...): GCC 12 reports a false
    // -Wrestrict on "literal" + std::string&&.
    checkpoint = std::make_unique<CampaignCheckpoint>(
        options.checkpoint_path, options.checkpoint_key, /*flush_every=*/1,
        shard.count > 1 ? std::string("s").append(std::to_string(shard.index))
                        : "");
    const SalvageReport& sr = checkpoint->salvage();
    if (sr.salvaged && options.stats != nullptr) {
      options.stats->salvaged_sections += sr.sections_kept;
      options.stats->dropped_slots += sr.dropped_slots;
      options.stats->error_log.push_back(
          "checkpoint " + options.checkpoint_path + ": salvaged " +
          std::to_string(sr.sections_kept) + " section(s), dropped " +
          std::to_string(sr.dropped_slots) +
          " completed slot(s) from a corrupt tail");
    }
    const auto slots = restore_slots<Outcome>(*checkpoint, section, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots[i]) continue;
      outcomes[i] = *slots[i];
      restored[i] = 1;
      ++restored_count;
    }
    checkpoint_seconds += seconds_since(open_start);
  }

  // Cooperative cancellation: set by the operator (options.cancel, wired
  // to a SIGINT/SIGTERM flag) or by the chaos-soak injection sites.
  // "campaign.kill" is a graceful kill (final flush happens, resumable
  // from every completed verdict); "campaign.crash" models a hard kill
  // (no final flush -- only periodically flushed state survives, exactly
  // like a real SIGKILL mid-campaign).
  std::atomic<bool> killed{false};
  std::atomic<bool> crashed{false};
  const auto cancelled = [&] {
    return killed.load(std::memory_order_relaxed) ||
           (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed));
  };

  // Slots this call completes, by index: counted after the loops rather
  // than on a counter every worker would contend for.
  std::vector<std::uint8_t> completed(n, 0);

  // Each worker lazily owns its private simulator; outcome slots are
  // written by defect index, so the result is independent of the worker
  // count and of any interleaving.
  const unsigned workers = options.parallel.resolve(n);
  // What the slots this call completes cost, summed per worker, each sum
  // on its own cache line.
  struct alignas(64) WorkerCycles {
    SlotCycles sum;
  };
  std::vector<WorkerCycles> worker_cycles(workers);
  SlotCycles retried_cycles;
  const auto simulate_start = Clock::now();
  std::vector<std::unique_ptr<soc::System>> systems(workers);
  const SystemFor system_for = [&](unsigned w) -> soc::System& {
    if (!systems[w]) systems[w] = std::make_unique<soc::System>(config);
    return *systems[w];
  };
  // The policy's batch step covers exactly the slots this call simulates,
  // so what it shares depends on those slots alone, never on threads.
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < n; ++i)
    if (!restored[i] && shard.owns(i)) todo.push_back(i);
  const SharedWork shared =
      policy.share(library, todo, options.parallel, system_for, cancelled);
  const std::vector<util::ItemError> errors = util::parallel_for_items(
      n, options.parallel, [&](std::size_t i, unsigned w) {
        if (restored[i] || !shard.owns(i) || cancelled()) return;
        SlotCycles cycles;
        outcomes[i] = policy.simulate(system_for(w), library, i, cycles);
        worker_cycles[w].sum += cycles;
        completed[i] = 1;
        if (checkpoint) checkpoint->record(section, i, outcomes[i]);
        notify_progress();
        util::FaultInjector& inj = util::FaultInjector::global();
        if (inj.fire("campaign.kill")) killed.store(true);
        if (inj.fire("campaign.crash")) {
          crashed.store(true);
          killed.store(true);
        }
      });

  // Quarantine: each failed defect is retried once serially on a fresh
  // simulator (a transient poisoned-worker state cannot recur there); a
  // second failure is recorded as kSimError and the campaign still
  // completes with every other outcome intact.
  std::size_t retries = 0;
  for (const util::ItemError& e : errors) {
    if (cancelled()) break;  // unrecorded items re-run on resume
    // The parallel.item injection site fires for every index of the
    // range, including slots this shard never simulates; those are not
    // this shard's work and must not leak into its outcomes or stats.
    if (!shard.owns(e.index) || restored[e.index]) continue;
    ++retries;
    std::string message;
    bool recovered = false;
    soc::System system(config);
    SlotCycles cycles;
    try {
      outcomes[e.index] = policy.run_alone(system, library[e.index], cycles);
      retried_cycles += cycles;
      recovered = true;
    } catch (const std::exception& retry_error) {
      message = retry_error.what();
    } catch (...) {
      message = "unknown exception";
    }
    if (!recovered) {
      outcomes[e.index] = Outcome{};
      verdict_of(outcomes[e.index]) = Verdict::kSimError;
      if (options.stats != nullptr)
        options.stats->error_log.push_back(
            "defect " + std::to_string(e.index) + ": " + message);
    }
    if (checkpoint) checkpoint->record(section, e.index, outcomes[e.index]);
    completed[e.index] = 1;
    notify_progress();
  }
  const double simulate_seconds = seconds_since(simulate_start);
  const std::size_t simulated = static_cast<std::size_t>(
      std::count(completed.begin(), completed.end(), 1));

  const bool interrupted = cancelled();
  if (checkpoint && !crashed.load()) {
    // The final flush is best-effort: the in-memory outcomes are the
    // campaign result, a full disk must not turn them into a failure.
    const auto flush_start = Clock::now();
    try {
      checkpoint->flush();
    } catch (const std::exception& e) {
      if (options.stats != nullptr)
        options.stats->error_log.push_back(
            std::string("checkpoint final flush failed: ") + e.what());
    }
    checkpoint_seconds += seconds_since(flush_start);
  }

  if (options.stats != nullptr) {
    util::CampaignStats& stats = *options.stats;
    stats.threads = workers;
    stats.defects_simulated += simulated;
    stats.restored_from_checkpoint += restored_count;
    stats.retries += retries;
    if (books_gold) stats.simulated_cycles += gold_cycles;
    stats.trajectories += shared.trajectories;
    stats.stepped_cycles += shared.stepped_cycles;
    SlotCycles cycles = retried_cycles;
    for (const WorkerCycles& w : worker_cycles) cycles += w.sum;
    stats.simulated_cycles += cycles.total;
    stats.gold_prefix_cycles += cycles.from_gold;
    stats.stepped_cycles += cycles.stepped;
    if (checkpoint) stats.flush_failures += checkpoint->flush_failures();
    // Outcome tallies cover the complete owned slice (restored slots
    // included) and only a completed call, so an interrupted-then-resumed
    // campaign reports exactly the uninterrupted numbers and per-shard
    // tallies sum to the unsharded ones under CampaignStats::merge_from.
    if (!interrupted) {
      if (books_gold) book(stats, gold);
      std::vector<Verdict> owned;
      owned.reserve(shard.owned_of(n));
      for (std::size_t i = 0; i < n; ++i) {
        if (!shard.owns(i)) continue;
        owned.push_back(verdict_of(outcomes[i]));
        book(stats, outcomes[i]);
      }
      tally_verdicts(owned, stats);
    }
    stats.gold_seconds += gold_seconds;
    stats.simulate_seconds += simulate_seconds;
    stats.checkpoint_seconds += checkpoint_seconds;
    stats.wall_seconds += seconds_since(start);
  }
  if (interrupted)
    throw CampaignInterrupted(
        "campaign interrupted after " + std::to_string(simulated) +
        " new verdict(s)" +
        (checkpoint ? (crashed.load()
                           ? "; simulated crash, last periodic checkpoint "
                             "flush survives"
                           : "; checkpoint flushed to " +
                                 options.checkpoint_path)
                    : "; no checkpoint configured") +
        " -- rerun the same command to resume");
  return outcomes;
}

/// run_slots over a *set* of programs (multi-session): one call per
/// non-empty session, each with its own checkpoint section
/// ("session<i>"), folded per defect with fold_session.
template <typename Policy>
std::vector<typename Policy::Outcome> run_sessions(
    const soc::SystemConfig& config,
    const std::vector<sbst::GenerationResult>& sessions,
    const xtalk::DefectLibrary& library, const CampaignOptions& options,
    Policy& policy) {
  std::vector<typename Policy::Outcome> merged(library.size());
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    if (sessions[s].program.tests.empty()) continue;
    const auto one = run_slots(config, sessions[s].program, library, options,
                               "session" + std::to_string(s), policy);
    for (std::size_t i = 0; i < merged.size(); ++i)
      fold_session(merged[i], one[i]);
  }
  return merged;
}

OnlineResult online_result(std::vector<OnlineOutcome> outcomes,
                           const OnlineOutcome& gold) {
  OnlineResult r;
  r.outcomes = std::move(outcomes);
  r.verdicts.reserve(r.outcomes.size());
  for (const OnlineOutcome& o : r.outcomes) r.verdicts.push_back(o.verdict);
  r.gold = gold;
  return r;
}

}  // namespace

xtalk::DefectConfig defect_config(const soc::SystemConfig& config,
                                  soc::BusKind bus, std::size_t count,
                                  std::uint64_t seed, double sigma_pct) {
  xtalk::DefectConfig dc;
  dc.sigma_pct = sigma_pct;
  dc.cth_fF = xtalk::recommended_cth(nominal_network(config, bus),
                                     config.cth_ratio);
  dc.count = count;
  dc.seed = seed;
  return dc;
}

xtalk::DefectLibrary make_defect_library(
    const soc::SystemConfig& config, soc::BusKind bus, std::size_t count,
    std::uint64_t seed, double sigma_pct,
    const util::ParallelConfig& parallel,
    const std::function<void()>& progress) {
  return xtalk::DefectLibrary::generate(
      nominal_network(config, bus),
      defect_config(config, bus, count, seed, sigma_pct), parallel, progress);
}

std::string default_checkpoint_key(soc::BusKind bus,
                                   const xtalk::DefectConfig& library) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "bus=%s count=%zu seed=%llu sigma=%.17g cth=%.17g",
                soc::to_string(bus).c_str(), library.count,
                static_cast<unsigned long long>(library.seed),
                library.sigma_pct, library.cth_fF);
  return buf;
}

std::vector<Verdict> run_detection(const soc::SystemConfig& config,
                                   const sbst::TestProgram& program,
                                   soc::BusKind bus,
                                   const xtalk::DefectLibrary& library,
                                   const CampaignOptions& options) {
  SharedTrajectories policy(config, bus, WholeProgramRun(options));
  return run_slots(config, program, library, options, "campaign", policy);
}

std::vector<Verdict> run_detection_sessions(
    const soc::SystemConfig& config,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options) {
  SharedTrajectories policy(config, bus, WholeProgramRun(options));
  return run_sessions(config, sessions, library, options, policy);
}

OnlineResult run_online_detection(const soc::SystemConfig& config,
                                  const soc::OnlineConfig& online,
                                  const sbst::TestProgram& program,
                                  soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const CampaignOptions& options) {
  SharedTrajectories policy(config, bus, InterleavedSchedule(online));
  return online_result(
      run_slots(config, program, library, options, "campaign", policy),
      policy.schedule().gold_total);
}

OnlineResult run_online_detection_sessions(
    const soc::SystemConfig& config, const soc::OnlineConfig& online,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options) {
  SharedTrajectories policy(config, bus, InterleavedSchedule(online));
  bool any = false;
  for (const sbst::GenerationResult& s : sessions)
    any |= !s.program.tests.empty();
  if (!any)
    throw std::runtime_error("on-line campaign: no session carries any test");
  return online_result(
      run_sessions(config, sessions, library, options, policy),
      policy.schedule().gold_total);
}

PerLineCoverage per_line_coverage(const soc::SystemConfig& config,
                                  soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const sbst::GeneratorConfig& base_config,
                                  const CampaignOptions& options) {
  const soc::System probe(config);
  const unsigned width = nominal_net(probe, bus).width();
  PerLineCoverage out;
  out.library_size = library.size();
  out.individual.resize(width, 0.0);
  out.cumulative.resize(width, 0.0);
  out.tests_placed.resize(width, 0);

  std::vector<Verdict> cum(library.size(), Verdict::kUndetected);
  for (unsigned line = 0; line < width; ++line) {
    // The MA tests for interconnect `line`: all MAF types, both directions
    // for the data bus.
    std::vector<xtalk::MafFault> faults;
    const bool bidir =
        bus == soc::BusKind::kData && base_config.data_both_directions;
    for (const xtalk::MafFault& f :
         xtalk::enumerate_mafs(width, bidir))
      if (f.victim == line) faults.push_back(f);

    sbst::GeneratorConfig cfg = base_config;
    cfg.include_address_bus = bus == soc::BusKind::kAddress;
    cfg.include_data_bus = bus == soc::BusKind::kData;
    if (bus == soc::BusKind::kAddress)
      cfg.address_faults = faults;
    else
      cfg.data_faults = faults;

    // Multi-session realisation of this line's MA tests, so conflicts
    // between the line's own four schemes do not hide any of them.
    const std::vector<sbst::GenerationResult> minis =
        sbst::TestProgramGenerator::generate_sessions(cfg);
    for (const auto& s : minis) out.tests_placed[line] += s.program.tests.size();
    const std::vector<Verdict> det =
        run_detection_sessions(config, minis, bus, library, options);
    out.individual[line] = coverage(det);
    for (std::size_t i = 0; i < cum.size(); ++i)
      cum[i] = merge_verdicts(cum[i], det[i]);
    out.cumulative[line] = coverage(cum);
  }

  // The complete program set over all lines (multi-session, Section 5).
  sbst::GeneratorConfig full = base_config;
  full.include_address_bus = bus == soc::BusKind::kAddress;
  full.include_data_bus = bus == soc::BusKind::kData;
  const std::vector<sbst::GenerationResult> all =
      sbst::TestProgramGenerator::generate_sessions(full);
  out.overall =
      coverage(run_detection_sessions(config, all, bus, library, options));
  return out;
}

}  // namespace xtest::sim
