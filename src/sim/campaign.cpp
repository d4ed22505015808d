#include "sim/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

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

/// What one slot's run cost in simulated clock cycles: all of them, and
/// the head of them taken from the gold run instead of being stepped.
struct SlotCycles {
  std::uint64_t total = 0;
  std::uint64_t from_gold = 0;
};

// --- per-defect policies ---------------------------------------------------
// A policy is what one slot of a campaign is.  It names the slot's
// `Outcome` and supplies two steps; the engine (run_slots) owns the rest:
//
//   Outcome gold(soc::System&, const sbst::TestProgram&, std::uint64_t& cycles)
//     runs the program defect-free on a fresh simulator, once per program
//     before any defect, and returns the gold run's own outcome;
//   Outcome simulate(soc::System&, const xtalk::Defect&,
//                    SlotCycles& cycles) const
//     runs one defect on a worker's simulator, concurrently with other
//     workers; throws on a simulation failure and leaves the simulator
//     defect-free either way.

/// The off-line policy (Fig. 9): the whole program runs under the defect
/// and its tester-visible responses are classified against the gold run.
///
/// Divergence first: until the first transfer on the bus under test whose
/// received word the defect changes, a defect run *is* the gold run,
/// transfer for transfer.  So the gold step records that bus's transfers
/// and a snapshot every kSnapshotCycles, and each slot scans the transfers
/// with its defect's evaluator -- every gold transition is still evaluated
/// under the defect (DESIGN D1).  A slot that never deviates takes gold's
/// outcome without stepping the CPU; one that does resumes from the
/// snapshot before its first deviating transfer.  With fast_receive off
/// (the oracle) nothing is recorded and every slot runs from reset.
class WholeProgramRun {
 public:
  using Outcome = Verdict;

  WholeProgramRun(soc::BusKind bus, const CampaignOptions& options)
      : bus_(bus), cycle_factor_(options.cycle_factor) {}

  Verdict gold(soc::System& system, const sbst::TestProgram& program,
               std::uint64_t& cycles) {
    program_ = &program;
    transfers_.clear();
    snapshots_.clear();
    scan_ = system.fast_receive();
    gold_ = scan_ ? record_gold(system, program)
                  : run_and_capture(system, program, kGoldCap);
    if (!gold_.completed)
      throw std::runtime_error("gold run did not complete; bad program");
    budget_ = gold_.cycles * cycle_factor_ + 1000;
    cycles = gold_.cycles;
    return Verdict::kUndetected;
  }

  Verdict simulate(soc::System& system, const xtalk::Defect& defect,
                   SlotCycles& cycles) const {
    apply_defect(system, bus_, defect);
    try {
      const soc::SliceState* from = nullptr;
      if (scan_) {
        const std::size_t k = first_deviation(system.evaluator(bus_));
        if (k == transfers_.size()) {
          // The defect changes no received word: this run is the gold
          // run.  The tester still unloads it, so the fault injector
          // sees every slot.
          util::FaultInjector::global().maybe_fail("signature.capture");
          system.clear_defects();
          cycles = {gold_.cycles, gold_.cycles};
          return Verdict::kUndetected;
        }
        // Snapshot 0 is the reset: a first deviation in the first budget
        // runs from reset.
        if (transfers_[k].snapshot > 0)
          from = &snapshots_[transfers_[k].snapshot - 1];
      }
      const ResponseSnapshot snap =
          run_and_capture(system, *program_, budget_, from);
      system.clear_defects();
      cycles = {snap.cycles, from != nullptr ? from->cpu.cycles : 0};
      return classify(gold_, snap);
    } catch (...) {
      system.clear_defects();  // keep the worker's simulator reusable
      throw;
    }
  }

 private:
  /// Cycle cap of the gold run.
  static constexpr std::uint64_t kGoldCap = 1'000'000;
  /// Gold cycles between two snapshots.  A resumed slot re-simulates at
  /// most this much of gold (plus the instruction in flight); a snapshot
  /// is about 4 KB.
  static constexpr std::uint64_t kSnapshotCycles = 64;

  /// One gold transfer on the bus under test: the word the bus held, the
  /// word driven, the word received, and the snapshot taken before it
  /// (0 = the reset, k = snapshots_[k - 1]).
  struct Transfer {
    std::uint64_t held;
    std::uint64_t driven;
    std::uint64_t received;
    std::size_t snapshot;
  };

  /// The gold run, sliced into kSnapshotCycles budgets through
  /// sbst::ProgramSlice: records every transfer of the bus under test and
  /// the state after every budget, then unloads the responses once.
  ResponseSnapshot record_gold(soc::System& system,
                               const sbst::TestProgram& program) {
    soc::BusTrace trace;
    system.set_trace(&trace);
    sbst::ProgramSlice slice(program);
    std::uint64_t held = 0;  // a bus holds zeros after reset
    soc::RunResult rr;
    for (;;) {
      rr = slice.run(system,
                     std::min(kSnapshotCycles, kGoldCap - slice.cycles()));
      for (const soc::BusEvent& e : trace.events()) {
        if (e.bus != bus_) continue;
        transfers_.push_back(
            {held, e.driven.bits(), e.received.bits(), snapshots_.size()});
        held = e.driven.bits();
      }
      trace.clear();
      if (slice.halted() || slice.cycles() >= kGoldCap) break;
      snapshots_.push_back(slice.state());
    }
    system.set_trace(nullptr);
    return capture(system, program, rr);
  }

  /// Index of the first recorded transfer whose received word `eval`
  /// changes from gold's, or transfers_.size() when none does.  Compared
  /// with gold's received word, not the driven one, so the skip does not
  /// rest on nominal buses receiving what they are driven.
  std::size_t first_deviation(const xtalk::BusEvaluator& eval) const {
    for (std::size_t k = 0; k < transfers_.size(); ++k) {
      const Transfer& t = transfers_[k];
      if (eval.receive(t.held, t.driven) != t.received) return k;
    }
    return transfers_.size();
  }

  soc::BusKind bus_;
  std::uint64_t cycle_factor_;
  const sbst::TestProgram* program_ = nullptr;
  ResponseSnapshot gold_;
  std::uint64_t budget_ = 0;
  bool scan_ = false;
  std::vector<Transfer> transfers_;
  std::vector<soc::SliceState> snapshots_;
};

/// The on-line policy (sim/online.h): the gold step is the defect-free
/// interleaved schedule; a defect's run is the whole schedule with the
/// defect live in the functional windows and the test slices alike (a
/// field defect does not care who owns the bus), detected at the first
/// slice boundary whose snapshot diverges from the gold one.
class InterleavedSchedule {
 public:
  using Outcome = OnlineOutcome;

  InterleavedSchedule(const soc::OnlineConfig& online, soc::BusKind bus)
      : online_(online), workload_(soc::make_default_workload()), bus_(bus) {
    if (online.slice_cycles == 0 || online.workload_cycles == 0)
      throw std::invalid_argument(
          "on-line campaign: slice_cycles and workload_cycles must be > 0");
  }

  /// Runs rounds until the program halts, recording every slice-boundary
  /// snapshot.  The gold schedule may not exceed the off-line gold run's
  /// absolute budget.  The engine discards the gold simulator afterwards,
  /// so a throw here needs no MMIO cleanup.
  OnlineOutcome gold(soc::System& system, const sbst::TestProgram& program,
                     std::uint64_t& cycles) {
    program_ = &program;
    gold_.clear();
    soc::InterleavedScheduler sched(system, online_, workload_);
    sbst::ProgramSlice slice(program);
    for (;;) {
      gold_.push_back(round(sched, slice, system));
      if (slice.halted()) break;
      if (slice.cycles() >= 1'000'000)
        throw std::runtime_error(
            "gold on-line run did not complete; bad program");
    }
    if (slice.reason() != cpu::HaltReason::kHltInstruction)
      throw std::runtime_error(
          "gold on-line run halted abnormally; bad program");
    OnlineOutcome out;
    finish(sched, out, cycles);
    fold_session(gold_total, out);
    return out;
  }

  OnlineOutcome simulate(soc::System& system, const xtalk::Defect& defect,
                         SlotCycles& cycles) const {
    apply_defect(system, bus_, defect);
    try {
      soc::InterleavedScheduler sched(system, online_, workload_);
      sbst::ProgramSlice slice(*program_);
      OnlineOutcome out;
      for (const RoundSnap& g : gold_) {
        const RoundSnap snap = round(sched, slice, system);
        const bool value_div = snap.values != g.values;
        const bool halt_div =
            snap.halted != g.halted ||
            (snap.halted && g.halted && snap.reason != g.reason);
        if (value_div || halt_div) {
          // A schedule still running after the gold schedule completed
          // with matching responses is the on-line tester timeout;
          // everything else pins the defect to a response or completion
          // mismatch.
          out.verdict = !snap.halted && g.halted && !value_div
                            ? Verdict::kDetectedByTimeout
                            : Verdict::kDetected;
          out.detection_latency_cycles = snap.global_cycles;
          break;
        }
        if (snap.halted) break;  // matched gold to completion: undetected
      }
      finish(sched, out, cycles.total);
      system.clear_defects();
      return out;
    } catch (...) {
      system.clear_mmio();
      system.clear_defects();  // keep the worker's simulator reusable
      throw;
    }
  }

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
  soc::BusKind bus_;
  const sbst::TestProgram* program_ = nullptr;
  std::vector<RoundSnap> gold_;
};

// --- the engine ------------------------------------------------------------

/// Runs `program` under every defect of `library` through `policy`: the
/// gold step once, then one outcome per defect, checkpointed (when
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
  std::vector<SlotCycles> run_cycles(n);
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

  std::atomic<std::size_t> simulated{0};

  // Each worker lazily owns its private simulator; outcome slots are
  // written by defect index, so the result is independent of the worker
  // count and of any interleaving.
  const unsigned workers = options.parallel.resolve(n);
  const auto simulate_start = Clock::now();
  std::vector<std::unique_ptr<soc::System>> systems(workers);
  const std::vector<util::ItemError> errors = util::parallel_for_items(
      n, options.parallel, [&](std::size_t i, unsigned w) {
        if (restored[i] || !shard.owns(i) || cancelled()) return;
        if (!systems[w]) systems[w] = std::make_unique<soc::System>(config);
        outcomes[i] = policy.simulate(*systems[w], library[i], run_cycles[i]);
        simulated.fetch_add(1, std::memory_order_relaxed);
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
    try {
      outcomes[e.index] =
          policy.simulate(system, library[e.index], run_cycles[e.index]);
      recovered = true;
    } catch (const std::exception& retry_error) {
      message = retry_error.what();
    } catch (...) {
      message = "unknown exception";
    }
    if (!recovered) {
      outcomes[e.index] = Outcome{};
      verdict_of(outcomes[e.index]) = Verdict::kSimError;
      run_cycles[e.index] = {};
      if (options.stats != nullptr)
        options.stats->error_log.push_back(
            "defect " + std::to_string(e.index) + ": " + message);
    }
    if (checkpoint) checkpoint->record(section, e.index, outcomes[e.index]);
    simulated.fetch_add(1, std::memory_order_relaxed);
    notify_progress();
  }
  const double simulate_seconds = seconds_since(simulate_start);

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
    stats.defects_simulated += simulated.load();
    stats.restored_from_checkpoint += restored_count;
    stats.retries += retries;
    if (books_gold) stats.simulated_cycles += gold_cycles;
    for (const SlotCycles& c : run_cycles) {
      stats.simulated_cycles += c.total;
      stats.gold_prefix_cycles += c.from_gold;
    }
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
        "campaign interrupted after " + std::to_string(simulated.load()) +
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
  WholeProgramRun policy(bus, options);
  return run_slots(config, program, library, options, "campaign", policy);
}

std::vector<Verdict> run_detection_sessions(
    const soc::SystemConfig& config,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options) {
  WholeProgramRun policy(bus, options);
  return run_sessions(config, sessions, library, options, policy);
}

OnlineResult run_online_detection(const soc::SystemConfig& config,
                                  const soc::OnlineConfig& online,
                                  const sbst::TestProgram& program,
                                  soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const CampaignOptions& options) {
  InterleavedSchedule policy(online, bus);
  return online_result(
      run_slots(config, program, library, options, "campaign", policy),
      policy.gold_total);
}

OnlineResult run_online_detection_sessions(
    const soc::SystemConfig& config, const soc::OnlineConfig& online,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options) {
  InterleavedSchedule policy(online, bus);
  bool any = false;
  for (const sbst::GenerationResult& s : sessions)
    any |= !s.program.tests.empty();
  if (!any)
    throw std::runtime_error("on-line campaign: no session carries any test");
  return online_result(
      run_sessions(config, sessions, library, options, policy),
      policy.gold_total);
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
