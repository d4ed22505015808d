#include "sim/online.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sbst/slice.h"
#include "sim/signature.h"
#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/retry.h"

namespace xtest::sim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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

/// What the tester sees at one slice boundary: the response cells unloaded
/// from the *suspended* slice memory, the completion status, and the
/// global-clock stamp of the boundary.
struct RoundSnap {
  std::vector<std::uint8_t> values;
  bool halted = false;
  cpu::HaltReason reason = cpu::HaltReason::kRunning;
  std::uint64_t global_cycles = 0;
};

RoundSnap snap_round(const sbst::ProgramSlice& slice,
                     const sbst::TestProgram& program,
                     std::uint64_t global_cycles) {
  RoundSnap snap;
  snap.values.reserve(program.response_cells.size());
  for (cpu::Addr a : program.response_cells)
    snap.values.push_back(slice.memory_at(a));
  snap.halted = slice.halted();
  snap.reason = slice.reason();
  snap.global_cycles = global_cycles;
  return snap;
}

/// The gold schedule may not exceed the same absolute budget as the
/// off-line gold run.
constexpr std::uint64_t kGoldBudget = 1'000'000;

void fill_interference(const soc::InterleavedScheduler& sched,
                       OnlineOutcome& out) {
  out.rounds = sched.rounds();
  const soc::InterferenceCounters& c = sched.interference();
  out.heartbeats = c.heartbeats;
  out.deadlines_late = c.deadlines_late;
  out.deadlines_missed = c.deadlines_missed;
}

/// Defect-free schedule: runs rounds until the self-test program halts,
/// recording every slice-boundary snapshot.  Throws when the program does
/// not complete (same contract as the off-line gold run).
std::vector<RoundSnap> run_gold_schedule(soc::System& system,
                                         const soc::OnlineConfig& online,
                                         const soc::OnlineWorkload& workload,
                                         const sbst::TestProgram& program,
                                         OnlineOutcome& out,
                                         std::uint64_t& global_cycles) {
  soc::InterleavedScheduler sched(system, online, workload);
  sbst::ProgramSlice slice(program);
  std::vector<RoundSnap> rounds;
  for (;;) {
    sched.run_functional_window();
    sched.begin_test_slice();
    const std::uint64_t before = slice.cycles();
    const soc::RunResult rr = slice.run(system, online.slice_cycles);
    sched.end_test_slice(rr.cycles - before);
    rounds.push_back(snap_round(slice, program, sched.global_cycles()));
    if (slice.halted()) break;
    if (slice.cycles() >= kGoldBudget) {
      system.clear_mmio();
      throw std::runtime_error(
          "gold on-line run did not complete; bad program");
    }
  }
  if (slice.reason() != cpu::HaltReason::kHltInstruction) {
    system.clear_mmio();
    throw std::runtime_error(
        "gold on-line run halted abnormally; bad program");
  }
  sched.finish();
  fill_interference(sched, out);
  global_cycles = sched.global_cycles();
  return rounds;
}

/// One whole-schedule defect simulation: the defect is live during both
/// the functional windows and the test slices (a field defect does not
/// care who owns the bus).  Detection is the first slice boundary whose
/// snapshot diverges from the gold boundary.
OnlineOutcome simulate_one_online(soc::System& system,
                                  const soc::OnlineConfig& online,
                                  const soc::OnlineWorkload& workload,
                                  const sbst::TestProgram& program,
                                  soc::BusKind bus,
                                  const xtalk::Defect& defect,
                                  const std::vector<RoundSnap>& gold,
                                  std::uint64_t deadline_ms,
                                  std::uint64_t& global_cycles) {
  apply_defect(system, bus, defect);
  try {
    soc::InterleavedScheduler sched(system, online, workload);
    sbst::ProgramSlice slice(program);
    OnlineOutcome out;
    const auto start = Clock::now();
    for (std::size_t r = 0; r < gold.size(); ++r) {
      sched.run_functional_window();
      sched.begin_test_slice();
      const std::uint64_t before = slice.cycles();
      const soc::RunResult rr = slice.run(system, online.slice_cycles);
      sched.end_test_slice(rr.cycles - before);
      const RoundSnap snap = snap_round(slice, program, sched.global_cycles());
      const RoundSnap& g = gold[r];
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
      if (deadline_ms > 0) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - start)
                .count();
        if (static_cast<std::uint64_t>(elapsed) >= deadline_ms ||
            util::FaultInjector::global().fire("campaign.deadline"))
          throw DeadlineExceeded(
              "defect deadline: on-line schedule still running after " +
              std::to_string(sched.global_cycles()) + " cycles (deadline " +
              std::to_string(deadline_ms) + " ms)");
      }
    }
    sched.finish();
    fill_interference(sched, out);
    global_cycles = sched.global_cycles();
    system.clear_defects();
    return out;
  } catch (...) {
    system.clear_mmio();
    system.clear_defects();  // keep the worker's simulator reusable
    throw;
  }
}

// ---------------------------------------------------------------------------
// On-line checkpoint: one line per completed defect carrying the full
// outcome (verdict char, latency, rounds, interference), each protected by
// its own CRC-32 trailer.  A damaged or truncated tail drops only the
// lines from the first bad one on (prefix salvage); the atomic
// tmp+fsync+rename write pattern and the fault-injection sites match
// sim/checkpoint.cpp, so the existing chaos machinery exercises this
// format too.
//
//   xtest-online-checkpoint v1
//   key <free-form campaign identity line>
//   crc <8 hex digits over the two lines above>
//   slot <section> <index> <V> <latency> <rounds> <hb> <late> <missed> \
//       <8 hex digits over the line prefix>

constexpr const char* kOnlineMagic = "xtest-online-checkpoint v1";

std::string crc_hex(const std::string& text) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x",
                util::crc32(text.data(), text.size()));
  return buf;
}

class OnlineCheckpoint {
 public:
  OnlineCheckpoint(std::string path, std::string key, std::size_t flush_every)
      : path_(std::move(path)),
        key_(std::move(key)),
        flush_every_(flush_every > 0 ? flush_every : 1) {
    load();
  }

  bool salvaged() const { return salvaged_; }
  std::size_t dropped_slots() const { return dropped_; }
  std::size_t flush_failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return flush_failures_;
  }

  /// Previously completed outcomes of `section` (nullopt = pending).
  std::vector<std::optional<OnlineOutcome>> restore(
      const std::string& section, std::size_t count) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::optional<OnlineOutcome>> out(count);
    for (const auto& [where, outcome] : slots_) {
      if (where.first != section || where.second >= count) continue;
      out[where.second] = outcome;
    }
    return out;
  }

  /// Records one completed outcome; flushes every `flush_every` records
  /// (a failed periodic flush is deferred, like the off-line checkpoint).
  void record(const std::string& section, std::size_t index,
              const OnlineOutcome& outcome) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[{section, index}] = outcome;
    if (++dirty_ >= flush_every_) {
      try {
        flush_locked();
      } catch (const std::exception&) {
        ++flush_failures_;
      }
    }
  }

  void flush() {
    std::lock_guard<std::mutex> lock(mu_);
    flush_locked();
  }

 private:
  static std::string slot_prefix(const std::string& section,
                                 std::size_t index,
                                 const OnlineOutcome& o) {
    std::ostringstream os;
    os << "slot " << section << ' ' << index << ' ' << to_char(o.verdict)
       << ' ' << o.detection_latency_cycles << ' ' << o.rounds << ' '
       << o.heartbeats << ' ' << o.deadlines_late << ' '
       << o.deadlines_missed;
    return os.str();
  }

  void load() {
    std::ifstream in(path_);
    if (!in.is_open()) return;  // fresh campaign
    std::string line;
    if (!std::getline(in, line) || line != kOnlineMagic)
      throw std::runtime_error("online checkpoint " + path_ +
                               ": not an online checkpoint file");
    std::string key_line;
    if (!std::getline(in, key_line) || key_line.rfind("key ", 0) != 0)
      throw std::runtime_error("online checkpoint " + path_ +
                               ": missing key line");
    std::string crc_line;
    if (!std::getline(in, crc_line) ||
        crc_line != "crc " + crc_hex(std::string(kOnlineMagic) + '\n' +
                                     key_line + '\n')) {
      // Damaged header: the whole file is untrusted; start fresh.
      salvaged_ = true;
      return;
    }
    const std::string stored_key = key_line.substr(4);
    if (stored_key != key_)
      throw std::runtime_error(
          "online checkpoint " + path_ + ": key mismatch\n  stored:  " +
          stored_key + "\n  current: " + key_);
    while (std::getline(in, line)) {
      // "<prefix> <hex8>": split the trailer off and verify it.
      const std::size_t cut = line.find_last_of(' ');
      if (cut == std::string::npos || line.size() - cut != 9 ||
          line.rfind("slot ", 0) != 0 ||
          line.substr(cut + 1) != crc_hex(line.substr(0, cut))) {
        salvaged_ = true;
        ++dropped_;
        while (std::getline(in, line)) ++dropped_;  // drop the rest
        break;
      }
      std::istringstream is(line.substr(5, cut - 5));
      std::string section;
      std::size_t index = 0;
      char vc = '?';
      OnlineOutcome o;
      is >> section >> index >> vc >> o.detection_latency_cycles >>
          o.rounds >> o.heartbeats >> o.deadlines_late >> o.deadlines_missed;
      Verdict v;
      if (!is || !verdict_from_char(vc, v)) {
        salvaged_ = true;
        ++dropped_;
        while (std::getline(in, line)) ++dropped_;
        break;
      }
      o.verdict = v;
      slots_[{section, index}] = o;
    }
  }

  std::string render_locked() const {
    std::ostringstream os;
    const std::string header =
        std::string(kOnlineMagic) + '\n' + "key " + key_ + '\n';
    os << header << "crc " << crc_hex(header) << '\n';
    for (const auto& [where, outcome] : slots_) {
      const std::string prefix =
          slot_prefix(where.first, where.second, outcome);
      os << prefix << ' ' << crc_hex(prefix) << '\n';
    }
    return os.str();
  }

  void flush_locked() {
    util::FaultInjector& inj = util::FaultInjector::global();
    const std::string data = render_locked();
    const std::string tmp =
        path_ + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    int fd = -1;
    try {
      inj.maybe_fail("checkpoint.open");
      fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
      if (fd < 0)
        throw std::runtime_error("online checkpoint: cannot open " + tmp +
                                 ": " + std::strerror(errno));
      inj.maybe_fail("checkpoint.write");
      if (!util::write_full(fd, data.data(), data.size()))
        throw std::runtime_error("online checkpoint: write failed for " +
                                 tmp + ": " + std::strerror(errno));
      inj.maybe_fail("checkpoint.fsync");
      if (::fsync(fd) != 0)
        throw std::runtime_error("online checkpoint: fsync failed for " +
                                 tmp + ": " + std::strerror(errno));
      if (::close(fd) != 0) {
        fd = -1;
        throw std::runtime_error("online checkpoint: close failed for " +
                                 tmp + ": " + std::strerror(errno));
      }
      fd = -1;
      inj.maybe_fail("checkpoint.rename");
      if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        throw std::runtime_error("online checkpoint: cannot rename " + tmp +
                                 " to " + path_ + ": " +
                                 std::strerror(errno));
    } catch (...) {
      if (fd >= 0) ::close(fd);
      ::unlink(tmp.c_str());
      throw;
    }
    const std::filesystem::path parent =
        std::filesystem::path(path_).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
    dirty_ = 0;
  }

  std::string path_;
  std::string key_;
  std::size_t flush_every_;
  std::size_t dirty_ = 0;
  std::size_t flush_failures_ = 0;
  bool salvaged_ = false;
  std::size_t dropped_ = 0;
  mutable std::mutex mu_;
  /// Keyed and rendered in (section, index) order, so the file is
  /// deterministic for a given completed set.
  std::map<std::pair<std::string, std::size_t>, OnlineOutcome> slots_;
};

void absorb_system(const soc::System& system, soc::CacheCounters& cache) {
  const soc::CacheCounters c = system.transition_cache_counters();
  cache.hits += c.hits;
  cache.misses += c.misses;
}

}  // namespace

std::string online_checkpoint_key(soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const soc::OnlineConfig& online,
                                  const xtalk::ElectricalConfig& electrical) {
  std::string key = default_checkpoint_key(bus, library);
  char buf[192];
  std::snprintf(buf, sizeof buf,
                " online slice=%llu workload=%llu deadline=%llu",
                static_cast<unsigned long long>(online.slice_cycles),
                static_cast<unsigned long long>(online.workload_cycles),
                static_cast<unsigned long long>(online.deadline_cycles));
  key += buf;
  if (electrical.backend != xtalk::ElectricalBackend::kFullSwing) {
    std::snprintf(buf, sizeof buf, " electrical=%s swing=%.17g restorer=%.17g",
                  xtalk::to_string(electrical.backend).c_str(),
                  electrical.swing_ratio, electrical.restorer_ratio);
    key += buf;
  }
  return key;
}

OnlineResult run_online_detection(const soc::SystemConfig& config,
                                  const soc::OnlineConfig& online,
                                  const sbst::TestProgram& program,
                                  soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const CampaignOptions& options) {
  const auto start = Clock::now();
  if (options.shard.count > 1)
    throw std::invalid_argument(
        "on-line campaigns do not shard: the interleaved schedule is one "
        "in-field sequence");
  if (online.slice_cycles == 0 || online.workload_cycles == 0)
    throw std::invalid_argument(
        "on-line campaign: slice_cycles and workload_cycles must be > 0");
  const std::size_t n = library.size();
  const soc::OnlineWorkload workload = soc::make_default_workload();
  const auto notify_progress = [&options] {
    if (options.progress) options.progress();
  };

  soc::CacheCounters xfer_counters;

  OnlineResult result;
  result.outcomes.assign(n, OnlineOutcome{});
  std::vector<std::uint64_t> run_cycles(n, 0);
  std::uint64_t gold_cycles = 0;
  std::vector<RoundSnap> gold_rounds;
  {
    soc::System gold_system(config);
    gold_rounds = run_gold_schedule(gold_system, online, workload, program,
                                    result.gold, gold_cycles);
    absorb_system(gold_system, xfer_counters);
  }

  std::vector<std::uint8_t> restored(n, 0);
  std::size_t restored_count = 0;
  std::unique_ptr<OnlineCheckpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    checkpoint = std::make_unique<OnlineCheckpoint>(
        options.checkpoint_path,
        options.checkpoint_key.empty()
            ? online_checkpoint_key(bus, library, online, config.electrical)
            : options.checkpoint_key,
        options.checkpoint_every);
    if (checkpoint->salvaged() && options.stats != nullptr) {
      options.stats->salvaged_sections += 1;
      options.stats->dropped_slots += checkpoint->dropped_slots();
      options.stats->error_log.push_back(
          "online checkpoint " + options.checkpoint_path +
          ": dropped " + std::to_string(checkpoint->dropped_slots()) +
          " completed slot(s) from a corrupt tail");
    }
    const auto slots = checkpoint->restore(options.checkpoint_section, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots[i]) continue;
      result.outcomes[i] = *slots[i];
      restored[i] = 1;
      ++restored_count;
    }
  }

  std::atomic<bool> killed{false};
  std::atomic<bool> crashed{false};
  const auto cancelled = [&] {
    return killed.load(std::memory_order_relaxed) ||
           (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed));
  };
  std::atomic<std::size_t> simulated{0};

  const unsigned workers = options.parallel.resolve(n);
  std::vector<std::unique_ptr<soc::System>> systems(workers);
  const std::vector<util::ItemError> errors = util::parallel_for_items(
      n, options.parallel, [&](std::size_t i, unsigned w) {
        if (restored[i] || cancelled()) return;
        if (!systems[w]) systems[w] = std::make_unique<soc::System>(config);
        result.outcomes[i] = simulate_one_online(
            *systems[w], online, workload, program, bus, library[i],
            gold_rounds, options.defect_deadline_ms, run_cycles[i]);
        simulated.fetch_add(1, std::memory_order_relaxed);
        if (checkpoint)
          checkpoint->record(options.checkpoint_section, i,
                             result.outcomes[i]);
        notify_progress();
        util::FaultInjector& inj = util::FaultInjector::global();
        if (inj.fire("campaign.kill")) killed.store(true);
        if (inj.fire("campaign.crash")) {
          crashed.store(true);
          killed.store(true);
        }
      });

  for (const std::unique_ptr<soc::System>& s : systems) {
    if (!s) continue;
    absorb_system(*s, xfer_counters);
  }

  // Quarantine: one serial retry on a fresh simulator, then kSimError.
  std::size_t retries = 0;
  for (const util::ItemError& e : errors) {
    if (cancelled()) break;
    if (restored[e.index]) continue;
    std::string message = e.message;
    bool recovered = false;
    if (options.retry_errors) {
      ++retries;
      soc::System system(config);
      try {
        result.outcomes[e.index] = simulate_one_online(
            system, online, workload, program, bus, library[e.index],
            gold_rounds, options.defect_deadline_ms, run_cycles[e.index]);
        recovered = true;
      } catch (const std::exception& retry_error) {
        message = retry_error.what();
      } catch (...) {
        message = "unknown exception";
      }
      absorb_system(system, xfer_counters);
    }
    if (!recovered) {
      result.outcomes[e.index] = OnlineOutcome{};
      result.outcomes[e.index].verdict = Verdict::kSimError;
      run_cycles[e.index] = 0;
      if (options.stats != nullptr)
        options.stats->error_log.push_back(
            "defect " + std::to_string(e.index) + ": " + message);
    }
    if (checkpoint)
      checkpoint->record(options.checkpoint_section, e.index,
                         result.outcomes[e.index]);
    simulated.fetch_add(1, std::memory_order_relaxed);
    notify_progress();
  }

  const bool interrupted = cancelled();
  if (checkpoint && !crashed.load()) {
    try {
      checkpoint->flush();
    } catch (const std::exception& e) {
      if (options.stats != nullptr)
        options.stats->error_log.push_back(
            std::string("online checkpoint final flush failed: ") +
            e.what());
    }
  }

  result.verdicts.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    result.verdicts[i] = result.outcomes[i].verdict;

  if (options.stats != nullptr) {
    util::CampaignStats& stats = *options.stats;
    stats.threads = workers;
    stats.defects_simulated += simulated.load();
    stats.restored_from_checkpoint += restored_count;
    stats.retries += retries;
    stats.simulated_cycles += gold_cycles;
    for (std::uint64_t c : run_cycles) stats.simulated_cycles += c;
    if (checkpoint) stats.flush_failures += checkpoint->flush_failures();
    stats.cache_hits += xfer_counters.hits;
    stats.cache_misses += xfer_counters.misses;
    // The on-line aggregates are sums over the complete outcome vector
    // (restored slots included), so an interrupted-then-resumed campaign
    // reports exactly the uninterrupted numbers.
    if (!interrupted) {
      tally_verdicts(result.verdicts, stats);
      stats.online_rounds += result.gold.rounds;
      stats.online_mmio_heartbeats += result.gold.heartbeats;
      stats.online_deadlines_late += result.gold.deadlines_late;
      stats.online_deadlines_missed += result.gold.deadlines_missed;
      for (const OnlineOutcome& o : result.outcomes) {
        stats.online_rounds += o.rounds;
        stats.online_mmio_heartbeats += o.heartbeats;
        stats.online_deadlines_late += o.deadlines_late;
        stats.online_deadlines_missed += o.deadlines_missed;
        if (is_detected(o.verdict)) {
          stats.online_detection_latency_cycles += o.detection_latency_cycles;
          ++stats.online_latency_samples;
        }
      }
    }
    stats.wall_seconds += seconds_since(start);
  }
  if (interrupted)
    throw CampaignInterrupted(
        "on-line campaign interrupted after " +
        std::to_string(simulated.load()) + " new outcome(s)" +
        (checkpoint ? (crashed.load()
                           ? "; simulated crash, last periodic checkpoint "
                             "flush survives"
                           : "; checkpoint flushed to " +
                                 options.checkpoint_path)
                    : "; no checkpoint configured") +
        " -- rerun the same command to resume");
  return result;
}

OnlineResult run_online_detection_sessions(
    const soc::SystemConfig& config, const soc::OnlineConfig& online,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options) {
  OnlineResult merged;
  merged.verdicts.assign(library.size(), Verdict::kUndetected);
  merged.outcomes.assign(library.size(), OnlineOutcome{});
  bool any = false;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    if (sessions[s].program.tests.empty()) continue;
    CampaignOptions session_options = options;
    if (!options.checkpoint_path.empty())
      session_options.checkpoint_section = "session" + std::to_string(s);
    const OnlineResult one = run_online_detection(
        config, online, sessions[s].program, bus, library, session_options);
    merged.gold.rounds += one.gold.rounds;
    merged.gold.heartbeats += one.gold.heartbeats;
    merged.gold.deadlines_late += one.gold.deadlines_late;
    merged.gold.deadlines_missed += one.gold.deadlines_missed;
    for (std::size_t i = 0; i < merged.outcomes.size(); ++i) {
      OnlineOutcome& m = merged.outcomes[i];
      const OnlineOutcome& o = one.outcomes[i];
      // First detecting session wins the latency (the field notices the
      // defect on its first diverging slice boundary).
      if (!is_detected(m.verdict) && is_detected(o.verdict))
        m.detection_latency_cycles = o.detection_latency_cycles;
      m.verdict = merge_verdicts(m.verdict, o.verdict);
      m.rounds += o.rounds;
      m.heartbeats += o.heartbeats;
      m.deadlines_late += o.deadlines_late;
      m.deadlines_missed += o.deadlines_missed;
      merged.verdicts[i] = m.verdict;
    }
    any = true;
  }
  if (!any)
    throw std::runtime_error(
        "on-line campaign: no session carries any test");
  return merged;
}

}  // namespace xtest::sim
