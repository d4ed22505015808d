#include "sim/campaign.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "sim/checkpoint.h"
#include "util/fault_injector.h"

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

/// One whole-program defect simulation: apply, run, classify, restore.
Verdict simulate_one(soc::System& system, soc::BusKind bus,
                     const xtalk::Defect& defect,
                     const sbst::TestProgram& program,
                     const ResponseSnapshot& gold, std::uint64_t budget,
                     std::uint64_t deadline_ms, std::uint64_t& cycles) {
  apply_defect(system, bus, defect);
  ResponseSnapshot snap;
  try {
    snap = run_and_capture(system, program, budget, deadline_ms);
  } catch (...) {
    system.clear_defects();  // keep the worker's simulator reusable
    throw;
  }
  cycles = snap.cycles;
  system.clear_defects();
  return classify(gold, snap);
}

}  // namespace

xtalk::DefectLibrary make_defect_library(const soc::SystemConfig& config,
                                         soc::BusKind bus, std::size_t count,
                                         std::uint64_t seed,
                                         double sigma_pct) {
  // The nominal network and Cth exactly as soc::System derives them,
  // without building a whole simulator.
  const xtalk::BusGeometry& geometry =
      bus == soc::BusKind::kAddress ? config.address_geometry
      : bus == soc::BusKind::kData  ? config.data_geometry
                                    : config.control_geometry;
  const xtalk::RcNetwork nominal(geometry);
  xtalk::DefectConfig dc;
  dc.sigma_pct = sigma_pct;
  dc.cth_fF = xtalk::recommended_cth(nominal, config.cth_ratio);
  dc.count = count;
  dc.seed = seed;
  return xtalk::DefectLibrary::generate(nominal, dc);
}

std::string default_checkpoint_key(soc::BusKind bus,
                                   const xtalk::DefectLibrary& library) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "bus=%s count=%zu seed=%llu sigma=%.17g cth=%.17g",
                soc::to_string(bus).c_str(), library.size(),
                static_cast<unsigned long long>(library.config().seed),
                library.config().sigma_pct, library.config().cth_fF);
  return buf;
}

std::vector<Verdict> run_detection(const soc::SystemConfig& config,
                                   const sbst::TestProgram& program,
                                   soc::BusKind bus,
                                   const xtalk::DefectLibrary& library,
                                   const CampaignOptions& options) {
  const auto start = Clock::now();
  const std::size_t n = library.size();
  const ShardSpec shard = options.shard;
  if (shard.count == 0 || (shard.count > 1 && shard.index >= shard.count))
    throw std::invalid_argument(
        "campaign shard " + std::to_string(shard.index) + "/" +
        std::to_string(shard.count) + ": index must be < count");
  // One completed-verdict notification (checkpoint already updated); the
  // worker-process heartbeat and the deterministic worker.exit chaos site
  // hang off this.
  const auto notify_progress = [&options] {
    if (options.progress) options.progress();
  };
  soc::CacheCounters xfer_counters;
  const auto absorb = [&xfer_counters](const soc::System& system) {
    const soc::CacheCounters c = system.transition_cache_counters();
    xfer_counters.hits += c.hits;
    xfer_counters.misses += c.misses;
  };
  ResponseSnapshot gold;
  {
    soc::System gold_system(config);
    gold = run_and_capture(gold_system, program, 1'000'000);
    absorb(gold_system);
  }
  if (!gold.completed)
    throw std::runtime_error("gold run did not complete; bad program");
  const std::uint64_t budget = gold.cycles * options.cycle_factor + 1000;

  std::vector<Verdict> verdicts(n, Verdict::kUndetected);
  std::vector<std::uint64_t> run_cycles(n, 0);
  // Slots already carrying a verdict from a previous (interrupted) run.
  std::vector<std::uint8_t> restored(n, 0);
  std::size_t restored_count = 0;

  std::unique_ptr<CampaignCheckpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    checkpoint = std::make_unique<CampaignCheckpoint>(
        options.checkpoint_path,
        options.checkpoint_key.empty() ? default_checkpoint_key(bus, library)
                                       : options.checkpoint_key,
        options.checkpoint_every,
        shard.count > 1 ? "s" + std::to_string(shard.index) : "");
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
    const auto slots = checkpoint->restore(options.checkpoint_section, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots[i]) continue;
      verdicts[i] = *slots[i];
      restored[i] = 1;
      ++restored_count;
    }
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

  // Each worker lazily owns its private simulator; verdict slots are
  // written by defect index, so the result is independent of the worker
  // count and of any interleaving.
  const unsigned workers = options.parallel.resolve(n);
  std::vector<std::unique_ptr<soc::System>> systems(workers);
  const std::vector<util::ItemError> errors = util::parallel_for_items(
      n, options.parallel, [&](std::size_t i, unsigned w) {
        if (restored[i] || !shard.owns(i) || cancelled()) return;
        if (!systems[w]) systems[w] = std::make_unique<soc::System>(config);
        verdicts[i] =
            simulate_one(*systems[w], bus, library[i], program, gold, budget,
                         options.defect_deadline_ms, run_cycles[i]);
        simulated.fetch_add(1, std::memory_order_relaxed);
        if (checkpoint)
          checkpoint->record(options.checkpoint_section, i, verdicts[i]);
        notify_progress();
        util::FaultInjector& inj = util::FaultInjector::global();
        if (inj.fire("campaign.kill")) killed.store(true);
        if (inj.fire("campaign.crash")) {
          crashed.store(true);
          killed.store(true);
        }
      });

  for (const std::unique_ptr<soc::System>& s : systems)
    if (s) absorb(*s);

  // Quarantine: each failed defect is retried once serially on a fresh
  // simulator (a transient poisoned-worker state cannot recur there); a
  // second failure is recorded as kSimError and the campaign still
  // completes with every other verdict intact.
  std::size_t retries = 0;
  for (const util::ItemError& e : errors) {
    if (cancelled()) break;  // unrecorded items re-run on resume
    // The parallel.item injection site fires for every index of the
    // range, including slots this shard never simulates; those are not
    // this shard's work and must not leak into its verdicts or stats.
    if (!shard.owns(e.index) || restored[e.index]) continue;
    std::string message = e.message;
    bool recovered = false;
    if (options.retry_errors) {
      ++retries;
      soc::System system(config);
      try {
        verdicts[e.index] =
            simulate_one(system, bus, library[e.index], program, gold, budget,
                         options.defect_deadline_ms, run_cycles[e.index]);
        recovered = true;
      } catch (const std::exception& retry_error) {
        message = retry_error.what();
      } catch (...) {
        message = "unknown exception";
      }
      absorb(system);
    }
    if (!recovered) {
      verdicts[e.index] = Verdict::kSimError;
      run_cycles[e.index] = 0;
      if (options.stats != nullptr)
        options.stats->error_log.push_back(
            "defect " + std::to_string(e.index) + ": " + message);
    }
    if (checkpoint)
      checkpoint->record(options.checkpoint_section, e.index,
                         verdicts[e.index]);
    simulated.fetch_add(1, std::memory_order_relaxed);
    notify_progress();
  }

  const bool interrupted = cancelled();
  if (checkpoint && !crashed.load()) {
    // The final flush is best-effort: the in-memory verdicts are the
    // campaign result, a full disk must not turn them into a failure.
    try {
      checkpoint->flush();
    } catch (const std::exception& e) {
      if (options.stats != nullptr)
        options.stats->error_log.push_back(
            std::string("checkpoint final flush failed: ") + e.what());
    }
  }

  if (options.stats != nullptr) {
    util::CampaignStats& stats = *options.stats;
    stats.threads = workers;
    stats.defects_simulated += simulated.load();
    stats.restored_from_checkpoint += restored_count;
    stats.retries += retries;
    stats.simulated_cycles += gold.cycles;
    for (std::uint64_t c : run_cycles) stats.simulated_cycles += c;
    if (checkpoint) stats.flush_failures += checkpoint->flush_failures();
    stats.cache_hits += xfer_counters.hits;
    stats.cache_misses += xfer_counters.misses;
    // A sharded run tallies only the slots it owns, so per-shard verdict
    // breakdowns sum to exactly the unsharded breakdown under
    // merge_shard_results.
    if (!interrupted) {
      if (shard.count <= 1) {
        tally_verdicts(verdicts, stats);
      } else {
        std::vector<Verdict> owned;
        owned.reserve(shard.owned_of(n));
        for (std::size_t i = shard.index; i < n; i += shard.count)
          owned.push_back(verdicts[i]);
        tally_verdicts(owned, stats);
      }
    }
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
  return verdicts;
}

std::vector<Verdict> merge_shard_results(const std::vector<ShardResult>& shards,
                                         util::CampaignStats* stats) {
  if (shards.empty())
    throw std::invalid_argument("merge_shard_results: no shards");
  const std::size_t count = shards.front().shard.count;
  const std::size_t n = shards.front().verdicts.size();
  if (shards.size() != count)
    throw std::invalid_argument(
        "merge_shard_results: got " + std::to_string(shards.size()) +
        " shard result(s) for a " + std::to_string(count) + "-way split");
  std::vector<std::uint8_t> seen(count, 0);
  for (const ShardResult& s : shards) {
    if (s.shard.count != count)
      throw std::invalid_argument(
          "merge_shard_results: shard " + std::to_string(s.shard.index) +
          " was run as 1 of " + std::to_string(s.shard.count) +
          ", not 1 of " + std::to_string(count));
    if (s.shard.index >= count || seen[s.shard.index])
      throw std::invalid_argument(
          "merge_shard_results: shard index " +
          std::to_string(s.shard.index) +
          (s.shard.index >= count ? " out of range" : " appears twice"));
    if (s.verdicts.size() != n)
      throw std::invalid_argument(
          "merge_shard_results: shard " + std::to_string(s.shard.index) +
          " carries " + std::to_string(s.verdicts.size()) +
          " verdict(s), expected " + std::to_string(n));
    seen[s.shard.index] = 1;
  }
  std::vector<Verdict> merged(n, Verdict::kUndetected);
  for (const ShardResult& s : shards) {
    for (std::size_t i = s.shard.index; i < n; i += count)
      merged[i] = s.verdicts[i];
    if (stats != nullptr) stats->merge_from(s.stats);
  }
  return merged;
}

std::vector<Verdict> run_detection(const soc::SystemConfig& config,
                                   const sbst::TestProgram& program,
                                   soc::BusKind bus,
                                   const xtalk::DefectLibrary& library,
                                   std::uint64_t cycle_factor,
                                   const util::ParallelConfig& parallel,
                                   util::CampaignStats* stats) {
  CampaignOptions options;
  options.cycle_factor = cycle_factor;
  options.parallel = parallel;
  options.stats = stats;
  return run_detection(config, program, bus, library, options);
}

std::vector<Verdict> run_detection_sessions(
    const soc::SystemConfig& config,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options) {
  std::vector<Verdict> merged(library.size(), Verdict::kUndetected);
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    if (sessions[s].program.tests.empty()) continue;
    CampaignOptions session_options = options;
    if (!options.checkpoint_path.empty())
      session_options.checkpoint_section = "session" + std::to_string(s);
    const std::vector<Verdict> det = run_detection(
        config, sessions[s].program, bus, library, session_options);
    for (std::size_t i = 0; i < merged.size(); ++i)
      merged[i] = merge_verdicts(merged[i], det[i]);
  }
  return merged;
}

std::vector<Verdict> run_detection_sessions(
    const soc::SystemConfig& config,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, std::uint64_t cycle_factor,
    const util::ParallelConfig& parallel, util::CampaignStats* stats) {
  CampaignOptions options;
  options.cycle_factor = cycle_factor;
  options.parallel = parallel;
  options.stats = stats;
  return run_detection_sessions(config, sessions, bus, library, options);
}

PerLineCoverage per_line_coverage(const soc::SystemConfig& config,
                                  soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const sbst::GeneratorConfig& base_config,
                                  std::uint64_t cycle_factor,
                                  const util::ParallelConfig& parallel,
                                  util::CampaignStats* stats) {
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
    const std::vector<Verdict> det = run_detection_sessions(
        config, minis, bus, library, cycle_factor, parallel, stats);
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
  out.overall = coverage(run_detection_sessions(config, all, bus, library,
                                                cycle_factor, parallel,
                                                stats));
  return out;
}

}  // namespace xtest::sim
