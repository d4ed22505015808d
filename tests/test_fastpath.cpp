// Equivalence and unit tests for the hot-path machinery: the precomputed
// BusEvaluator must be bit-identical to CrosstalkErrorModel::receive, and
// every state change (defect injection, clear, forced MAF) must keep the
// fast system in lockstep with the reference evaluation path.

#include "xtalk/fast_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sbst/generator.h"
#include "sbst/slice.h"
#include "sim/campaign.h"
#include "sim/online.h"
#include "soc/bus.h"
#include "soc/online.h"
#include "soc/system.h"
#include "soc/trace.h"
#include "spec/scenario.h"
#include "xtalk/defect.h"
#include "xtalk/electrical.h"
#include "xtalk/error_model.h"
#include "xtalk/transient.h"

namespace xtest {
namespace {

using util::BusWord;
using xtalk::BusEvaluator;
using xtalk::CrosstalkErrorModel;
using xtalk::ErrorModelConfig;
using xtalk::RcNetwork;
using xtalk::VectorPair;

/// Nominal bus of `width` wires with every coupling and ground cap randomly
/// perturbed -- a stand-in for an arbitrary defect-applied network.
RcNetwork perturbed_network(unsigned width, std::mt19937_64& rng) {
  xtalk::BusGeometry g;
  g.width = width;
  RcNetwork net(g);
  std::uniform_real_distribution<double> factor(0.1, 3.0);
  for (unsigned i = 0; i < width; ++i)
    for (unsigned j = i + 1; j < width; ++j)
      net.scale_coupling(i, j, factor(rng));
  std::uniform_real_distribution<double> load(0.0, 50.0);
  for (unsigned i = 0; i < width; ++i) net.add_ground_load(i, load(rng));
  return net;
}

TEST(FastModel, ReceiveMatchesReferenceOnRandomNetworks) {
  std::mt19937_64 rng(20010618);
  for (const unsigned width : {2u, 3u, 8u, 12u, 16u}) {
    xtalk::BusGeometry g;
    g.width = width;
    const RcNetwork nominal(g);
    const ErrorModelConfig thresholds =
        ErrorModelConfig::calibrated(nominal, xtalk::recommended_cth(nominal));
    const CrosstalkErrorModel reference(thresholds);
    for (int defect = 0; defect < 8; ++defect) {
      const RcNetwork net = perturbed_network(width, rng);
      const BusEvaluator fast(net, thresholds);
      // Every MA test, both directions ...
      for (const xtalk::MafFault& f : xtalk::enumerate_mafs(width, true)) {
        const VectorPair pair = xtalk::ma_test(width, f);
        EXPECT_EQ(fast.receive(pair.v1.bits(), pair.v2.bits()),
                  reference.receive(net, pair).bits())
            << "width " << width << " fault " << f.label();
      }
      // ... plus random transitions (including quiet v1 == v2 draws).
      std::uniform_int_distribution<std::uint64_t> word(0,
                                                        BusWord::mask(width));
      for (int t = 0; t < 200; ++t) {
        const BusWord v1(width, word(rng));
        const BusWord v2(width, word(rng));
        EXPECT_EQ(fast.receive(v1.bits(), v2.bits()),
                  reference.receive(net, {v1, v2}).bits())
            << "width " << width << " " << v1.to_binary() << " -> "
            << v2.to_binary();
      }
    }
  }
}

TEST(FastModel, ZeroGlitchThresholdStillMatchesReference) {
  // With glitch_threshold_v == 0 the reference flips stable wires on a
  // +0.0 excursion, so the quiet-transfer shortcut must be disabled.
  xtalk::BusGeometry g;
  g.width = 8;
  const RcNetwork net(g);
  ErrorModelConfig t;
  t.glitch_threshold_v = 0.0;
  t.delay_slack_ns = 0.0;
  const BusEvaluator fast(net, t);
  EXPECT_FALSE(fast.quiet_is_identity());
  const CrosstalkErrorModel reference(t);
  for (std::uint64_t v = 0; v < 256; ++v) {
    const BusWord w(8, v);
    EXPECT_EQ(fast.receive(v, v), reference.receive(net, {w, w}).bits()) << v;
  }
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint64_t> word(0, 255);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v1 = word(rng);
    const std::uint64_t v2 = word(rng);
    EXPECT_EQ(fast.receive(v1, v2),
              reference.receive(net, {BusWord(8, v1), BusWord(8, v2)}).bits());
  }
}

TEST(FastPath, QuietBusTransferSkipsEvaluation) {
  // A quiet transfer (re-driving the held word) samples the driven word
  // without evaluation, even on a defect whose evaluator is active: with a
  // positive glitch threshold nothing can move when no wire toggles.
  xtalk::BusGeometry g;
  g.width = 8;
  const RcNetwork nominal(g);
  const ErrorModelConfig thresholds =
      ErrorModelConfig::calibrated(nominal, xtalk::recommended_cth(nominal));
  RcNetwork net = nominal;
  for (unsigned j = 0; j < net.width(); ++j)
    if (j != 4) net.scale_coupling(4, j, 4.0);
  const BusEvaluator eval(net, thresholds);
  ASSERT_TRUE(eval.quiet_is_identity());
  ASSERT_FALSE(eval.always_identity());
  soc::TristateBus bus(soc::BusKind::kData, 8);
  const BusWord w(8, 0xA5);
  bus.transfer(w, &eval);  // 0x00 -> 0xA5 is a real transition
  EXPECT_EQ(bus.transfer(w, &eval), w);  // quiet: early-exit
  EXPECT_EQ(bus.held(), w);
}

TEST(FastPath, IdealBusBypassesEvaluation) {
  soc::TristateBus bus(soc::BusKind::kData, 8);
  const BusWord w(8, 0x5A);
  EXPECT_EQ(bus.transfer(w, nullptr, nullptr), w);
  const BusEvaluator empty;
  EXPECT_EQ(bus.transfer(BusWord(8, 0x81), &empty), BusWord(8, 0x81));
  EXPECT_EQ(bus.transfer(BusWord(8, 0x18), nullptr), BusWord(8, 0x18));
}

TEST(FastPath, CampaignVerdictsMatchReferencePath) {
  // The acceptance property: full multi-session campaigns on the fast
  // receive path -- where a defect run resumes from the gold snapshot
  // before the first transfer its defect changes, or takes gold's outcome
  // when there is none -- give the verdicts *and the simulated cycles* of
  // the reference path, which runs every defect from reset.  On all three
  // buses, under a slow tester clock and the low-swing backend too, at 1
  // and 4 threads.
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  soc::SystemConfig slow_clock;
  slow_clock.clock_period_scale = 3.0;
  soc::SystemConfig low_swing;
  low_swing.electrical.backend = xtalk::ElectricalBackend::kLowSwing;
  const std::pair<const char*, soc::SystemConfig> variants[] = {
      {"nominal", {}}, {"clock x3", slow_clock}, {"low-swing", low_swing}};
  for (const auto& [name, fast_cfg] : variants) {
    ASSERT_TRUE(fast_cfg.fast_receive);
    soc::SystemConfig ref_cfg = fast_cfg;
    ref_cfg.fast_receive = false;
    for (const soc::BusKind bus : {soc::BusKind::kAddress, soc::BusKind::kData,
                                   soc::BusKind::kControl}) {
      const auto lib = sim::make_defect_library(fast_cfg, bus, 200, 99);
      for (const unsigned threads : {1u, 4u}) {
        const std::string where = std::string(name) + " " +
                                  soc::to_string(bus) +
                                  " threads=" + std::to_string(threads);
        util::CampaignStats fast_stats, ref_stats;
        const auto fast = sim::run_detection_sessions(
            fast_cfg, sessions, bus, lib,
            {.parallel = {threads}, .stats = &fast_stats});
        const auto reference = sim::run_detection_sessions(
            ref_cfg, sessions, bus, lib,
            {.parallel = {threads}, .stats = &ref_stats});
        EXPECT_EQ(fast, reference) << where;
        EXPECT_EQ(fast_stats.simulated_cycles, ref_stats.simulated_cycles)
            << where;
        EXPECT_EQ(ref_stats.gold_prefix_cycles, 0u) << where;
      }
    }
  }
}

/// A slot's run from reset: the words it receives on the bus under test,
/// each with the cycle count at its transfer, and the tester's unload.
struct TracedRun {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> received;
  sim::ResponseSnapshot snap;
};

/// Applies `defect` to `bus` of `system`.
void inject(soc::System& system, soc::BusKind bus,
            const xtalk::Defect& defect) {
  switch (bus) {
    case soc::BusKind::kAddress:
      system.set_address_network(
          defect.apply(system.nominal_address_network()));
      break;
    case soc::BusKind::kData:
      system.set_data_network(defect.apply(system.nominal_data_network()));
      break;
    case soc::BusKind::kControl:
      system.set_control_network(
          defect.apply(system.nominal_control_network()));
      break;
  }
}

TracedRun traced_run(const soc::SystemConfig& cfg,
                     const sbst::TestProgram& program, soc::BusKind bus,
                     const xtalk::Defect* defect, std::uint64_t budget) {
  soc::System system(cfg);
  if (defect != nullptr) inject(system, bus, *defect);
  soc::BusTrace trace;
  system.set_trace(&trace);
  TracedRun run;
  run.snap = sim::run_and_capture(system, program, budget);
  for (const soc::BusEvent& e : trace.events())
    if (e.bus == bus) run.received.emplace_back(e.received.bits(), e.cycle);
  return run;
}

/// The trie of received words on the bus under test: a node is a prefix,
/// entered at `cycle`; `end` is the unload of the runs that end there.
struct TrieNode {
  std::map<std::uint64_t, std::size_t> next;
  std::uint64_t cycle = 0;
  std::optional<sim::ResponseSnapshot> end;
};

TEST(FastPath, SharedTrajectoriesPremiseHoldsOnEveryBuiltin) {
  // DESIGN D7's premise: a defect changes only the words received on the
  // bus under test, so runs whose received words have matched so far are
  // one run.  Every slot of every built-in runs from reset with a trace.
  // In the trie of their received words, runs that share a node reach it
  // at the same cycle, and runs that end on the same node unload the same
  // responses, completion and cycles, and none runs on past a node where
  // another ended.  Then the campaign engine, which shares runs on that
  // premise, gives every slot its from-reset verdict and cycles at 1 and
  // 4 threads, with one representative run per trajectory off gold.
  for (const std::string& name : spec::builtin_scenario_names()) {
    const spec::ScenarioSpec s = spec::builtin_scenario(name);
    const xtalk::DefectLibrary lib = s.make_library();
    const auto sessions = s.make_sessions();
    std::uint64_t trajectories = 0;
    std::uint64_t cycles = 0;
    std::vector<sim::Verdict> verdicts(lib.size(), sim::Verdict::kUndetected);
    for (const sbst::GenerationResult& session : sessions) {
      if (session.program.tests.empty()) continue;
      const sbst::TestProgram& program = session.program;
      soc::System gold_system(s.system);
      const std::uint64_t budget =
          sim::run_and_capture(gold_system, program, 1'000'000).cycles *
              s.cycle_factor +
          1000;
      const TracedRun gold = traced_run(s.system, program, s.bus, nullptr,
                                        budget);
      cycles += gold.snap.cycles;
      std::vector<TrieNode> trie(1);
      const auto walk = [&](const TracedRun& run, const std::string& who) {
        std::size_t at = 0;
        for (const auto& [word, cycle] : run.received) {
          const auto [it, fresh] = trie[at].next.try_emplace(word, trie.size());
          at = it->second;
          if (fresh) {
            trie.emplace_back();
            trie.back().cycle = cycle;
          } else {
            EXPECT_EQ(trie[at].cycle, cycle) << name << " " << who;
          }
        }
        TrieNode& node = trie[at];
        if (!node.end) {
          node.end = run.snap;
          return;
        }
        EXPECT_EQ(node.end->values, run.snap.values) << name << " " << who;
        EXPECT_EQ(node.end->completed, run.snap.completed)
            << name << " " << who;
        EXPECT_EQ(node.end->cycles, run.snap.cycles) << name << " " << who;
      };
      walk(gold, "gold");
      for (std::size_t i = 0; i < lib.size(); ++i) {
        const TracedRun run = traced_run(s.system, program, s.bus, &lib[i],
                                         budget);
        walk(run, "defect " + std::to_string(i));
        cycles += run.snap.cycles;
        verdicts[i] = sim::merge_verdicts(verdicts[i],
                                          sim::classify(gold.snap, run.snap));
      }
      for (const TrieNode& node : trie) {
        if (!node.end) continue;
        EXPECT_TRUE(node.next.empty()) << name << ": a run went on past "
                                              "a node where another ended";
        ++trajectories;
      }
      --trajectories;  // gold's own
    }
    for (const unsigned threads : {1u, 4u}) {
      util::CampaignStats stats;
      const auto engine = sim::run_detection_sessions(
          s.system, sessions, s.bus, lib,
          {.cycle_factor = s.cycle_factor,
           .parallel = {threads},
           .stats = &stats});
      EXPECT_EQ(engine, verdicts) << name << " threads=" << threads;
      EXPECT_EQ(stats.simulated_cycles, cycles)
          << name << " threads=" << threads;
      EXPECT_EQ(stats.trajectories, trajectories)
          << name << " threads=" << threads;
    }
  }
}

/// What the on-line tester sees at one slice boundary.
struct Boundary {
  std::vector<std::uint8_t> values;
  bool halted = false;
  cpu::HaltReason reason = cpu::HaltReason::kRunning;
  bool operator==(const Boundary&) const = default;
};

/// A slot's on-line schedule from reset, judged at every slice boundary
/// against `gold` the way the on-line tester judges it (nullptr: this is
/// gold, run to its halt).  It keeps each transfer on the bus under test
/// from both contexts, in global order, with the global cycle of the
/// transfer and its round; the global cycles before each round; what the
/// tester saw at each boundary; and the outcome and total cycles.
struct ScheduleRun {
  std::vector<soc::BusEvent> transfers;
  std::vector<std::uint64_t> global;
  std::vector<std::size_t> round;
  std::vector<std::uint64_t> round_start;
  std::vector<Boundary> boundaries;
  sim::OnlineOutcome outcome;
  std::uint64_t cycles = 0;
};

ScheduleRun traced_schedule(const spec::ScenarioSpec& s,
                            const sbst::TestProgram& program,
                            const xtalk::Defect* defect,
                            const ScheduleRun* gold) {
  soc::System system(s.system);
  if (defect != nullptr) inject(system, s.bus, *defect);
  const soc::OnlineWorkload workload = soc::make_default_workload();
  soc::InterleavedScheduler sched(system, s.online, workload);
  sbst::ProgramSlice slice(program);
  soc::BusTrace trace;
  system.set_trace(&trace);
  std::vector<soc::BusTransfer> log;  // what a campaign records
  system.set_transfer_log(s.bus, &log);
  ScheduleRun run;
  // Moves the traced transfers of a context whose own clock read `own`
  // when the global clock read `global`.
  const auto take = [&](std::uint64_t global, std::uint64_t own) {
    for (const soc::BusEvent& e : trace.events()) {
      if (e.bus != s.bus) continue;
      run.transfers.push_back(e);
      run.global.push_back(global + (e.cycle - own));
      run.round.push_back(run.round_start.size() - 1);
    }
    trace.clear();
  };
  std::uint64_t workload_clock = 0;  // the functional context's own clock
  for (;;) {
    const std::uint64_t start = sched.global_cycles();
    run.round_start.push_back(start);
    sched.run_functional_window();
    take(start, workload_clock);
    const std::uint64_t mid = sched.global_cycles();
    workload_clock += mid - start;
    sched.begin_test_slice();
    const std::uint64_t before = slice.cycles();
    sched.end_test_slice(slice.run(system, s.online.slice_cycles).cycles -
                         before);
    take(mid, before);
    Boundary b;
    for (const cpu::Addr a : program.response_cells)
      b.values.push_back(slice.memory_at(a));
    b.halted = slice.halted();
    b.reason = slice.reason();
    run.boundaries.push_back(b);
    if (gold != nullptr) {
      const Boundary& g = gold->boundaries[run.boundaries.size() - 1];
      if (!(b == g)) {
        run.outcome.verdict = !b.halted && g.halted && b.values == g.values
                                  ? sim::Verdict::kDetectedByTimeout
                                  : sim::Verdict::kDetected;
        run.outcome.detection_latency_cycles = sched.global_cycles();
        break;
      }
    }
    if (b.halted) break;
  }
  system.set_trace(nullptr);
  system.set_transfer_log(s.bus, nullptr);
  system.clear_mmio();
  EXPECT_EQ(log.size(), run.transfers.size());
  for (std::size_t k = 0; k < std::min(log.size(), run.transfers.size());
       ++k) {
    EXPECT_EQ(log[k].held, run.transfers[k].held.bits()) << k;
    EXPECT_EQ(log[k].driven, run.transfers[k].driven.bits()) << k;
    EXPECT_EQ(log[k].received, run.transfers[k].received.bits()) << k;
  }
  sched.finish();
  run.outcome.rounds = sched.rounds();
  run.outcome.heartbeats = sched.interference().heartbeats;
  run.outcome.deadlines_late = sched.interference().deadlines_late;
  run.outcome.deadlines_missed = sched.interference().deadlines_missed;
  run.cycles = sched.global_cycles();
  return run;
}

/// The trie of received words of on-line runs: a node is a prefix, entered
/// at global cycle `global`; `end` is the outcome and cycles of the runs
/// that end there.
struct ScheduleTrieNode {
  std::map<std::uint64_t, std::size_t> next;
  std::uint64_t global = 0;
  std::optional<std::pair<sim::OnlineOutcome, std::uint64_t>> end;
};

TEST(FastPath, SharedTrajectoriesPremiseHoldsOnline) {
  // DESIGN D7's premise on the on-line schedule: a defect changes only the
  // words received on the bus under test, in the functional windows and
  // the test slices alike, so runs whose received words have matched so
  // far are one run.  Every slot runs from reset with a trace through
  // both contexts.  In the trie of their received words, runs that share a
  // node reach it at the same global cycle, runs that end on the same node
  // have the same outcome and cycles, and none runs on past a node where
  // another ended.  A scan of gold's distinct (held, driven) pairs, with
  // each context's own held word from the bus, finds each slot's first
  // traced deviation, and the campaign's transfer log records those
  // held words.  Then the campaign engine gives every slot its from-reset
  // outcome at 1 and 4 threads, with one representative run per
  // trajectory off gold, and takes from gold the cycles before the round
  // of each slot's first deviation.  The last library runs short rounds,
  // so that its slots resume from many round states.
  std::vector<spec::ScenarioSpec> specs(4, spec::builtin_scenario(
                                               "online-baseline"));
  specs[1].bus = soc::BusKind::kData;
  specs[1].defect_count = 300;
  specs[2].bus = soc::BusKind::kControl;
  specs[2].defect_count = 300;
  specs[3].bus = soc::BusKind::kData;
  specs[3].defect_count = 300;
  specs[3].online.workload_cycles = 48;
  specs[3].online.slice_cycles = 96;
  for (const spec::ScenarioSpec& s : specs) {
    ASSERT_TRUE(s.online.enabled);
    const std::string name = "online " + soc::to_string(s.bus) + " slice " +
                             std::to_string(s.online.slice_cycles);
    const xtalk::DefectLibrary lib = s.make_library();
    const auto sessions = s.make_sessions();
    std::uint64_t trajectories = 0;
    std::uint64_t cycles = 0;
    std::uint64_t gold_prefix = 0;
    sim::OnlineOutcome gold_total;
    std::vector<sim::OnlineOutcome> outcomes(lib.size());
    soc::System probe(s.system);
    for (const sbst::GenerationResult& session : sessions) {
      if (session.program.tests.empty()) continue;
      const sbst::TestProgram& program = session.program;
      const ScheduleRun gold = traced_schedule(s, program, nullptr, nullptr);
      sim::fold_session(gold_total, gold.outcome);
      cycles += gold.cycles;
      // Gold's distinct (held, driven) pairs, in order of first occurrence.
      std::vector<std::size_t> firsts;
      std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
      for (std::size_t k = 0; k < gold.transfers.size(); ++k)
        if (seen.emplace(gold.transfers[k].held.bits(),
                         gold.transfers[k].driven.bits())
                .second)
          firsts.push_back(k);
      std::vector<ScheduleTrieNode> trie(1);
      const auto walk = [&](const ScheduleRun& run, const std::string& who) {
        std::size_t at = 0;
        for (std::size_t k = 0; k < run.transfers.size(); ++k) {
          const auto [it, fresh] = trie[at].next.try_emplace(
              run.transfers[k].received.bits(), trie.size());
          at = it->second;
          if (fresh) {
            trie.emplace_back();
            trie.back().global = run.global[k];
          } else {
            EXPECT_EQ(trie[at].global, run.global[k]) << name << " " << who;
          }
        }
        ScheduleTrieNode& node = trie[at];
        if (!node.end) {
          node.end.emplace(run.outcome, run.cycles);
          return;
        }
        EXPECT_EQ(node.end->first, run.outcome) << name << " " << who;
        EXPECT_EQ(node.end->second, run.cycles) << name << " " << who;
      };
      walk(gold, "gold");
      for (std::size_t i = 0; i < lib.size(); ++i) {
        const std::string who = "defect " + std::to_string(i);
        const ScheduleRun run = traced_schedule(s, program, &lib[i], &gold);
        walk(run, who);
        cycles += run.cycles;
        sim::fold_session(outcomes[i], run.outcome);
        // The first transfer whose received word leaves gold's.
        std::size_t dev = 0;
        while (dev < run.transfers.size() && dev < gold.transfers.size() &&
               run.transfers[dev].received == gold.transfers[dev].received)
          ++dev;
        const bool deviates = dev < run.transfers.size();
        ASSERT_TRUE(!deviates || dev < gold.transfers.size())
            << name << " " << who << " ran on past gold's end";
        gold_prefix +=
            deviates ? gold.round_start[gold.round[dev]] : gold.cycles;
        // The scan finds the same transfer.
        inject(probe, s.bus, lib[i]);
        std::size_t scanned = gold.transfers.size();
        for (const std::size_t k : firsts) {
          const soc::BusEvent& e = gold.transfers[k];
          if (probe.evaluator(s.bus).receive(e.held.bits(), e.driven.bits()) !=
              e.received.bits()) {
            scanned = k;
            break;
          }
        }
        probe.clear_defects();
        EXPECT_EQ(scanned, deviates ? dev : gold.transfers.size())
            << name << " " << who;
      }
      for (const ScheduleTrieNode& node : trie) {
        if (!node.end) continue;
        EXPECT_TRUE(node.next.empty()) << name << ": a run went on past "
                                              "a node where another ended";
        ++trajectories;
      }
      --trajectories;  // gold's own
    }
    for (const unsigned threads : {1u, 4u}) {
      util::CampaignStats stats;
      sim::CampaignOptions opts = s.campaign_options(&stats);
      opts.parallel = {threads};
      const sim::OnlineResult engine = sim::run_online_detection_sessions(
          s.system, s.online, sessions, s.bus, lib, opts);
      const std::string where = name + " threads=" + std::to_string(threads);
      EXPECT_EQ(engine.outcomes, outcomes) << where;
      EXPECT_EQ(engine.gold, gold_total) << where;
      EXPECT_EQ(stats.simulated_cycles, cycles) << where;
      EXPECT_EQ(stats.trajectories, trajectories) << where;
      EXPECT_EQ(stats.gold_prefix_cycles, gold_prefix) << where;
    }
  }
}

TEST(FastPath, SharedRunCountersAreThreadInvariant) {
  // trajectories and stepped_cycles depend only on which slots share one
  // campaign call, so they are the same at every thread count.  The
  // oracle shares nothing: no trajectory, and every defect cycle is
  // stepped.
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  const soc::SystemConfig fast_cfg;
  soc::SystemConfig ref_cfg;
  ref_cfg.fast_receive = false;
  std::uint64_t gold_cycles = 0;
  for (const auto& session : sessions) {
    if (session.program.tests.empty()) continue;
    soc::System system(fast_cfg);
    gold_cycles +=
        sim::run_and_capture(system, session.program, 1'000'000).cycles;
  }
  for (const soc::BusKind bus : {soc::BusKind::kAddress, soc::BusKind::kData,
                                 soc::BusKind::kControl}) {
    const auto lib = sim::make_defect_library(fast_cfg, bus, 300, 7);
    util::CampaignStats serial, parallel, oracle;
    sim::run_detection_sessions(fast_cfg, sessions, bus, lib,
                                {.parallel = {1}, .stats = &serial});
    sim::run_detection_sessions(fast_cfg, sessions, bus, lib,
                                {.parallel = {4}, .stats = &parallel});
    sim::run_detection_sessions(ref_cfg, sessions, bus, lib,
                                {.parallel = {4}, .stats = &oracle});
    const std::string where = soc::to_string(bus);
    EXPECT_GT(serial.trajectories, 0u) << where;
    EXPECT_EQ(serial.trajectories, parallel.trajectories) << where;
    EXPECT_EQ(serial.stepped_cycles, parallel.stepped_cycles) << where;
    EXPECT_LT(serial.stepped_cycles,
              serial.simulated_cycles - serial.gold_prefix_cycles)
        << where;
    EXPECT_EQ(oracle.trajectories, 0u) << where;
    EXPECT_EQ(oracle.stepped_cycles, oracle.simulated_cycles - gold_cycles)
        << where;
  }
}

TEST(FastPath, ForcedMafKeepsFastSystemInLockstep) {
  // The fast system must agree with the reference system across forcing
  // and clearing an ideal MAF, including on the exact MA transition that
  // excites the forced fault.
  soc::SystemConfig ref_cfg;
  ref_cfg.fast_receive = false;
  soc::System fast_sys{soc::SystemConfig{}};
  soc::System ref_sys{ref_cfg};

  const xtalk::MafFault fault{5, xtalk::MafType::kPositiveGlitch,
                              xtalk::BusDirection::kCpuToCore};
  const VectorPair pair = xtalk::ma_test(12, fault);
  const auto a1 = static_cast<cpu::Addr>(pair.v1.bits());
  const auto a2 = static_cast<cpu::Addr>(pair.v2.bits());
  const std::vector<cpu::Addr> probe{0x000, a1, a2, 0xfff, a1, a2, 0x123};

  const auto compare_traffic = [&] {
    for (const cpu::Addr a : probe)
      ASSERT_EQ(fast_sys.read(a), ref_sys.read(a)) << a;
  };
  compare_traffic();  // plain traffic
  fast_sys.set_forced_maf(soc::ForcedMaf{soc::BusKind::kAddress, fault});
  ref_sys.set_forced_maf(soc::ForcedMaf{soc::BusKind::kAddress, fault});
  compare_traffic();  // the forced fault corrupts both alike
  fast_sys.set_forced_maf(std::nullopt);
  ref_sys.set_forced_maf(std::nullopt);
  compare_traffic();
}

TEST(FastPath, DefectInjectionRebuildsTheEvaluator) {
  soc::SystemConfig ref_cfg;
  ref_cfg.fast_receive = false;
  soc::System fast_sys{soc::SystemConfig{}};
  soc::System ref_sys{ref_cfg};

  const auto compare_traffic = [&] {
    for (const std::uint8_t d : {0x00, 0xff, 0xa5, 0x5a, 0x0f}) {
      fast_sys.write(0x200, d);
      ref_sys.write(0x200, d);
      ASSERT_EQ(fast_sys.read(0x200), ref_sys.read(0x200)) << unsigned{d};
    }
  };
  compare_traffic();  // nominal net

  RcNetwork net = fast_sys.nominal_data_network();
  for (unsigned j = 0; j < net.width(); ++j)
    if (j != 4) net.scale_coupling(4, j, 4.0);
  fast_sys.set_data_network(net);
  ref_sys.set_data_network(net);
  compare_traffic();  // defect applied: the nominal evaluator must be gone
  fast_sys.clear_defects();
  ref_sys.clear_defects();
  compare_traffic();  // restored nominal
}

TEST(CampaignStats, JsonCarriesHotPathCounters) {
  util::CampaignStats stats;
  stats.defects_simulated = 30;
  stats.simulated_cycles = 12345;
  stats.wall_seconds = 0.5;
  const std::string j = stats.json("hotpath");
  EXPECT_NE(j.find("\"defects\":30"), std::string::npos) << j;
  EXPECT_NE(j.find("\"simulated_cycles\":12345"), std::string::npos) << j;
  EXPECT_NE(j.find("\"defects_per_second\":60.0"), std::string::npos) << j;
  // No transition memo, so no cache keys.
  EXPECT_EQ(j.find("cache"), std::string::npos) << j;
  // Environment provenance: worker count, the machine's concurrency, and
  // the build type all land in the record.
  EXPECT_NE(j.find("\"hardware_concurrency\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"build_type\":\""), std::string::npos) << j;
  EXPECT_NE(std::string(util::build_type()), "") << "build_type is never empty";
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.0);
}

TEST(CampaignStats, SharedRunCountersTravelWithTheOthers) {
  // trajectories and stepped_cycles ride the one counter list: the JSON
  // line carries them, parse_stats_json reads them back and merge_from
  // sums them.
  util::CampaignStats stats;
  stats.trajectories = 14;
  stats.stepped_cycles = 2550;
  const std::string j = stats.json("shared");
  EXPECT_NE(j.find("\"trajectories\":14"), std::string::npos) << j;
  EXPECT_NE(j.find("\"stepped_cycles\":2550"), std::string::npos) << j;
  util::CampaignStats back;
  ASSERT_TRUE(util::parse_stats_json(j, back));
  EXPECT_EQ(back.trajectories, 14u);
  EXPECT_EQ(back.stepped_cycles, 2550u);
  back.merge_from(stats);
  EXPECT_EQ(back.trajectories, 28u);
  EXPECT_EQ(back.stepped_cycles, 5100u);
}

TEST(LuSolver, ScratchOverloadMatchesAllocatingSolve) {
  const std::vector<double> a{4.0, 1.0, 0.5, 1.0, 5.0, 1.5,
                              0.5, 1.5, 6.0};
  const xtalk::LuSolver solver(a, 3);
  std::vector<double> b1{1.0, 2.0, 3.0};
  std::vector<double> b2 = b1;
  solver.solve(b1);
  std::vector<double> scratch;
  solver.solve(b2, scratch);
  EXPECT_EQ(b1, b2);  // identical operation order, bitwise-equal result
  // Scratch is reusable across calls.
  std::vector<double> b3{9.0, -1.0, 0.25};
  std::vector<double> b4 = b3;
  solver.solve(b3);
  solver.solve(b4, scratch);
  EXPECT_EQ(b3, b4);
}

TEST(TransientPlan, FusedStepMatchesReferenceIntegrator) {
  xtalk::BusGeometry g;
  g.width = 6;
  const RcNetwork net(g);
  xtalk::TransientConfig fused_cfg;
  fused_cfg.fused_step = true;
  xtalk::TransientConfig ref_cfg = fused_cfg;
  ref_cfg.fused_step = false;
  const xtalk::TransientSimulator fused(fused_cfg);
  const xtalk::TransientSimulator reference(ref_cfg);
  for (const xtalk::MafType type : xtalk::kAllMafTypes) {
    const VectorPair pair = xtalk::ma_test(
        6, {3, type, xtalk::BusDirection::kCpuToCore});
    const auto a = fused.simulate(net, pair);
    const auto b = reference.simulate(net, pair);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].peak_excursion_v, b[i].peak_excursion_v, 1e-6)
          << to_string(type) << " wire " << i;
      EXPECT_NEAR(a[i].crossing_time_ns, b[i].crossing_time_ns, 1e-6)
          << to_string(type) << " wire " << i;
    }
  }
}

TEST(TransientPlan, PlanInvalidatesOnNetworkMutation) {
  // Every simulate() call factors its plan from the network as it is now,
  // so one simulator sees a mutation at once.
  xtalk::BusGeometry g;
  g.width = 4;
  RcNetwork net(g);
  const xtalk::TransientSimulator sim;
  const VectorPair pair = xtalk::ma_test(
      4, {1, xtalk::MafType::kPositiveGlitch, xtalk::BusDirection::kCpuToCore});
  const double before = sim.simulate(net, pair)[1].peak_excursion_v;
  net.scale_coupling(1, 2, 5.0);
  const double after = sim.simulate(net, pair)[1].peak_excursion_v;
  EXPECT_NE(before, after);  // a stale plan would reproduce `before`

  // A fresh simulator against the mutated network agrees exactly.
  const xtalk::TransientSimulator fresh;
  EXPECT_DOUBLE_EQ(fresh.simulate(net, pair)[1].peak_excursion_v, after);
}

TEST(TransientPlan, CopiedNetworkSimulatesIndependently) {
  // Loading a copy leaves its original alone, and one simulator
  // alternating between the two answers each from its own capacitances.
  xtalk::BusGeometry g;
  g.width = 4;
  const RcNetwork original(g);
  RcNetwork copy = original;
  copy.add_ground_load(0, 10.0);
  EXPECT_EQ(original.ground_cap(0), RcNetwork(g).ground_cap(0));

  const xtalk::TransientSimulator sim;
  const VectorPair pair = xtalk::ma_test(
      4, {1, xtalk::MafType::kPositiveGlitch, xtalk::BusDirection::kCpuToCore});
  const double a = sim.simulate(original, pair)[1].peak_excursion_v;
  const double b = sim.simulate(copy, pair)[1].peak_excursion_v;
  const double a_again = sim.simulate(original, pair)[1].peak_excursion_v;
  EXPECT_EQ(a, a_again);
  EXPECT_NE(a, b);  // the loaded copy damps the glitch
}

}  // namespace
}  // namespace xtest
