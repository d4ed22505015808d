// On-line (in-field) defect-detection campaigns.
//
// The off-line campaign of sim/campaign.h owns the processor for the whole
// self-test program; in the field the core must keep serving its
// functional workload, so the on-line mode interleaves them
// (soc/online.h): every round runs one functional window and one self-test
// slice, and the tester-visible response cells are compared against the
// defect-free schedule at every slice boundary.  Two metrics fall out that
// the off-line flow cannot express:
//
//   * detection latency -- global-clock cycles from defect activation
//     (cycle 0: a field defect is present from power-on of the schedule)
//     to the first slice boundary where the responses diverge from gold;
//   * functional interference -- heartbeat deadlines the workload missed
//     because the self-test held the core (and, under a defect, because
//     the defect corrupted the workload's own traffic).
//
// The interleaved schedule is the campaign engine's second per-defect
// policy (sim/campaign.cpp), so every per-defect outcome is a pure
// function of (config, online config, program, bus, defect) and results
// are bitwise identical at any thread count, across checkpoint
// interrupt/resume and under sharding -- the off-line contract, enforced
// by tests/test_online.cpp.

#pragma once

#include <cstdint>
#include <vector>

#include "sbst/generator.h"
#include "sbst/program.h"
#include "sim/campaign.h"
#include "sim/verdict.h"
#include "soc/online.h"
#include "soc/system.h"
#include "util/parallel.h"
#include "xtalk/defect.h"

namespace xtest::sim {

/// Result of one on-line campaign: verdicts (same taxonomy as off-line)
/// plus the per-defect outcomes and the defect-free baseline schedule.
struct OnlineResult {
  std::vector<Verdict> verdicts;
  std::vector<OnlineOutcome> outcomes;
  /// The gold (defect-free) schedule: its interference counters are the
  /// scheduling cost of the self-test itself, before any defect.
  OnlineOutcome gold;
};

/// Runs `program` under every defect of `library` applied to `bus`, on the
/// interleaved schedule of `online`.  Every CampaignOptions knob means
/// what it means off-line, except cycle_factor: a defect's schedule runs
/// at most the gold schedule's rounds.  An on-line checkpoint section
/// persists each completed outcome -- verdict, latency and interference --
/// so a resumed campaign reports exactly the uninterrupted stats.
OnlineResult run_online_detection(const soc::SystemConfig& config,
                                  const soc::OnlineConfig& online,
                                  const sbst::TestProgram& program,
                                  soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const CampaignOptions& options);

/// Multi-session on-line campaign: sessions are scheduled one after the
/// other (the field rotates through its self-test set).  Verdicts merge
/// with merge_verdicts; a defect's latency is the first detecting
/// session's latency; rounds and interference counters sum over sessions.
OnlineResult run_online_detection_sessions(
    const soc::SystemConfig& config, const soc::OnlineConfig& online,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options);

}  // namespace xtest::sim
