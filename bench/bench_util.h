// Shared helpers for the experiment benches.
//
// Every bench binary reproduces one table/figure of the paper: it prints
// the reproduction through util::Table and checks the paper's claims about
// it with claim().  A failed claim makes the process exit 1, so ctest
// (label `paper`) gates the reproduction instead of just printing it.

#pragma once

#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "spec/scenario.h"
#include "util/parallel.h"

namespace xtest::bench {

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

/// Simple horizontal ASCII bar for figure-like output.
inline std::string bar(double fraction, int width = 40) {
  const int n = static_cast<int>(fraction * width + 0.5);
  std::string s(static_cast<std::size_t>(n), '#');
  s.resize(static_cast<std::size_t>(width), ' ');
  return s;
}

/// Prints `claim ok: <text>` or `claim FAILED: <text>` and returns `ok`, so
/// a body folds its claims into its own result.
inline bool claim(bool ok, const std::string& text) {
  std::printf("claim %s: %s\n", ok ? "ok" : "FAILED", text.c_str());
  return ok;
}

/// Human-readable campaign throughput line plus the machine-readable JSON
/// record the perf trajectory scrapes ($XTEST_THREADS controls the worker
/// count; results are bitwise identical at any setting).
inline void print_campaign_stats(const std::string& name,
                                 const util::CampaignStats& s) {
  std::printf("\ncampaign stats: %zu defect simulations, %llu simulated "
              "cycles, %.3f s wall, %.0f defects/sec, %u threads\n",
              s.defects_simulated,
              static_cast<unsigned long long>(s.simulated_cycles),
              s.wall_seconds, s.defects_per_second(), s.threads);
  if (s.sim_errors || s.retries || s.restored_from_checkpoint ||
      s.salvaged_sections || s.dropped_slots || s.flush_failures)
    std::printf("campaign health: %zu sim errors, %zu retries, %zu verdicts "
                "restored from checkpoint, %zu sections salvaged, %zu "
                "completed slots dropped, %zu deferred flushes\n",
                s.sim_errors, s.retries, s.restored_from_checkpoint,
                s.salvaged_sections, s.dropped_slots, s.flush_failures);
  std::printf("%s\n", s.json(name).c_str());
}

/// Scenario-driven bench entry point shared by every bench binary:
///
///   int main(int argc, char** argv) {
///     spec::ScenarioSpec def = spec::builtin_scenario("paper-baseline");
///     def.defect_count = 1000;  // this bench's library size
///     return bench::scenario_main(argc, argv, "E4: ...", "Fig. 11 (...)",
///                                 def, print_fig11);
///   }
///
/// The only argument is `--scenario NAME|FILE` (also `--scenario=...`);
/// without it the bench's own default spec applies.  The body reads its
/// system / library / program configuration from the validated spec and
/// returns whether every claim it checked held.  A bad argument or
/// scenario exits with the CLI's usage code (2), a failed claim with 1.
inline int scenario_main(
    int argc, char** argv, const std::string& title,
    const std::string& paper_ref, spec::ScenarioSpec default_spec,
    const std::function<bool(const spec::ScenarioSpec&)>& body) {
  std::optional<std::string> scenario;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--scenario") {
      if (i + 1 == argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        std::fprintf(stderr, "error: --scenario: missing NAME|FILE value\n");
        return 2;
      }
      scenario = argv[++i];
    } else if (a.rfind("--scenario=", 0) == 0) {
      scenario = a.substr(std::string("--scenario=").size());
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  spec::ScenarioSpec scn;
  try {
    scn = scenario ? spec::load_scenario(*scenario) : std::move(default_spec);
    scn.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  banner(title, paper_ref);
  if (scenario)
    std::printf("scenario: %s (%s)\n", scn.name.c_str(),
                scn.description.c_str());
  return body(scn) ? 0 : 1;
}

}  // namespace xtest::bench
