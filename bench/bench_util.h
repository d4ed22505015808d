// Shared helpers for the experiment benches.
//
// Every bench binary reproduces one table/figure of the paper: it prints
// the reproduction through util::Table first, then runs google-benchmark
// timings for the underlying kernel so performance regressions in the
// simulator itself are visible.

#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

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

/// The scenario this bench process runs under.  scenario_main() fills it
/// before the reproduction body or any BM_ function executes; bodies read
/// their system / library / program configuration from here instead of
/// hard-coding it.
inline spec::ScenarioSpec& active_spec_slot() {
  static spec::ScenarioSpec s;
  return s;
}
inline const spec::ScenarioSpec& active_spec() { return active_spec_slot(); }

/// Scenario-driven bench entry point shared by every bench binary:
///
///   int main(int argc, char** argv) {
///     spec::ScenarioSpec def = spec::builtin_scenario("paper-baseline");
///     def.defect_count = 1000;  // this bench's library size
///     return bench::scenario_main(argc, argv, "E4: ...", "Fig. 11 (...)",
///                                 def, print_fig11);
///   }
///
/// `--scenario NAME|FILE` (also `--scenario=...`) is parsed and stripped
/// before google-benchmark sees argv; without it the bench's own default
/// spec applies and the output is byte-identical to the pre-scenario
/// binaries.  Bad scenario input exits with the CLI's usage code (2).
inline int scenario_main(int argc, char** argv, const std::string& title,
                         const std::string& paper_ref,
                         spec::ScenarioSpec default_spec,
                         const std::function<void()>& body,
                         bool run_benchmarks = true) {
  std::vector<char*> keep;
  std::optional<std::string> scenario;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--scenario" && i + 1 < argc) {
      scenario = argv[++i];
    } else if (a.rfind("--scenario=", 0) == 0) {
      scenario = a.substr(std::string("--scenario=").size());
    } else {
      keep.push_back(argv[i]);
    }
  }
  try {
    active_spec_slot() =
        scenario ? spec::load_scenario(*scenario) : std::move(default_spec);
    active_spec_slot().validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  banner(title, paper_ref);
  if (scenario)
    std::printf("scenario: %s (%s)\n", active_spec().name.c_str(),
                active_spec().description.c_str());
  body();
  if (run_benchmarks) {
    int kept = static_cast<int>(keep.size());
    keep.push_back(nullptr);
    benchmark::Initialize(&kept, keep.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}

}  // namespace xtest::bench
