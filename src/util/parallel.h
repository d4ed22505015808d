// Deterministic parallel campaign execution.
//
// Defect-simulation campaigns are embarrassingly parallel: every defect is
// an independent whole-program simulation against the same gold run.  The
// work pool here fans an index range out over std::thread workers with
// chunked *static* scheduling: the partition of [0, count) into contiguous
// chunks is a pure function of (count, thread count), and campaign code
// writes results into pre-sized vectors by defect index.  Together these
// make every campaign result bitwise identical for ANY thread count --
// including threads == 1, which runs the body inline on the calling
// thread (the exact serial path).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace xtest::util {

/// Thread-count policy for a campaign.
struct ParallelConfig {
  /// 0 = auto: $XTEST_THREADS when set and positive, else the hardware
  /// concurrency.  1 = serial (body runs inline on the caller).
  unsigned threads = 0;

  /// Effective worker count for `items` work items: never 0, never more
  /// than `items` (except that 0 items resolve to 1 so a pool can still
  /// be formed and the serial path stays trivial).
  unsigned resolve(std::size_t items) const;
};

/// Contiguous [begin, end) chunks, one per worker, covering [0, count)
/// exactly once in ascending order.  Chunk lengths differ by at most one;
/// when count < chunks the trailing chunks are empty.  `chunks` is
/// clamped to >= 1.
std::vector<std::pair<std::size_t, std::size_t>> partition_range(
    std::size_t count, unsigned chunks);

/// Runs `body(begin, end, worker)` over the static partition of
/// [0, count), one invocation per worker.  The worker count comes from
/// `config.resolve(count)`; at 1 the body is invoked directly on the
/// calling thread with worker index 0.  All workers are joined before
/// return; an exception thrown inside a worker is captured and re-thrown
/// here (the lowest-index worker's exception wins), so a throwing
/// campaign can never deadlock the pool or leak a detached thread.
void parallel_for_chunks(
    std::size_t count, const ParallelConfig& config,
    const std::function<void(std::size_t, std::size_t, unsigned)>& body);

/// One quarantined work item: the index whose body threw, plus the
/// exception message.
struct ItemError {
  std::size_t index = 0;
  std::string message;
};

/// Fault-contained variant of parallel_for_chunks: runs `body(i, worker)`
/// for every i of the worker's chunk, and an exception thrown for item i
/// is captured as an ItemError instead of killing the sweep -- the worker
/// continues with i + 1 and every other item still runs.  Returned errors
/// are in ascending index order (chunks are contiguous and ascending, so
/// the order is identical for every thread count).  Non-std exceptions are
/// recorded with a generic message.  Each item consults fault-injection
/// site "parallel.item" before running, so an armed injector exercises
/// exactly this quarantine path.
std::vector<ItemError> parallel_for_items(
    std::size_t count, const ParallelConfig& config,
    const std::function<void(std::size_t, unsigned)>& body);

/// Aggregate statistics of one campaign, or a sum over sessions: the
/// campaign functions *add* onto an existing object so multi-session and
/// per-line sweeps accumulate naturally.  json(), merge_from() and
/// parse_stats_json() walk one counter list (parallel.cpp), so a new
/// counter is one line there.
struct CampaignStats {
  /// Whole-program (or whole-pattern-set) defect simulations executed.
  std::size_t defects_simulated = 0;
  /// Simulated clock cycles across all runs, gold runs included.  A pure
  /// function of the campaign inputs -- identical for every thread count.
  std::uint64_t simulated_cycles = 0;
  /// Of simulated_cycles, the head cycles of newly simulated defect runs
  /// taken from the gold run instead of being stepped: the whole gold run
  /// for a defect that never changes a received word, otherwise the cycle
  /// count of the gold state the run resumed from -- off-line a snapshot,
  /// on-line the global clock of the round boundary before the round of
  /// its first deviating transfer.  Thread-invariant, and shards sum to
  /// the unsharded value; 0 with fast_receive off.
  std::uint64_t gold_prefix_cycles = 0;
  /// Environment counter: representative runs stepped off gold, one per
  /// distinct trajectory of the slots that shared a campaign call's runs
  /// (DESIGN D7).  Thread-invariant within one call, but shards, supervised
  /// workers and a resume group different slots, so it changes under them;
  /// 0 with fast_receive off.
  std::uint64_t trajectories = 0;
  /// Environment counter: cycles actually stepped in defect runs (on-line,
  /// global cycles of both contexts) -- representative runs, the re-runs
  /// that keep their fork states, slots run alone and serial retries --
  /// where simulated_cycles also counts the cycles a run takes from a
  /// shared one.  Thread-invariant within
  /// one call; changes under shards, workers and resume like trajectories.
  std::uint64_t stepped_cycles = 0;
  /// Host wall-clock time spent inside campaign calls.
  double wall_seconds = 0.0;
  // Where the host time went, in seconds (environment, like wall_seconds;
  // supervised runs sum their workers').  The CLI times library and
  // program generation; the campaign engine the rest: the gold steps, the
  // slot loop with its serial retries (periodic checkpoint flushes
  // included), and opening, restoring and finally flushing the
  // checkpoint.  The last three lie inside wall_seconds.
  double library_seconds = 0.0;
  double program_seconds = 0.0;
  double gold_seconds = 0.0;
  double simulate_seconds = 0.0;
  double checkpoint_seconds = 0.0;
  /// Resolved worker count of the most recent campaign call.
  unsigned threads = 0;

  // Verdict breakdown (filled by campaigns that classify their results; a
  // pure function of the campaign inputs, like simulated_cycles).
  std::size_t detected = 0;
  std::size_t detected_by_timeout = 0;
  std::size_t undetected = 0;
  /// Defects whose simulation threw (quarantined, never aborting the
  /// campaign); the accompanying messages are appended to `error_log`.
  std::size_t sim_errors = 0;
  /// Serial retry attempts made for quarantined defects.
  std::size_t retries = 0;
  /// Verdicts restored from a checkpoint instead of being simulated.
  std::size_t restored_from_checkpoint = 0;
  /// Sections recovered intact from a damaged checkpoint file (the valid
  /// prefix kept by the salvage loader).
  std::size_t salvaged_sections = 0;
  /// Completed verdicts lost to a damaged checkpoint tail and re-simulated.
  std::size_t dropped_slots = 0;
  /// Periodic checkpoint flushes that failed (ENOSPC, injected fault, ...)
  /// and were deferred to the next flush instead of aborting the campaign.
  std::size_t flush_failures = 0;
  // Nothing writes these four; perfbench still reads them.
  std::size_t gold_reuses = 0;
  std::size_t run_reuses = 0;
  std::size_t batch_screened = 0;
  std::size_t batch_lanes = 0;
  // On-line interleaved campaigns (sim/online.h; all zero in off-line
  // mode).  Pure functions of the campaign inputs, like the verdicts:
  // identical at every thread count and across checkpoint resumes.
  /// Interleaved rounds (functional window + test slice) executed or
  /// restored, gold schedules included.
  std::uint64_t online_rounds = 0;
  /// Heartbeat writes the functional workload landed on the MMIO deadline
  /// device across all interleaved runs.
  std::uint64_t online_mmio_heartbeats = 0;
  /// Heartbeats arriving later than the deadline (but within twice it).
  std::uint64_t online_deadlines_late = 0;
  /// Heartbeats arriving later than twice the deadline, and starvation
  /// tails of workloads a defect derailed for good.
  std::uint64_t online_deadlines_missed = 0;
  /// Sum over detected defects of the global-clock cycle count from
  /// activation (cycle 0) to the first diverging slice boundary.
  std::uint64_t online_detection_latency_cycles = 0;
  /// Number of defects contributing to that sum (mean latency =
  /// cycles / samples).
  std::size_t online_latency_samples = 0;
  /// One "defect <index>: <message>" line per quarantined simulation.
  std::vector<std::string> error_log;

  double defects_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(defects_simulated) / wall_seconds
               : 0.0;
  }

  /// Always 0: the simulator keeps no transition memo.  perfbench still
  /// reads it.
  double cache_hit_rate() const { return 0.0; }

  /// One-line JSON record for the perf trajectory, keyed by `label`.
  /// Besides the counters it records the execution environment --
  /// resolved worker count, std::thread::hardware_concurrency(), and the
  /// build type -- so a perf artifact is interpretable on its own (e.g.
  /// "threads=4 slower than threads=1" is expected on a 1-CPU host).
  std::string json(const std::string& label) const;

  /// Adds another campaign's RAW counters onto this one (shard merge,
  /// supervised workers).  Derived ratios such as defects_per_second stay
  /// functions over the merged raw counters, so merging never averages
  /// rates: the merged throughput is (sum defects) / (sum wall_seconds),
  /// not the mean of per-shard rates.  wall_seconds accumulates (aggregate
  /// time inside campaign calls, as for multi-session sweeps); `threads`
  /// keeps the maximum of the two resolved worker counts; error_log
  /// entries are appended.
  void merge_from(const CampaignStats& other);
};

/// A stats line that LOOKS like a stats object but cannot be decoded:
/// truncated (an opening '{' with no closing '}'), a known key whose value
/// is not a finite number, an integer counter whose value is negative,
/// fractional or beyond its type, or a known key appearing twice with
/// conflicting values.  The supervisor and the serve daemon read these
/// lines from worker process output -- i.e. from a process that may have
/// been SIGKILLed mid-printf -- so damage must surface as this typed error
/// (callers skip the line), never as silently-wrong counters or UB.
struct StatsJsonError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Best-effort inverse of CampaignStats::json for the flat numeric fields
/// (verdict breakdown, cycles, resilience and on-line counters,
/// wall_seconds, threads).
/// Scans `line` for the first '{'...'}' JSON object; returns false when
/// no such object or no known key is found, and throws
/// StatsJsonError for an object that is damaged (see above).  Environment
/// fields (hardware_concurrency, build_type) and derived ratios are
/// ignored -- ratios are recomputed from the raw counters.  This is how a
/// supervisor reads a worker process's --stats-json line back.
bool parse_stats_json(const std::string& line, CampaignStats& out);

/// The CMake build type the library was compiled as ("Release",
/// "RelWithDebInfo", ...; "unknown" when the build system did not say).
const char* build_type();

}  // namespace xtest::util
