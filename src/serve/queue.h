// Priority job queue with crash-durable disk persistence.
//
// A job is one campaign described by a spec::ScenarioSpec wire payload
// (the same `key = value` text `xtest scenarios --dump` emits).  The queue
// orders by (priority desc, id asc) -- FIFO within a priority band -- and
// survives any daemon death: every mutation rewrites the queue file with
// util::write_durable (tmp, fsync, rename -- the checkpoint's own writer)
// with a CRC-32 trailer per record, so a restarted daemon reloads exactly
// the accepted jobs.  A job found `running` on load was interrupted mid-run
// and goes back to `queued`; its campaign resumes from its own shard
// checkpoints, so no completed verdict is ever recomputed.  Completed
// jobs persist WITH their verdict string and stats line: a client that
// reconnects after a daemon restart can still fetch the result of a job
// that finished in a previous incarnation.
//
// Load is salvage-tolerant like the checkpoint loader: a torn tail (the
// daemon died mid-rename is impossible, but a corrupt disk is not) keeps
// the longest valid prefix of records instead of refusing to start.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xtest::serve {

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
};

const char* to_string(JobState s);

struct Job {
  std::uint64_t id = 0;
  int priority = 5;  ///< 0 (idle) .. 9 (urgent)
  JobState state = JobState::kQueued;
  std::string scenario;  ///< ScenarioSpec text (the wire payload)

  // Filled when the job completes (kDone / kFailed).
  std::string verdicts;    ///< one to_char per defect (U D T E)
  std::string stats_json;  ///< CampaignStats::json line ("" until done)
  bool degraded = false;   ///< a worker shard was quarantined (exit-6 land)
  int exit_code = 0;       ///< in-band CLI exit semantics: 0, 4, or 6
  std::string error;       ///< last failure message (kFailed)
  std::size_t attempts = 0;  ///< job-level run attempts consumed
};

class JobQueue {
 public:
  /// `path` is the persistence file; empty = in-memory only (tests).
  explicit JobQueue(std::string path);

  /// Sweeps the tmp of a daemon killed mid-persist, then loads the queue
  /// file if it exists (salvage-tolerant); jobs that were `running` when
  /// the previous daemon died become `queued` again.  Returns the number
  /// of records recovered.
  std::size_t load();

  /// Accepts a job and persists.  Returns the assigned id.
  std::uint64_t enqueue(std::string scenario, int priority);

  /// Highest-priority queued job (FIFO within a priority), or nullptr.
  Job* next_queued();

  Job* find(std::uint64_t id);

  /// Atomic rewrite of the queue file (no-op when path is empty).  Called
  /// by every mutator; public so the server can persist after editing a
  /// job in place.  Throws std::runtime_error on I/O failure.
  void persist();

  const std::vector<Job>& jobs() const { return jobs_; }
  /// Jobs still queued or running.
  std::size_t pending() const;
  /// Records dropped by the salvage loader (for counters/logs).
  std::size_t salvage_dropped() const { return salvage_dropped_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::uint64_t next_id_ = 1;
  std::vector<Job> jobs_;
  std::size_t salvage_dropped_ = 0;
};

}  // namespace xtest::serve
