#include "sim/supervisor.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "util/durable_file.h"
#include "util/fault_injector.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/subprocess.h"

namespace xtest::sim {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kBackoffCapMs = 5000;
/// A worker silent (no heartbeat byte) for longer is declared wedged and
/// SIGKILLed.  A single simulation is bounded by its cycle budget; this
/// bounds everything else.
constexpr std::chrono::milliseconds kHeartbeatTimeout{30000};
/// Keep only this much tail of a worker's captured output (enough for the
/// stats JSON line and the last error messages).
constexpr std::size_t kOutputTailCap = 64 * 1024;

/// One worker slot: the shard it owns plus the lifecycle of its current
/// (or next) process incarnation.
struct Worker {
  std::size_t shard = 0;
  std::string checkpoint_path;

  util::ChildProcess child;
  int hb_fd = -1;
  int out_fd = -1;
  std::string output;
  bool running = false;
  bool done = false;
  bool quarantined = false;
  /// The current incarnation was SIGKILLed by chaos mode; its death must
  /// not consume the retry budget.
  bool chaos_victim = false;
  /// The current incarnation was killed for a heartbeat timeout.
  bool timed_out = false;

  std::size_t spawns = 0;
  std::size_t retries_left = 0;
  std::uint64_t backoff_ms = 0;
  Clock::time_point next_spawn;
  Clock::time_point hb_deadline;
  /// Shard checkpoint bytes at the last failure; a change since then is
  /// durable progress and refills the retry budget.
  std::string last_snapshot;
  std::string last_status;
};

void append_capped(std::string& buf, const char* data, std::size_t n) {
  buf.append(data, n);
  if (buf.size() > kOutputTailCap)
    buf.erase(0, buf.size() - kOutputTailCap);
}

/// Drains a non-blocking fd; returns bytes read this call (0 on EAGAIN or
/// EOF -- the reap path distinguishes those, the drain loop does not need
/// to).  EINTR is retried inside the read (util::retry_eintr): a signal
/// landing mid-drain must not end the pass early, or heartbeat bytes
/// already in the pipe would be counted a poll cycle late under a signal
/// storm.
std::size_t drain(int fd, std::string* into) {
  if (fd < 0) return 0;
  std::size_t total = 0;
  char buf[4096];
  for (;;) {
    const ssize_t n =
        util::retry_eintr([&] { return ::read(fd, buf, sizeof buf); });
    if (n > 0) {
      if (into != nullptr) append_capped(*into, buf, std::size_t(n));
      total += std::size_t(n);
      continue;
    }
    break;  // 0 = EOF, -1 = EAGAIN; both end this drain pass
  }
  return total;
}

/// Sleeps until `until`, waking every few milliseconds to honour the
/// cooperative cancel flag.  Returns false the moment the flag is seen, so
/// a SIGTERM during a multi-second respawn-backoff window aborts promptly
/// instead of sleeping the window out.
bool wait_until_cancellable(Clock::time_point until,
                            const std::atomic<bool>* cancel) {
  for (;;) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      return false;
    const Clock::time_point now = Clock::now();
    if (now >= until) return true;
    std::this_thread::sleep_for(
        std::min<Clock::duration>(until - now, std::chrono::milliseconds(5)));
  }
}

/// Per-shard checkpoints are the result transport: restores every shard's
/// sections with the engine's restore_slots and folds them per defect with
/// its fold_session, exactly like an in-process multi-session campaign.  A
/// slot its shard never recorded reads kSimError.  A quarantined shard's
/// salvaged outcomes still count; it adds its session verdict tally and
/// one error_log entry to the result's stats.
template <typename Outcome>
std::vector<Outcome> fold_shards(const SupervisorJob& job,
                                 const std::vector<Worker>& workers,
                                 SupervisorResult& result) {
  const std::size_t n = job.defect_count;
  const std::size_t count = workers.size();
  std::vector<Outcome> merged(n);
  for (const Worker& w : workers) {
    std::vector<std::vector<std::optional<Outcome>>> sections;
    std::string read_error;
    try {
      CampaignCheckpoint cp(w.checkpoint_path, job.checkpoint_key);
      for (const std::string& s : job.sections)
        sections.push_back(restore_slots<Outcome>(cp, s, n));
    } catch (const std::exception& e) {
      sections.clear();
      read_error = e.what();
    }
    const ShardSpec spec{w.shard, count};
    std::size_t missing = 0;
    // A quarantined shard's unrecovered session slots are sim errors,
    // mirroring a serial run's tally.
    std::vector<Verdict> quarantined_slots;
    for (std::size_t i = spec.index; i < n; i += count) {
      for (std::size_t s = 0; s < job.sections.size(); ++s) {
        const bool have = s < sections.size() && sections[s][i];
        Outcome o = have ? *sections[s][i] : Outcome{};
        if (!have) verdict_of(o) = Verdict::kSimError;
        missing += !have;
        fold_session(merged[i], o);
        if (w.quarantined) quarantined_slots.push_back(verdict_of(o));
      }
    }
    const std::string name =
        "shard " + std::to_string(w.shard) + "/" + std::to_string(count);
    if (w.quarantined) {
      tally_verdicts(quarantined_slots, result.stats);
      std::string entry =
          name + " quarantined after " + std::to_string(w.spawns) +
          " spawn(s) (" + w.last_status + "): " + std::to_string(missing) +
          " of " + std::to_string(spec.owned_of(n) * job.sections.size()) +
          " owned session verdict(s) unrecovered";
      if (!read_error.empty()) entry += "; checkpoint: " + read_error;
      result.stats.error_log.push_back(std::move(entry));
    } else if (!read_error.empty()) {
      // A completed worker whose checkpoint cannot be read back is a
      // supervisor-side failure; report it rather than inventing outcomes.
      result.stats.error_log.push_back(
          name + " completed but its checkpoint was unreadable: " +
          read_error);
      result.shards[w.shard].quarantined = true;
    }
  }
  return merged;
}

}  // namespace

Supervisor::Supervisor(SupervisorJob job, SupervisorOptions options)
    : job_(std::move(job)), opt_(std::move(options)) {}

std::string Supervisor::shard_checkpoint_path(const std::string& base,
                                              std::size_t shard) {
  return base + ".shard" + std::to_string(shard);
}

void Supervisor::remove_shard_checkpoints(const std::string& base,
                                          std::size_t workers) {
  for (std::size_t k = 0; k < workers; ++k)
    std::remove(shard_checkpoint_path(base, k).c_str());
}

SupervisorResult Supervisor::run() {
  if (opt_.workers == 0)
    throw std::runtime_error("supervisor: workers must be >= 1");
  if (job_.binary.empty())
    throw std::runtime_error("supervisor: no worker binary");
  if (job_.scenario_path.empty())
    throw std::runtime_error("supervisor: no job scenario");
  if (job_.checkpoint_base.empty())
    throw std::runtime_error("supervisor: no checkpoint base path");
  if (job_.sections.empty())
    throw std::runtime_error("supervisor: no checkpoint sections");

  util::FaultInjector& inj = util::FaultInjector::global();
  SupervisorResult result;
  result.shards.resize(opt_.workers);

  std::vector<Worker> workers(opt_.workers);
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k < opt_.workers; ++k) {
    Worker& w = workers[k];
    w.shard = k;
    w.checkpoint_path = shard_checkpoint_path(job_.checkpoint_base, k);
    w.retries_left = opt_.worker_retries;
    w.backoff_ms = opt_.worker_backoff_ms;
    w.next_spawn = start;
    // A shard that crashed in a previous supervised run resumes from its
    // surviving checkpoint; its bytes are the progress baseline.
    w.last_snapshot = util::read_file(w.checkpoint_path).value_or("");
    result.shards[k].shard = k;
  }

  const std::size_t chaos_cap =
      opt_.chaos_max_kills > 0 ? opt_.chaos_max_kills : opt_.workers * 3;
  util::Rng chaos_rng(opt_.chaos_seed);
  Clock::time_point next_chaos =
      start + std::chrono::milliseconds(opt_.chaos_kill_ms);

  auto log = [&](const std::string& line) {
    if (opt_.log != nullptr) *opt_.log << "[supervisor] " << line << "\n";
  };
  auto shard_name = [&](const Worker& w) {
    return "shard " + std::to_string(w.shard) + "/" +
           std::to_string(opt_.workers);
  };

  auto close_worker_fds = [](Worker& w) {
    util::close_fd(w.hb_fd);
    util::close_fd(w.out_fd);
  };

  auto quarantine = [&](Worker& w, const std::string& why) {
    w.quarantined = true;
    w.running = false;
    close_worker_fds(w);
    ShardOutcome& o = result.shards[w.shard];
    o.quarantined = true;
    o.last_status = w.last_status;
    log(shard_name(w) + ": QUARANTINED after " + std::to_string(w.spawns) +
        " spawn(s): " + why);
  };

  /// The current attempt ended without completing the shard.  Durable
  /// progress (checkpoint bytes changed) refills the retry budget; a
  /// chaos kill is supervisor-inflicted and never charges it.
  auto fail_attempt = [&](Worker& w, const std::string& why) {
    w.running = false;
    close_worker_fds(w);
    ++result.respawns;
    std::string snap = util::read_file(w.checkpoint_path).value_or("");
    const bool progressed = snap != w.last_snapshot;
    w.last_snapshot = std::move(snap);
    const bool chaos = w.chaos_victim;
    w.chaos_victim = false;
    w.timed_out = false;
    if (chaos) {
      // Respawn immediately: the kill was ours, the worker owes nothing.
      w.next_spawn = Clock::now();
      log(shard_name(w) + ": chaos-killed (" + why + "), respawning");
      return;
    }
    if (progressed) {
      w.retries_left = opt_.worker_retries;
      w.backoff_ms = opt_.worker_backoff_ms;
    }
    if (w.retries_left == 0) {
      quarantine(w, why + "; retries exhausted without progress");
      return;
    }
    --w.retries_left;
    w.next_spawn = Clock::now() + std::chrono::milliseconds(w.backoff_ms);
    log(shard_name(w) + ": " + why + (progressed ? " (progressed)" : "") +
        ", respawn in " + std::to_string(w.backoff_ms) + " ms (" +
        std::to_string(w.retries_left) + " retries left)");
    w.backoff_ms = std::min<std::uint64_t>(w.backoff_ms * 2, kBackoffCapMs);
  };

  auto spawn_worker = [&](Worker& w) {
    if (inj.fire("supervisor.spawn")) {
      w.last_status = "injected spawn failure";
      ++w.spawns;
      result.shards[w.shard].spawns = w.spawns;
      fail_attempt(w, "injected spawn failure");
      return;
    }
    util::Pipe hb{}, out{};
    try {
      hb = util::make_pipe();
      out = util::make_pipe();
      util::SpawnSpec spec;
      spec.argv = {job_.binary,
                   "campaign",
                   "--scenario",
                   job_.scenario_path,
                   "--shard",
                   std::to_string(w.shard) + "/" +
                       std::to_string(opt_.workers),
                   "--checkpoint",
                   w.checkpoint_path,
                   "--stats-json",
                   "--heartbeat-fd",
                   "3"};
      if (!job_.fault_spec.empty()) {
        spec.argv.push_back("--faults");
        spec.argv.push_back(job_.fault_spec);
      }
      spec.pass_fds = {{3, hb.write_fd}};
      spec.stdout_fd = out.write_fd;
      spec.stderr_fd = out.write_fd;
      w.child = util::ChildProcess::spawn(spec);
    } catch (const std::exception& e) {
      util::close_fd(hb.read_fd);
      util::close_fd(hb.write_fd);
      util::close_fd(out.read_fd);
      util::close_fd(out.write_fd);
      w.last_status = e.what();
      ++w.spawns;
      result.shards[w.shard].spawns = w.spawns;
      fail_attempt(w, std::string("spawn failed: ") + e.what());
      return;
    }
    // Parent keeps only the read ends; the child's copies came from the
    // dup2 rewiring and the CLOEXEC originals vanished at exec.
    util::close_fd(hb.write_fd);
    util::close_fd(out.write_fd);
    util::set_nonblocking(hb.read_fd);
    util::set_nonblocking(out.read_fd);
    w.hb_fd = hb.read_fd;
    w.out_fd = out.read_fd;
    w.output.clear();
    w.running = true;
    w.timed_out = false;
    w.chaos_victim = false;
    ++w.spawns;
    result.shards[w.shard].spawns = w.spawns;
    w.hb_deadline = Clock::now() + kHeartbeatTimeout;
    log(shard_name(w) + ": spawned pid " + std::to_string(w.child.pid()) +
        " (attempt " + std::to_string(w.spawns) + ")");
  };

  auto terminate_all = [&](int sig) {
    for (Worker& w : workers)
      if (w.running) w.child.kill(sig);
    for (Worker& w : workers) {
      if (!w.running) continue;
      w.child.wait();
      drain(w.out_fd, &w.output);
      w.running = false;
      close_worker_fds(w);
    }
  };

  // ---- monitor loop -----------------------------------------------------
  for (;;) {
    bool all_settled = true;
    for (const Worker& w : workers)
      if (!w.done && !w.quarantined) all_settled = false;
    if (all_settled) break;

    if (opt_.cancel != nullptr &&
        opt_.cancel->load(std::memory_order_relaxed)) {
      log("cancelled; stopping workers");
      terminate_all(SIGTERM);
      throw CampaignInterrupted(
          "supervised campaign interrupted; per-shard checkpoints retained, "
          "rerun to resume");
    }

    const Clock::time_point now = Clock::now();
    for (Worker& w : workers)
      if (!w.running && !w.done && !w.quarantined && now >= w.next_spawn)
        spawn_worker(w);

    // Wait for heartbeat/output traffic (or just pace the loop while
    // everyone is in backoff).
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_owner;
    for (std::size_t k = 0; k < workers.size(); ++k) {
      const Worker& w = workers[k];
      if (!w.running) continue;
      for (int fd : {w.hb_fd, w.out_fd}) {
        if (fd < 0) continue;
        fds.push_back(pollfd{fd, POLLIN, 0});
        fd_owner.push_back(k);
      }
    }
    if (fds.empty()) {
      // Everyone alive is waiting out a respawn backoff: sleep until the
      // earliest next_spawn (capped so chaos/new work stays responsive),
      // but wake immediately on cancel -- a SIGTERM during a backoff
      // window must not sleep out the rest of the budget.
      Clock::time_point until = now + std::chrono::milliseconds(50);
      for (const Worker& w : workers)
        if (!w.running && !w.done && !w.quarantined)
          until = std::min(until, w.next_spawn);
      wait_until_cancellable(std::max(until, now), opt_.cancel);
    } else {
      util::retry_eintr(
          [&] { return ::poll(fds.data(), nfds_t(fds.size()), 25); });
    }

    std::size_t new_beats = 0;
    for (Worker& w : workers) {
      if (!w.running) continue;
      drain(w.out_fd, &w.output);
      const std::size_t beats = drain(w.hb_fd, nullptr);
      if (beats > 0) {
        result.heartbeats += beats;
        new_beats += beats;
        if (inj.fire("supervisor.heartbeat")) {
          // Injected monitoring failure: the heartbeat is "lost", the
          // deadline lapses immediately and the wedged-worker path runs
          // against a perfectly healthy worker.
          w.hb_deadline = Clock::now() - std::chrono::milliseconds(1);
          log(shard_name(w) + ": injected heartbeat loss");
        } else {
          w.hb_deadline = Clock::now() + kHeartbeatTimeout;
        }
      }
    }
    if (new_beats > 0 && opt_.on_progress) opt_.on_progress(new_beats);

    // Wedged workers: silent past the deadline -> SIGKILL.  The reap
    // below decides the outcome from the *actual* exit status, so a
    // worker whose normal exit races the timeout is still counted as the
    // clean completion it was.
    for (Worker& w : workers) {
      if (!w.running || w.timed_out || w.chaos_victim) continue;
      if (Clock::now() > w.hb_deadline) {
        w.timed_out = true;
        w.child.kill(SIGKILL);
        log(shard_name(w) + ": heartbeat timeout, SIGKILL pid " +
            std::to_string(w.child.pid()));
      }
    }

    // Chaos mode: SIGKILL a random live worker on the configured cadence.
    if (opt_.chaos_kill_ms > 0 && result.chaos_kills < chaos_cap &&
        Clock::now() >= next_chaos) {
      std::vector<std::size_t> live;
      for (std::size_t k = 0; k < workers.size(); ++k)
        if (workers[k].running && !workers[k].chaos_victim) live.push_back(k);
      if (!live.empty()) {
        Worker& victim = workers[live[std::size_t(
            chaos_rng.below(std::uint64_t(live.size())))]];
        victim.chaos_victim = true;
        victim.child.kill(SIGKILL);
        ++result.chaos_kills;
        log(shard_name(victim) + ": chaos SIGKILL pid " +
            std::to_string(victim.child.pid()) + " (" +
            std::to_string(result.chaos_kills) + "/" +
            std::to_string(chaos_cap) + ")");
      }
      next_chaos = Clock::now() + std::chrono::milliseconds(opt_.chaos_kill_ms);
    }

    // Reap.
    for (Worker& w : workers) {
      if (!w.running) continue;
      const util::ExitStatus st = w.child.poll_status();
      if (st.running()) continue;
      drain(w.out_fd, &w.output);
      w.last_status = st.describe();
      result.shards[w.shard].last_status = w.last_status;
      if (st.exited && st.code == 0) {
        w.running = false;
        close_worker_fds(w);
        w.done = true;
        // The final attempt's stats cover the whole shard: restored
        // verdicts are tallied like fresh ones by the campaign.
        util::CampaignStats shard_stats;
        bool parsed = false;
        std::istringstream lines(w.output);
        for (std::string line; std::getline(lines, line);) {
          // A worker SIGKILLed mid-printf (or racing its own crash) can
          // leave a torn stats line in the capture; damage is a skipped
          // line, never a supervisor failure or silently-wrong counters.
          try {
            if (util::parse_stats_json(line, shard_stats)) parsed = true;
          } catch (const util::StatsJsonError&) {
          }
        }
        if (parsed) result.stats.merge_from(shard_stats);
        log(shard_name(w) + ": completed (" + w.last_status + ", " +
            std::to_string(w.spawns) + " spawn(s))");
      } else if (st.exited && (st.code == 2 || st.code == 3)) {
        // Usage / I-O errors are configuration problems a respawn cannot
        // fix; burning the backoff schedule on them only delays the
        // verdict.
        w.running = false;
        close_worker_fds(w);
        quarantine(w, "non-retryable " + w.last_status);
      } else {
        fail_attempt(w, w.last_status +
                            (w.timed_out ? " (heartbeat timeout)" : ""));
      }
    }
  }

  // ---- merge ------------------------------------------------------------
  if (job_.online) {
    result.outcomes = fold_shards<OnlineOutcome>(job_, workers, result);
    for (const OnlineOutcome& o : result.outcomes)
      result.verdicts.push_back(o.verdict);
  } else {
    result.verdicts = fold_shards<Verdict>(job_, workers, result);
  }
  return result;
}

}  // namespace xtest::sim
