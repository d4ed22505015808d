// The campaign service daemon (`xtest serve`).
//
// One poll-driven network thread owns the listening socket and every
// client connection; one runner thread executes queued jobs through
// sim::Supervisor (so every job inherits the crash-isolated worker
// processes, per-shard checkpoints, and quarantine semantics of PR 7).
// The two sides share the JobQueue and the per-job event streams under
// one mutex and wake each other through a self-pipe.
//
// Robustness contract (the point of this subsystem):
//   * A malformed, oversized, truncated, or CRC-damaged frame poisons
//     exactly that connection's decoder; the server sends a best-effort
//     kError and drops the connection.  The process never crashes on
//     client bytes.
//   * Idle and half-open connections (no complete frame, no ping) are
//     reaped after `idle_timeout_ms`.
//   * Slow readers get a bounded (256 KiB) send buffer: durable events are
//     pulled from the per-job history only while the buffer has room, so
//     a stalled client costs O(cap) memory, not O(campaign).  Transient
//     progress events are simply dropped for laggards.
//   * Everything a client must not lose is durable: Submit is persisted
//     to the queue file BEFORE the SubmitAck goes out, and durable events
//     (verdict chunks, completion) carry per-job sequence numbers a
//     reconnecting client replays from with kResume.
//   * A job attempt that fails (spawn storms, an unwritable job scenario
//     file, ...) is retried twice, after 100 ms and 200 ms, then fails
//     in band with exit 4 (the supervisor's own quarantine path reports
//     graceful degradation in-band as exit-6 semantics instead); a job
//     interrupted by daemon death resumes from its shard checkpoints on
//     restart because the queue file and the checkpoint base names
//     survive.
//   * Cancellation (SIGTERM) drains: stop accepting, notify clients with
//     kShutdown, cancel the running supervisor (workers checkpoint), mark
//     the job queued again, persist the queue, exit.
//
// Fault-injection sites: serve.accept (accepted connection dropped),
// serve.read / serve.write (connection I/O fails), serve.enqueue (queue
// persistence fails; the submit is rejected with kError and rolled back).

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace xtest::serve {

struct ServerOptions {
  /// Unix-domain socket path; when empty, listen on loopback TCP instead.
  std::string socket_path;
  /// TCP port when `socket_path` is empty (0 = ephemeral; see
  /// Server::bound_port()).
  std::uint16_t tcp_port = 0;
  /// Queue persistence file; also the stem for per-job checkpoint bases
  /// ("<queue>.job<id>.ckpt").  Empty = in-memory queue (tests only; no
  /// restart-resume).
  std::string queue_path;
  /// Connections silent for longer are reaped (half-open peers included).
  std::uint64_t idle_timeout_ms = 30000;
  /// Fault spec forwarded verbatim to job workers (serve.* sites fire in
  /// the daemon itself via the process-global injector).
  std::string fault_spec;
  /// Cooperative shutdown flag (the CLI wires SIGTERM/SIGINT here).  A
  /// client kShutdown frame triggers the same drain.
  const std::atomic<bool>* cancel = nullptr;
  std::ostream* log = nullptr;
};

/// Daemon counters, for the shutdown report and tests: a snapshot taken by
/// Server::stats().
struct ServerStats {
  std::size_t connections_accepted = 0;
  std::size_t connections_dropped = 0;  ///< protocol errors + I/O failures
  std::size_t frames_rejected = 0;      ///< poisoned decoders
  std::size_t idle_reaped = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_failed = 0;
  std::size_t jobs_degraded = 0;
  std::size_t job_retries = 0;
  std::size_t events_streamed = 0;
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the endpoint and loads the queue file.  Separate from run() so
  /// an embedding test can learn bound_port() before clients connect.
  /// Throws std::runtime_error when the endpoint cannot be bound.
  void start();

  /// Serves until cancellation (flag or client kShutdown), then drains.
  /// Returns the number of jobs still pending (queued or interrupted) --
  /// 0 means the daemon retired everything it accepted.
  std::size_t run();

  /// TCP port actually bound (after start(); 0 for Unix sockets).
  std::uint16_t bound_port() const { return bound_port_; }
  /// Snapshot of the daemon counters, safe to take from any thread while
  /// run() is serving.
  ServerStats stats() const;

 private:
  struct Impl;
  ServerOptions opt_;
  std::uint16_t bound_port_ = 0;
  Impl* impl_;  ///< last member: constructed against the settled options
};

}  // namespace xtest::serve
