// Client side of the campaign service protocol.
//
// A Client owns one connection (re-established on demand) and implements
// the delivery discipline the daemon expects:
//   * every connection opens with kHello carrying this client's random
//     64-bit id, so the daemon knows a reconnected client as the same one.
//   * submit() retransmits the kSubmit frame -- same sequence number --
//     every second, up to 11 sends, until the kSubmitAck arrives, so a
//     lost ack never double-enqueues (the daemon dedupes by client id and
//     submit seq, across connections) and a lost submit never silently
//     vanishes.  The ack implies the job is DURABLE: the daemon persists
//     before acking.
//   * wait() streams kEvent frames, acking durable ones, and survives any
//     connection loss -- client-side kill, daemon restart, injected
//     socket fault -- by reconnecting with backoff and sending kResume
//     with the last durable event sequence it saw; the daemon replays
//     from there.  Verdict chunks carry explicit offsets, so replayed
//     overlap is idempotent.
//
// Everything here is synchronous and single-threaded by design: the CLI
// and the chaos soak drive one Client per actor.

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>

#include "serve/frame.h"

namespace xtest::serve {

struct ClientOptions {
  /// Unix-domain socket path; when empty, connect to 127.0.0.1:tcp_port.
  std::string socket_path;
  std::uint16_t tcp_port = 0;
  /// Initial reconnect backoff; doubles, capped at 2 s, over 50 attempts
  /// sized to ride out a daemon SIGKILL + restart.
  std::uint64_t reconnect_backoff_ms = 100;
  std::ostream* log = nullptr;
};

/// Terminal outcome of one job as seen by a client.
struct JobResult {
  std::uint64_t job = 0;
  std::string verdicts;    ///< UDTE chars, one per defect
  std::string stats_json;  ///< stats line ("" for failed jobs)
  int exit_code = 0;       ///< 0 ok, 4 failed, 6 degraded
  bool degraded = false;
  bool failed = false;     ///< the daemon gave up on the job
  std::string error;       ///< failure text when failed
  bool aborted = false;    ///< wait() was stopped by the observer callback
};

/// One event as surfaced to a wait() observer.
struct JobEvent {
  std::uint64_t job = 0;
  std::uint32_t seq = 0;  ///< 0 = transient progress
  EventKind kind = EventKind::kProgress;
  std::string text;
};

class Client {
 public:
  explicit Client(ClientOptions opt);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Submits a scenario (wire text) with retransmit-until-acked.  Returns
  /// the daemon-assigned job id; throws std::runtime_error when the
  /// daemon rejects the scenario or stays unreachable.
  std::uint64_t submit(const std::string& scenario_text, int priority = 5);

  /// Blocks until `job` completes, reconnect-and-resume on any failure.
  /// `observer` (optional) sees every event; returning false aborts the
  /// wait (JobResult::aborted) while leaving the job running server-side.
  JobResult wait(std::uint64_t job,
                 const std::function<bool(const JobEvent&)>& observer = {});

  /// One-shot queries.
  std::string status();
  void request_shutdown();

  /// Drops the connection WITHOUT any protocol goodbye -- the chaos soak
  /// uses this to model a client killed mid-stream.
  void kill_connection();

 private:
  bool ensure_connected();
  void disconnect();
  bool send_frame(const Frame& f);
  /// Pumps the socket for up to `timeout_ms`; returns the next decoded
  /// frame or nullopt on timeout/connection loss (conn loss disconnects).
  std::optional<Frame> read_frame(std::uint64_t timeout_ms);
  bool reconnect_with_backoff();

  ClientOptions opt_;
  /// Random per Client: the daemon's key for this client's submits.
  std::uint64_t id_;
  int fd_ = -1;
  FrameDecoder dec_;
  std::uint32_t next_seq_ = 1;
  /// Last durable event seq seen per job (the kResume cursor).
  std::map<std::uint64_t, std::uint32_t> last_seen_;
};

}  // namespace xtest::serve
