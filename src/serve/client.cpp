#include "serve/client.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/net.h"
#include "util/retry.h"
#include "util/subprocess.h"

namespace xtest::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Submit retransmit interval and the retransmits after the first send.
constexpr std::uint64_t kAckTimeoutMs = 1000;
constexpr std::size_t kSubmitRetries = 10;
/// Reconnect attempts before a call gives up on the daemon.
constexpr std::size_t kReconnectRetries = 50;

std::uint64_t ms_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0)
          .count());
}

}  // namespace

Client::Client(ClientOptions opt) : opt_(std::move(opt)) {}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  util::close_fd(fd_);
  dec_ = FrameDecoder();  // a fresh connection starts a fresh stream
}

void Client::kill_connection() {
  // No shutdown(), no goodbye frame: from the daemon's side this is a
  // peer that vanished mid-stream.
  disconnect();
}

bool Client::ensure_connected() {
  if (fd_ >= 0) return true;
  fd_ = opt_.socket_path.empty() ? util::connect_tcp(opt_.tcp_port)
                                 : util::connect_unix(opt_.socket_path);
  if (fd_ < 0) return false;
  dec_ = FrameDecoder();
  return true;
}

bool Client::reconnect_with_backoff() {
  std::uint64_t backoff = opt_.reconnect_backoff_ms;
  for (std::size_t attempt = 0; attempt < kReconnectRetries; ++attempt) {
    if (ensure_connected()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    backoff = std::min<std::uint64_t>(backoff * 2, 2000);
  }
  return false;
}

bool Client::send_frame(const Frame& f) {
  if (fd_ < 0) return false;
  const std::string bytes = encode_frame(f);
  if (!util::send_full(fd_, bytes.data(), bytes.size())) {
    disconnect();
    return false;
  }
  return true;
}

std::optional<Frame> Client::read_frame(std::uint64_t timeout_ms) {
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    if (auto f = dec_.next()) return f;
    if (dec_.poisoned()) {
      // A daemon speaking garbage is a broken connection to recover from.
      disconnect();
      return std::nullopt;
    }
    if (fd_ < 0) return std::nullopt;
    const std::uint64_t spent = ms_since(t0);
    if (spent >= timeout_ms) return std::nullopt;
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = util::retry_eintr(
        [&] { return ::poll(&pfd, 1, static_cast<int>(timeout_ms - spent)); });
    if (rc < 0) {
      disconnect();
      return std::nullopt;
    }
    if (rc == 0) return std::nullopt;  // timeout
    char buf[4096];
    const ssize_t n =
        util::retry_eintr([&] { return ::read(fd_, buf, sizeof buf); });
    if (n <= 0) {
      disconnect();
      return std::nullopt;
    }
    dec_.feed(buf, static_cast<std::size_t>(n));
  }
}

std::uint64_t Client::submit(const std::string& scenario_text, int priority) {
  Frame f;
  f.type = FrameType::kSubmit;
  f.seq = next_seq_++;
  f.payload.push_back(static_cast<char>(
      static_cast<std::uint8_t>(priority < 0 ? 0 : priority > 9 ? 9 : priority)));
  f.payload += scenario_text;

  std::string last_error = "daemon unreachable";
  for (std::size_t attempt = 0; attempt <= kSubmitRetries; ++attempt) {
    if (fd_ < 0 && !reconnect_with_backoff())
      throw std::runtime_error("submit: cannot connect to the daemon");
    // Retransmit with the SAME seq: the daemon replays its cached ack if
    // it already accepted this submit and only the ack was lost.
    if (!send_frame(f)) continue;
    const Clock::time_point t0 = Clock::now();
    while (ms_since(t0) < kAckTimeoutMs) {
      auto r = read_frame(kAckTimeoutMs - ms_since(t0));
      if (!r) break;
      if (r->type == FrameType::kSubmitAck) {
        std::size_t pos = 0;
        std::uint32_t echoed = 0;
        std::uint64_t job = 0;
        if (get_u32(r->payload, pos, echoed) &&
            get_u64(r->payload, pos, job) && echoed == f.seq)
          return job;
        continue;  // ack for some other in-flight submit
      }
      if (r->type == FrameType::kError && r->seq == f.seq)
        throw std::runtime_error("submit rejected: " + r->payload);
      // Events for other jobs etc. are fine to skip here; wait() resumes
      // from its durable cursor regardless.
    }
    last_error = "ack timeout";
    if (opt_.log != nullptr)
      *opt_.log << "client: submit attempt " << attempt + 1
                << " unacked, retransmitting\n";
  }
  throw std::runtime_error("submit: no ack after " +
                           std::to_string(kSubmitRetries + 1) +
                           " attempts (" + last_error + ")");
}

JobResult Client::wait(std::uint64_t job,
                       const std::function<bool(const JobEvent&)>& observer) {
  JobResult result;
  result.job = job;
  bool need_resume = true;
  for (;;) {
    if (fd_ < 0) {
      if (!reconnect_with_backoff())
        throw std::runtime_error("wait: daemon unreachable for job " +
                                 std::to_string(job));
      need_resume = true;
    }
    if (need_resume) {
      Frame f;
      f.type = FrameType::kResume;
      f.seq = next_seq_++;
      put_u64(f.payload, job);
      put_u32(f.payload, last_seen_[job]);
      if (!send_frame(f)) continue;
      need_resume = false;
    }
    auto r = read_frame(1000);
    if (!r) {
      if (fd_ < 0) continue;  // connection lost: reconnect + resume
      // Plain timeout: ping so the idle reaper knows we are alive.
      Frame ping;
      ping.type = FrameType::kPing;
      ping.seq = next_seq_++;
      send_frame(ping);
      continue;
    }
    if (r->type == FrameType::kShutdown) {
      // Daemon draining; it (or its successor) still owes us the job.
      disconnect();
      continue;
    }
    if (r->type == FrameType::kError) {
      throw std::runtime_error("wait: daemon error: " + r->payload);
    }
    if (r->type != FrameType::kEvent) continue;  // pong, acks, banners

    std::size_t pos = 0;
    std::uint64_t ev_job = 0;
    std::uint32_t seq = 0;
    if (!get_u64(r->payload, pos, ev_job) || !get_u32(r->payload, pos, seq) ||
        pos >= r->payload.size())
      continue;  // short event payload; ignore
    if (ev_job != job) continue;
    const auto kind =
        static_cast<EventKind>(static_cast<std::uint8_t>(r->payload[pos]));
    const std::string text = r->payload.substr(pos + 1);

    if (seq != 0) {
      if (seq <= last_seen_[job]) continue;  // replayed overlap
      last_seen_[job] = seq;
      Frame ack;
      ack.type = FrameType::kAck;
      put_u64(ack.payload, job);
      put_u32(ack.payload, seq);
      send_frame(ack);
    }
    if (observer) {
      JobEvent ev{job, seq, kind, text};
      if (!observer(ev)) {
        result.aborted = true;
        return result;
      }
    }
    if (kind == EventKind::kChunk) {
      std::istringstream is(text);
      std::size_t off = 0;
      std::string chars;
      if (!(is >> off)) continue;
      is.get();  // the separating space
      std::getline(is, chars);
      if (result.verdicts.size() < off + chars.size())
        result.verdicts.resize(off + chars.size(), '.');
      result.verdicts.replace(off, chars.size(), chars);
    } else if (kind == EventKind::kDone) {
      const std::size_t nl = text.find('\n');
      std::istringstream is(text.substr(0, nl));
      int degraded = 0;
      std::size_t count = 0;
      if (is >> result.exit_code >> degraded >> count) {
        result.degraded = degraded != 0;
        result.failed = result.exit_code != 0 && !result.degraded;
        const std::string tail =
            nl == std::string::npos ? std::string() : text.substr(nl + 1);
        if (result.failed)
          result.error = tail;
        else
          result.stats_json = tail;
      }
      return result;
    }
  }
}

std::string Client::status() {
  if (fd_ < 0 && !reconnect_with_backoff())
    throw std::runtime_error("status: cannot connect to the daemon");
  Frame f;
  f.type = FrameType::kStatus;
  f.seq = next_seq_++;
  if (!send_frame(f)) throw std::runtime_error("status: connection lost");
  const Clock::time_point t0 = Clock::now();
  while (ms_since(t0) < 5000) {
    auto r = read_frame(5000 - ms_since(t0));
    if (!r) break;
    if (r->type == FrameType::kStatusReply) return r->payload;
  }
  throw std::runtime_error("status: no reply from the daemon");
}

void Client::request_shutdown() {
  if (fd_ < 0 && !reconnect_with_backoff())
    throw std::runtime_error("shutdown: cannot connect to the daemon");
  Frame f;
  f.type = FrameType::kShutdown;
  f.seq = next_seq_++;
  if (!send_frame(f)) throw std::runtime_error("shutdown: connection lost");
}

}  // namespace xtest::serve
