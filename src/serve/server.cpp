#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "serve/frame.h"
#include "serve/queue.h"
#include "sim/campaign.h"
#include "sim/supervisor.h"
#include "spec/scenario.h"
#include "util/fault_injector.h"
#include "util/net.h"
#include "util/retry.h"
#include "util/subprocess.h"

namespace xtest::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Verdict characters per kChunk event.  Part of the replay contract: a
/// restarted daemon re-synthesizes a finished job's event stream with the
/// SAME sequence numbering only because this is a constant.
constexpr std::size_t kChunkChars = 512;

/// Job-level retry: attempts granted after the first to a job whose
/// supervisor run throws.  Quarantine is NOT a failure -- it completes
/// the job degraded.
constexpr std::size_t kJobRetries = 2;
/// Initial job retry backoff; doubles per failure, capped at 5 s, and
/// interrupted promptly by cancellation.
constexpr std::uint64_t kJobBackoffMs = 100;
/// Send-buffer cap per connection (the backpressure threshold).
constexpr std::size_t kSendBufferCap = 256 * 1024;

/// The scenario a served job runs: workers are forced before validation,
/// so a scenario the supervisor cannot run (a sharded one) is refused at
/// submit instead of failing later.  Every served job runs crash-isolated:
/// the daemon must survive anything a campaign does.
spec::ScenarioSpec served_scenario(const std::string& text) {
  spec::ScenarioSpec s = spec::parse_scenario(text);
  if (s.workers == 0) s.workers = 2;
  s.validate();
  return s;
}

struct Event {
  std::uint32_t seq = 0;
  EventKind kind = EventKind::kProgress;
  std::string text;
};

/// Per-job durable event history plus the live transient progress counter.
struct JobStream {
  std::vector<Event> events;  ///< durable, seq = index + 1
  std::size_t progress = 0;   ///< total worker heartbeats so far
};

/// What one connection still owes about one job.
struct Subscription {
  std::uint32_t next = 1;       ///< first durable event seq not yet sent
  std::size_t progress_sent = 0;
};

struct Conn {
  int fd = -1;
  FrameDecoder dec;
  std::string outbuf;
  std::map<std::uint64_t, Subscription> subs;
  /// Submit-seq -> cached encoded kSubmitAck, so a retransmitted Submit
  /// (ack lost, client resent) is answered without enqueueing twice.
  std::map<std::uint32_t, std::string> submit_acks;
  Clock::time_point last_activity = Clock::now();
  bool dead = false;
};

std::string event_payload(std::uint64_t job, std::uint32_t seq, EventKind kind,
                          const std::string& text) {
  std::string p;
  put_u64(p, job);
  put_u32(p, seq);
  p.push_back(char(static_cast<std::uint8_t>(kind)));
  p += text;
  return p;
}

/// The live ServerStats: the poll loop and the runner thread bump them
/// while any thread may take a snapshot.  Each counter is an independent
/// tally that publishes no other memory, so relaxed order suffices.
struct LiveStats {
  std::atomic<std::size_t> connections_accepted{0};
  std::atomic<std::size_t> connections_dropped{0};
  std::atomic<std::size_t> frames_rejected{0};
  std::atomic<std::size_t> idle_reaped{0};
  std::atomic<std::size_t> jobs_completed{0};
  std::atomic<std::size_t> jobs_failed{0};
  std::atomic<std::size_t> jobs_degraded{0};
  std::atomic<std::size_t> job_retries{0};
  std::atomic<std::size_t> events_streamed{0};
};

void bump(std::atomic<std::size_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

struct Server::Impl {
  explicit Impl(const ServerOptions& opt) : opt(opt), queue(opt.queue_path) {}

  const ServerOptions& opt;
  LiveStats stats;

  int listen_fd = -1;
  util::Pipe wake;  ///< runner -> poll loop
  std::vector<std::unique_ptr<Conn>> conns;

  // Shared between the poll loop and the runner thread.
  std::mutex mu;
  std::condition_variable cv;
  JobQueue queue;
  std::map<std::uint64_t, JobStream> streams;
  bool runner_stop = false;  ///< under mu
  std::atomic<bool> run_cancel{false};  ///< cancels the in-flight supervisor
  std::atomic<bool> runner_done{false};
  std::thread runner;

  bool shutdown_requested = false;  ///< poll-loop only (client kShutdown)
  bool draining = false;

  // --- small helpers -------------------------------------------------------

  void logln(const std::string& line) {
    if (opt.log != nullptr) *opt.log << "serve: " << line << '\n';
  }

  bool cancelled() const {
    return (opt.cancel != nullptr &&
            opt.cancel->load(std::memory_order_relaxed)) ||
           shutdown_requested;
  }

  void wake_poll() {
    const char b = '!';
    // Nonblocking; a full pipe already means a wakeup is pending.
    (void)util::retry_eintr([&] { return ::write(wake.write_fd, &b, 1); });
  }

  std::string job_checkpoint_base(std::uint64_t id) const {
    if (!opt.queue_path.empty())
      return opt.queue_path + ".job" + std::to_string(id) + ".ckpt";
    return (std::filesystem::temp_directory_path() /
            ("xtest_serve_" + std::to_string(static_cast<long>(::getpid())) +
             "_job" + std::to_string(id) + ".ckpt"))
        .string();
  }

  void persist_quietly() {
    try {
      queue.persist();
    } catch (const std::exception& e) {
      // Losing durability must not kill the daemon mid-drain; the queue
      // state is still correct in memory and the next persist retries.
      logln(std::string("warning: queue persist failed: ") + e.what());
    }
  }

  // --- job event posting (runner thread, under mu) -------------------------

  /// Appends the durable completion events for a finished job.  Also used
  /// by the poll thread to lazily rebuild the stream of a job that
  /// finished in a previous daemon incarnation -- the constant chunking
  /// makes the regenerated sequence numbers identical.
  void post_completion_events_locked(const Job& j) {
    JobStream& st = streams[j.id];
    for (std::size_t off = 0; off < j.verdicts.size(); off += kChunkChars) {
      Event e;
      e.seq = static_cast<std::uint32_t>(st.events.size() + 1);
      e.kind = EventKind::kChunk;
      e.text = std::to_string(off) + ' ' +
               j.verdicts.substr(off, kChunkChars);
      st.events.push_back(std::move(e));
    }
    Event done;
    done.seq = static_cast<std::uint32_t>(st.events.size() + 1);
    done.kind = EventKind::kDone;
    done.text = std::to_string(j.exit_code) + ' ' + (j.degraded ? "1" : "0") +
                ' ' + std::to_string(j.verdicts.size()) + '\n' +
                (j.state == JobState::kFailed ? j.error : j.stats_json);
    st.events.push_back(std::move(done));
  }

  // --- runner thread -------------------------------------------------------

  void runner_loop() {
    for (;;) {
      Job job_copy;
      {
        std::unique_lock<std::mutex> lk(mu);
        for (;;) {
          if (runner_stop) {
            runner_done.store(true);
            wake_poll();
            return;
          }
          Job* j = queue.next_queued();
          if (j != nullptr) {
            j->state = JobState::kRunning;
            ++j->attempts;
            job_copy = *j;
            break;
          }
          cv.wait_for(lk, std::chrono::milliseconds(50));
        }
        persist_quietly();
      }
      run_one(job_copy);
    }
  }

  void run_one(const Job& job) {
    try {
      const sim::SupervisorResult r = run_supervised(job);
      std::string verdicts;
      verdicts.reserve(r.verdicts.size());
      for (const sim::Verdict v : r.verdicts) verdicts.push_back(sim::to_char(v));
      {
        std::lock_guard<std::mutex> lk(mu);
        Job* j = queue.find(job.id);
        if (j == nullptr) return;
        j->state = JobState::kDone;
        j->verdicts = std::move(verdicts);
        j->stats_json = r.stats.json("campaign");
        j->degraded = r.degraded();
        j->exit_code = r.degraded() ? 6 : 0;
        persist_quietly();
        post_completion_events_locked(*j);
        bump(stats.jobs_completed);
        if (j->degraded) bump(stats.jobs_degraded);
      }
      wake_poll();
      cleanup_job_files(job, /*keep_checkpoints=*/false);
    } catch (const sim::CampaignInterrupted&) {
      // Drain: the workers flushed their checkpoints; hand the job back.
      std::lock_guard<std::mutex> lk(mu);
      Job* j = queue.find(job.id);
      if (j != nullptr && j->state == JobState::kRunning)
        j->state = JobState::kQueued;
      persist_quietly();
      cleanup_job_files(job, /*keep_checkpoints=*/true);
    } catch (const std::exception& e) {
      bool retry = false;
      {
        std::lock_guard<std::mutex> lk(mu);
        Job* j = queue.find(job.id);
        if (j == nullptr) return;
        if (j->attempts <= kJobRetries) {
          j->state = JobState::kQueued;
          retry = true;
          bump(stats.job_retries);
          logln("job " + std::to_string(job.id) + " attempt " +
                std::to_string(j->attempts) + " failed (" + e.what() +
                "), retrying");
        } else {
          j->state = JobState::kFailed;
          j->exit_code = 4;
          j->error = e.what();
          post_completion_events_locked(*j);
          bump(stats.jobs_failed);
          logln("job " + std::to_string(job.id) + " failed permanently: " +
                e.what());
        }
        persist_quietly();
      }
      wake_poll();
      cleanup_job_files(job, /*keep_checkpoints=*/retry);
      if (retry) backoff_wait(job.attempts);
    }
  }

  /// Exponential job-level backoff, interrupted promptly by cancellation.
  void backoff_wait(std::size_t attempt) {
    std::uint64_t ms = kJobBackoffMs;
    for (std::size_t i = 1; i < attempt; ++i) ms = std::min<std::uint64_t>(ms * 2, 5000);
    const Clock::time_point until = Clock::now() + std::chrono::milliseconds(ms);
    while (Clock::now() < until) {
      if (run_cancel.load(std::memory_order_relaxed)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  sim::SupervisorResult run_supervised(const Job& job) {
    const spec::ScenarioSpec s = served_scenario(job.scenario);
    const sim::SupervisorJob sup_job = spec::make_supervisor_job(
        s, job_checkpoint_base(job.id), opt.fault_spec);

    sim::SupervisorOptions sup;
    sup.workers = s.workers;
    sup.cancel = &run_cancel;
    sup.log = opt.log;
    const std::uint64_t id = job.id;
    sup.on_progress = [this, id](std::size_t beats) {
      {
        std::lock_guard<std::mutex> lk(mu);
        streams[id].progress += beats;
      }
      wake_poll();
    };
    return sim::Supervisor(sup_job, sup).run();
  }

  void cleanup_job_files(const Job& job, bool keep_checkpoints) {
    const std::string base = job_checkpoint_base(job.id);
    std::remove((base + ".job.scn").c_str());
    if (keep_checkpoints) return;
    // The shard count is a pure function of the queued scenario text; a
    // scenario that does not parse never got as far as a shard.
    std::size_t workers = 0;
    try {
      workers = served_scenario(job.scenario).workers;
    } catch (const std::exception&) {
    }
    sim::Supervisor::remove_shard_checkpoints(base, workers);
  }

  // --- poll loop -----------------------------------------------------------

  void append_frame(Conn& c, const Frame& f) {
    c.outbuf += encode_frame(f);
  }

  void drop_conn(Conn& c, const char* why) {
    if (c.dead) return;
    c.dead = true;
    bump(stats.connections_dropped);
    logln(std::string("dropping connection: ") + why);
  }

  void handle_frame(Conn& c, Frame&& f) {
    switch (f.type) {
      case FrameType::kHello: {
        Frame r;
        r.type = FrameType::kHelloAck;
        r.seq = f.seq;
        r.payload = "xtest-serve 1";
        append_frame(c, r);
        break;
      }
      case FrameType::kSubmit:
        handle_submit(c, f);
        break;
      case FrameType::kResume:
        handle_resume(c, f);
        break;
      case FrameType::kAck:
        break;  // activity refresh happened at read time
      case FrameType::kPing: {
        Frame r;
        r.type = FrameType::kPong;
        r.seq = f.seq;
        append_frame(c, r);
        break;
      }
      case FrameType::kStatus: {
        Frame r;
        r.type = FrameType::kStatusReply;
        r.seq = f.seq;
        r.payload = render_status();
        append_frame(c, r);
        break;
      }
      case FrameType::kShutdown:
        logln("shutdown requested by client");
        shutdown_requested = true;
        break;
      default:
        // Server-to-client types arriving here are harmless noise from a
        // confused-but-well-framed peer; ignore rather than escalate.
        break;
    }
  }

  void send_error(Conn& c, std::uint32_t seq, const std::string& text) {
    Frame e;
    e.type = FrameType::kError;
    e.seq = seq;
    e.payload = text;
    append_frame(c, e);
  }

  void handle_submit(Conn& c, const Frame& f) {
    if (f.seq != 0) {
      const auto it = c.submit_acks.find(f.seq);
      if (it != c.submit_acks.end()) {
        // Retransmit of a submit we already accepted: replay the ack.
        c.outbuf += it->second;
        return;
      }
    }
    if (f.payload.empty()) {
      send_error(c, f.seq, "submit: empty payload");
      return;
    }
    const int priority = static_cast<std::uint8_t>(f.payload[0]);
    const std::string scenario = f.payload.substr(1);
    try {
      served_scenario(scenario);
    } catch (const std::exception& e) {
      send_error(c, f.seq, std::string("submit: ") + e.what());
      return;
    }
    std::uint64_t id = 0;
    try {
      std::lock_guard<std::mutex> lk(mu);
      id = queue.enqueue(scenario, priority);
    } catch (const std::exception& e) {
      // serve.enqueue / disk failure: the job was rolled back, tell the
      // client so it can retry against a healthier daemon.
      send_error(c, f.seq, std::string("submit: enqueue failed: ") + e.what());
      return;
    }
    cv.notify_all();
    Frame ack;
    ack.type = FrameType::kSubmitAck;
    put_u32(ack.payload, f.seq);
    put_u64(ack.payload, id);
    const std::string encoded = encode_frame(ack);
    if (f.seq != 0) c.submit_acks[f.seq] = encoded;
    c.outbuf += encoded;
    // The submitter implicitly follows its own job.
    c.subs.emplace(id, Subscription{});
    logln("job " + std::to_string(id) + " queued (priority " +
          std::to_string(priority) + ")");
  }

  void handle_resume(Conn& c, const Frame& f) {
    std::size_t pos = 0;
    std::uint64_t id = 0;
    std::uint32_t last = 0;
    if (!get_u64(f.payload, pos, id) || !get_u32(f.payload, pos, last)) {
      send_error(c, f.seq, "resume: short payload");
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      Job* j = queue.find(id);
      if (j == nullptr) {
        send_error(c, f.seq, "resume: unknown job " + std::to_string(id));
        return;
      }
      // A job that finished in a previous daemon incarnation has no live
      // stream yet; rebuild it so replay works across restarts.
      if ((j->state == JobState::kDone || j->state == JobState::kFailed) &&
          streams[id].events.empty())
        post_completion_events_locked(*j);
    }
    Subscription sub;
    sub.next = last + 1;
    c.subs[id] = sub;
  }

  std::string render_status() {
    std::ostringstream os;
    std::lock_guard<std::mutex> lk(mu);
    for (const Job& j : queue.jobs())
      os << "job " << j.id << " prio=" << j.priority << " state="
         << to_string(j.state) << " attempts=" << j.attempts << " exit="
         << j.exit_code << " verdicts=" << j.verdicts.size() << '\n';
    return os.str();
  }

  /// Pulls pending durable events (and at most one fresh progress tick)
  /// into every connection's bounded send buffer.  This is the
  /// backpressure point: a laggard whose buffer is full simply stops
  /// consuming history here and resumes when its buffer drains.
  void fill_send_buffers() {
    std::lock_guard<std::mutex> lk(mu);
    for (auto& cp : conns) {
      Conn& c = *cp;
      if (c.dead) continue;
      for (auto& [id, sub] : c.subs) {
        const auto it = streams.find(id);
        if (it == streams.end()) continue;
        JobStream& st = it->second;
        while (sub.next <= st.events.size() &&
               c.outbuf.size() < kSendBufferCap) {
          const Event& e = st.events[sub.next - 1];
          Frame f;
          f.type = FrameType::kEvent;
          f.payload = event_payload(id, e.seq, e.kind, e.text);
          append_frame(c, f);
          ++sub.next;
          bump(stats.events_streamed);
        }
        if (sub.progress_sent != st.progress &&
            c.outbuf.size() < kSendBufferCap &&
            sub.next > st.events.size()) {
          Frame f;
          f.type = FrameType::kEvent;
          f.payload = event_payload(id, 0, EventKind::kProgress,
                                    std::to_string(st.progress));
          append_frame(c, f);
          sub.progress_sent = st.progress;
        }
      }
    }
  }

  void read_conn(Conn& c) {
    util::FaultInjector& inj = util::FaultInjector::global();
    char buf[4096];
    for (;;) {
      if (inj.fire("serve.read")) {
        drop_conn(c, "injected read fault");
        return;
      }
      const ssize_t n =
          util::retry_eintr([&] { return ::read(c.fd, buf, sizeof buf); });
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        drop_conn(c, "read error");
        return;
      }
      if (n == 0) {
        drop_conn(c, "peer closed");
        return;
      }
      c.last_activity = Clock::now();
      if (!c.dec.feed(buf, static_cast<std::size_t>(n))) {
        // Protocol violation: reject the stream, never the process.
        bump(stats.frames_rejected);
        send_error(c, 0, std::string("protocol error: ") +
                             to_string(c.dec.error()));
        flush_conn(c);  // best effort before the drop
        drop_conn(c, to_string(c.dec.error()));
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) break;
    }
    while (auto f = c.dec.next()) handle_frame(c, std::move(*f));
  }

  void flush_conn(Conn& c) {
    if (c.dead || c.outbuf.empty()) return;
    util::FaultInjector& inj = util::FaultInjector::global();
    if (inj.fire("serve.write")) {
      drop_conn(c, "injected write fault");
      return;
    }
    // MSG_NOSIGNAL: a peer that vanished mid-stream must surface as EPIPE
    // (drop this conn), never as a process-killing SIGPIPE.
    const ssize_t n = util::retry_eintr([&] {
      return ::send(c.fd, c.outbuf.data(), c.outbuf.size(), MSG_NOSIGNAL);
    });
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      drop_conn(c, "write error");
      return;
    }
    c.outbuf.erase(0, static_cast<std::size_t>(n));
    c.last_activity = Clock::now();
  }

  void accept_pending() {
    util::FaultInjector& inj = util::FaultInjector::global();
    for (;;) {
      const int fd = util::accept_connection(listen_fd);
      if (fd < 0) return;
      bump(stats.connections_accepted);
      if (inj.fire("serve.accept")) {
        ::close(fd);
        bump(stats.connections_dropped);
        continue;
      }
      util::set_nonblocking(fd);
      auto c = std::make_unique<Conn>();
      c->fd = fd;
      conns.push_back(std::move(c));
    }
  }

  void reap_idle() {
    const Clock::time_point now = Clock::now();
    for (auto& cp : conns) {
      if (cp->dead) continue;
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                            now - cp->last_activity)
                            .count();
      if (idle >= 0 &&
          static_cast<std::uint64_t>(idle) > opt.idle_timeout_ms) {
        bump(stats.idle_reaped);
        drop_conn(*cp, "idle deadline");
      }
    }
  }

  void close_dead() {
    for (auto& cp : conns)
      if (cp->dead && cp->fd >= 0) util::close_fd(cp->fd);
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& c) {
                                 return c->dead;
                               }),
                conns.end());
  }

  void begin_drain() {
    draining = true;
    logln("draining: closing listener, cancelling running job");
    util::close_fd(listen_fd);
    run_cancel.store(true);
    {
      std::lock_guard<std::mutex> lk(mu);
      runner_stop = true;
    }
    cv.notify_all();
    Frame bye;
    bye.type = FrameType::kShutdown;
    bye.payload = "draining";
    for (auto& cp : conns)
      if (!cp->dead) append_frame(*cp, bye);
  }
};

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)), impl_(new Impl(opt_)) {}

Server::~Server() {
  if (impl_ != nullptr) {
    if (impl_->runner.joinable()) {
      {
        std::lock_guard<std::mutex> lk(impl_->mu);
        impl_->runner_stop = true;
      }
      impl_->run_cancel.store(true);
      impl_->cv.notify_all();
      impl_->runner.join();
    }
    util::close_fd(impl_->listen_fd);
    util::close_fd(impl_->wake.read_fd);
    util::close_fd(impl_->wake.write_fd);
    for (auto& c : impl_->conns) util::close_fd(c->fd);
    delete impl_;
  }
}

ServerStats Server::stats() const {
  const LiveStats& s = impl_->stats;
  const auto get = [](const std::atomic<std::size_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  return {.connections_accepted = get(s.connections_accepted),
          .connections_dropped = get(s.connections_dropped),
          .frames_rejected = get(s.frames_rejected),
          .idle_reaped = get(s.idle_reaped),
          .jobs_completed = get(s.jobs_completed),
          .jobs_failed = get(s.jobs_failed),
          .jobs_degraded = get(s.jobs_degraded),
          .job_retries = get(s.job_retries),
          .events_streamed = get(s.events_streamed)};
}

void Server::start() {
  if (!opt_.socket_path.empty()) {
    impl_->listen_fd = util::listen_unix(opt_.socket_path);
  } else {
    impl_->listen_fd = util::listen_tcp(opt_.tcp_port, &bound_port_);
  }
  util::set_nonblocking(impl_->listen_fd);
  impl_->wake = util::make_pipe();
  util::set_nonblocking(impl_->wake.read_fd);
  util::set_nonblocking(impl_->wake.write_fd);
  const std::size_t recovered = impl_->queue.load();
  if (recovered > 0)
    impl_->logln("recovered " + std::to_string(recovered) +
                 " job(s) from " + opt_.queue_path +
                 (impl_->queue.salvage_dropped() > 0
                      ? " (" + std::to_string(impl_->queue.salvage_dropped()) +
                            " torn record(s) dropped)"
                      : ""));
  impl_->runner = std::thread([this] { impl_->runner_loop(); });
}

std::size_t Server::run() {
  Impl& im = *impl_;
  const Clock::time_point start = Clock::now();
  Clock::time_point drain_deadline{};
  for (;;) {
    if (!im.draining && im.cancelled()) {
      im.begin_drain();
      drain_deadline = Clock::now() + std::chrono::seconds(10);
    }
    if (im.draining) {
      bool flushed = true;
      for (const auto& c : im.conns)
        if (!c->dead && !c->outbuf.empty()) flushed = false;
      if ((im.runner_done.load() && flushed) || Clock::now() > drain_deadline)
        break;
    }

    std::vector<pollfd> fds;
    fds.reserve(im.conns.size() + 2);
    std::size_t listen_slot = SIZE_MAX, wake_slot = SIZE_MAX;
    if (im.listen_fd >= 0) {
      listen_slot = fds.size();
      fds.push_back({im.listen_fd, POLLIN, 0});
    }
    wake_slot = fds.size();
    fds.push_back({im.wake.read_fd, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    for (const auto& c : im.conns) {
      short ev = POLLIN;
      if (!c->outbuf.empty()) ev |= POLLOUT;
      fds.push_back({c->fd, ev, 0});
    }

    const int rc = util::retry_eintr(
        [&] { return ::poll(fds.data(), nfds_t(fds.size()), 100); });
    if (rc < 0) {
      im.logln(std::string("poll failed: ") + std::strerror(errno));
      break;
    }

    if (listen_slot != SIZE_MAX && (fds[listen_slot].revents & POLLIN) != 0)
      im.accept_pending();
    if ((fds[wake_slot].revents & POLLIN) != 0) {
      char buf[64];
      while (util::retry_eintr(
                 [&] { return ::read(im.wake.read_fd, buf, sizeof buf); }) > 0)
        ;
    }
    // accept_pending() above may have appended fresh conns that have no
    // pollfd entry this cycle; only walk the ones that were polled.
    const std::size_t polled_conns = fds.size() - conn_base;
    for (std::size_t i = 0; i < polled_conns; ++i) {
      Conn& c = *im.conns[i];
      const short rev = fds[conn_base + i].revents;
      if ((rev & (POLLERR | POLLNVAL)) != 0) {
        im.drop_conn(c, "poll error");
        continue;
      }
      if ((rev & POLLIN) != 0) im.read_conn(c);
      // POLLHUP can accompany final readable bytes; read_conn above saw
      // EOF if the peer is truly gone.
      if (!c.dead && (rev & POLLOUT) != 0) im.flush_conn(c);
    }

    im.fill_send_buffers();
    // New frames queued by handle_frame/fill are flushed opportunistically
    // so a responsive client never waits a poll cycle for its ack.
    for (auto& c : im.conns)
      if (!c->dead && !c->outbuf.empty()) im.flush_conn(*c);
    if (!im.draining) im.reap_idle();
    im.close_dead();
  }

  // Final teardown: runner joined by the caller via destructor or here.
  {
    std::lock_guard<std::mutex> lk(im.mu);
    im.runner_stop = true;
  }
  im.run_cancel.store(true);
  im.cv.notify_all();
  if (im.runner.joinable()) im.runner.join();
  {
    std::lock_guard<std::mutex> lk(im.mu);
    im.persist_quietly();
  }
  for (auto& c : im.conns) {
    im.flush_conn(*c);
    util::close_fd(c->fd);
  }
  im.conns.clear();
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::lock_guard<std::mutex> lk(im.mu);
  im.logln("drained (up " + std::to_string(secs) + "s); " +
           std::to_string(im.queue.pending()) + " job(s) pending");
  return im.queue.pending();
}

}  // namespace xtest::serve
