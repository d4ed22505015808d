// Benchmark driver: one cold run per process.
//
//   perfbench_driver campaign SCENARIO [--trace SPANS] [--request N]
//   perfbench_driver serve-jobs --dir DIR [--trace SPANS] JOB.scn...
//
// `campaign` runs the same library calls `xtest campaign` makes for the
// scenario (parse, make_library, make_sessions, one campaign entry point)
// and prints one JSON line with the timestamps and the verdict summary.
// `serve-jobs` starts an `xtest serve` daemon on a Unix socket in DIR and
// drives it in a closed loop from one in-process serve::Client: the next
// job is submitted only after the previous one is done.
//
// With --trace the driver records spans around every call it makes into a
// module, keeps them in memory and writes them to SPANS at exit, and then
// runs the per-layer probes (gold runs, a fixed sample of defect runs, and
// on serve-jobs a supervised job, its in-process twin and a checkpoint
// flush).  The probes run after the timed part and only call public
// functions: make_library, make_sessions, System, run_and_capture, the
// campaign entry points, Supervisor, CampaignCheckpoint and serve::Client.
//
// Timestamps are CLOCK_MONOTONIC nanoseconds (std::chrono::steady_clock),
// the clock perfbench/run.py reads, so both sides share one timeline.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fcntl.h>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "serve/client.h"
#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "sim/online.h"
#include "sim/signature.h"
#include "sim/supervisor.h"
#include "spec/scenario.h"
#include "util/net.h"
#include "util/subprocess.h"

namespace {

using namespace xtest;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double secs(std::int64_t from, std::int64_t to) { return (to - from) * 1e-9; }

// --- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  long request = 0;
};

/// In-memory span recorder; a no-op unless enabled.
class Trace {
 public:
  bool enabled = false;
  long request = 0;

  int open(const std::string& name) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, mono_ns(), 0, parent, request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[idx].end = mono_ns();
    stack_.pop_back();
  }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one scope; records a span when tracing is on.
class Scope {
 public:
  Scope(Trace& t, const std::string& name)
      : t_(t), idx_(t.open(name)), start_(mono_ns()) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Closes the span early and returns its length in seconds.
  double stop() {
    if (!done_) {
      end_ = mono_ns();
      t_.close(idx_);
      done_ = true;
    }
    return secs(start_, end_);
  }

 private:
  Trace& t_;
  int idx_;
  std::int64_t start_;
  std::int64_t end_ = 0;
  bool done_ = false;
};

// --- small helpers -----------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Peak resident set of a process in KiB (VmHWM), 0 when unreadable.
long peak_rss_kib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  return 0;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Appends `"key":value` pairs to a JSON object under construction.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& num(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& raw(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_.append("\"").append(key).append("\":").append(v);
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

const xtalk::RcNetwork& nominal_net(const soc::System& sys, soc::BusKind b) {
  switch (b) {
    case soc::BusKind::kAddress: return sys.nominal_address_network();
    case soc::BusKind::kData: return sys.nominal_data_network();
    case soc::BusKind::kControl: return sys.nominal_control_network();
  }
  return sys.nominal_address_network();
}

void set_network(soc::System& sys, soc::BusKind b, xtalk::RcNetwork net) {
  switch (b) {
    case soc::BusKind::kAddress: sys.set_address_network(std::move(net)); break;
    case soc::BusKind::kData: sys.set_data_network(std::move(net)); break;
    case soc::BusKind::kControl: sys.set_control_network(std::move(net)); break;
  }
}

std::string verdict_string(const std::vector<sim::Verdict>& v) {
  std::string s;
  s.reserve(v.size());
  for (const sim::Verdict x : v) s.push_back(sim::to_char(x));
  return s;
}

/// Verdict counts plus an FNV-1a digest of the UDTE string.
void add_verdict_summary(Json& j, const std::string& udte) {
  std::vector<sim::Verdict> v;
  for (const char c : udte) {
    sim::Verdict x;
    if (sim::verdict_from_char(c, x)) v.push_back(x);
  }
  const sim::VerdictCounts c = sim::count_verdicts(v);
  char digest[20];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(udte)));
  j.num("detected", std::uint64_t{c.detected})
      .num("timeout", std::uint64_t{c.detected_by_timeout})
      .num("undetected", std::uint64_t{c.undetected})
      .num("sim_errors", std::uint64_t{c.sim_errors})
      .str("verdict_digest", digest);
}

/// What the result must record about the build that produced it.
void add_env(Json& j) {
  j.str("build_type", util::build_type())
      .str("compiler", __VERSION__)
      .num("hardware_concurrency",
           std::uint64_t{std::thread::hardware_concurrency()});
}

// --- campaign --------------------------------------------------------------

constexpr std::size_t kProbeSlots = 48;

/// Per-layer probes after the campaign: gold run per session, then a fixed
/// sample of (defect, session) slots, each timed as network set (apply +
/// set_*_network) and defect run (run_and_capture).
void probe_layers(Trace& trace, const spec::ScenarioSpec& s,
                  const xtalk::DefectLibrary& lib,
                  const std::vector<sbst::GenerationResult>& sessions,
                  Json& j) {
  const Scope all(trace, "bench.probes");
  std::vector<std::size_t> live;
  std::vector<std::uint64_t> budget(sessions.size(), 0);
  std::vector<std::unique_ptr<soc::System>> systems;
  double gold_s = 0.0;
  std::uint64_t gold_cycles = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    systems.push_back(std::make_unique<soc::System>(s.system));
    if (sessions[i].program.tests.empty()) continue;
    live.push_back(i);
    Scope gold(trace, "sim.gold_run");
    const sim::ResponseSnapshot snap =
        sim::run_and_capture(*systems[i], sessions[i].program, 1'000'000);
    gold_s += gold.stop();
    gold_cycles += snap.cycles;
    budget[i] = snap.cycles * s.cycle_factor + 1000;
  }
  std::vector<double> set_us, run_us;
  double run_s = 0.0;
  std::uint64_t cycles = 0;
  for (std::size_t k = 0; k < kProbeSlots && !live.empty() && lib.size() > 0;
       ++k) {
    const std::size_t d = k * lib.size() / kProbeSlots;
    const std::size_t si = live[k % live.size()];
    soc::System& sys = *systems[si];
    {
      Scope t(trace, "soc.network_set");
      set_network(sys, s.bus, lib[d].apply(nominal_net(sys, s.bus)));
      set_us.push_back(t.stop() * 1e6);
    }
    Scope t(trace, "soc.defect_run");
    const sim::ResponseSnapshot snap =
        sim::run_and_capture(sys, sessions[si].program, budget[si]);
    const double dt = t.stop();
    run_us.push_back(dt * 1e6);
    run_s += dt;
    cycles += snap.cycles;
    sys.clear_defects();
  }
  j.num("gold_s", gold_s)
      .num("gold_cycles", gold_cycles)
      .num("network_set_us", median(set_us))
      .num("defect_run_us", median(run_us))
      .num("sample_cycles", cycles)
      .num("ns_per_cycle", cycles > 0 ? run_s * 1e9 / cycles : 0.0);
}

/// Parse, library, sessions, campaign: the calls `xtest campaign` makes.
/// Returns the verdict string; fills `j` with timings and counters.
std::string run_campaign(Trace& trace, const std::string& text, bool probe,
                         Json& j) {
  const Scope root(trace, "driver.campaign");
  spec::ScenarioSpec s;
  {
    const Scope t(trace, "spec.parse");
    s = spec::parse_scenario(text);
    s.validate();
  }
  Scope lib_scope(trace, "xtalk.make_library");
  const xtalk::DefectLibrary lib = s.make_library();
  const double library_s = lib_scope.stop();
  Scope sess_scope(trace, "sbst.make_sessions");
  const std::vector<sbst::GenerationResult> sessions = s.make_sessions();
  const double program_s = sess_scope.stop();

  util::CampaignStats stats;
  const sim::CampaignOptions opts = s.campaign_options(&stats);
  const std::int64_t campaign_ns = mono_ns();
  std::vector<sim::Verdict> verdicts;
  std::uint64_t latency_sum = 0;
  {
    const Scope t(trace, "sim.campaign");
    if (s.online.enabled) {
      const sim::OnlineResult r = sim::run_online_detection_sessions(
          s.system, s.online, sessions, s.bus, lib, opts);
      verdicts = r.verdicts;
      for (const sim::OnlineOutcome& o : r.outcomes)
        latency_sum += o.detection_latency_cycles;
    } else {
      verdicts =
          sim::run_detection_sessions(s.system, sessions, s.bus, lib, opts);
    }
  }
  const std::int64_t end_ns = mono_ns();

  std::size_t live = 0, placed = 0;
  for (const sbst::GenerationResult& g : sessions) {
    live += g.program.tests.empty() ? 0 : 1;
    placed += g.program.tests.size();
  }
  const std::string udte = verdict_string(verdicts);
  j.num("campaign_ns", static_cast<std::uint64_t>(campaign_ns))
      .num("end_ns", static_cast<std::uint64_t>(end_ns))
      .num("campaign_s", secs(campaign_ns, end_ns))
      .num("library_s", library_s)
      .num("program_s", program_s)
      .num("defects", std::uint64_t{lib.size()})
      .num("candidates", std::uint64_t{lib.attempts()})
      .num("sessions", std::uint64_t{live})
      .num("tests_placed", std::uint64_t{placed})
      .num("coverage", sim::coverage(verdicts))
      .num("simulated_cycles", stats.simulated_cycles)
      .num("latency_sum", latency_sum)
      .num("slots", std::uint64_t{stats.defects_simulated})
      .num("screened", std::uint64_t{stats.batch_screened})
      .num("batch_lanes", std::uint64_t{stats.batch_lanes})
      .num("run_reuses", std::uint64_t{stats.run_reuses})
      .num("gold_reuses", std::uint64_t{stats.gold_reuses})
      .num("cache_hit_ratio", stats.cache_hit_rate())
      .num("stats_sim_errors", std::uint64_t{stats.sim_errors})
      .num("retries", std::uint64_t{stats.retries})
      .num("threads", std::uint64_t{stats.threads})
      .num("online_rounds", stats.online_rounds)
      .num("online_latency_samples",
           std::uint64_t{stats.online_latency_samples})
      .num("online_latency_cycles", stats.online_detection_latency_cycles)
      .num("online_deadlines_missed", stats.online_deadlines_missed)
      .num("peak_rss_kib", std::uint64_t(peak_rss_kib("self")));
  add_verdict_summary(j, udte);
  if (probe) probe_layers(trace, s, lib, sessions, j);
  return udte;
}

// --- serve-jobs ------------------------------------------------------------

/// Stops the daemon: graceful shutdown request, SIGKILL after 20 s.
int stop_daemon(util::ChildProcess& daemon, serve::Client* client) {
  if (client != nullptr) {
    try {
      client->request_shutdown();
    } catch (const std::exception&) {
    }
  }
  daemon.kill(SIGTERM);
  const std::int64_t deadline = mono_ns() + 20'000'000'000;
  while (daemon.poll_status().running() && mono_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (daemon.poll_status().running()) daemon.kill(SIGKILL);
  const util::ExitStatus st = daemon.wait();
  return st.exited ? st.code : 128 + st.sig;
}

/// The supervised half of supervisor_overhead_s: the job as the daemon
/// runs it, through sim::Supervisor with worker processes.
std::string run_supervised(Trace& trace, const spec::ScenarioSpec& s,
                           const std::string& dir, Json& j) {
  const Scope t(trace, "sim.supervised_job");
  const xtalk::DefectLibrary lib = s.make_library();
  const std::vector<sbst::GenerationResult> sessions = s.make_sessions();
  sim::SupervisorJob job;
  job.binary = PERFBENCH_XTEST_BINARY;
  job.defect_count = lib.size();
  for (std::size_t i = 0; i < sessions.size(); ++i)
    if (!sessions[i].program.tests.empty())
      job.sections.push_back("session" + std::to_string(i));
  job.checkpoint_key = sim::default_checkpoint_key(s.bus, lib);
  job.checkpoint_base = dir + "/probe.ckpt";
  spec::ScenarioSpec worker_spec = s;
  worker_spec.workers = 0;
  job.scenario_path = job.checkpoint_base + ".job.scn";
  std::ofstream(job.scenario_path) << spec::serialize_scenario(worker_spec);
  sim::SupervisorOptions opt;
  opt.workers = s.workers;
  const sim::SupervisorResult r = sim::Supervisor(job, opt).run();
  std::remove(job.scenario_path.c_str());
  for (std::size_t k = 0; k < s.workers; ++k)
    std::remove(sim::Supervisor::shard_checkpoint_path(job.checkpoint_base, k)
                    .c_str());
  std::size_t spawns = 0;
  for (const sim::ShardOutcome& o : r.shards) spawns += o.spawns;
  j.num("supervisor_spawns", std::uint64_t{spawns})
      .num("supervisor_heartbeats", std::uint64_t{r.heartbeats})
      .num("supervisor_degraded", std::uint64_t{r.degraded() ? 1u : 0u});
  return verdict_string(r.verdicts);
}

/// Median time of a full durable flush of one job's checkpoint state.
double checkpoint_flush_ms(Trace& trace, const spec::ScenarioSpec& s,
                           const std::string& udte, const std::string& dir) {
  const std::string path = dir + "/flush.ckpt";
  std::remove(path.c_str());
  std::vector<double> ms;
  {
    sim::CampaignCheckpoint ck(path, "perfbench", SIZE_MAX);
    for (int sec = 0; sec < s.max_sessions; ++sec) {
      const std::string section = "session" + std::to_string(sec);
      ck.restore(section, udte.size());
      for (std::size_t i = 0; i < udte.size(); ++i) {
        sim::Verdict v;
        if (sim::verdict_from_char(udte[i], v)) ck.record(section, i, v);
      }
    }
    for (int rep = 0; rep < 5; ++rep) {
      Scope t(trace, "sim.checkpoint_flush");
      ck.flush();
      ms.push_back(t.stop() * 1e3);
    }
  }
  std::remove(path.c_str());
  return median(ms);
}

int serve_jobs(Trace& trace, const std::string& dir,
               const std::vector<std::string>& job_files, bool probe) {
  std::vector<std::string> texts;
  for (const std::string& f : job_files) texts.push_back(read_file(f));

  const std::string sock = dir + "/d.sock";
  const std::string log = dir + "/daemon.log";
  const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  util::SpawnSpec spec;
  spec.argv = {PERFBENCH_XTEST_BINARY, "serve", "--socket", sock, "--queue",
               dir + "/queue"};
  spec.stdout_fd = log_fd;
  spec.stderr_fd = log_fd;
  Scope start(trace, "serve.daemon_start");
  const std::int64_t spawn_ns = mono_ns();
  util::ChildProcess daemon = util::ChildProcess::spawn(spec);
  ::close(log_fd);
  for (;;) {
    const int fd = util::connect_unix(sock);
    if (fd >= 0) {
      ::close(fd);
      break;
    }
    if (!daemon.poll_status().running() ||
        mono_ns() - spawn_ns > 30'000'000'000) {
      std::fprintf(stderr, "error: daemon did not come up (see %s)\n",
                   log.c_str());
      stop_daemon(daemon, nullptr);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::int64_t ready_ns = mono_ns();
  start.stop();

  serve::ClientOptions co;
  co.socket_path = sock;
  serve::Client client(co);
  std::string jobs = "[";
  std::size_t failed = 0;
  const std::int64_t stream_ns = mono_ns();
  for (std::size_t k = 0; k < texts.size(); ++k) {
    trace.request = static_cast<long>(k);
    Scope job_scope(trace, "serve.job");
    const std::int64_t t0 = mono_ns();
    std::uint64_t id = 0;
    {
      const Scope t(trace, "serve.submit");
      id = client.submit(texts[k]);
    }
    const std::int64_t ack = mono_ns();
    std::int64_t first = 0;
    serve::JobResult r;
    {
      const Scope t(trace, "serve.wait");
      r = client.wait(id, [&first](const serve::JobEvent&) {
        if (first == 0) first = mono_ns();
        return true;
      });
    }
    const std::int64_t done = mono_ns();
    job_scope.stop();
    const bool bad = r.failed || r.degraded || r.exit_code != 0;
    failed += bad ? 1 : 0;
    Json jj;
    jj.num("latency_s", secs(t0, done))
        .num("submit_ack_ms", secs(t0, ack) * 1e3)
        .num("first_event_s", secs(ack, first ? first : done))
        .num("job_s", secs(ack, done))
        .num("failed", std::uint64_t{bad ? 1u : 0u});
    add_verdict_summary(jj, r.verdicts);
    if (k > 0) jobs += ',';
    jobs += jj.done();
  }
  const std::int64_t stream_end = mono_ns();
  jobs += "]";
  const long daemon_rss = peak_rss_kib(std::to_string(daemon.pid()));
  const int daemon_exit = stop_daemon(daemon, &client);
  trace.request = 0;

  Json j;
  add_env(j.str("mode", "serve-jobs"));
  j.num("setup_s", secs(spawn_ns, ready_ns))
      .num("stream_s", secs(stream_ns, stream_end))
      .num("jobs_failed", std::uint64_t{failed})
      .num("daemon_exit", static_cast<std::uint64_t>(daemon_exit))
      .num("peak_rss_kib", static_cast<std::uint64_t>(daemon_rss))
      .raw("jobs", jobs);
  if (probe) {
    // The first job once more, in-process and then supervised; the
    // difference is what supervision costs one job.
    spec::ScenarioSpec s = spec::parse_scenario(texts.front());
    spec::ScenarioSpec inproc = s;
    inproc.workers = 0;
    inproc.threads = static_cast<unsigned>(
        std::max<std::size_t>(1, s.workers) * std::max(1u, s.threads));
    Json pj;
    const std::int64_t t0 = mono_ns();
    const std::string udte =
        run_campaign(trace, spec::serialize_scenario(inproc), true, pj);
    const std::int64_t t1 = mono_ns();
    const std::string sup_udte = run_supervised(trace, s, dir, j);
    const std::int64_t t2 = mono_ns();
    j.num("inprocess_s", secs(t0, t1))
        .num("supervised_s", secs(t1, t2))
        .num("supervised_matches", std::uint64_t{sup_udte == udte ? 1u : 0u})
        .num("checkpoint_flush_ms", checkpoint_flush_ms(trace, s, udte, dir))
        .raw("probe", pj.done());
  }
  std::printf("%s\n", j.done().c_str());
  return failed == 0 && daemon_exit == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver campaign SCENARIO [--trace SPANS] "
               "[--request N]\n"
               "       perfbench_driver serve-jobs --dir DIR [--trace SPANS] "
               "JOB.scn...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string trace_path, dir;
  std::vector<std::string> positional;
  Trace trace;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if ((a == "--trace" || a == "--request" || a == "--dir") && i + 1 < argc) {
      const std::string v = argv[++i];
      if (a == "--trace") trace_path = v;
      if (a == "--request") trace.request = std::atol(v.c_str());
      if (a == "--dir") dir = v;
    } else {
      positional.push_back(a);
    }
  }
  trace.enabled = !trace_path.empty();
  int rc = 0;
  try {
    if (mode == "campaign" && positional.size() == 1) {
      Json j;
      add_env(j.str("mode", "campaign"));
      run_campaign(trace, read_file(positional[0]), trace.enabled, j);
      std::printf("%s\n", j.done().c_str());
    } else if (mode == "serve-jobs" && !dir.empty() && !positional.empty()) {
      rc = serve_jobs(trace, dir, positional, trace.enabled);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (trace.enabled && !trace.write(trace_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
    rc = 1;
  }
  return rc;
}
