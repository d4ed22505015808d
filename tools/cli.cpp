#include "tools/cli.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <ostream>

#include "cpu/assembler.h"
#include "hwbist/bist.h"
#include "sbst/generator.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/campaign.h"
#include "sim/online.h"
#include "sim/serialize.h"
#include "sim/supervisor.h"
#include "sim/verify.h"
#include "soc/system.h"
#include "soc/waveform.h"
#include "spec/scenario.h"
#include "util/crc32.h"
#include "util/durable_file.h"
#include "util/fault_injector.h"
#include "util/number.h"
#include "util/parallel.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/subprocess.h"
#include "util/table.h"

namespace xtest::cli {

namespace {

// --- command/flag table ----------------------------------------------------
// One table drives BOTH the parser and usage(): a flag cannot exist in the
// parser without appearing in the synopsis or vice versa, so the two can
// never drift apart again.

struct FlagDef {
  const char* name;   ///< without the leading "--"
  const char* value;  ///< value placeholder ("N", "FILE", ...); nullptr = switch
};

struct CommandDef {
  const char* name;
  const char* positional;  ///< synopsis for positional args, nullptr = none
  std::vector<FlagDef> flags;
};

const std::vector<CommandDef>& command_table() {
  static const std::vector<CommandDef> table = {
      {"generate", nullptr, {{"sessions", nullptr}, {"out", "PREFIX"}}},
      {"assemble", "FILE.s", {{"out", "FILE.img"}}},
      {"disasm", "FILE.img", {}},
      {"run",
       "FILE.img",
       {{"entry", "ADDR"},
        {"scenario", "NAME|FILE"},
        {"trace", nullptr},
        {"max-cycles", "N"}}},
      {"campaign",
       nullptr,
       {{"scenario", "NAME|FILE"},
        {"bus", "addr|data|ctrl"},
        {"defects", "N"},
        {"seed", "S"},
        {"threads", "T"},
        {"checkpoint", "FILE"},
        {"faults", "SPEC"},
        {"stats-json", nullptr},
        {"workers", "N"},
        {"shard", "K/N"},
        {"worker-retries", "N"},
        {"worker-backoff-ms", "MS"},
        {"heartbeat-fd", "FD"}}},
      {"chaos",
       nullptr,
       {{"scenario", "NAME|FILE"},
        {"bus", "addr|data|ctrl"},
        {"defects", "N"},
        {"seed", "S"},
        {"cycles", "K"},
        {"threads", "T"},
        {"workers", "N"},
        {"serve", nullptr},
        {"faults", "SPEC"}}},
      {"serve",
       nullptr,
       {{"socket", "PATH"},
        {"port", "N"},
        {"queue", "FILE"},
        {"idle-timeout-ms", "MS"},
        {"faults", "SPEC"}}},
      {"submit",
       nullptr,
       {{"socket", "PATH"},
        {"port", "N"},
        {"scenario", "NAME|FILE"},
        {"bus", "addr|data|ctrl"},
        {"defects", "N"},
        {"seed", "S"},
        {"threads", "T"},
        {"workers", "N"},
        {"priority", "0..9"},
        {"no-wait", nullptr},
        {"stats-json", nullptr},
        {"status", nullptr},
        {"shutdown", nullptr}}},
      {"scenarios", nullptr, {{"dump", "NAME|FILE"}}},
  };
  return table;
}

const CommandDef* find_command(const std::string& name) {
  for (const CommandDef& c : command_table())
    if (name == c.name) return &c;
  return nullptr;
}

struct Parsed {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // --key [value]
};

/// Parses args[1..] against the command's flag table.  Unknown flags and
/// value flags without a value are usage errors -- the table is the
/// contract, not a suggestion.
Parsed parse(const CommandDef& cmd, const std::vector<std::string>& args) {
  Parsed p;
  p.command = cmd.name;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) == 0) {
      const std::string key = a.substr(2);
      const FlagDef* def = nullptr;
      for (const FlagDef& f : cmd.flags)
        if (key == f.name) {
          def = &f;
          break;
        }
      if (def == nullptr)
        throw UsageError(p.command + ": unknown flag '--" + key + "'");
      if (def->value != nullptr) {
        if (i + 1 >= args.size() || args[i + 1].rfind("--", 0) == 0)
          throw UsageError("--" + key + ": missing " +
                           std::string(def->value) + " value");
        p.options[key] = args[++i];
      } else {
        p.options[key] = "";
      }
    } else {
      p.positional.push_back(a);
    }
  }
  return p;
}

std::string read_file(const std::string& path) {
  try {
    if (std::optional<std::string> text = util::read_file(path)) return *text;
  } catch (const std::runtime_error& e) {
    throw IoError(e.what());
  }
  throw IoError("cannot open " + path);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write " + path);
  out << content;
}

/// Rendered from command_table(): every parseable flag appears here and
/// nothing else does.
int usage(std::ostream& err) {
  err << "usage:\n";
  for (const CommandDef& c : command_table()) {
    std::string line = std::string("  xtest ") + c.name;
    if (c.positional != nullptr) line += std::string(" ") + c.positional;
    const std::string indent(line.size(), ' ');
    for (const FlagDef& f : c.flags) {
      std::string tok = std::string("[--") + f.name;
      if (f.value != nullptr) tok += std::string(" ") + f.value;
      tok += "]";
      if (line.size() + 1 + tok.size() > 78) {
        err << line << '\n';
        line = indent;
      }
      line += " " + tok;
    }
    err << line << '\n';
  }
  err << "scenarios: ";
  for (std::size_t i = 0; i < spec::builtin_scenario_names().size(); ++i)
    err << (i ? ", " : "") << spec::builtin_scenario_names()[i];
  err << "\n"
         "notes: --threads 0 = auto ($XTEST_THREADS); --faults or "
         "$XTEST_FAULTS:\n"
         "       site[@N|%P],...[:seed]\n"
         "       --workers N runs the campaign as N crash-isolated shard\n"
         "       processes under a retrying supervisor; --shard K/N runs\n"
         "       one shard in-process; --heartbeat-fd is the internal\n"
         "       worker handshake\n"
         "       serve runs the campaign daemon (framed protocol, see\n"
         "       README); submit queues a scenario on a daemon and streams\n"
         "       the result; chaos --serve soaks the daemon\n"
         "exit codes: 0 ok, 2 usage, 3 I/O, 4 simulation, 5 interrupted "
         "(resumable),\n"
         "            6 degraded (worker shard quarantined; partial "
         "results)\n";
  return kExitUsage;
}

/// Arms the process-wide injector from --faults for the duration of one
/// command; disarms on the way out so an embedding process (the tests)
/// does not leak fault rules into the next command.
class FaultSpecGuard {
 public:
  explicit FaultSpecGuard(const std::string& spec) {
    if (spec.empty()) return;
    try {
      util::FaultInjector::global().configure(spec);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    armed_ = true;
  }
  ~FaultSpecGuard() {
    if (armed_) util::FaultInjector::global().disarm();
  }
  FaultSpecGuard(const FaultSpecGuard&) = delete;
  FaultSpecGuard& operator=(const FaultSpecGuard&) = delete;

 private:
  bool armed_ = false;
};

soc::BusKind parse_bus(const std::string& name) {
  if (name == "addr" || name == "address") return soc::BusKind::kAddress;
  if (name == "data") return soc::BusKind::kData;
  if (name == "ctrl" || name == "control") return soc::BusKind::kControl;
  throw UsageError("unknown bus '" + name + "'");
}

/// A numeric flag's value: unsigned and fitting T (util/number.h), or a
/// usage error naming the flag.
template <typename T>
T flag_number(const std::string& flag, const std::string& value) {
  try {
    return util::parse_unsigned<T>(value);
  } catch (const std::invalid_argument& e) {
    throw UsageError("--" + flag + ": " + e.what());
  }
}

/// The scenario a command starts from: --scenario when given, otherwise the
/// paper baseline (which IS the pre-spec hard-coded configuration, so
/// flag-only invocations behave exactly as before).  Individual flags then
/// override single fields on top.
spec::ScenarioSpec base_scenario(const Parsed& p) {
  if (p.options.count("scenario"))
    return spec::load_scenario(p.options.at("scenario"));
  return spec::builtin_scenario("paper-baseline");
}

/// Applies the campaign-shaped override flags shared by campaign and chaos.
void apply_overrides(const Parsed& p, spec::ScenarioSpec& s) {
  if (p.options.count("bus")) s.bus = parse_bus(p.options.at("bus"));
  if (p.options.count("defects"))
    s.defect_count =
        flag_number<std::size_t>("defects", p.options.at("defects"));
  if (p.options.count("seed"))
    s.seed = flag_number<std::uint64_t>("seed", p.options.at("seed"));
  if (p.options.count("threads"))
    s.threads = flag_number<unsigned>("threads", p.options.at("threads"));
  if (p.options.count("workers"))
    s.workers = flag_number<std::size_t>("workers", p.options.at("workers"));
  if (p.options.count("shard")) {
    const std::string& v = p.options.at("shard");
    const std::size_t slash = v.find('/');
    if (slash == std::string::npos)
      throw UsageError("--shard: expected K/N (e.g. 0/4), got '" + v + "'");
    s.shard_index = flag_number<std::size_t>("shard", v.substr(0, slash));
    s.shard_count = flag_number<std::size_t>("shard", v.substr(slash + 1));
  }
}

int cmd_generate(const Parsed& p, std::ostream& out) {
  sbst::GeneratorConfig cfg;
  std::vector<sbst::GenerationResult> sessions;
  if (p.options.count("sessions")) {
    sessions = sbst::TestProgramGenerator::generate_sessions(cfg);
  } else {
    sessions.push_back(sbst::TestProgramGenerator(cfg).generate());
  }
  const std::string prefix = p.options.count("out")
                                 ? p.options.at("out")
                                 : std::string();
  util::Table t({"session", "tests", "unplaced", "bytes", "entry"});
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const auto& r = sessions[s];
    if (r.program.tests.empty()) continue;
    char entry[16];
    std::snprintf(entry, sizeof entry, "0x%03x", r.program.entry);
    t.add_row({std::to_string(s), std::to_string(r.program.tests.size()),
               std::to_string(r.unplaced.size()),
               std::to_string(r.program.program_bytes()), entry});
    if (!prefix.empty()) {
      write_file(prefix + std::to_string(s) + ".img",
                 sim::image_to_text(r.program.image));
    }
  }
  out << t.render();
  if (!prefix.empty())
    out << "images written to " << prefix << "<N>.img\n";
  return 0;
}

int cmd_assemble(const Parsed& p, std::ostream& out) {
  if (p.positional.empty())
    throw UsageError("assemble: missing source file");
  const cpu::AsmResult r = cpu::assemble(read_file(p.positional[0]));
  const std::string text = sim::image_to_text(r.image);
  if (p.options.count("out")) {
    write_file(p.options.at("out"), text);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zu bytes, entry 0x%03x\n",
                  r.image.defined_count(), r.entry);
    out << buf;
  } else {
    out << text;
  }
  return 0;
}

int cmd_disasm(const Parsed& p, std::ostream& out) {
  if (p.positional.empty())
    throw UsageError("disasm: missing image file");
  const cpu::MemoryImage img =
      sim::image_from_text(read_file(p.positional[0]));
  out << cpu::disassemble_image(img);
  return 0;
}

int cmd_run(const Parsed& p, std::ostream& out) {
  if (p.positional.empty())
    throw UsageError("run: missing image file");
  if (!p.options.count("entry"))
    throw UsageError("run: --entry required");
  const cpu::MemoryImage img =
      sim::image_from_text(read_file(p.positional[0]));
  const auto entry = flag_number<cpu::Addr>("entry", p.options.at("entry"));
  const std::uint64_t max_cycles =
      p.options.count("max-cycles")
          ? flag_number<std::uint64_t>("max-cycles",
                                       p.options.at("max-cycles"))
          : 1'000'000;
  // --scenario selects the electrical environment the image runs in
  // (geometries, Cth ratio, clock scaling); the default spec is the
  // default SystemConfig, so flag-less runs are unchanged.
  const spec::ScenarioSpec s = base_scenario(p);
  s.validate();

  soc::System sys(s.system);
  soc::BusTrace trace;
  if (p.options.count("trace")) sys.set_trace(&trace);
  sys.load_and_reset(img, entry);
  const soc::RunResult r = sys.run(max_cycles);
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "halted=%d reason=%s cycles=%llu acc=0x%02x\n", r.halted,
                r.reason == cpu::HaltReason::kHltInstruction ? "hlt"
                : r.reason == cpu::HaltReason::kIllegalOpcode
                    ? "illegal"
                    : "running",
                static_cast<unsigned long long>(r.cycles),
                sys.processor().acc());
  out << buf;
  if (p.options.count("trace")) {
    out << "\naddress bus:\n"
        << soc::render_waveform(trace, soc::BusKind::kAddress)
        << "\ndata bus:\n"
        << soc::render_waveform(trace, soc::BusKind::kData);
  }
  return 0;
}

/// The standard campaign summary, shared by the in-process and the
/// supervised paths so the two outputs stay diffable line for line.  The
/// verdict breakdown and the resilience counters are separate lines: the
/// first is a pure function of the campaign inputs (what CI diffs between
/// serial and supervised runs), the second describes how this particular
/// run got there.  A sharded run counts only its owned slots.
void print_campaign_summary(std::ostream& out, const spec::ScenarioSpec& s,
                            const std::vector<sim::Verdict>& det,
                            const util::CampaignStats& stats) {
  const sim::ShardSpec shard{s.shard_index, s.shard_count};
  std::vector<sim::Verdict> owned;
  const std::vector<sim::Verdict>* counted = &det;
  if (shard.count > 1) {
    owned.reserve(shard.owned_of(det.size()));
    for (std::size_t i = shard.index; i < det.size(); i += shard.count)
      owned.push_back(det[i]);
    counted = &owned;
  }
  const sim::VerdictCounts vc = sim::count_verdicts(*counted);
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "bus=%s defects=%zu coverage=%.1f%% (seed %llu)\n",
                soc::to_string(s.bus).c_str(), det.size(),
                100.0 * sim::coverage(*counted),
                static_cast<unsigned long long>(s.seed));
  out << buf;
  if (shard.count > 1) {
    std::snprintf(buf, sizeof buf, "shard=%zu/%zu owned=%zu\n", shard.index,
                  shard.count, counted->size());
    out << buf;
  }
  std::snprintf(buf, sizeof buf,
                "detected=%zu timeout=%zu undetected=%zu sim_errors=%zu\n"
                "retries=%zu restored=%zu salvaged=%zu dropped=%zu\n"
                "threads=%u simulations=%zu cycles=%llu wall=%.3fs "
                "defects/sec=%.0f library=%.3fs program=%.3fs gold=%.3fs "
                "simulate=%.3fs checkpoint=%.3fs\n",
                vc.detected, vc.detected_by_timeout, vc.undetected,
                vc.sim_errors, stats.retries, stats.restored_from_checkpoint,
                stats.salvaged_sections, stats.dropped_slots, stats.threads,
                stats.defects_simulated,
                static_cast<unsigned long long>(stats.simulated_cycles),
                stats.wall_seconds, stats.defects_per_second(),
                stats.library_seconds, stats.program_seconds,
                stats.gold_seconds, stats.simulate_seconds,
                stats.checkpoint_seconds);
  out << buf;
}

/// On-line campaign lines: the scheduling cost of the self-test itself
/// (the gold schedules' interference) and the detection-latency
/// distribution over the detected defects.  The engine books exactly the
/// gold schedules plus every owned outcome into the on-line counters, so
/// the gold line is `stats` minus the outcomes' own sums.  It is omitted
/// when `stats` is null (a degraded supervised run's stats miss a shard)
/// or short of those sums, rather than print a wrapped counter.
void print_online_summary(std::ostream& out,
                          const std::vector<sim::OnlineOutcome>& outcomes,
                          const util::CampaignStats* stats) {
  sim::OnlineOutcome sum;  // fold_session sums the interference counters
  std::size_t detected = 0;
  std::uint64_t latency_sum = 0, latency_max = 0;
  for (const sim::OnlineOutcome& o : outcomes) {
    sim::fold_session(sum, o);
    if (o.detection_latency_cycles == 0) continue;
    ++detected;
    latency_sum += o.detection_latency_cycles;
    if (o.detection_latency_cycles > latency_max)
      latency_max = o.detection_latency_cycles;
  }
  char buf[384];
  if (stats != nullptr && stats->online_rounds >= sum.rounds &&
      stats->online_mmio_heartbeats >= sum.heartbeats &&
      stats->online_deadlines_late >= sum.deadlines_late &&
      stats->online_deadlines_missed >= sum.deadlines_missed) {
    std::snprintf(
        buf, sizeof buf,
        "online gold: rounds=%llu heartbeats=%llu deadlines_late=%llu "
        "deadlines_missed=%llu\n",
        static_cast<unsigned long long>(stats->online_rounds - sum.rounds),
        static_cast<unsigned long long>(stats->online_mmio_heartbeats -
                                        sum.heartbeats),
        static_cast<unsigned long long>(stats->online_deadlines_late -
                                        sum.deadlines_late),
        static_cast<unsigned long long>(stats->online_deadlines_missed -
                                        sum.deadlines_missed));
    out << buf;
  }
  std::snprintf(
      buf, sizeof buf,
      "online latency: samples=%zu mean=%.0f max=%llu cycles\n", detected,
      detected > 0 ? static_cast<double>(latency_sum) / detected : 0.0,
      static_cast<unsigned long long>(latency_max));
  out << buf;
}

/// Section 1 comparison: a test-mode hardware BIST drives the full MA set
/// directly on the same nominal network / error model / library.
void print_bist_compare(std::ostream& out, const spec::ScenarioSpec& s,
                        const xtalk::DefectLibrary& lib,
                        const std::vector<sim::Verdict>& det) {
  const soc::System sys(s.system);
  const xtalk::RcNetwork* net = &sys.nominal_address_network();
  const xtalk::CrosstalkErrorModel* model = &sys.address_model();
  bool bidirectional = false;
  if (s.bus == soc::BusKind::kData) {
    net = &sys.nominal_data_network();
    model = &sys.data_model();
    bidirectional = s.program.data_both_directions;
  } else if (s.bus == soc::BusKind::kControl) {
    net = &sys.nominal_control_network();
    model = &sys.control_model();
  }
  const hwbist::HardwareBist bist(net->width(), bidirectional);
  const std::vector<sim::Verdict> bv =
      bist.run_library(*net, *model, lib, {s.threads});
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "bist coverage=%.1f%% (%zu MA patterns) sbst=%.1f%% "
                "delta=%+.1f\n",
                100.0 * sim::coverage(bv), bist.patterns().size(),
                100.0 * sim::coverage(det),
                100.0 * (sim::coverage(bv) - sim::coverage(det)));
  out << buf;
}

/// Removes a temp file on scope exit (the worker job scenario).
struct FileCleanup {
  std::string path;
  ~FileCleanup() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

int cmd_campaign_supervised(const Parsed& p, const spec::ScenarioSpec& s,
                            std::ostream& out, std::ostream& err) {
  const std::string fault_spec =
      p.options.count("faults") ? p.options.at("faults") : "";
  // Armed in the parent for the supervisor.* sites; the same spec travels
  // to every worker on its command line for the worker-side sites.
  const FaultSpecGuard faults(fault_spec);

  std::string base;
  const bool own_checkpoints = p.options.count("checkpoint") == 0;
  if (!own_checkpoints) {
    base = p.options.at("checkpoint");
    if (base.empty()) throw UsageError("--checkpoint: missing file name");
  } else {
    // Deterministic default so an interrupted supervised run resumes when
    // re-invoked with the same scenario; the key digest in the name makes
    // an edited scenario start fresh instead of hitting a key mismatch.
    // A completed run removes these files (below).
    char digest[16];
    std::snprintf(digest, sizeof digest, "%08x",
                  util::crc32(s.checkpoint_key()));
    base = (std::filesystem::temp_directory_path() /
            ("xtest_" + s.name + "_" + soc::to_string(s.bus) + "_" +
             std::to_string(static_cast<unsigned long long>(s.seed)) + "_" +
             digest + ".ckpt"))
               .string();
  }

  const sim::SupervisorJob job =
      spec::make_supervisor_job(s, base, fault_spec);
  const FileCleanup job_file{job.scenario_path};

  sim::SupervisorOptions sup;
  sup.workers = s.workers;
  if (p.options.count("worker-retries"))
    sup.worker_retries = flag_number<std::size_t>(
        "worker-retries", p.options.at("worker-retries"));
  if (p.options.count("worker-backoff-ms"))
    sup.worker_backoff_ms = flag_number<std::uint64_t>(
        "worker-backoff-ms", p.options.at("worker-backoff-ms"));
  sup.cancel = &interrupt_flag();
  sup.log = &err;

  sim::Supervisor supervisor(job, sup);
  const sim::SupervisorResult r = supervisor.run();
  // An interrupted run has thrown by now; a degraded one keeps its shards
  // so re-running the same command resumes them.
  if (own_checkpoints && !r.degraded())
    sim::Supervisor::remove_shard_checkpoints(base, s.workers);

  print_campaign_summary(out, s, r.verdicts, r.stats);
  if (s.online.enabled)
    print_online_summary(out, r.outcomes, r.degraded() ? nullptr : &r.stats);
  std::size_t spawns = 0;
  for (const sim::ShardOutcome& o : r.shards) spawns += o.spawns;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "workers=%zu spawns=%zu respawns=%zu heartbeats=%zu "
                "quarantined=%zu\n",
                s.workers, spawns, r.respawns, r.heartbeats,
                r.quarantined().size());
  out << buf;
  if (s.compare_bist) print_bist_compare(out, s, s.make_library(), r.verdicts);
  if (p.options.count("stats-json")) out << r.stats.json("campaign") << '\n';
  for (const std::string& e : r.stats.error_log)
    err << "warning: " << e << '\n';
  return r.degraded() ? kExitDegraded : kExitOk;
}

int cmd_campaign(const Parsed& p, std::ostream& out, std::ostream& err) {
  spec::ScenarioSpec s = base_scenario(p);
  apply_overrides(p, s);
  s.validate();

  // --heartbeat-fd marks a supervisor-spawned worker; workers never spawn
  // workers of their own (the supervisor also strips `workers` from the
  // job scenario, this is the second line of defence).
  const bool worker_mode = p.options.count("heartbeat-fd") != 0;
  if (s.workers > 0 && !worker_mode)
    return cmd_campaign_supervised(p, s, out, err);

  const FaultSpecGuard faults(
      p.options.count("faults") ? p.options.at("faults") : "");

  util::CampaignStats stats;
  sim::CampaignOptions opts = s.campaign_options(&stats);
  opts.cancel = &interrupt_flag();
  if (p.options.count("checkpoint")) {
    opts.checkpoint_path = p.options.at("checkpoint");
    if (opts.checkpoint_path.empty())
      throw UsageError("--checkpoint: missing file name");
    opts.checkpoint_key = s.checkpoint_key();
  }
  // Library generation calls back once per round.  A large library takes
  // seconds, so that is where an interrupt stops it, and where a worker
  // beats too: generation can outlast the supervisor's heartbeat timeout.
  std::function<void()> beat;
  if (worker_mode) {
    const std::string& hb = p.options.at("heartbeat-fd");
    const int hb_fd = flag_number<int>("heartbeat-fd", hb);
    if (::fcntl(hb_fd, F_GETFD) == -1)
      throw UsageError("--heartbeat-fd: descriptor " + hb + " is not open");
    // Startup heartbeat: tells the supervisor the exec succeeded before
    // the (potentially long) library generation and gold run begin.
    const char hello = '+';
    if (!util::write_full(hb_fd, &hello, 1)) {
      // The supervisor is gone; keep running, the checkpoint still counts.
    }
    beat = [hb_fd] {
      const char b = '+';
      (void)util::write_full(hb_fd, &b, 1);
    };
    opts.progress = [beat] {
      // The worker.exit site models a worker dying abruptly mid-campaign
      // (std::_Exit: no flush, no destructors -- exactly a crash).
      if (util::FaultInjector::global().fire("worker.exit")) std::_Exit(70);
      beat();
    };
  }
  using Clock = std::chrono::steady_clock;
  const auto library_start = Clock::now();
  const auto lib = s.make_library([&beat] {
    if (interrupt_flag().load())
      throw sim::CampaignInterrupted(
          "campaign interrupted while generating the defect library -- "
          "rerun the same command to resume");
    if (beat) beat();
  });
  const auto program_start = Clock::now();
  const auto sessions = s.make_sessions();
  stats.library_seconds =
      std::chrono::duration<double>(program_start - library_start).count();
  stats.program_seconds =
      std::chrono::duration<double>(Clock::now() - program_start).count();
  sim::OnlineResult r;  // off-line, only its verdicts are filled
  if (s.online.enabled)
    r = sim::run_online_detection_sessions(s.system, s.online, sessions,
                                           s.bus, lib, opts);
  else
    r.verdicts =
        sim::run_detection_sessions(s.system, sessions, s.bus, lib, opts);

  print_campaign_summary(out, s, r.verdicts, stats);
  if (s.online.enabled) print_online_summary(out, r.outcomes, &stats);
  if (s.compare_bist) print_bist_compare(out, s, lib, r.verdicts);
  if (p.options.count("stats-json")) out << stats.json("campaign") << '\n';
  for (const std::string& e : stats.error_log)
    err << "warning: " << e << '\n';
  return kExitOk;
}

// ---------------------------------------------------------------------------
// scenarios: list the built-ins, or dump one (or a file) as scenario text.

int cmd_scenarios(const Parsed& p, std::ostream& out) {
  if (p.options.count("dump")) {
    out << spec::serialize_scenario(
        spec::load_scenario(p.options.at("dump")));
    return kExitOk;
  }
  util::Table t({"name", "bus", "defects", "description"});
  for (const std::string& name : spec::builtin_scenario_names()) {
    const spec::ScenarioSpec s = spec::builtin_scenario(name);
    t.add_row({s.name, soc::to_string(s.bus),
               std::to_string(s.defect_count), s.description});
  }
  out << t.render();
  out << "run with `xtest campaign --scenario NAME` (or a scenario file "
         "path);\ndump the full key = value text with `xtest scenarios "
         "--dump NAME`\n";
  return kExitOk;
}

// ---------------------------------------------------------------------------
// chaos: kill/resume soak.
//
// Proves the resilience contract end to end, in process: a campaign that
// is repeatedly killed at injector-chosen points (alternating graceful
// cancel and simulated hard crash), resumed from its checkpoint, and
// occasionally handed a checkpoint truncated at a random byte offset,
// must still converge to outcomes bitwise identical to an uninterrupted
// run -- per bus, at 1 and 4 threads.  On-line and off-line campaigns go
// through the same loop; an on-line outcome adds latency and interference
// to the verdict.

struct ChaosOutcome {
  std::size_t kills = 0;
  std::size_t crashes = 0;
  std::size_t truncations = 0;
  std::size_t completions = 0;
};

/// Off-line verdicts as outcomes: an off-line outcome is just its verdict.
std::vector<sim::OnlineOutcome> as_outcomes(
    const std::vector<sim::Verdict>& verdicts) {
  std::vector<sim::OnlineOutcome> outcomes;
  for (const sim::Verdict v : verdicts) outcomes.emplace_back().verdict = v;
  return outcomes;
}

/// The campaign `s` describes, run in process with `opts`, as full
/// outcomes (latency and interference too, on-line).  Every chaos soak
/// compares against this run uninterrupted, and the in-process soak also
/// kills and resumes it.
std::vector<sim::OnlineOutcome> campaign_outcomes(
    const spec::ScenarioSpec& s,
    const std::vector<sbst::GenerationResult>& sessions,
    const xtalk::DefectLibrary& lib, const sim::CampaignOptions& opts) {
  if (s.online.enabled)
    return sim::run_online_detection_sessions(s.system, s.online, sessions,
                                              s.bus, lib, opts)
        .outcomes;
  return as_outcomes(
      sim::run_detection_sessions(s.system, sessions, s.bus, lib, opts));
}

/// Worker-kill soak (`chaos --workers N`): runs the campaign supervised,
/// SIGKILLing random worker processes on a steady cadence, and requires
/// the merged outcomes to be bitwise equal to the uninterrupted
/// in-process run -- the multi-process half of the resilience contract.
/// --faults forwards a spec to the supervisor (supervisor.spawn,
/// supervisor.heartbeat) and every worker (worker.exit, checkpoint.*).
int cmd_chaos_workers(const Parsed& p, std::ostream& out, std::ostream& err) {
  const bool has_scenario = p.options.count("scenario") != 0;
  spec::ScenarioSpec scn = base_scenario(p);
  if (!has_scenario) scn.defect_count = 12;  // chaos's own small default
  apply_overrides(p, scn);
  if (scn.workers == 0)
    throw UsageError("chaos: --workers must be at least 1");
  // Bounded worker threads so N processes do not oversubscribe the host.
  if (scn.threads == 0) scn.threads = 2;
  scn.validate();

  const std::size_t kill_budget =
      p.options.count("cycles")
          ? flag_number<std::size_t>("cycles", p.options.at("cycles"))
          : 12;
  const std::string fault_spec =
      p.options.count("faults") ? p.options.at("faults") : "";

  std::vector<soc::BusKind> buses = {soc::BusKind::kAddress,
                                     soc::BusKind::kData,
                                     soc::BusKind::kControl};
  if (p.options.count("bus"))
    buses = {parse_bus(p.options.at("bus"))};
  else if (has_scenario)
    buses = {scn.bus};

  util::FaultInjector& inj = util::FaultInjector::global();
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm_on_exit;

  std::size_t total_kills = 0;
  std::size_t total_respawns = 0;
  for (const soc::BusKind bus : buses) {
    spec::ScenarioSpec s = scn;
    s.bus = bus;

    // Uninterrupted in-process reference, injector disarmed: the merged
    // supervised result must match it bit for bit.
    inj.disarm();
    const std::vector<sim::OnlineOutcome> reference =
        campaign_outcomes(s, s.make_sessions(), s.make_library(),
                          s.campaign_options(nullptr));

    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("xtest_wchaos_" + soc::to_string(bus) + ".ckpt"))
            .string();
    sim::Supervisor::remove_shard_checkpoints(base, s.workers);

    if (!fault_spec.empty()) {
      try {
        inj.configure(fault_spec);
      } catch (const std::invalid_argument& e) {
        throw UsageError(e.what());
      }
    }
    const sim::SupervisorJob job =
        spec::make_supervisor_job(s, base, fault_spec);
    const FileCleanup job_file{job.scenario_path};

    sim::SupervisorOptions sup;
    sup.workers = s.workers;
    sup.chaos_kill_ms = 25;
    sup.chaos_seed = s.seed ^ static_cast<std::uint64_t>(bus);
    sup.chaos_max_kills = kill_budget;
    sup.cancel = &interrupt_flag();
    const sim::SupervisorResult r = sim::Supervisor(job, sup).run();
    inj.disarm();

    if (r.degraded()) {
      err << "error: chaos: a worker shard was quarantined (bus="
          << soc::to_string(bus) << ")\n";
      for (const std::string& e : r.stats.error_log)
        err << "  " << e << '\n';
      return kExitSim;
    }
    if ((s.online.enabled ? r.outcomes : as_outcomes(r.verdicts)) !=
        reference) {
      err << "error: chaos: merged supervised outcomes diverged from the "
             "uninterrupted in-process reference (bus="
          << soc::to_string(bus) << " workers=" << s.workers << ")\n";
      return kExitSim;
    }
    total_kills += r.chaos_kills;
    total_respawns += r.respawns;
    std::size_t spawns = 0;
    for (const sim::ShardOutcome& o : r.shards) spawns += o.spawns;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "chaos %sbus=%s workers=%zu: %zu worker kills, %zu "
                  "respawns, %zu spawns, %s identical\n",
                  s.online.enabled ? "online " : "",
                  soc::to_string(bus).c_str(), s.workers, r.chaos_kills,
                  r.respawns, spawns,
                  s.online.enabled ? "outcomes" : "verdicts");
    out << buf;
    sim::Supervisor::remove_shard_checkpoints(base, s.workers);
  }
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "worker chaos soak passed: %zu kills, %zu respawns across "
                "%zu bus(es)\n",
                total_kills, total_respawns, buses.size());
  out << buf;
  return kExitOk;
}

// ---------------------------------------------------------------------------
// serve / submit: the campaign service (src/serve).

/// Endpoint options shared by submit and the chaos serve soak.
serve::ClientOptions client_endpoint(const Parsed& p) {
  serve::ClientOptions o;
  if (p.options.count("socket")) o.socket_path = p.options.at("socket");
  if (p.options.count("port"))
    o.tcp_port = flag_number<std::uint16_t>("port", p.options.at("port"));
  if (o.socket_path.empty() && o.tcp_port == 0)
    throw UsageError(p.command + ": --socket PATH or --port N required");
  return o;
}

int cmd_serve(const Parsed& p, std::ostream& out, std::ostream& err) {
  serve::ServerOptions o;
  if (p.options.count("socket")) o.socket_path = p.options.at("socket");
  if (p.options.count("port"))
    o.tcp_port = flag_number<std::uint16_t>("port", p.options.at("port"));
  if (p.options.count("socket") == p.options.count("port"))
    throw UsageError("serve: exactly one of --socket PATH / --port N");
  if (!p.options.count("queue"))
    throw UsageError(
        "serve: --queue FILE required (job persistence and restart-resume)");
  o.queue_path = p.options.at("queue");
  if (p.options.count("idle-timeout-ms"))
    o.idle_timeout_ms = flag_number<std::uint64_t>(
        "idle-timeout-ms", p.options.at("idle-timeout-ms"));
  o.fault_spec = p.options.count("faults") ? p.options.at("faults") : "";
  // Arms the daemon-side serve.* sites; the same spec travels to every
  // job's workers via SupervisorJob::fault_spec.
  const FaultSpecGuard faults(o.fault_spec);
  o.cancel = &interrupt_flag();
  o.log = &err;

  serve::Server server(std::move(o));
  server.start();
  if (p.options.count("socket"))
    out << "serve: listening on " << p.options.at("socket") << '\n';
  else
    out << "serve: listening on 127.0.0.1:" << server.bound_port() << '\n';
  out << "serve: ready" << std::endl;  // flushed: harnesses wait for this

  const std::size_t pending = server.run();
  const serve::ServerStats st = server.stats();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "serve: jobs completed=%zu failed=%zu degraded=%zu "
                "retries=%zu pending=%zu\n"
                "serve: connections accepted=%zu dropped=%zu rejected=%zu "
                "idle_reaped=%zu events=%zu\n",
                st.jobs_completed, st.jobs_failed, st.jobs_degraded,
                st.job_retries, pending, st.connections_accepted,
                st.connections_dropped, st.frames_rejected, st.idle_reaped,
                st.events_streamed);
  out << buf;
  // Interrupted-with-work-pending is the resumable exit, same as a
  // checkpointed campaign: restart with the same --queue to continue.
  return pending > 0 ? kExitInterrupted : kExitOk;
}

int cmd_submit(const Parsed& p, std::ostream& out, std::ostream& err) {
  serve::Client client(client_endpoint(p));
  if (p.options.count("status")) {
    out << client.status();
    return kExitOk;
  }
  if (p.options.count("shutdown")) {
    client.request_shutdown();
    out << "shutdown requested\n";
    return kExitOk;
  }
  spec::ScenarioSpec s = base_scenario(p);
  apply_overrides(p, s);
  s.validate();
  int priority = 5;
  if (p.options.count("priority")) {
    const std::string& v = p.options.at("priority");
    priority = flag_number<int>("priority", v);
    if (priority > 9)
      throw UsageError("--priority: must be 0..9, got '" + v + "'");
  }

  const std::uint64_t job =
      client.submit(spec::serialize_scenario(s), priority);
  out << "job " << job << " submitted (priority " << priority << ")\n";
  if (p.options.count("no-wait")) return kExitOk;

  const serve::JobResult r = client.wait(job);
  std::vector<sim::Verdict> verdicts;
  verdicts.reserve(r.verdicts.size());
  for (const char c : r.verdicts) {
    sim::Verdict v;
    if (sim::verdict_from_char(c, v)) verdicts.push_back(v);
  }
  const sim::VerdictCounts vc = sim::count_verdicts(verdicts);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "job %llu done: exit=%d coverage=%.1f%% detected=%zu "
                "timeout=%zu undetected=%zu sim_errors=%zu\n",
                static_cast<unsigned long long>(job), r.exit_code,
                100.0 * sim::coverage(verdicts), vc.detected,
                vc.detected_by_timeout, vc.undetected, vc.sim_errors);
  out << buf;
  if (p.options.count("stats-json") && !r.stats_json.empty())
    out << r.stats_json << '\n';
  if (r.failed) {
    err << "error: job " << job << " failed: " << r.error << '\n';
    return kExitSim;
  }
  if (r.degraded) {
    err << "warning: job " << job
        << " completed degraded (a worker shard was quarantined)\n";
    return kExitDegraded;
  }
  return kExitOk;
}

// ---------------------------------------------------------------------------
// chaos --serve: daemon soak.
//
// Spawns a REAL daemon child (so SIGKILL is genuine), submits three
// scenarios from two concurrently-connected clients, abandons one client
// mid-stream, SIGKILLs the daemon mid-job and restarts it against the
// same queue file, then requires every streamed verdict string to be
// bitwise equal to an uninterrupted in-process run of the same scenario.
// Socket-level faults (serve.read/serve.write) fire inside the daemon by
// default, so reconnect-and-resume is exercised on every lost connection.

int cmd_chaos_serve(const Parsed& p, std::ostream& out, std::ostream& err) {
  const char* worker_bin = std::getenv("XTEST_WORKER_BINARY");
  const std::string binary = worker_bin != nullptr && *worker_bin != '\0'
                                 ? worker_bin
                                 : util::current_executable();
  if (binary.empty())
    throw IoError("cannot resolve own executable path to spawn the daemon");

  const bool has_scenario = p.options.count("scenario") != 0;
  spec::ScenarioSpec scn = base_scenario(p);
  if (!has_scenario) {
    scn.defect_count = 10;
    scn.max_sessions = 1;
    scn.threads = 1;
  }
  apply_overrides(p, scn);
  scn.workers = scn.workers == 0 ? 2 : scn.workers;
  scn.validate();

  std::vector<soc::BusKind> buses = {soc::BusKind::kAddress,
                                     soc::BusKind::kData,
                                     soc::BusKind::kControl};
  if (p.options.count("bus"))
    buses = {parse_bus(p.options.at("bus"))};
  else if (has_scenario)
    buses = {scn.bus};

  // One scenario (and one in-process reference) per bus; three by
  // default -- the daemon must retire all of them.  A served job streams
  // verdict chars, so that is what the references hold.
  std::vector<std::string> scenario_texts;
  std::vector<std::string> references;
  for (const soc::BusKind bus : buses) {
    spec::ScenarioSpec s = scn;
    s.bus = bus;
    s.name = "chaos-serve-" + soc::to_string(bus);
    std::string chars;
    for (const sim::OnlineOutcome& o :
         campaign_outcomes(s, s.make_sessions(), s.make_library(),
                           s.campaign_options(nullptr)))
      chars.push_back(sim::to_char(o.verdict));
    scenario_texts.push_back(spec::serialize_scenario(s));
    references.push_back(std::move(chars));
  }
  while (scenario_texts.size() < 3) {
    // A single-bus run still soaks with three jobs: duplicates are fine,
    // determinism makes their verdicts identical.
    scenario_texts.push_back(scenario_texts.back());
    references.push_back(references.back());
  }

  const std::string stem =
      (std::filesystem::temp_directory_path() /
       ("xtest_serve_chaos_" + std::to_string(static_cast<long>(::getpid()))))
          .string();
  const std::string sock = stem + ".sock";
  const std::string queue = stem + ".queue";
  std::remove(sock.c_str());
  std::remove(queue.c_str());

  const std::string fault_spec =
      p.options.count("faults")
          ? p.options.at("faults")
          : "serve.read%0.01,serve.write%0.01:" + std::to_string(scn.seed);

  const auto spawn_daemon = [&] {
    util::SpawnSpec spec;
    spec.argv = {binary,          "serve",
                 "--socket",      sock,
                 "--queue",       queue,
                 "--idle-timeout-ms", "20000",
                 "--faults",      fault_spec};
    return util::ChildProcess::spawn(spec);
  };

  util::ChildProcess daemon = spawn_daemon();
  serve::ClientOptions co;
  co.socket_path = sock;

  std::size_t client_kills = 0;
  std::size_t daemon_kills = 0;
  int rc = kExitOk;
  std::vector<std::uint64_t> job_ids;
  try {
    // Two concurrently-connected clients submit the three jobs
    // interleaved.  Priorities order the queue 0, 1, 2.
    serve::Client a(co);
    serve::Client b(co);
    job_ids.push_back(a.submit(scenario_texts[0], 7));
    job_ids.push_back(b.submit(scenario_texts[1], 5));
    job_ids.push_back(b.submit(scenario_texts[2], 3));

    // Client kill: A watches its job until the stream is live, then is
    // abandoned mid-stream with no goodbye.
    const serve::JobResult peek =
        a.wait(job_ids[0], [](const serve::JobEvent&) { return false; });
    if (!peek.aborted)
      throw std::runtime_error("chaos serve: observer failed to abort");
    a.kill_connection();
    ++client_kills;

    // Daemon kill: SIGKILL mid-campaign, restart against the same queue.
    daemon.kill(SIGKILL);
    daemon.wait();
    ++daemon_kills;
    daemon = spawn_daemon();

    // Fresh client resumes A's job from scratch; B's next wait rides its
    // own reconnect-with-backoff across the restart gap.
    serve::Client a2(co);
    const serve::JobResult r0 = a2.wait(job_ids[0]);
    const serve::JobResult r1 = b.wait(job_ids[1]);
    const serve::JobResult r2 = b.wait(job_ids[2]);

    const std::vector<const serve::JobResult*> results = {&r0, &r1, &r2};
    for (std::size_t i = 0; i < results.size(); ++i) {
      const serve::JobResult& r = *results[i];
      if (r.failed)
        throw std::runtime_error("chaos serve: job " +
                                 std::to_string(job_ids[i]) +
                                 " failed: " + r.error);
      if (r.degraded)
        throw std::runtime_error("chaos serve: job " +
                                 std::to_string(job_ids[i]) + " degraded");
      if (r.verdicts != references[i]) {
        err << "error: chaos serve: job " << job_ids[i]
            << " verdicts diverged from the in-process reference\n";
        rc = kExitSim;
      }
    }
    if (rc == kExitOk) {
      char buf[192];
      std::snprintf(buf, sizeof buf,
                    "serve chaos soak passed: %zu jobs, %zu client kill(s), "
                    "%zu daemon SIGKILL+restart, verdicts identical\n",
                    job_ids.size(), client_kills, daemon_kills);
      out << buf;
    }
  } catch (...) {
    daemon.kill(SIGKILL);
    daemon.wait();
    std::remove(sock.c_str());
    std::remove(queue.c_str());
    throw;
  }

  // Signal-based drain (protocol shutdown could be lost to an injected
  // read fault); SIGTERM is the daemon's documented drain path.
  daemon.kill(SIGTERM);
  daemon.wait();
  std::remove(sock.c_str());
  std::remove(queue.c_str());
  return rc;
}

int cmd_chaos(const Parsed& p, std::ostream& out, std::ostream& err) {
  if (p.options.count("serve")) return cmd_chaos_serve(p, out, err);
  if (p.options.count("workers")) return cmd_chaos_workers(p, out, err);
  if (p.options.count("faults"))
    throw UsageError(
        "chaos: --faults requires --workers (the in-process soak drives "
        "the injector itself)");
  const bool has_scenario = p.options.count("scenario") != 0;
  spec::ScenarioSpec scn = base_scenario(p);
  if (!has_scenario) scn.defect_count = 12;  // chaos's own small default
  apply_overrides(p, scn);
  scn.validate();
  // An on-line scenario soaks the interleaved campaign and compares every
  // outcome field (latency and interference too); off-line, an outcome is
  // just its verdict.
  const bool online = scn.online.enabled;

  // A scenario pins the soak to its own bus; flag-only invocations keep
  // sweeping all three.
  std::vector<soc::BusKind> buses = {soc::BusKind::kAddress,
                                     soc::BusKind::kData,
                                     soc::BusKind::kControl};
  if (p.options.count("bus"))
    buses = {parse_bus(p.options.at("bus"))};
  else if (has_scenario)
    buses = {scn.bus};
  const std::size_t cycles =
      p.options.count("cycles")
          ? flag_number<std::size_t>("cycles", p.options.at("cycles"))
          : online ? 8 : 20;
  std::vector<unsigned> thread_counts = {1, 4};
  if (scn.threads != 0) thread_counts = {scn.threads};

  util::FaultInjector& inj = util::FaultInjector::global();
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm_on_exit;

  const auto sessions = scn.make_sessions();
  std::size_t live_sessions = 0;
  for (const auto& s : sessions) live_sessions += !s.program.tests.empty();

  util::Rng rng(scn.seed ^ 0xC4A05ull);
  util::CampaignStats stats;

  for (const soc::BusKind bus : buses) {
    spec::ScenarioSpec s = scn;
    s.bus = bus;
    const auto lib = s.make_library();
    const std::size_t total_slots = live_sessions * lib.size();
    inj.disarm();
    sim::CampaignOptions ref_opts = s.campaign_options(nullptr);
    ref_opts.parallel = {1};
    const std::vector<sim::OnlineOutcome> reference =
        campaign_outcomes(s, sessions, lib, ref_opts);

    for (const unsigned threads : thread_counts) {
      const std::string ckpt =
          (std::filesystem::temp_directory_path() /
           ("xtest_chaos_" + soc::to_string(bus) + "_t" +
            std::to_string(threads) + ".ckpt"))
              .string();
      std::remove(ckpt.c_str());

      sim::CampaignOptions opts = s.campaign_options(&stats);
      opts.parallel = {threads};
      opts.cancel = &interrupt_flag();
      opts.checkpoint_path = ckpt;
      opts.checkpoint_key = s.checkpoint_key();

      ChaosOutcome oc;
      while (oc.kills < cycles) {
        // Kill at an injector-chosen record; past the remaining work the
        // campaign simply completes (verified and restarted from empty).
        const std::uint64_t at = 1 + rng.below(total_slots);
        const bool hard = rng.below(2) == 0;
        inj.configure((hard ? "campaign.crash@" : "campaign.kill@") +
                      std::to_string(at) + ":" +
                      std::to_string(rng.below(1u << 30)));
        try {
          const std::vector<sim::OnlineOutcome> det =
              campaign_outcomes(s, sessions, lib, opts);
          inj.disarm();
          if (det != reference) {
            err << "error: chaos: completed campaign diverged from the "
                   "uninterrupted reference (bus="
                << soc::to_string(bus) << " threads=" << threads << ")\n";
            return kExitSim;
          }
          ++oc.completions;
          std::remove(ckpt.c_str());  // start a fresh kill chain
        } catch (const sim::CampaignInterrupted&) {
          if (interrupt_flag().load()) throw;  // the operator, not us
          ++oc.kills;
          oc.crashes += hard;
          // Every third kill also corrupts the checkpoint: truncate at a
          // random byte so resume exercises the salvage path.
          if (oc.kills % 3 == 0) {
            std::error_code ec;
            const auto size = std::filesystem::file_size(ckpt, ec);
            if (!ec && size > 0) {
              std::filesystem::resize_file(ckpt, rng.below(size), ec);
              if (!ec) ++oc.truncations;
            }
          }
        }
      }

      // Drain: no more kills, the chain must finish and match.
      inj.disarm();
      if (campaign_outcomes(s, sessions, lib, opts) != reference) {
        err << "error: chaos: resumed campaign diverged from the "
               "uninterrupted reference (bus="
            << soc::to_string(bus) << " threads=" << threads << ")\n";
        return kExitSim;
      }
      std::remove(ckpt.c_str());
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "chaos %sbus=%s threads=%u: %zu kills (%zu hard), %zu "
                    "truncations, %zu clean completions, %s identical\n",
                    online ? "online " : "", soc::to_string(bus).c_str(),
                    threads, oc.kills, oc.crashes, oc.truncations,
                    oc.completions, online ? "outcomes" : "verdicts");
      out << buf;
    }
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%schaos soak passed: salvaged_sections=%zu dropped_slots=%zu "
                "restored=%zu flush_failures=%zu\n",
                online ? "online " : "", stats.salvaged_sections,
                stats.dropped_slots, stats.restored_from_checkpoint,
                stats.flush_failures);
  out << buf;
  return kExitOk;
}

}  // namespace

std::atomic<bool>& interrupt_flag() {
  static std::atomic<bool> flag{false};
  static_assert(std::atomic<bool>::is_always_lock_free,
                "signal handlers store to this flag");
  return flag;
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  try {
    const CommandDef* cmd =
        args.empty() ? nullptr : find_command(args[0]);
    if (cmd == nullptr) return usage(err);
    const Parsed p = parse(*cmd, args);
    if (p.command == "generate") return cmd_generate(p, out);
    if (p.command == "assemble") return cmd_assemble(p, out);
    if (p.command == "disasm") return cmd_disasm(p, out);
    if (p.command == "run") return cmd_run(p, out);
    if (p.command == "campaign") return cmd_campaign(p, out, err);
    if (p.command == "chaos") return cmd_chaos(p, out, err);
    if (p.command == "serve") return cmd_serve(p, out, err);
    if (p.command == "submit") return cmd_submit(p, out, err);
    if (p.command == "scenarios") return cmd_scenarios(p, out);
    return usage(err);
  } catch (const UsageError& e) {
    err << "error: " << e.what() << '\n';
    return kExitUsage;
  } catch (const spec::SpecParseError& e) {
    // Malformed scenario text / unknown scenario name: the operator's
    // input is wrong, same bucket as a bad flag.
    err << "error: " << e.what() << '\n';
    return kExitUsage;
  } catch (const spec::SpecIoError& e) {
    err << "error: " << e.what() << '\n';
    return kExitIo;
  } catch (const IoError& e) {
    err << "error: " << e.what() << '\n';
    return kExitIo;
  } catch (const sim::CampaignInterrupted& e) {
    err << "interrupted: " << e.what() << '\n';
    return kExitInterrupted;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kExitSim;
  } catch (...) {
    err << "error: unknown failure\n";
    return kExitSim;
  }
}

}  // namespace xtest::cli
