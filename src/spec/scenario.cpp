#include "spec/scenario.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "cpu/isa.h"
#include "soc/control.h"
#include "util/durable_file.h"
#include "util/number.h"
#include "util/subprocess.h"

namespace xtest::spec {

namespace {

// --- value codecs ----------------------------------------------------------
// Every codec either parses the whole value or throws std::invalid_argument
// with a human message; parse_scenario attaches the key and line number.

bool bool_value(const std::string& v) {
  if (v == "true") return true;
  if (v == "false") return false;
  throw std::invalid_argument("expected true or false, got '" + v + "'");
}

std::string double_text(double d) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

std::string u64_text(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string bool_text(bool b) { return b ? "true" : "false"; }

soc::BusKind bus_value(const std::string& v) {
  if (v == "addr") return soc::BusKind::kAddress;
  if (v == "data") return soc::BusKind::kData;
  if (v == "ctrl") return soc::BusKind::kControl;
  throw std::invalid_argument("expected addr, data or ctrl, got '" + v + "'");
}

std::string bus_text(soc::BusKind b) {
  switch (b) {
    case soc::BusKind::kAddress: return "addr";
    case soc::BusKind::kData: return "data";
    case soc::BusKind::kControl: return "ctrl";
  }
  return "addr";
}

sbst::PlacementOrder order_value(const std::string& v) {
  if (v == "victim-major") return sbst::PlacementOrder::kVictimMajor;
  if (v == "delays-first") return sbst::PlacementOrder::kDelaysFirst;
  if (v == "glitches-first") return sbst::PlacementOrder::kGlitchesFirst;
  if (v == "center-out") return sbst::PlacementOrder::kCenterOut;
  throw std::invalid_argument(
      "expected victim-major, delays-first, glitches-first or center-out, "
      "got '" + v + "'");
}

xtalk::ElectricalBackend electrical_value(const std::string& v) {
  // parse_electrical_backend throws invalid_argument with the expected
  // values spelled out; parse_scenario prefixes the key name.
  return xtalk::parse_electrical_backend(v);
}

std::string order_text(sbst::PlacementOrder o) {
  switch (o) {
    case sbst::PlacementOrder::kVictimMajor: return "victim-major";
    case sbst::PlacementOrder::kDelaysFirst: return "delays-first";
    case sbst::PlacementOrder::kGlitchesFirst: return "glitches-first";
    case sbst::PlacementOrder::kCenterOut: return "center-out";
  }
  return "victim-major";
}

// --- key table -------------------------------------------------------------
// One row per key: the serializer walks the table in order, the parser
// looks keys up in it.  A flag can therefore never exist in one direction
// only -- the same table IS the format.

struct KeyDef {
  const char* key;
  std::string (*get)(const ScenarioSpec&);
  void (*set)(ScenarioSpec&, const std::string&);
  /// Part of ScenarioSpec::checkpoint_key.  False for keys that cannot
  /// change a verdict and for the library keys the key's first part
  /// already states.
  bool keyed = true;
};

// Geometry keys share their five-field shape across the three buses.  A
// bus's width is the CPU's own (validate()), so it is no key.
#define XTEST_GEOMETRY_KEYS(prefix, member)                                    \
  KeyDef{prefix ".wire_length_um",                                             \
         [](const ScenarioSpec& s) {                                           \
           return double_text(s.system.member.wire_length_um);                 \
         },                                                                    \
         [](ScenarioSpec& s, const std::string& v) {                           \
           s.system.member.wire_length_um = util::parse_finite(v);             \
         }},                                                                   \
      KeyDef{prefix ".coupling_fF_per_um",                                     \
             [](const ScenarioSpec& s) {                                       \
               return double_text(s.system.member.coupling_fF_per_um);         \
             },                                                                \
             [](ScenarioSpec& s, const std::string& v) {                       \
               s.system.member.coupling_fF_per_um = util::parse_finite(v);     \
             }},                                                               \
      KeyDef{prefix ".ground_fF_per_um",                                       \
             [](const ScenarioSpec& s) {                                       \
               return double_text(s.system.member.ground_fF_per_um);           \
             },                                                                \
             [](ScenarioSpec& s, const std::string& v) {                       \
               s.system.member.ground_fF_per_um = util::parse_finite(v);       \
             }},                                                               \
      KeyDef{prefix ".distance_decay_exponent",                                \
             [](const ScenarioSpec& s) {                                       \
               return double_text(s.system.member.distance_decay_exponent);    \
             },                                                                \
             [](ScenarioSpec& s, const std::string& v) {                       \
               s.system.member.distance_decay_exponent =                       \
                   util::parse_finite(v);                                      \
             }},                                                               \
      KeyDef{prefix ".driver_resistance_ohm",                                  \
             [](const ScenarioSpec& s) {                                       \
               return double_text(s.system.member.driver_resistance_ohm);      \
             },                                                                \
             [](ScenarioSpec& s, const std::string& v) {                       \
               s.system.member.driver_resistance_ohm = util::parse_finite(v);  \
             }}

const std::vector<KeyDef>& key_table() {
  static const std::vector<KeyDef> table = {
      {"name", [](const ScenarioSpec& s) { return s.name; },
       [](ScenarioSpec& s, const std::string& v) { s.name = v; }, false},
      {"description", [](const ScenarioSpec& s) { return s.description; },
       [](ScenarioSpec& s, const std::string& v) { s.description = v; }, false},
      {"bus", [](const ScenarioSpec& s) { return bus_text(s.bus); },
       [](ScenarioSpec& s, const std::string& v) { s.bus = bus_value(v); },
       false},
      {"defects",
       [](const ScenarioSpec& s) { return u64_text(s.defect_count); },
       [](ScenarioSpec& s, const std::string& v) {
         s.defect_count = util::parse_unsigned<std::size_t>(v);
       }, false},
      {"seed", [](const ScenarioSpec& s) { return u64_text(s.seed); },
       [](ScenarioSpec& s, const std::string& v) {
         s.seed = util::parse_unsigned<std::uint64_t>(v);
       }, false},
      {"sigma_pct",
       [](const ScenarioSpec& s) { return double_text(s.sigma_pct); },
       [](ScenarioSpec& s, const std::string& v) {
         s.sigma_pct = util::parse_finite(v);
       }, false},
      {"system.cth_ratio",
       [](const ScenarioSpec& s) { return double_text(s.system.cth_ratio); },
       [](ScenarioSpec& s, const std::string& v) {
         s.system.cth_ratio = util::parse_finite(v);
       }},
      {"system.clock_period_scale",
       [](const ScenarioSpec& s) {
         return double_text(s.system.clock_period_scale);
       },
       [](ScenarioSpec& s, const std::string& v) {
         s.system.clock_period_scale = util::parse_finite(v);
       }},
      {"system.fast_receive",
       [](const ScenarioSpec& s) { return bool_text(s.system.fast_receive); },
       [](ScenarioSpec& s, const std::string& v) {
         s.system.fast_receive = bool_value(v);
       }, false},
      {"system.electrical",
       [](const ScenarioSpec& s) {
         return xtalk::to_string(s.system.electrical.backend);
       },
       [](ScenarioSpec& s, const std::string& v) {
         s.system.electrical.backend = electrical_value(v);
       }},
      {"system.swing_ratio",
       [](const ScenarioSpec& s) {
         return double_text(s.system.electrical.swing_ratio);
       },
       [](ScenarioSpec& s, const std::string& v) {
         s.system.electrical.swing_ratio = util::parse_finite(v);
       }},
      {"system.restorer_ratio",
       [](const ScenarioSpec& s) {
         return double_text(s.system.electrical.restorer_ratio);
       },
       [](ScenarioSpec& s, const std::string& v) {
         s.system.electrical.restorer_ratio = util::parse_finite(v);
       }},
      XTEST_GEOMETRY_KEYS("address", address_geometry),
      XTEST_GEOMETRY_KEYS("data", data_geometry),
      XTEST_GEOMETRY_KEYS("control", control_geometry),
      {"program.address_bus",
       [](const ScenarioSpec& s) {
         return bool_text(s.program.include_address_bus);
       },
       [](ScenarioSpec& s, const std::string& v) {
         s.program.include_address_bus = bool_value(v);
       }},
      {"program.data_bus",
       [](const ScenarioSpec& s) {
         return bool_text(s.program.include_data_bus);
       },
       [](ScenarioSpec& s, const std::string& v) {
         s.program.include_data_bus = bool_value(v);
       }},
      {"program.order",
       [](const ScenarioSpec& s) { return order_text(s.program.order); },
       [](ScenarioSpec& s, const std::string& v) {
         s.program.order = order_value(v);
       }},
      {"program.data_both_directions",
       [](const ScenarioSpec& s) {
         return bool_text(s.program.data_both_directions);
       },
       [](ScenarioSpec& s, const std::string& v) {
         s.program.data_both_directions = bool_value(v);
       }},
      {"program.group_size",
       [](const ScenarioSpec& s) { return u64_text(s.program.group_size); },
       [](ScenarioSpec& s, const std::string& v) {
         s.program.group_size = util::parse_unsigned<unsigned>(v);
       }},
      {"program.usable_limit",
       [](const ScenarioSpec& s) { return u64_text(s.program.usable_limit); },
       [](ScenarioSpec& s, const std::string& v) {
         s.program.usable_limit = util::parse_unsigned<cpu::Addr>(v);
       }},
      {"sessions.max",
       [](const ScenarioSpec& s) {
         return u64_text(static_cast<std::uint64_t>(s.max_sessions));
       },
       [](ScenarioSpec& s, const std::string& v) {
         s.max_sessions = util::parse_unsigned<int>(v);
       }},
      {"campaign.cycle_factor",
       [](const ScenarioSpec& s) { return u64_text(s.cycle_factor); },
       [](ScenarioSpec& s, const std::string& v) {
         s.cycle_factor = util::parse_unsigned<std::uint64_t>(v);
       }},
      {"campaign.threads",
       [](const ScenarioSpec& s) { return u64_text(s.threads); },
       [](ScenarioSpec& s, const std::string& v) {
         s.threads = util::parse_unsigned<unsigned>(v);
       }, false},
      {"campaign.compare_bist",
       [](const ScenarioSpec& s) { return bool_text(s.compare_bist); },
       [](ScenarioSpec& s, const std::string& v) {
         s.compare_bist = bool_value(v);
       }, false},
      {"campaign.workers",
       [](const ScenarioSpec& s) { return u64_text(s.workers); },
       [](ScenarioSpec& s, const std::string& v) {
         s.workers = util::parse_unsigned<std::size_t>(v);
       }, false},
      {"campaign.shard",
       [](const ScenarioSpec& s) {
         return u64_text(s.shard_index) + "/" + u64_text(s.shard_count);
       },
       [](ScenarioSpec& s, const std::string& v) {
         const std::size_t slash = v.find('/');
         if (slash == std::string::npos)
           throw std::invalid_argument("expected K/N, got '" + v + "'");
         s.shard_index = util::parse_unsigned<std::size_t>(v.substr(0, slash));
         s.shard_count = util::parse_unsigned<std::size_t>(v.substr(slash + 1));
       }, false},
      {"online.enabled",
       [](const ScenarioSpec& s) { return bool_text(s.online.enabled); },
       [](ScenarioSpec& s, const std::string& v) {
         s.online.enabled = bool_value(v);
       }},
      {"online.slice_cycles",
       [](const ScenarioSpec& s) { return u64_text(s.online.slice_cycles); },
       [](ScenarioSpec& s, const std::string& v) {
         s.online.slice_cycles = util::parse_unsigned<std::uint64_t>(v);
       }},
      {"online.workload_cycles",
       [](const ScenarioSpec& s) { return u64_text(s.online.workload_cycles); },
       [](ScenarioSpec& s, const std::string& v) {
         s.online.workload_cycles = util::parse_unsigned<std::uint64_t>(v);
       }},
      {"online.deadline_cycles",
       [](const ScenarioSpec& s) { return u64_text(s.online.deadline_cycles); },
       [](ScenarioSpec& s, const std::string& v) {
         s.online.deadline_cycles = util::parse_unsigned<std::uint64_t>(v);
       }},
  };
  return table;
}

#undef XTEST_GEOMETRY_KEYS

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

std::string serialize_scenario(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "# xtest scenario (key = value; unset keys keep their defaults)\n";
  for (const KeyDef& k : key_table()) out << k.key << " = " << k.get(spec)
                                          << "\n";
  return out.str();
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  std::set<std::string> seen;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos)
      throw SpecParseError(line_no, "expected 'key = value', got '" +
                                        stripped + "'");
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty()) throw SpecParseError(line_no, "missing key before '='");
    const KeyDef* def = nullptr;
    for (const KeyDef& k : key_table())
      if (key == k.key) {
        def = &k;
        break;
      }
    if (def == nullptr)
      throw SpecParseError(line_no, "unknown key '" + key + "'");
    if (!seen.insert(key).second)
      throw SpecParseError(line_no, "duplicate key '" + key + "'");
    try {
      def->set(spec, value);
    } catch (const std::invalid_argument& e) {
      throw SpecParseError(line_no, key + ": " + e.what());
    }
  }
  return spec;
}

xtalk::DefectLibrary ScenarioSpec::make_library(
    const std::function<void()>& progress) const {
  return sim::make_defect_library(system, bus, defect_count, seed, sigma_pct,
                                  {threads}, progress);
}

std::vector<sbst::GenerationResult> ScenarioSpec::make_sessions() const {
  return sbst::TestProgramGenerator::generate_sessions(program, max_sessions);
}

sim::CampaignOptions ScenarioSpec::campaign_options(
    util::CampaignStats* stats) const {
  sim::CampaignOptions opts;
  opts.cycle_factor = cycle_factor;
  opts.parallel = {threads};
  opts.stats = stats;
  opts.shard = {shard_index, shard_count};
  return opts;
}

std::string ScenarioSpec::checkpoint_key() const {
  static const ScenarioSpec kDefaults;
  std::string key = sim::default_checkpoint_key(
      bus, sim::defect_config(system, bus, defect_count, seed, sigma_pct));
  for (const KeyDef& k : key_table()) {
    if (!k.keyed) continue;
    const std::string value = k.get(*this);
    if (value != k.get(kDefaults))
      key.append(" ").append(k.key).append("=").append(value);
  }
  return key;
}

sim::SupervisorJob make_supervisor_job(const ScenarioSpec& spec,
                                       const std::string& checkpoint_base,
                                       const std::string& fault_spec) {
  sim::SupervisorJob job;
  // $XTEST_WORKER_BINARY lets a process that embeds the CLI library (the
  // tests) point workers at the real xtest binary instead of itself.
  const char* worker_bin = std::getenv("XTEST_WORKER_BINARY");
  job.binary = worker_bin != nullptr && *worker_bin != '\0'
                   ? worker_bin
                   : util::current_executable();
  if (job.binary.empty())
    throw SpecIoError("cannot resolve own executable path to spawn workers");
  job.defect_count = spec.defect_count;
  const std::vector<sbst::GenerationResult> sessions = spec.make_sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i)
    if (!sessions[i].program.tests.empty())
      job.sections.push_back("session" + std::to_string(i));
  job.checkpoint_key = spec.checkpoint_key();
  job.online = spec.online.enabled;
  job.checkpoint_base = checkpoint_base;
  job.fault_spec = fault_spec;

  ScenarioSpec worker_spec = spec;
  worker_spec.workers = 0;
  job.scenario_path = checkpoint_base + ".job.scn";
  std::ofstream out(job.scenario_path);
  if (!(out << serialize_scenario(worker_spec)))
    throw SpecIoError("cannot write " + job.scenario_path);
  return job;
}

void ScenarioSpec::validate() const {
  const auto check_width = [](const char* which, unsigned got,
                              unsigned expected) {
    if (got != expected)
      throw SpecParseError(
          0, std::string(which) + " bus width " + std::to_string(got) +
                 " does not match the embedded CPU architecture (" +
                 std::to_string(expected) +
                 " wires); the processor can only drive its own buses");
  };
  check_width("address", system.address_geometry.width, cpu::kAddrBits);
  check_width("data", system.data_geometry.width, cpu::kDataBits);
  check_width("control", system.control_geometry.width, soc::kControlBits);
  if (defect_count == 0)
    throw SpecParseError(0, "defects must be positive");
  if (sigma_pct <= 0.0)
    throw SpecParseError(0, "sigma_pct must be positive");
  if (system.cth_ratio <= 0.0)
    throw SpecParseError(0, "system.cth_ratio must be positive");
  if (system.clock_period_scale <= 0.0)
    throw SpecParseError(0, "system.clock_period_scale must be positive");
  if (max_sessions < 1)
    throw SpecParseError(0, "sessions.max must be at least 1");
  if (program.group_size == 0 || program.group_size > 8)
    throw SpecParseError(0, "program.group_size must be in 1..8");
  if (!program.include_address_bus && !program.include_data_bus)
    throw SpecParseError(
        0, "program must include at least one bus (program.address_bus / "
           "program.data_bus)");
  if (cycle_factor == 0)
    throw SpecParseError(0, "campaign.cycle_factor must be positive");
  if (shard_count == 0)
    throw SpecParseError(0, "campaign.shard count must be at least 1");
  if (shard_index >= shard_count)
    throw SpecParseError(0, "campaign.shard index " +
                                std::to_string(shard_index) +
                                " out of range for " +
                                std::to_string(shard_count) + " shard(s)");
  if (workers > 0 && shard_count > 1)
    throw SpecParseError(
        0, "campaign.workers and campaign.shard are mutually exclusive (a "
           "worker process is a shard)");
  if (system.electrical.swing_ratio <= 0.0 ||
      system.electrical.swing_ratio > 1.0)
    throw SpecParseError(0, "system.swing_ratio must be in (0, 1]");
  if (system.electrical.restorer_ratio <= 0.0 ||
      system.electrical.restorer_ratio >= 1.0)
    throw SpecParseError(0, "system.restorer_ratio must be in (0, 1)");
  if (online.enabled) {
    // The BIST baseline (a test-mode comparison) has no interleaved
    // equivalent.
    if (compare_bist)
      throw SpecParseError(
          0, "online.enabled and campaign.compare_bist are mutually "
             "exclusive");
    if (online.slice_cycles == 0)
      throw SpecParseError(0, "online.slice_cycles must be positive");
    if (online.workload_cycles == 0)
      throw SpecParseError(0, "online.workload_cycles must be positive");
    if (online.deadline_cycles == 0)
      throw SpecParseError(0, "online.deadline_cycles must be positive");
  }
}

namespace {

std::vector<ScenarioSpec> make_builtins() {
  std::vector<ScenarioSpec> v;

  {
    // The exact configuration every consumer hard-coded before the spec
    // layer: default electrical parameters, full program set, address bus,
    // 200 defects at the DAC-week seed.  `xtest campaign` with no flags IS
    // this scenario.
    ScenarioSpec s;
    s.name = "paper-baseline";
    s.description =
        "Paper Sections 4-5 baseline: 12-bit address bus campaign, default "
        "geometry, 200 defects, multi-session program set";
    v.push_back(s);
  }
  {
    // A wide global-bus routing corridor: 3.2 mm parallel run with denser
    // neighbour coupling, the electrical environment of a wide (32-bit
    // class) system bus.  The architectural widths stay the CPU's own --
    // the processor can only drive its own buses -- but every wire sees
    // the longer, more strongly coupled route.
    ScenarioSpec s;
    s.name = "wide-bus-32";
    s.description =
        "3.2 mm wide-bus corridor: longer run and denser coupling on all "
        "buses (32-bit-class global route electricals)";
    for (auto* g : {&s.system.address_geometry, &s.system.data_geometry,
                    &s.system.control_geometry}) {
      g->wire_length_um = 3200.0;
      g->coupling_fF_per_um = 0.1;
    }
    v.push_back(s);
  }
  {
    // Section 1's core argument: a slow external tester (clock period
    // scaled up 3x) stretches the sampling slack, so marginal delay
    // defects stop being observable and coverage drops below at-speed.
    ScenarioSpec s;
    s.name = "slow-tester";
    s.description =
        "External low-speed tester: clock period scaled 3x, marginal delay "
        "defects escape (Section 1 at-speed argument)";
    s.system.clock_period_scale = 3.0;
    v.push_back(s);
  }
  {
    // The deferred "future study": the RD/WR/CS control bus, where no MAF
    // is fully excitable in functional mode and detection rides on partial
    // (delay) excitation.
    ScenarioSpec s;
    s.name = "control-bus";
    s.description =
        "Control-bus campaign (RD/WR/CS): partial functional excitation "
        "only (the paper's deferred future study)";
    s.bus = soc::BusKind::kControl;
    v.push_back(s);
  }
  {
    // Section 1 comparison on equal footing: the same library swept by
    // SBST and by a test-mode hardware BIST driving the full MA set.
    ScenarioSpec s;
    s.name = "bist-compare";
    s.description =
        "SBST vs hardware BIST over one 500-defect address-bus library "
        "(coverage + over-testing comparison)";
    s.defect_count = 500;
    s.compare_bist = true;
    v.push_back(s);
  }
  {
    // A full-size Fig. 10 library in one sweep; stresses the campaign
    // engine rather than the method.
    ScenarioSpec s;
    s.name = "stress-1k-defects";
    s.description =
        "Stress sweep: the paper's full 1000-defect library through every "
        "session (campaign-engine stress)";
    s.defect_count = 1000;
    v.push_back(s);
  }
  {
    // On-line in-field mode: the same self-test programs, but sliced and
    // interleaved with a functional MMIO workload.  Reports per-defect
    // detection latency (cycles from activation to first divergence) and
    // the interference the test imposes on the workload's deadlines.
    ScenarioSpec s;
    s.name = "online-baseline";
    s.description =
        "On-line in-field testing: sliced SBST interleaved with a "
        "functional MMIO workload, detection-latency and deadline "
        "interference metrics";
    s.defect_count = 64;
    s.online.enabled = true;
    v.push_back(s);
  }
  {
    // Low-swing signalling on the interconnect: reduced voltage swing with
    // a level restorer at the receiver shrinks noise margins, so the same
    // geometric defect library yields a different (typically larger)
    // detected set than the full-swing baseline.
    ScenarioSpec s;
    s.name = "low-swing-bus";
    s.description =
        "Low-swing interconnect signalling: reduced noise margins via the "
        "low-swing electrical backend (off-line campaign)";
    s.system.electrical.backend = xtalk::ElectricalBackend::kLowSwing;
    v.push_back(s);
  }
  return v;
}

const std::vector<ScenarioSpec>& builtins() {
  static const std::vector<ScenarioSpec> specs = make_builtins();
  return specs;
}

}  // namespace

const std::vector<std::string>& builtin_scenario_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const ScenarioSpec& s : builtins()) n.push_back(s.name);
    return n;
  }();
  return names;
}

std::optional<ScenarioSpec> find_builtin(const std::string& name) {
  for (const ScenarioSpec& s : builtins())
    if (s.name == name) return s;
  return std::nullopt;
}

ScenarioSpec builtin_scenario(const std::string& name) {
  if (std::optional<ScenarioSpec> s = find_builtin(name)) return *s;
  throw SpecParseError(0, "unknown built-in scenario '" + name + "'");
}

ScenarioSpec load_scenario(const std::string& name_or_file) {
  if (std::optional<ScenarioSpec> s = find_builtin(name_or_file)) return *s;
  std::optional<std::string> text;
  try {
    text = util::read_file(name_or_file);
  } catch (const std::runtime_error& e) {
    throw SpecIoError(e.what());
  }
  if (!text)
    throw SpecIoError("cannot open scenario '" + name_or_file +
                      "' (not a built-in name: see `xtest scenarios`)");
  return parse_scenario(*text);
}

}  // namespace xtest::spec
