// The scenario layer's contract: the text format round-trips exactly,
// malformed input fails with precise line numbers, defaults are the paper
// baseline, built-ins are valid, and the materializers reproduce the
// hand-built configuration paths they replaced.

#include "spec/scenario.h"

#include <gtest/gtest.h>

#include <fstream>

#include "util/rng.h"

namespace xtest::spec {
namespace {

// --- defaults --------------------------------------------------------------

TEST(ScenarioSpec, EmptyTextParsesToDefaults) {
  EXPECT_EQ(parse_scenario(""), ScenarioSpec{});
  EXPECT_EQ(parse_scenario("# only a comment\n\n   \n"), ScenarioSpec{});
}

TEST(ScenarioSpec, DefaultsAreThePaperBaseline) {
  // A default-constructed spec IS the configuration the consumers used to
  // hard-code: default SystemConfig, default GeneratorConfig, address bus,
  // 200 defects, the DAC-week seed.
  const ScenarioSpec s;
  EXPECT_EQ(s.system, soc::SystemConfig{});
  EXPECT_EQ(s.program, sbst::GeneratorConfig{});
  EXPECT_EQ(s.bus, soc::BusKind::kAddress);
  EXPECT_EQ(s.defect_count, 200u);
  EXPECT_EQ(s.seed, 20010618ull);
  EXPECT_DOUBLE_EQ(s.sigma_pct, 50.0);
  EXPECT_EQ(s.cycle_factor, 16ull);
}

TEST(ScenarioSpec, PartialSpecOnlyOverridesNamedKeys) {
  const ScenarioSpec s = parse_scenario(
      "bus = data\n"
      "defects = 42\n"
      "system.clock_period_scale = 2.5\n");
  EXPECT_EQ(s.bus, soc::BusKind::kData);
  EXPECT_EQ(s.defect_count, 42u);
  EXPECT_DOUBLE_EQ(s.system.clock_period_scale, 2.5);
  // Everything else stays at the default.
  EXPECT_EQ(s.seed, ScenarioSpec{}.seed);
  EXPECT_EQ(s.program, ScenarioSpec{}.program);
}

// --- round-trip ------------------------------------------------------------

ScenarioSpec random_spec(util::Rng& rng) {
  ScenarioSpec s;
  s.name = "rand-" + std::to_string(rng.below(1u << 20));
  s.description = "randomized spec " + std::to_string(rng.below(1000));
  s.bus = static_cast<soc::BusKind>(rng.below(3));
  s.defect_count = 1 + rng.below(5000);
  s.seed = rng.below(~0ull - 1);
  s.sigma_pct = 1.0 + 100.0 * rng.uniform();
  s.system.cth_ratio = 0.5 + 3.0 * rng.uniform();
  s.system.clock_period_scale = 0.5 + 4.0 * rng.uniform();
  s.system.fast_receive = rng.below(2) == 0;
  for (auto* g : {&s.system.address_geometry, &s.system.data_geometry,
                  &s.system.control_geometry}) {
    g->width = static_cast<unsigned>(2 + rng.below(30));
    g->wire_length_um = 100.0 + 5000.0 * rng.uniform();
    g->coupling_fF_per_um = 0.01 + rng.uniform();
    g->ground_fF_per_um = 0.01 + rng.uniform();
    g->distance_decay_exponent = 1.0 + 2.0 * rng.uniform();
    g->driver_resistance_ohm = 50.0 + 1000.0 * rng.uniform();
  }
  s.program.include_address_bus = rng.below(2) == 0;
  s.program.include_data_bus =
      !s.program.include_address_bus || rng.below(2) == 0;
  s.program.order = static_cast<sbst::PlacementOrder>(rng.below(4));
  s.program.data_both_directions = rng.below(2) == 0;
  s.program.group_size = static_cast<unsigned>(1 + rng.below(8));
  s.program.usable_limit = static_cast<cpu::Addr>(1 + rng.below(4096));
  s.multi_session = rng.below(2) == 0;
  s.max_sessions = static_cast<int>(1 + rng.below(8));
  s.cycle_factor = 1 + rng.below(64);
  s.threads = static_cast<unsigned>(rng.below(16));
  s.compare_bist = rng.below(2) == 0;
  s.workers = rng.below(5);
  s.system.electrical.backend =
      static_cast<xtalk::ElectricalBackend>(rng.below(2));
  s.system.electrical.swing_ratio = 0.1 + 0.9 * rng.uniform();
  s.system.electrical.restorer_ratio = 0.05 + 0.9 * rng.uniform();
  s.online.enabled = rng.below(2) == 0;
  s.online.slice_cycles = 1 + rng.below(4096);
  s.online.workload_cycles = 1 + rng.below(4096);
  s.online.deadline_cycles = 1 + rng.below(8192);
  return s;
}

TEST(ScenarioSpec, SerializeParseRoundTripsExactly) {
  util::Rng rng(20010618);
  for (int i = 0; i < 200; ++i) {
    const ScenarioSpec s = random_spec(rng);
    const std::string text = serialize_scenario(s);
    const ScenarioSpec back = parse_scenario(text);
    ASSERT_EQ(back, s) << "iteration " << i << "\n" << text;
    // Idempotence: a second trip changes nothing.
    ASSERT_EQ(serialize_scenario(back), text) << "iteration " << i;
  }
}

TEST(ScenarioSpec, DoubleValuesRoundTripAtFullPrecision) {
  ScenarioSpec s;
  s.sigma_pct = 0.1 + 0.2;  // 0.30000000000000004
  s.system.cth_ratio = 1.0 / 3.0;
  s.system.address_geometry.wire_length_um = 1e-7;
  const ScenarioSpec back = parse_scenario(serialize_scenario(s));
  EXPECT_EQ(back.sigma_pct, s.sigma_pct);
  EXPECT_EQ(back.system.cth_ratio, s.system.cth_ratio);
  EXPECT_EQ(back.system.address_geometry.wire_length_um,
            s.system.address_geometry.wire_length_um);
}

// --- malformed input -------------------------------------------------------

int parse_error_line(const std::string& text) {
  try {
    parse_scenario(text);
  } catch (const SpecParseError& e) {
    return e.line;
  }
  return -1;
}

TEST(ScenarioSpec, UnknownKeyNamesItsLine) {
  EXPECT_EQ(parse_error_line("bus = addr\nbogus_key = 7\n"), 2);
  try {
    parse_scenario("# c\n\nnot_a_key = 1\n");
    FAIL() << "expected SpecParseError";
  } catch (const SpecParseError& e) {
    EXPECT_EQ(e.line, 3);
    EXPECT_NE(std::string(e.what()).find("unknown key 'not_a_key'"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(ScenarioSpec, BadValueNamesKeyAndLine) {
  EXPECT_EQ(parse_error_line("defects = lots\n"), 1);
  EXPECT_EQ(parse_error_line("bus = addr\nseed = 12x\n"), 2);
  EXPECT_EQ(parse_error_line("sigma_pct = NaN%\n"), 1);
  EXPECT_EQ(parse_error_line("campaign.compare_bist = yes\n"), 1);
  EXPECT_EQ(parse_error_line("bus = pci\n"), 1);
  EXPECT_EQ(parse_error_line("program.order = alphabetical\n"), 1);
  EXPECT_EQ(parse_error_line("system.electrical = half-swing\n"), 1);
  EXPECT_EQ(parse_error_line("online.enabled = maybe\n"), 1);
  try {
    parse_scenario("system.electrical = half-swing\n");
    FAIL() << "expected SpecParseError";
  } catch (const SpecParseError& e) {
    // The error names the key AND spells out the valid values.
    EXPECT_NE(std::string(e.what()).find("system.electrical"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("full-swing"), std::string::npos);
  }
}

TEST(ScenarioSpec, NumbersThatWouldWrapOrAreNotFiniteNameKeyAndLine) {
  // Each of these once parsed to a different value than written: a sign
  // wrapped to 2^64-1, a wide value was cast down to its field, or a
  // double was not finite.
  for (const char* line :
       {"defects = -1", "defects = +5", "defects =  7x",
        "campaign.threads = 4294967297", "address.width = 4294967308",
        "sessions.max = 4294967297", "program.usable_limit = 65537",
        "seed = 18446744073709551616", "campaign.shard = -1/2",
        "sigma_pct = nan", "system.swing_ratio = nan",
        "system.clock_period_scale = inf", "system.cth_ratio = 1e999",
        "data.wire_length_um = -inf"}) {
    const std::string key(line, std::string(line).find(' '));
    try {
      parse_scenario(std::string("name = n\n") + line + "\n");
      FAIL() << "accepted: " << line;
    } catch (const SpecParseError& e) {
      EXPECT_EQ(e.line, 2) << line;
      EXPECT_NE(std::string(e.what()).find(key + ": "), std::string::npos)
          << e.what();
    }
  }
  // The largest value each field holds still parses, in any C base.
  const ScenarioSpec s = parse_scenario(
      "program.usable_limit = 65535\nsessions.max = 2147483647\n"
      "seed = 0xffffffffffffffff\ncampaign.threads = 4294967295\n"
      "defects = 010\n");
  EXPECT_EQ(s.program.usable_limit, 65535u);
  EXPECT_EQ(s.max_sessions, 2147483647);
  EXPECT_EQ(s.seed, ~0ull);
  EXPECT_EQ(s.threads, 4294967295u);
  EXPECT_EQ(s.defect_count, 8u);
}

TEST(ScenarioSpec, OnlineAndElectricalKeysRoundTrip) {
  const ScenarioSpec s = parse_scenario(
      "online.enabled = true\n"
      "online.slice_cycles = 96\n"
      "online.workload_cycles = 48\n"
      "online.deadline_cycles = 4000\n"
      "system.electrical = low-swing\n"
      "system.swing_ratio = 0.5\n"
      "system.restorer_ratio = 0.25\n");
  EXPECT_TRUE(s.online.enabled);
  EXPECT_EQ(s.online.slice_cycles, 96u);
  EXPECT_EQ(s.online.workload_cycles, 48u);
  EXPECT_EQ(s.online.deadline_cycles, 4000u);
  EXPECT_EQ(s.system.electrical.backend, xtalk::ElectricalBackend::kLowSwing);
  EXPECT_DOUBLE_EQ(s.system.electrical.swing_ratio, 0.5);
  EXPECT_DOUBLE_EQ(s.system.electrical.restorer_ratio, 0.25);
  EXPECT_EQ(parse_scenario(serialize_scenario(s)), s);
}

TEST(ScenarioSpec, OnlineValidationRules) {
  {
    ScenarioSpec s;
    s.online.enabled = true;
    EXPECT_NO_THROW(s.validate());
  }
  {
    ScenarioSpec s;
    s.online.enabled = true;
    s.compare_bist = true;
    EXPECT_THROW(s.validate(), SpecParseError);
  }
  {
    ScenarioSpec s;
    s.online.enabled = true;
    s.online.slice_cycles = 0;
    EXPECT_THROW(s.validate(), SpecParseError);
  }
  {
    // Disabled online mode does not police its cycle knobs.
    ScenarioSpec s;
    s.online.slice_cycles = 0;
    EXPECT_NO_THROW(s.validate());
  }
  {
    ScenarioSpec s;
    s.system.electrical.swing_ratio = 1.5;
    EXPECT_THROW(s.validate(), SpecParseError);
    s.system.electrical.swing_ratio = 0.4;
    s.system.electrical.restorer_ratio = 1.0;
    EXPECT_THROW(s.validate(), SpecParseError);
  }
}

TEST(ScenarioSpec, DuplicateKeyIsAnError) {
  EXPECT_EQ(parse_error_line("defects = 5\nseed = 1\ndefects = 6\n"), 3);
  try {
    parse_scenario("defects = 5\ndefects = 6\n");
    FAIL() << "expected SpecParseError";
  } catch (const SpecParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key 'defects'"),
              std::string::npos);
  }
}

TEST(ScenarioSpec, MissingEqualsIsAnError) {
  EXPECT_EQ(parse_error_line("defects 5\n"), 1);
  EXPECT_EQ(parse_error_line("= 5\n"), 1);
}

// --- built-ins -------------------------------------------------------------

TEST(ScenarioSpec, BuiltinsResolveRoundTripAndValidate) {
  ASSERT_GE(builtin_scenario_names().size(), 8u);
  for (const std::string& name : builtin_scenario_names()) {
    const std::optional<ScenarioSpec> s = find_builtin(name);
    ASSERT_TRUE(s.has_value()) << name;
    EXPECT_EQ(s->name, name);
    EXPECT_FALSE(s->description.empty()) << name;
    EXPECT_NO_THROW(s->validate()) << name;
    EXPECT_EQ(parse_scenario(serialize_scenario(*s)), *s) << name;
  }
  EXPECT_FALSE(find_builtin("no-such-scenario").has_value());
  EXPECT_THROW(builtin_scenario("no-such-scenario"), SpecParseError);
}

TEST(ScenarioSpec, PaperBaselineIsTheDefaultConfiguration) {
  const ScenarioSpec s = builtin_scenario("paper-baseline");
  ScenarioSpec d;
  d.name = s.name;
  d.description = s.description;
  EXPECT_EQ(s, d);
}

TEST(ScenarioSpec, LoadScenarioPrefersBuiltinsThenFiles) {
  EXPECT_EQ(load_scenario("slow-tester").system.clock_period_scale, 3.0);
  EXPECT_THROW(load_scenario("/nonexistent/path.scn"), SpecIoError);

  const std::string path = std::string(::testing::TempDir()) + "/t.scn";
  {
    std::ofstream f(path);
    f << "name = from-file\nbus = ctrl\n";
  }
  const ScenarioSpec s = load_scenario(path);
  EXPECT_EQ(s.name, "from-file");
  EXPECT_EQ(s.bus, soc::BusKind::kControl);
}

// --- validation ------------------------------------------------------------

TEST(ScenarioSpec, ValidateRejectsNonArchitecturalWidths) {
  ScenarioSpec s;
  s.system.address_geometry.width = 32;
  EXPECT_THROW(s.validate(), SpecParseError);
  s = ScenarioSpec{};
  s.system.data_geometry.width = 16;
  EXPECT_THROW(s.validate(), SpecParseError);
  s = ScenarioSpec{};
  s.defect_count = 0;
  EXPECT_THROW(s.validate(), SpecParseError);
  s = ScenarioSpec{};
  s.program.include_address_bus = false;
  s.program.include_data_bus = false;
  EXPECT_THROW(s.validate(), SpecParseError);
  EXPECT_NO_THROW(ScenarioSpec{}.validate());
}

// --- materializers reproduce the hand-built paths --------------------------

TEST(ScenarioSpec, MaterializersMatchHandBuiltConfiguration) {
  ScenarioSpec s;
  s.bus = soc::BusKind::kData;
  s.defect_count = 8;
  s.seed = 7;

  const xtalk::DefectLibrary via_spec = s.make_library();
  const xtalk::DefectLibrary by_hand =
      sim::make_defect_library(soc::SystemConfig{}, soc::BusKind::kData, 8, 7);
  ASSERT_EQ(via_spec.size(), by_hand.size());
  EXPECT_EQ(via_spec.config().seed, by_hand.config().seed);
  EXPECT_EQ(via_spec.config().cth_fF, by_hand.config().cth_fF);

  const auto spec_sessions = s.make_sessions();
  const auto hand_sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  ASSERT_EQ(spec_sessions.size(), hand_sessions.size());
  for (std::size_t i = 0; i < spec_sessions.size(); ++i)
    EXPECT_EQ(spec_sessions[i].program.tests.size(),
              hand_sessions[i].program.tests.size());

  util::CampaignStats stats;
  const std::vector<sim::Verdict> via =
      sim::run_detection_sessions(s.system, spec_sessions, s.bus, via_spec,
                                  s.campaign_options(&stats));
  const std::vector<sim::Verdict> hand = sim::run_detection_sessions(
      soc::SystemConfig{}, hand_sessions, soc::BusKind::kData, by_hand,
      {.parallel = {1}});
  EXPECT_EQ(via, hand);
}

TEST(ScenarioSpec, CheckpointKeyNeedsNoLibrary) {
  // The key is built from the spec alone, yet names the library exactly
  // as the generated one would: supervised parents never generate it.
  for (const std::string& name : builtin_scenario_names()) {
    ScenarioSpec s = builtin_scenario(name);
    s.defect_count = 30;
    s.seed = 5;
    for (const soc::BusKind bus : {soc::BusKind::kAddress,
                                   soc::BusKind::kData,
                                   soc::BusKind::kControl}) {
      s.bus = bus;
      const std::string library_key =
          sim::default_checkpoint_key(bus, s.make_library());
      EXPECT_EQ(s.checkpoint_key().rfind(library_key, 0), 0u)
          << name << ": " << s.checkpoint_key();
    }
  }
  ScenarioSpec low_swing = builtin_scenario("low-swing-bus");
  low_swing.defect_count = 30;
  low_swing.seed = 5;
  EXPECT_EQ(low_swing.checkpoint_key(),
            "bus=addr count=30 seed=5 sigma=50 cth=756.48000000000002 "
            "system.electrical=low-swing");
}

TEST(ScenarioSpec, CheckpointKeyCoversScheduleAndBackend) {
  // An on-line checkpoint resumed under another interleaving schedule or
  // electrical backend would mix outcomes of two different campaigns.
  const ScenarioSpec base = builtin_scenario("online-baseline");
  const std::string key = base.checkpoint_key();
  ScenarioSpec slice = base;
  slice.online.slice_cycles += 1;
  ScenarioSpec workload = base;
  workload.online.workload_cycles += 1;
  ScenarioSpec low_swing = base;
  low_swing.system.electrical.backend = xtalk::ElectricalBackend::kLowSwing;
  for (const ScenarioSpec* edited : {&slice, &workload, &low_swing})
    EXPECT_NE(edited->checkpoint_key(), key) << edited->checkpoint_key();
  EXPECT_NE(slice.checkpoint_key(), workload.checkpoint_key());
}

TEST(ScenarioSpec, SingleSessionScenarioGeneratesOneProgram) {
  ScenarioSpec s;
  s.multi_session = false;
  EXPECT_EQ(s.make_sessions().size(), 1u);
}

// --- seeded mutation fuzz -----------------------------------------------

/// 1-3 random edits: a bit flip, a byte insert, a byte delete, a
/// truncation or a duplicated line.
std::string mutate(std::string s, util::Rng& rng) {
  const std::uint64_t edits = 1 + rng.below(3);
  for (std::uint64_t k = 0; k < edits && !s.empty(); ++k) {
    const std::size_t at = rng.below(s.size());
    switch (rng.below(5)) {
      case 0: s[at] = static_cast<char>(s[at] ^ (1 << rng.below(8))); break;
      case 1: s.insert(at, 1, static_cast<char>(rng.below(256))); break;
      case 2: s.erase(at, 1); break;
      case 3: s.resize(at); break;
      default: {
        // Duplicate the line holding byte `at`.
        std::size_t from = at;
        while (from > 0 && s[from - 1] != '\n') --from;
        const std::size_t nl = s.find('\n', at);
        const std::size_t to = nl == std::string::npos ? s.size() : nl + 1;
        std::string line = s.substr(from, to - from);
        if (line.back() != '\n') line += '\n';
        s.insert(from, line);
        break;
      }
    }
  }
  return s;
}

TEST(ScenarioSpec, MutatedBuiltinsParseOrFailTyped) {
  // Whatever a damaged .scn holds, the parser either accepts it -- and
  // then validate() accepts it too or refuses it typed -- or refuses it
  // with a SpecParseError.  No other exception, no crash.
  util::Rng rng(20010618);
  std::size_t parsed = 0;
  std::size_t refused = 0;
  for (const std::string& name : builtin_scenario_names()) {
    const std::string text = serialize_scenario(builtin_scenario(name));
    for (int i = 0; i < 500; ++i) {
      const std::string damaged = mutate(text, rng);
      try {
        const ScenarioSpec s = parse_scenario(damaged);
        ++parsed;
        try {
          s.validate();
        } catch (const SpecParseError&) {
        }
      } catch (const SpecParseError&) {
        ++refused;
      }
    }
  }
  // Both outcomes are exercised, so the fuzz reaches past the first line.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(ScenarioSpec, CampaignOptionsCarryTheSpecFields) {
  ScenarioSpec s;
  s.cycle_factor = 9;
  s.threads = 3;
  util::CampaignStats stats;
  const sim::CampaignOptions o = s.campaign_options(&stats);
  EXPECT_EQ(o.cycle_factor, 9ull);
  EXPECT_EQ(o.parallel.threads, 3u);
  EXPECT_EQ(o.stats, &stats);
}

}  // namespace
}  // namespace xtest::spec
