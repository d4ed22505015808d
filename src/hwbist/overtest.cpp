#include "hwbist/overtest.h"

#include "sim/campaign.h"

namespace xtest::hwbist {

OverTestResult analyze_overtest(const soc::SystemConfig& system_config,
                                soc::BusKind bus,
                                const xtalk::DefectLibrary& library,
                                const sbst::GeneratorConfig& generator_config,
                                int max_sessions,
                                const util::ParallelConfig& parallel,
                                util::CampaignStats* stats) {
  const soc::System system(system_config);
  const bool bidirectional = bus == soc::BusKind::kData;
  const unsigned width =
      bus == soc::BusKind::kAddress ? cpu::kAddrBits : cpu::kDataBits;
  const HardwareBist bist(width, bidirectional);
  const xtalk::RcNetwork& nominal = bus == soc::BusKind::kAddress
                                        ? system.nominal_address_network()
                                        : system.nominal_data_network();
  const xtalk::CrosstalkErrorModel& model = bus == soc::BusKind::kAddress
                                                ? system.address_model()
                                                : system.data_model();
  const std::vector<sim::Verdict> by_bist =
      bist.run_library(nominal, model, library, parallel, stats);

  sbst::GeneratorConfig gen = generator_config;
  gen.include_address_bus = bus == soc::BusKind::kAddress;
  gen.include_data_bus = bus == soc::BusKind::kData;
  const std::vector<sbst::GenerationResult> sessions =
      sbst::TestProgramGenerator::generate_sessions(gen, max_sessions);
  const std::vector<sim::Verdict> by_sbst = sim::run_detection_sessions(
      system_config, sessions, bus, library,
      {.parallel = parallel, .stats = stats});

  OverTestResult r;
  r.library_size = library.size();
  for (std::size_t i = 0; i < library.size(); ++i) {
    if (by_bist[i] == sim::Verdict::kSimError ||
        by_sbst[i] == sim::Verdict::kSimError) {
      ++r.sim_errors;
      continue;
    }
    const bool b = sim::is_detected(by_bist[i]);
    const bool f = sim::is_detected(by_sbst[i]);
    r.bist_detected += b;
    r.functional_detected += f;
    r.overtest_only += b && !f;
    r.functional_only += f && !b;
  }
  return r;
}

}  // namespace xtest::hwbist
