// E2 -- Fig. 5: bus-transaction timing of the load instruction.
//
// Reconstructs the paper's LDA timing diagram from a live trace of the
// CPU-memory system.

#include "bench_util.h"
#include "cpu/assembler.h"
#include "soc/system.h"
#include "soc/waveform.h"
#include "util/table.h"

using namespace xtest;

namespace {

bool print_lda_trace(const spec::ScenarioSpec& scn) {
  soc::System sys(scn.system);
  soc::BusTrace trace;
  sys.set_trace(&trace);
  // The Fig. 4/5 scenario: lda Ax at Ai, operand at Ax.
  const cpu::AsmResult prog = cpu::assemble(R"(
        .org 0x010      ; Ai
        lda 0xe00       ; Ax = 1110:00000000
        hlt
        .org 0xe00
        .byte 0xf7      ; M[Ax]
  )");
  sys.load_and_reset(prog.image, prog.entry);
  sys.run(100);

  util::Table t({"cycle", "bus", "direction", "driven", "received"});
  for (const auto& e : trace.events()) {
    t.add_row({std::to_string(e.cycle), soc::to_string(e.bus),
               xtalk::to_string(e.direction), e.driven.to_page_offset(),
               e.received.to_page_offset()});
  }
  std::printf("\nBus transactions of `lda 0xe00` at 0x010 (idle cycles hold "
              "the bus, Section 4.1):\n%s",
              t.render().c_str());
  std::printf("\nExpected sequence (Fig. 5): addr Ai, Ai+1, Ax; "
              "data M[Ai], M[Ai+1], M[Ax].\n");
  std::printf("Total cycles for lda + hlt: %llu\n",
              static_cast<unsigned long long>(sys.processor().cycles()));

  std::printf("\nAddress-bus waveform (one column per transaction):\n%s",
              soc::render_waveform(trace, soc::BusKind::kAddress).c_str());
  std::printf("\nData-bus waveform:\n%s",
              soc::render_waveform(trace, soc::BusKind::kData).c_str());
  return true;  // DESIGN.md section 3 gates no claim here
}

}  // namespace

int main(int argc, char** argv) {
  return bench::scenario_main(argc, argv, "E2: LDA bus-transaction timing",
                              "Fig. 5 (load instruction timing diagram)",
                              spec::builtin_scenario("paper-baseline"),
                              print_lda_trace);
}
