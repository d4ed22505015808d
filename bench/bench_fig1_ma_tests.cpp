// E1 -- Fig. 1: Maximum aggressor tests for victim Yi.
//
// Prints the MA vector pairs for every victim/fault type of the 8-bit data
// bus and the 12-bit address bus.

#include "bench_util.h"
#include "util/table.h"
#include "xtalk/maf.h"

using namespace xtest;

namespace {

void print_ma_table(unsigned width, const char* name) {
  util::Table t({"victim", "fault", "v1", "v2", "faulty v2"});
  for (unsigned v = 0; v < width; ++v) {
    for (xtalk::MafType type : xtalk::kAllMafTypes) {
      const xtalk::MafFault f{v, type, xtalk::BusDirection::kCpuToCore};
      const xtalk::VectorPair p = xtalk::ma_test(width, f);
      t.add_row({std::to_string(v + 1), xtalk::to_string(type),
                 p.v1.to_page_offset(), p.v2.to_page_offset(),
                 xtalk::faulty_v2(f, p).to_page_offset()});
    }
  }
  std::printf("\nMA tests, %s (%u wires, %zu faults):\n%s", name, width,
              static_cast<std::size_t>(4) * width, t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  return bench::scenario_main(
      argc, argv, "E1: MA test vector pairs",
      "Fig. 1 (maximum aggressor tests for victim Yi)",
      spec::builtin_scenario("paper-baseline"), [](const spec::ScenarioSpec&) {
        print_ma_table(8, "data bus");
        print_ma_table(12, "address bus");
        std::printf("\nFault counts: data bus bidirectional = %zu (paper: "
                    "64), address bus = %zu (paper: 48)\n",
                    xtalk::enumerate_mafs(8, true).size(),
                    xtalk::enumerate_mafs(12, false).size());
        return true;  // DESIGN.md section 3 gates no claim here
      });
}
