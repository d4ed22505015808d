// E11 (extension) -- validation of the analytical crosstalk error model
// against the numerical coupled-RC transient reference.
//
// The MAF theory (and the paper's Fig. 10 defect criterion) rests on
// glitch height and delay growing monotonically with net coupling C.  This
// bench sweeps C through the threshold and compares, per fault type:
//   * analytical prediction (charge-share / Elmore-Miller closed forms),
//   * transient measurement (trapezoidal integration of the full network),
// and reports where each model places the detectability boundary.

#include "bench_util.h"
#include "util/table.h"
#include "xtalk/defect.h"
#include "xtalk/transient.h"

using namespace xtest;
using namespace xtest::xtalk;

namespace {

RcNetwork scaled(const RcNetwork& nom, unsigned victim, double target) {
  RcNetwork net = nom;
  const double f = target / nom.net_coupling(victim);
  for (unsigned j = 0; j < net.width(); ++j)
    if (j != victim) net.scale_coupling(victim, j, f);
  return net;
}

bool print_sweep(const spec::ScenarioSpec&) {
  BusGeometry g;
  g.width = 8;
  const RcNetwork nom(g);
  const double cth = recommended_cth(nom, 1.6);
  const unsigned victim = 4;
  const TransientSimulator sim;
  const CrosstalkErrorModel analytic(ErrorModelConfig::calibrated(nom, cth));

  const VectorPair gp = ma_test(
      8, {victim, MafType::kPositiveGlitch, BusDirection::kCoreToCpu});
  const VectorPair dr = ma_test(
      8, {victim, MafType::kRisingDelay, BusDirection::kCoreToCpu});

  util::Table t({"C / Cth", "glitch analytic (V)", "glitch transient (V)",
                 "delay analytic (ns)", "delay transient (ns)"});
  for (double r = 0.6; r <= 2.01; r += 0.2) {
    const RcNetwork net = scaled(nom, victim, r * cth);
    t.add_row({util::Table::num(r, 1),
               util::Table::num(analytic.glitch_amplitude(net, gp, victim), 3),
               util::Table::num(
                   sim.simulate(net, gp)[victim].peak_excursion_v, 3),
               util::Table::num(analytic.transition_delay(net, dr, victim), 3),
               util::Table::num(
                   sim.simulate(net, dr)[victim].crossing_time_ns, 3)});
  }
  std::printf("\nMA excitation sweep on data-bus wire 5 "
              "(Cth = %.1f fF):\n%s", cth, t.render().c_str());

  // Where does each model put the detectability boundary?
  const ErrorModelConfig a = ErrorModelConfig::calibrated(nom, cth);
  const ErrorModelConfig tr = transient_calibrated(nom, cth, sim);
  std::printf("\nthresholds at the Cth boundary:\n");
  std::printf("  glitch: analytic %.3f V   transient %.3f V "
              "(closed form is the conservative charge-share bound)\n",
              a.glitch_threshold_v, tr.glitch_threshold_v);
  std::printf("  delay:  analytic %.3f ns  transient %.3f ns "
              "(Elmore-Miller vs measured 50%% crossing)\n",
              a.delay_slack_ns, tr.delay_slack_ns);

  // Boundary agreement: verdicts of the two receivers across the sweep.
  int agree = 0, total = 0;
  for (double r = 0.5; r <= 2.5; r += 0.1) {
    const RcNetwork net = scaled(nom, victim, r * cth);
    for (const VectorPair& p : {gp, dr}) {
      const bool av = analytic.receive(net, p) != p.v2;
      const bool tv = sim.receive(net, p, tr) != p.v2;
      agree += av == tv;
      ++total;
    }
  }
  std::printf("\nverdict agreement across C in [0.5, 2.5] x Cth: %d/%d "
              "(each model calibrated to its own boundary)\n", agree, total);
  return true;  // DESIGN.md section 3 gates no claim here
}

}  // namespace

int main(int argc, char** argv) {
  return bench::scenario_main(
      argc, argv,
      "E11 (extension): analytical model vs RC transient reference",
      "validates the monotonicity the MAF/Cth criterion rests on",
      spec::builtin_scenario("paper-baseline"), print_sweep);
}
