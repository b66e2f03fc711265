// Example: drive the cycle-accurate systolic-array simulator through one
// im2col-lowered convolution and inspect what the accelerator would do —
// exact cycle counts, PE utilization, operand-buffer traffic — under the
// paper's SR-MAC processing elements.
//
// Build & run:  ./build/examples/accelerator_sim
#include <cstdio>
#include <random>
#include <vector>

#include "accel/mapping.hpp"
#include "accel/systolic_sim.hpp"

using namespace srmac;
using namespace srmac::accel;

int main() {
  // One mid-network ResNet layer: 16x16 image, 32 -> 32 channels, 3x3.
  const LayerShape layer{"stage2_conv", 16 * 16, 32, 32 * 9};
  std::printf("Layer %s lowered to GEMM: M=%d N=%d K=%d (%.1f MMACs)\n\n",
              layer.name.c_str(), layer.M, layer.N, layer.K,
              1e-6 * static_cast<double>(layer.M) * layer.N * layer.K);

  // The paper's recommended PE: FP8 E5M2 multiplier, FP12 eager-SR
  // accumulator, 13 random bits, no subnormals — as a scenario string (the
  // grammar shared with the engine registry's "systolic" backend).
  const MacConfig cfg = *MacConfig::parse("eager_sr:e5m2/e6m5:r=13:subOFF");

  std::mt19937_64 rng(42);
  std::normal_distribution<float> dist(0.0f, 0.5f);
  std::vector<float> A(static_cast<size_t>(layer.M) * layer.K);
  std::vector<float> B(static_cast<size_t>(layer.K) * layer.N);
  for (auto& x : A) x = dist(rng);
  for (auto& x : B) x = dist(rng);
  std::vector<float> C(static_cast<size_t>(layer.M) * layer.N);

  std::printf("%-20s %10s %8s %10s %10s %10s\n", "array / dataflow",
              "cycles", "util", "A reads", "B reads", "C traffic");
  for (const int n : {8, 16}) {
    for (const Dataflow df :
         {Dataflow::kOutputStationary, Dataflow::kWeightStationary}) {
      CycleAccurateArray array(cfg, n, n, df);
      const SimStats st = array.gemm(layer.M, layer.N, layer.K, A.data(),
                                     layer.K, B.data(), layer.N, C.data(),
                                     layer.N);
      std::printf("%2dx%-2d %-14s %10llu %7.1f%% %10llu %10llu %10llu\n", n,
                  n,
                  df == Dataflow::kOutputStationary ? "out-stationary"
                                                    : "wgt-stationary",
                  static_cast<unsigned long long>(st.cycles),
                  100.0 * st.utilization(),
                  static_cast<unsigned long long>(st.a_reads),
                  static_cast<unsigned long long>(st.b_reads),
                  static_cast<unsigned long long>(st.c_writes + st.c_reads));
    }
  }

  // Project the whole network with the analytic mapping (the array's own
  // closed form, tested equal to the simulation).
  hw::SystolicCostOptions opt;
  opt.rows = opt.cols = 16;
  const auto reports = map_network(resnet20_layer_shapes(32), cfg, opt);
  const MappingReport& total = reports.back();
  std::printf(
      "\nResNet-20 forward pass on the 16x16 array: %.1f us, %.2f uJ, "
      "%.1f%% utilization\n",
      total.time_us, total.energy_uj, 100.0 * total.utilization);

  // A couple of per-layer rows to show where the time goes.
  std::printf("\n%-16s %9s %9s %8s\n", "layer", "cycles", "time(us)", "util");
  for (const auto& r : reports) {
    if (r.shape.name.find("conv0") == std::string::npos &&
        r.shape.name != "stem3x3" && r.shape.name != "fc" &&
        r.shape.name != "TOTAL")
      continue;
    std::printf("%-16s %9llu %9.2f %7.1f%%\n", r.shape.name.c_str(),
                static_cast<unsigned long long>(r.cycles), r.time_us,
                100.0 * r.utilization);
  }
  return 0;
}
