// Quickstart: the five-minute tour of the library.
//
//  1. Encode/decode values in arbitrary small floating-point formats.
//  2. Multiply two FP8 values exactly into FP12 (the paper's multiplier).
//  3. Accumulate with stochastic rounding and watch RN stagnate where SR
//     doesn't (the reason the SR-MAC exists).
//  4. Ask the hardware cost model what the design costs in 28nm.
//  5. Run a GEMM on the EmuEngine: scenario string -> backend -> telemetry.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "engine/emu_engine.hpp"
#include "fpemu/softfloat.hpp"
#include "hwcost/adder_designs.hpp"
#include "mac/mac_unit.hpp"
#include "tensor/tensor_ops.hpp"
#include "mac/multiplier.hpp"

using namespace srmac;

int main() {
  // --- 1. formats -----------------------------------------------------------
  std::printf("== Formats ==\n");
  for (const FpFormat& f : {kFp8E5M2, kFp12, kFp16, kBf16}) {
    std::printf("  %-6s width=%2d  emax=%4d  emin=%4d  ulp(1.0)=2^-%d\n",
                f.name().c_str(), f.width(), f.emax(), f.emin(), f.man_bits);
  }

  const uint32_t a = SoftFloat::from_double(kFp8E5M2, 1.75);
  const uint32_t b = SoftFloat::from_double(kFp8E5M2, -0.375);
  std::printf("  1.75  encodes to 0x%02X in E5M2\n", a);
  std::printf("  -0.375 encodes to 0x%02X in E5M2\n", b);

  // --- 2. exact multiplication ---------------------------------------------
  std::printf("\n== Exact FP8 multiplier (E5M2 x E5M2 -> E6M5) ==\n");
  const uint32_t prod = multiply_exact(kFp8E5M2, a, b);
  std::printf("  1.75 * -0.375 = %g (exact, no rounding stage)\n",
              SoftFloat::to_double(kFp12, prod));

  // --- 3. the headline effect ----------------------------------------------
  std::printf("\n== Swamping: RN vs eager SR, 512 x (0.5*0.5) from 64 ==\n");
  auto accumulate = [&](AdderKind kind) {
    MacConfig cfg;
    cfg.mul_fmt = kFp8E5M2;
    cfg.acc_fmt = kFp12;
    cfg.adder = kind;
    cfg.random_bits = 13;
    MacUnit unit(cfg);
    unit.set_acc(SoftFloat::from_double(kFp12, 64.0));
    const uint32_t half = SoftFloat::from_double(kFp8E5M2, 0.5);
    for (int i = 0; i < 512; ++i) unit.step(half, half);
    return unit.acc_value();
  };
  std::printf("  exact        : %g\n", 64.0 + 512 * 0.25);
  std::printf("  RN    (E6M5) : %g   <- stagnates at 64\n",
              accumulate(AdderKind::kRoundNearest));
  std::printf("  SR-eager     : %g   <- tracks the true sum\n",
              accumulate(AdderKind::kEagerSR));

  // --- 4. what does it cost? ------------------------------------------------
  std::printf("\n== 28nm cost model (adder only) ==\n");
  for (auto [kind, r] : {std::pair{AdderKind::kRoundNearest, 0},
                         {AdderKind::kLazySR, 9},
                         {AdderKind::kEagerSR, 9}}) {
    const hw::AsicReport rep = hw::asic_adder_cost(kFp12, kind, r, false);
    std::printf("  %-22s area %7.1f um^2   delay %5.2f ns   energy %5.2f nW/MHz\n",
                rep.name.c_str(), rep.area_um2, rep.delay_ns,
                rep.energy_nw_mhz);
  }
  // --- 5. the engine --------------------------------------------------------
  // Everything above scales up behind one facade: a scenario string picks
  // the MAC configuration, a registry name picks the execution backend
  // (fp32 | reference | sharded | systolic), and the telemetry sink counts
  // what ran. This is the API the layers, trainer, and benches use.
  std::printf("\n== EmuEngine: one GEMM through the default backend ==\n");
  EmuEngine engine =
      EmuEngine::Builder().scenario("eager_sr:e5m2/e6m5:r=9:subON").build();
  std::printf("  %s\n  registered backends:", engine.describe().c_str());
  for (const std::string& n : EmuEngine::backends())
    std::printf(" %s", n.c_str());
  std::printf("\n");

  const int n = 32;
  std::vector<float> ma(n * n, 0.25f), mb(n * n, 0.5f), mc(n * n);
  matmul(engine.context(), n, n, n, ma.data(), mb.data(), mc.data());
  const TelemetrySnapshot t = engine.telemetry().snapshot();
  std::printf("  C[0][0] = %g (exact %g); telemetry: %llu GEMM, %llu MACs,"
              " %llu bytes quantized\n",
              mc[0], 0.25 * 0.5 * n, static_cast<unsigned long long>(t.gemms),
              static_cast<unsigned long long>(t.macs),
              static_cast<unsigned long long>(t.bytes_quantized));

  std::printf("\nNext: examples/train_cnn_lowprecision, examples/hw_design_explorer,\n"
              "examples/sr_dotprod_study, and the bench_* binaries for every\n"
              "table/figure of the paper (all accept --scenario/--backend;\n"
              "see docs/API.md).\n");
  return 0;
}
