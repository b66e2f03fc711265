// Extension bench (the paper's future work, Sec. V): the eager SR design
// inside a systolic-array accelerator. Projects array-level area, clock,
// peak throughput and energy for RN / lazy / eager PEs, with and without
// row-shared LFSRs, and runs a bit-accurate GEMM on the cycle-accurate
// array to confirm utilization and numerics.
#include <cstdio>

#include "accel/systolic_sim.hpp"
#include "hwcost/systolic_cost.hpp"
#include "rng/xoshiro.hpp"

using namespace srmac;
using namespace srmac::hw;

namespace {
MacConfig cfg(AdderKind k) {
  MacConfig c;
  c.mul_fmt = kFp8E5M2;
  c.acc_fmt = kFp12;
  c.adder = k;
  c.random_bits = 13;
  c.subnormals = false;
  return c;
}
}  // namespace

int main() {
  std::printf("Systolic-array projection (16x16 output-stationary PEs)\n\n");
  std::printf("%-40s %9s %8s %10s %12s\n", "PE configuration", "mm^2",
              "clk ns", "GMAC/s", "nJ/kMAC");
  SystolicCostOptions opt;
  for (AdderKind k : {AdderKind::kRoundNearest, AdderKind::kLazySR,
                      AdderKind::kEagerSR}) {
    for (bool shared : {false, true}) {
      if (k == AdderKind::kRoundNearest && shared) continue;
      opt.share_lfsr_per_row = shared;
      const SystolicReport r = systolic_cost(cfg(k), opt);
      std::printf("%-40s %9.3f %8.2f %10.1f %12.3f\n", r.name.c_str(),
                  r.area_mm2, r.clock_ns, r.peak_gmacs, r.energy_nj_per_kmac);
    }
  }

  // Functional run: accuracy of a long accumulation on the array.
  Xoshiro256 rng(3);
  const int M = 16, N = 16, K = 2048;
  std::vector<float> A(M * K), B(K * N), C(M * N);
  for (auto& v : A) v = static_cast<float>(0.25 + 0.5 * rng.uniform());
  for (auto& v : B) v = static_cast<float>(0.25 + 0.5 * rng.uniform());
  double exact = 0;
  for (int k = 0; k < K; ++k) exact += A[k] * B[k * N];

  std::printf("\nFunctional check, K=%d accumulation on the array:\n", K);
  for (AdderKind k : {AdderKind::kRoundNearest, AdderKind::kEagerSR}) {
    accel::CycleAccurateArray arr(cfg(k), 16, 16);
    const accel::SimStats st =
        arr.gemm(M, N, K, A.data(), K, B.data(), N, C.data(), N);
    std::printf("  %-12s C[0][0]=%9.2f (exact %9.2f)  cycles=%llu  util=%.2f\n",
                to_string(k).c_str(), C[0], exact,
                static_cast<unsigned long long>(st.cycles), st.utilization());
  }
  std::printf("\nExpected shape: eager PEs give the highest GMAC/s and lowest"
              "\nnJ/kMAC; shared LFSRs amortize the SR overhead further; RN"
              "\nPEs stagnate on the long accumulation while SR tracks it.\n");
  return 0;
}
