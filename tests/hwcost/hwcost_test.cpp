// Structural sanity of the hardware cost model: the paper's qualitative
// claims must hold for every configuration (these are the *shape* checks;
// absolute numbers are compared against the paper in bench_table1_asic).
#include <gtest/gtest.h>

#include "hwcost/report.hpp"
#include "hwcost/systolic_cost.hpp"

namespace srmac::hw {
namespace {

const FpFormat kFormats[] = {kFp32, kFp16, kBf16, kFp12};

/// The array PE the SystolicCost cases project: FP8 E5M2 products into an
/// E6M5 accumulator, r = 9, subnormals off.
MacConfig cfg(AdderKind k = AdderKind::kEagerSR) {
  MacConfig c;
  c.mul_fmt = kFp8E5M2;
  c.acc_fmt = kFp12;
  c.adder = k;
  c.random_bits = 9;
  c.subnormals = false;
  return c;
}

TEST(HwCost, EagerBeatsLazyEverywhere) {
  for (const FpFormat& f : kFormats) {
    for (bool sub : {true, false}) {
      const int r = f.precision() + 3;
      const auto lazy = asic_adder_cost(f, AdderKind::kLazySR, r, sub);
      const auto eager = asic_adder_cost(f, AdderKind::kEagerSR, r, sub);
      EXPECT_LT(eager.area_um2, lazy.area_um2) << f.name();
      EXPECT_LT(eager.delay_ns, lazy.delay_ns) << f.name();
      EXPECT_LT(eager.energy_nw_mhz, lazy.energy_nw_mhz) << f.name();
    }
  }
}

TEST(HwCost, SrCostsMoreThanRn) {
  for (const FpFormat& f : kFormats) {
    const int r = f.precision() + 3;
    const auto rn = asic_adder_cost(f, AdderKind::kRoundNearest, 0, true);
    const auto eager = asic_adder_cost(f, AdderKind::kEagerSR, r, true);
    EXPECT_GT(eager.area_um2, rn.area_um2) << f.name();
  }
}

TEST(HwCost, CostGrowsWithFormatWidth) {
  const auto a12 = asic_adder_cost(kFp12, AdderKind::kRoundNearest, 0, true);
  const auto a16b = asic_adder_cost(kBf16, AdderKind::kRoundNearest, 0, true);
  const auto a16 = asic_adder_cost(kFp16, AdderKind::kRoundNearest, 0, true);
  const auto a32 = asic_adder_cost(kFp32, AdderKind::kRoundNearest, 0, true);
  EXPECT_LT(a12.area_um2, a16b.area_um2);
  EXPECT_LT(a16b.area_um2, a16.area_um2);
  EXPECT_LT(a16.area_um2, a32.area_um2);
  EXPECT_LT(a12.delay_ns, a16.delay_ns);
  EXPECT_LT(a16.delay_ns, a32.delay_ns);
}

TEST(HwCost, SubnormalSupportAddsSmallArea) {
  for (const FpFormat& f : kFormats) {
    const auto on = asic_adder_cost(f, AdderKind::kRoundNearest, 0, true);
    const auto off = asic_adder_cost(f, AdderKind::kRoundNearest, 0, false);
    EXPECT_GT(on.area_um2, off.area_um2);
    EXPECT_LT((on.area_um2 - off.area_um2) / off.area_um2, 0.10)
        << "subnormal overhead should be a few percent, " << f.name();
  }
}

TEST(HwCost, AreaMonotoneInRandomBits) {
  double prev = 0;
  for (int r : {4, 7, 9, 11, 13}) {
    const auto rep = asic_adder_cost(kFp12, AdderKind::kEagerSR, r, false);
    EXPECT_GT(rep.area_um2, prev);
    prev = rep.area_um2;
  }
}

TEST(HwCost, HeadlineClaimsHold) {
  // Conclusion of the paper: the 12-bit eager SR design w/o subnormals cuts
  // delay/area/energy by ~half vs FP32-RN and beats FP16-RN on all metrics.
  const auto eager = asic_adder_cost(kFp12, AdderKind::kEagerSR, 13, false);
  const auto rn32 = asic_adder_cost(kFp32, AdderKind::kRoundNearest, 0, true);
  const auto rn16 = asic_adder_cost(kFp16, AdderKind::kRoundNearest, 0, true);
  EXPECT_LT(eager.delay_ns, 0.6 * rn32.delay_ns);
  EXPECT_LT(eager.area_um2, 0.6 * rn32.area_um2);
  EXPECT_LT(eager.energy_nw_mhz, 0.6 * rn32.energy_nw_mhz);
  EXPECT_LT(eager.delay_ns, rn16.delay_ns);
  EXPECT_LT(eager.area_um2, rn16.area_um2);
  EXPECT_LT(eager.energy_nw_mhz, rn16.energy_nw_mhz);
}

TEST(HwCost, LazyNormalizationBlocksAreLarger) {
  // The area gain of eager "is mainly due to having larger LZD and
  // Normalization blocks in the classic case (p+r versus p+2)".
  const auto lazy = asic_adder_cost(kFp12, AdderKind::kLazySR, 9, false);
  const auto eager = asic_adder_cost(kFp12, AdderKind::kEagerSR, 9, false);
  const double lazy_norm = lazy.area_breakdown_ge.at("lzd") +
                           lazy.area_breakdown_ge.at("norm_shifter") +
                           lazy.area_breakdown_ge.at("norm_shifter_ext");
  const double eager_norm = eager.area_breakdown_ge.at("lzd") +
                            eager.area_breakdown_ge.at("norm_shifter");
  EXPECT_GT(lazy_norm, eager_norm);
}

TEST(HwCost, MacAddsMultiplierOnTop) {
  MacConfig cfg;
  cfg.acc_fmt = kFp12;
  cfg.adder = AdderKind::kEagerSR;
  cfg.random_bits = 9;
  const auto mac = asic_mac_cost(cfg);
  const auto add = asic_adder_cost(kFp12, AdderKind::kEagerSR, 9, true);
  EXPECT_GT(mac.area_um2, add.area_um2);
  EXPECT_GT(mac.delay_ns, add.delay_ns);
}

TEST(HwCost, FpgaEagerSmallerAndFasterThanLazy) {
  const auto lazy = fpga_adder_cost(kFp12, AdderKind::kLazySR, 13, false);
  const auto eager = fpga_adder_cost(kFp12, AdderKind::kEagerSR, 13, false);
  EXPECT_LT(eager.luts, lazy.luts);
  EXPECT_LT(eager.delay_ns, lazy.delay_ns);
  EXPECT_EQ(eager.ffs, lazy.ffs);  // same registers + LFSR
}

TEST(HwCost, GridsHaveExpectedShapes) {
  EXPECT_EQ(table1_grid().size(), 24u);
  EXPECT_EQ(table5_grid().size(), 7u);
  EXPECT_EQ(table2_grid().size(), 4u);
}

TEST(SystolicCost, SharedLfsrAmortizesSrOverhead) {
  hw::SystolicCostOptions opt;
  opt.rows = opt.cols = 16;
  opt.share_lfsr_per_row = true;
  const auto shared = hw::systolic_cost(cfg(), opt);
  opt.share_lfsr_per_row = false;
  const auto per_pe = hw::systolic_cost(cfg(), opt);
  EXPECT_LT(shared.energy_nj_per_kmac, per_pe.energy_nj_per_kmac);

  // Eager vs lazy at array scale: the delay advantage compounds into
  // throughput, and area/energy stay ahead.
  const auto eager = hw::systolic_cost(cfg(AdderKind::kEagerSR), opt);
  const auto lazy = hw::systolic_cost(cfg(AdderKind::kLazySR), opt);
  EXPECT_GT(eager.peak_gmacs, lazy.peak_gmacs);
  EXPECT_LT(eager.area_mm2, lazy.area_mm2);
}

TEST(SystolicCost, ScalesWithArraySize) {
  hw::SystolicCostOptions small{8, 8, true, 0.0};
  hw::SystolicCostOptions big{32, 32, true, 0.0};
  const auto s = hw::systolic_cost(cfg(), small);
  const auto b = hw::systolic_cost(cfg(), big);
  EXPECT_NEAR(b.area_mm2 / s.area_mm2, 16.0, 1.5);
  EXPECT_NEAR(b.peak_gmacs / s.peak_gmacs, 16.0, 0.1);
}

}  // namespace
}  // namespace srmac::hw
