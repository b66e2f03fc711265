// Cycle-accurate systolic-array simulator, the `systolic` backend's model:
// bit identity with per-PE MacUnit chains and (under RN) with gemm_mac,
// the closed-form statistics, traffic bookkeeping and the mapping built on
// them.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "accel/mapping.hpp"
#include "accel/systolic_sim.hpp"
#include "fpemu/softfloat.hpp"
#include "mac/gemm.hpp"

namespace srmac::accel {
namespace {

std::vector<float> random_matrix(int rows, int cols, uint64_t seed,
                                 float scale = 1.0f) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, scale);
  std::vector<float> m(static_cast<size_t>(rows) * cols);
  for (auto& x : m) x = dist(rng);
  return m;
}

MacConfig eager_cfg(bool subnormals = false) {
  MacConfig cfg;
  cfg.adder = AdderKind::kEagerSR;
  cfg.random_bits = 9;
  cfg.subnormals = subnormals;
  return cfg;
}

/// Dense row-major call: leading dimensions equal the logical ones.
SimStats dense_gemm(CycleAccurateArray& array, int M, int N, int K,
                    const float* A, const float* B, float* C) {
  return array.gemm(M, N, K, A, K, B, N, C, N);
}

struct Shape {
  int M, N, K, rows, cols;
};

/// C's padding columns hold this; no GEMM may touch them.
constexpr float kPad = 1234.5f;

/// A GEMM inside wider leading dimensions (A's and B's padding holds
/// random values the array must not read), with C preloaded with finite
/// values, +0 and -0.
struct Problem {
  int M, N, K, lda, ldb, ldc;
  std::vector<float> A, B, C;
};

Problem make_problem(const Shape& s, uint64_t seed) {
  Problem p{s.M, s.N, s.K, s.K + 3, s.N + 2, s.N + 5, {}, {}, {}};
  p.A = random_matrix(p.M, p.lda, seed);
  p.B = random_matrix(p.K, p.ldb, seed + 1);
  p.C = random_matrix(p.M, p.ldc, seed + 2);
  for (int i = 0; i < p.M; ++i)
    for (int j = 0; j < p.ldc; ++j) {
      float& c = p.C[static_cast<size_t>(i) * p.ldc + j];
      if (j >= p.N)
        c = kPad;
      else if ((i + j) % 3 == 1)
        c = 0.0f;
      else if ((i + j) % 3 == 2)
        c = -0.0f;
    }
  return p;
}

SimStats run(const MacConfig& cfg, const Shape& s, Dataflow df, uint64_t seed,
             const Problem& p, bool accumulate, std::vector<float>* C) {
  *C = p.C;
  return CycleAccurateArray(cfg, s.rows, s.cols, df, seed)
      .gemm(p.M, p.N, p.K, p.A.data(), p.lda, p.B.data(), p.ldb, C->data(),
            p.ldc, accumulate);
}

/// Bitwise equality, so +0 and -0 differ.
void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << ": element " << i << " (" << got[i] << " vs " << want[i]
        << ")";
}

const char* name(Dataflow df) {
  return df == Dataflow::kOutputStationary ? "OS" : "WS";
}

class CycleSimShapes : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, CycleSimShapes,
    ::testing::Values(Shape{4, 4, 8, 4, 4},      // exact fit
                      Shape{8, 8, 16, 4, 4},     // multi-tile
                      Shape{5, 7, 9, 4, 4},      // ragged edges
                      Shape{3, 3, 30, 8, 8},     // array larger than output
                      Shape{16, 4, 6, 4, 8}),    // rectangular array
    [](const auto& info) {
      const Shape& s = info.param;
      return "M" + std::to_string(s.M) + "N" + std::to_string(s.N) + "K" +
             std::to_string(s.K) + "pe" + std::to_string(s.rows) + "x" +
             std::to_string(s.cols);
    });

TEST_P(CycleSimShapes, OutputStationaryMatchesPerPeMacChains) {
  // Each C element is one MacUnit chain in k order, seeded by pe_seed for
  // its tile and grid position, starting from C in acc_fmt when
  // accumulating: the array changes the economics, not the numerics.
  const Shape s = GetParam();
  const MacConfig cfg = eager_cfg();
  const FpFormat mul = cfg.normalized().mul_fmt;
  const FpFormat acc = cfg.normalized().acc_fmt;
  const Problem p = make_problem(s, 1);
  for (const bool accumulate : {false, true}) {
    std::vector<float> want = p.C;
    for (int i = 0; i < p.M; ++i)
      for (int j = 0; j < p.N; ++j) {
        MacUnit pe(cfg, pe_seed(77, i / s.rows, j / s.cols, i % s.rows,
                                j % s.cols));
        float& c = want[static_cast<size_t>(i) * p.ldc + j];
        if (accumulate) pe.set_acc(SoftFloat::from_double(acc, c));
        for (int k = 0; k < p.K; ++k)
          pe.step(SoftFloat::from_double(
                      mul, p.A[static_cast<size_t>(i) * p.lda + k]),
                  SoftFloat::from_double(
                      mul, p.B[static_cast<size_t>(k) * p.ldb + j]));
        c = static_cast<float>(pe.acc_value());
      }
    std::vector<float> got;
    const SimStats st =
        run(cfg, s, Dataflow::kOutputStationary, 77, p, accumulate, &got);
    expect_same_bits(got, want, accumulate ? "accumulate" : "overwrite");
    EXPECT_EQ(st.macs, static_cast<uint64_t>(s.M) * s.N * s.K);
  }
  // The seed reaches the PEs' LFSRs: another one moves some SR output.
  std::vector<float> c77, c78;
  run(cfg, s, Dataflow::kOutputStationary, 77, p, false, &c77);
  run(cfg, s, Dataflow::kOutputStationary, 78, p, false, &c78);
  EXPECT_NE(c77, c78);
}

TEST_P(CycleSimShapes, RoundNearestMatchesGemmMac) {
  // Deterministic rounding draws no random words, so both dataflows
  // accumulate gemm_mac's chain in the same k order, bit for bit, though
  // their physical adders differ.
  const Shape s = GetParam();
  const Problem p = make_problem(s, 5);
  for (const bool subnormals : {false, true}) {
    MacConfig cfg = eager_cfg(subnormals);
    cfg.adder = AdderKind::kRoundNearest;
    for (const bool accumulate : {false, true}) {
      std::vector<float> want = p.C;
      gemm_mac(cfg, p.M, p.N, p.K, p.A.data(), p.lda, p.B.data(), p.ldb,
               want.data(), p.ldc, accumulate);
      for (const Dataflow df :
           {Dataflow::kOutputStationary, Dataflow::kWeightStationary}) {
        std::vector<float> got;
        run(cfg, s, df, 77, p, accumulate, &got);
        expect_same_bits(got, want,
                         std::string(name(df)) +
                             (subnormals ? " subON" : " subOFF") +
                             (accumulate ? " accumulate" : " overwrite"));
      }
    }
  }
}

TEST_P(CycleSimShapes, ExpectedStatsMatchSimulation) {
  const Shape s = GetParam();
  const MacConfig cfg = eager_cfg();
  const Problem p = make_problem(s, 3);
  for (const Dataflow df :
       {Dataflow::kOutputStationary, Dataflow::kWeightStationary}) {
    for (const bool accumulate : {false, true}) {
      std::vector<float> c;
      const SimStats st = run(cfg, s, df, 77, p, accumulate, &c);
      const SimStats want = CycleAccurateArray(cfg, s.rows, s.cols, df)
                                .expected_stats(s.M, s.N, s.K, accumulate);
      SCOPED_TRACE(std::string(name(df)) +
                   (accumulate ? " accumulate" : " overwrite"));
      EXPECT_EQ(st.cycles, want.cycles);
      EXPECT_EQ(st.macs, want.macs);
      EXPECT_EQ(st.a_reads, want.a_reads);
      EXPECT_EQ(st.b_reads, want.b_reads);
      EXPECT_EQ(st.c_writes, want.c_writes);
      EXPECT_EQ(st.c_reads, want.c_reads);
      EXPECT_EQ(st.pe_count, want.pe_count);
    }
  }
}

TEST(CycleSim, TrafficAccounting) {
  // 8x8 output on a 4x4 array, K=5: OS streams each A row tile once per
  // column tile and vice versa; C written exactly once per element.
  const MacConfig cfg = eager_cfg();
  const int M = 8, N = 8, K = 5;
  const auto A = random_matrix(M, K, 5);
  const auto B = random_matrix(K, N, 6);
  CycleAccurateArray sim(cfg, 4, 4);
  std::vector<float> c(static_cast<size_t>(M) * N);
  const SimStats st = dense_gemm(sim, M, N, K, A.data(), B.data(), c.data());
  EXPECT_EQ(st.a_reads, static_cast<uint64_t>(2) * M * K);  // 2 column tiles
  EXPECT_EQ(st.b_reads, static_cast<uint64_t>(2) * N * K);  // 2 row tiles
  EXPECT_EQ(st.c_writes, static_cast<uint64_t>(M) * N);
  EXPECT_EQ(st.c_reads, 0u);
  // Four tiles of K + rows + cols - 2 cycles, then the drain epilogue.
  EXPECT_EQ(st.cycles, 4u * (5 + 4 + 4 - 2) + 4 + 4);
  // One exact 8x8 tile on an 8x8 array, and four of them.
  CycleAccurateArray eight(cfg, 8, 8);
  EXPECT_EQ(eight.expected_stats(8, 8, 100).cycles, 100u + 8 + 8 - 2 + 16);
  EXPECT_EQ(eight.expected_stats(16, 16, 100).cycles, 4u * (100 + 14) + 16);
}

TEST(CycleSim, WeightStationarySrStaysClose) {
  // Under SR the dataflows draw different random words, so bits may
  // differ; the results must still agree to accumulator precision.
  const MacConfig cfg = eager_cfg();
  const int M = 6, N = 6, K = 24;
  const auto A = random_matrix(M, K, 9, 0.5f);
  const auto B = random_matrix(K, N, 10, 0.5f);
  CycleAccurateArray os(cfg, 4, 4, Dataflow::kOutputStationary);
  CycleAccurateArray ws(cfg, 4, 4, Dataflow::kWeightStationary);
  std::vector<float> c_os(static_cast<size_t>(M) * N),
      c_ws(static_cast<size_t>(M) * N);
  dense_gemm(os, M, N, K, A.data(), B.data(), c_os.data());
  dense_gemm(ws, M, N, K, A.data(), B.data(), c_ws.data());
  for (size_t i = 0; i < c_os.size(); ++i) {
    const float scale = std::max(1.0f, std::abs(c_os[i]));
    ASSERT_NEAR(c_os[i], c_ws[i], 0.25f * scale) << "element " << i;
  }
}

TEST(CycleSim, UtilizationImprovesWithMatchedTiling) {
  const MacConfig cfg = eager_cfg();
  const int M = 16, N = 16, K = 64;
  const auto A = random_matrix(M, K, 11);
  const auto B = random_matrix(K, N, 12);
  std::vector<float> c(static_cast<size_t>(M) * N);

  CycleAccurateArray fit(cfg, 16, 16);
  const SimStats st_fit = dense_gemm(fit, M, N, K, A.data(), B.data(),
                                     c.data());
  CycleAccurateArray ragged(cfg, 12, 12);
  const SimStats st_rag = dense_gemm(ragged, M, N, K, A.data(), B.data(),
                                     c.data());
  EXPECT_GT(st_fit.utilization(), st_rag.utilization());

  // A deep K on a filled array amortizes the skew: utilization nears 1.
  const std::vector<float> a(8 * 512, 0.5f), b(512 * 8, 0.5f);
  std::vector<float> c8(8 * 8);
  CycleAccurateArray eight(cfg, 8, 8);
  EXPECT_GT(dense_gemm(eight, 8, 8, 512, a.data(), b.data(), c8.data())
                .utilization(),
            0.9);
}

TEST(Mapping, ResNet20ShapesAndTotals) {
  const auto layers = resnet20_layer_shapes(32);
  ASSERT_EQ(layers.size(), 20u);  // stem + 18 convs + fc
  // ~40.5 MMACs for ResNet-20 at 32x32 (well-known figure, batch 1).
  uint64_t macs = 0;
  for (const auto& l : layers)
    macs += static_cast<uint64_t>(l.M) * l.N * l.K;
  EXPECT_NEAR(static_cast<double>(macs), 40.5e6, 2.5e6);

  const auto reports = map_network(layers, eager_cfg());
  const MappingReport& total = reports.back();
  EXPECT_EQ(total.macs, macs);
  EXPECT_GT(total.utilization, 0.3);
  EXPECT_LE(total.utilization, 1.0);
  EXPECT_GT(total.energy_uj, 0.0);
  EXPECT_GT(total.time_us, 0.0);
}

TEST(Mapping, AnalyticCyclesMatchSimulatorOnSmallLayer) {
  const MacConfig cfg = eager_cfg();
  hw::SystolicCostOptions opt;
  opt.rows = 4;
  opt.cols = 4;
  const LayerShape l{"toy", 8, 8, 12};
  const auto A = random_matrix(l.M, l.K, 13);
  const auto B = random_matrix(l.K, l.N, 14);
  for (const Dataflow df :
       {Dataflow::kOutputStationary, Dataflow::kWeightStationary}) {
    const MappingReport rep = map_layer(l, cfg, opt, df);
    CycleAccurateArray sim(cfg, 4, 4, df);
    std::vector<float> c(static_cast<size_t>(l.M) * l.N);
    const SimStats st = dense_gemm(sim, l.M, l.N, l.K, A.data(), B.data(),
                                   c.data());
    SCOPED_TRACE(name(df));
    EXPECT_EQ(rep.cycles, st.cycles);
    EXPECT_EQ(rep.a_words, st.a_reads);
    EXPECT_EQ(rep.b_words, st.b_reads);
    EXPECT_EQ(rep.c_words, st.c_writes + st.c_reads);
  }
}

TEST(Mapping, EagerArrayBeatsLazyArrayOnEnergyAndTime) {
  // The paper's future-work claim at array scale.
  const auto layers = resnet20_layer_shapes(32);
  MacConfig lazy = eager_cfg();
  lazy.adder = AdderKind::kLazySR;
  const auto re = map_network(layers, eager_cfg());
  const auto rl = map_network(layers, lazy);
  EXPECT_LT(re.back().time_us, rl.back().time_us);
  EXPECT_LT(re.back().energy_uj, rl.back().energy_uj);
}

}  // namespace
}  // namespace srmac::accel
