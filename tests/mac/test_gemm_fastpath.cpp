// Bit-exactness suite for the fused emulation engine: the blocked GEMM
// (decoded accumulator + product table + in-kernel LFSR lanes) must match
// the per-element MacUnit reference bit-for-bit, and the decoded adder cores
// must match the packed adder entry points on every input.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "fpemu/quantizer.hpp"
#include "fpemu/softfloat.hpp"
#include "mac/adder_eager_sr.hpp"
#include "mac/adder_lazy_sr.hpp"
#include "mac/adder_rn.hpp"
#include "mac/gemm.hpp"
#include "mac/mac_kernel.hpp"
#include "mac/mac_unit.hpp"
#include "mac/multiplier.hpp"
#include "rng/lfsr.hpp"
#include "rng/xoshiro.hpp"

namespace srmac {
namespace {

MacConfig make_cfg(AdderKind k, int r, bool sub, FpFormat acc,
                   FpFormat mul = kFp8E5M2) {
  MacConfig c;
  c.mul_fmt = mul;
  c.acc_fmt = acc;
  c.adder = k;
  c.random_bits = r;
  c.subnormals = sub;
  return c;
}

/// Fills a matrix with a mix of normals, tiny (subnormal-range) values,
/// exact zeros and occasional specials, so the chains exercise every adder
/// path including NaN/Inf propagation.
void fill_inputs(Xoshiro256& rng, std::vector<float>& v, bool specials) {
  for (auto& x : v) {
    const uint64_t pick = rng.below(100);
    if (pick < 70) {
      x = static_cast<float>(rng.normal());
    } else if (pick < 80) {
      x = static_cast<float>(rng.normal() * 1e-6);  // subnormal range in E5M2
    } else if (pick < 90) {
      x = 0.0f;
    } else if (specials && pick < 93) {
      x = std::numeric_limits<float>::infinity() * (rng.below(2) ? 1.f : -1.f);
    } else if (specials && pick < 95) {
      x = std::numeric_limits<float>::quiet_NaN();
    } else {
      x = static_cast<float>(rng.normal() * 64.0);  // overflow candidates
    }
  }
}

void expect_bitwise_equal(const std::vector<float>& got,
                          const std::vector<float>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << " diverges at flat index " << i << ": fast=" << got[i]
        << " ref=" << want[i];
  }
}

TEST(GemmFastpath, BitIdenticalToMacUnitReference) {
  // N >= 16 exercises the AVX-512 group path (plus remainder columns) on
  // hosts that have it; K = 520 runs long LFSR sequences.
  const struct {
    int m, n, k;
  } shapes[] = {{1, 1, 1},   {2, 3, 9},   {5, 7, 33},  {16, 5, 129},
                {8, 8, 70},  {4, 16, 40}, {3, 37, 60}, {2, 18, 520}};
  const AdderKind kinds[] = {AdderKind::kRoundNearest, AdderKind::kLazySR,
                             AdderKind::kEagerSR};
  const FpFormat accs[] = {kFp12, kFp16};
  Xoshiro256 rng(0xFA57);
  int combo = 0;
  for (const auto& sh : shapes) {
    for (AdderKind kind : kinds) {
      for (int r : {1, 8, 16}) {
        for (bool sub : {true, false}) {
          for (const FpFormat& acc : accs) {
            for (bool accumulate : {false, true}) {
              const MacConfig cfg = make_cfg(kind, r, sub, acc);
              std::vector<float> A(static_cast<size_t>(sh.m) * sh.k);
              std::vector<float> B(static_cast<size_t>(sh.k) * sh.n);
              std::vector<float> Cf(static_cast<size_t>(sh.m) * sh.n);
              // Specials only on the non-accumulating runs: NaN/Inf chains
              // saturate identically either way, plain runs keep the
              // accumulate path's arithmetic observable.
              fill_inputs(rng, A, !accumulate);
              fill_inputs(rng, B, !accumulate);
              fill_inputs(rng, Cf, false);
              std::vector<float> Cr = Cf;
              const uint64_t seed = 1000 + combo;
              gemm_mac(cfg, sh.m, sh.n, sh.k, A.data(), sh.k, B.data(), sh.n,
                       Cf.data(), sh.n, accumulate, seed, /*threads=*/2);
              gemm_mac_reference(cfg, sh.m, sh.n, sh.k, A.data(), sh.k,
                                 B.data(), sh.n, Cr.data(), sh.n, accumulate,
                                 seed, /*threads=*/1);
              expect_bitwise_equal(
                  Cf, Cr,
                  cfg.name() + " " + std::to_string(sh.m) + "x" +
                      std::to_string(sh.n) + "x" + std::to_string(sh.k) +
                      (accumulate ? " acc" : ""));
              ++combo;
            }
          }
        }
      }
    }
  }
}

TEST(GemmFastpath, ThreadCountKeepsBitsAcrossTheMacGrain) {
  // The kernel runs a problem on at most one thread per 8192 MAC steps, so
  // small problems run inline. Shapes on both sides of that grain (inline,
  // capped at two and at three threads, the whole pool, fewer rows than
  // threads) must give the reference's bits at every requested count.
  const struct {
    int m, n, k;
  } shapes[] = {{16, 16, 16}, {33, 20, 20}, {24, 30, 30},
                {25, 32, 32}, {64, 32, 32}, {7, 100, 90}};
  const AdderKind kinds[] = {AdderKind::kEagerSR, AdderKind::kLazySR,
                             AdderKind::kRoundNearest};
  Xoshiro256 rng(0x6A1E);
  uint64_t seed = 500;
  for (const auto& sh : shapes) {
    for (AdderKind kind : kinds) {
      const MacConfig cfg = make_cfg(kind, 9, true, kFp12);
      std::vector<float> A(static_cast<size_t>(sh.m) * sh.k);
      std::vector<float> B(static_cast<size_t>(sh.k) * sh.n);
      fill_inputs(rng, A, false);
      fill_inputs(rng, B, false);
      std::vector<float> Cr(static_cast<size_t>(sh.m) * sh.n);
      gemm_mac_reference(cfg, sh.m, sh.n, sh.k, A.data(), sh.k, B.data(),
                         sh.n, Cr.data(), sh.n, false, seed, /*threads=*/1);
      for (int threads : {1, 2, 4, 0}) {
        std::vector<float> Cf(Cr.size());
        gemm_mac(cfg, sh.m, sh.n, sh.k, A.data(), sh.k, B.data(), sh.n,
                 Cf.data(), sh.n, false, seed, threads);
        expect_bitwise_equal(Cf, Cr,
                             cfg.name() + " " + std::to_string(sh.m) + "x" +
                                 std::to_string(sh.n) + "x" +
                                 std::to_string(sh.k) + " threads=" +
                                 std::to_string(threads));
      }
      ++seed;
    }
  }
}

TEST(GemmFastpath, BitIdenticalForWideMultiplierFormat) {
  // E5M10 inputs exceed the product-table width gate, forcing the kernel's
  // slow addend path; the engine must stay bit-identical there too.
  const MacConfig cfg =
      make_cfg(AdderKind::kEagerSR, 13, true, kFp32, /*mul=*/kFp16);
  const int M = 4, N = 6, K = 40;
  Xoshiro256 rng(0x51DE);
  std::vector<float> A(M * K), B(K * N), Cf(M * N, 0.f), Cr(M * N, 0.f);
  fill_inputs(rng, A, true);
  fill_inputs(rng, B, true);
  gemm_mac(cfg, M, N, K, A.data(), K, B.data(), N, Cf.data(), N, false, 7, 2);
  gemm_mac_reference(cfg, M, N, K, A.data(), K, B.data(), N, Cr.data(), N,
                     false, 7, 1);
  expect_bitwise_equal(Cf, Cr, "E5M10 multiplier");
}

TEST(GemmFastpath, DecodedAdderCoresMatchPackedAdders) {
  // The packed adders are decode/encode wrappers around the decoded cores;
  // this pins the wrapper equivalence on dense random 12-bit patterns
  // (every class: normals, subnormals, zeros, infs, NaNs).
  Xoshiro256 rng(0xADDE);
  for (bool sub : {true, false}) {
    const FpFormat fmt = kFp12.with_subnormals(sub);
    for (int iter = 0; iter < 200000; ++iter) {
      const uint32_t a = static_cast<uint32_t>(rng.below(1u << fmt.width()));
      const uint32_t b = static_cast<uint32_t>(rng.below(1u << fmt.width()));
      const Unpacked ua = decode(fmt, a), ub = decode(fmt, b);
      const uint64_t rand_word = rng.next();
      ASSERT_EQ(add_rn(fmt, a, b),
                encode_unpacked(fmt, add_rn_u(fmt, ua, ub)))
          << "RN a=" << a << " b=" << b;
      for (int r : {1, 3, 9, 16, 32}) {
        ASSERT_EQ(add_lazy_sr(fmt, a, b, r, rand_word),
                  encode_unpacked(fmt, add_lazy_sr_u(fmt, ua, ub, r, rand_word)))
            << "lazy r=" << r << " a=" << a << " b=" << b;
        if (r >= 3) {
          ASSERT_EQ(
              add_eager_sr(fmt, a, b, r, rand_word),
              encode_unpacked(fmt, add_eager_sr_u(fmt, ua, ub, r, rand_word)))
              << "eager r=" << r << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(GemmFastpath, TableAddendMatchesStepSemantics) {
  // Exhaustive over all operand pairs of the 8-bit formats: the kernel's
  // (table) addend must equal what MacUnit::step feeds its adder.
  for (const FpFormat& mul : {kFp8E5M2, kFp8E4M3}) {
    for (bool sub : {true, false}) {
      const MacConfig cfg =
          make_cfg(AdderKind::kEagerSR, 9, sub, kFp12, mul).normalized();
      const FusedMacKernel kernel(cfg);
      ASSERT_TRUE(kernel.has_table());
      const FpFormat prod = product_format(cfg.mul_fmt);
      const bool direct =
          prod == cfg.acc_fmt.with_subnormals(prod.subnormals);
      for (uint32_t a = 0; a < 256; ++a) {
        for (uint32_t b = 0; b < 256; ++b) {
          const uint32_t pbits = multiply_exact(cfg.mul_fmt, a, b);
          const uint32_t want =
              direct ? pbits
                     : SoftFloat::convert(prod, pbits, cfg.acc_fmt,
                                          RoundingMode::kNearestEven);
          ASSERT_EQ(encode_unpacked(cfg.acc_fmt, kernel.addend(a, b)), want)
              << mul.name() << " sub=" << sub << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

/// One config of the parity fuzz below: chain_group over random operands
/// against decode + chain() + unpacked_to_float, lane by lane. `finite`
/// draws positive multiplier encodings with exponent field within one of
/// the bias (nonzero same-sign products of similar magnitude) instead of raw
/// random encodings; `combo` varies which lanes hold zero columns and
/// special starts.
void expect_group_matches_chain(const MacConfig& cfg, bool finite, int combo,
                                Xoshiro256& rng) {
  const FusedMacKernel kernel(cfg);
  const FpQuantizer q(cfg.acc_fmt);
  const FpFormat& mf = cfg.mul_fmt;
  const int G = kernel.group_width();
  const int n = 96, n1 = 37;
  const float inf = std::numeric_limits<float>::infinity();
  const float special_starts[] = {0.0f, -0.0f,
                                  std::numeric_limits<float>::quiet_NaN(),
                                  inf, -inf};
  const float sentinel = 12345.0f;  // padding lanes must keep it
  const auto operand = [&]() -> uint32_t {
    if (!finite) return static_cast<uint32_t>(rng.below(1u << mf.width()));
    const auto e = static_cast<uint32_t>(mf.bias() - 1 + rng.below(3));
    return e << mf.man_bits |
           static_cast<uint32_t>(rng.below(1u << mf.man_bits));
  };
  std::vector<uint32_t> a(n), b_ilv(static_cast<size_t>(n) * G);
  for (auto& v : a) v = operand();
  // In the raw stream every fifth lane's B column holds only zeros of
  // random sign, so its whole chain sums signed zeros.
  for (size_t idx = 0; idx < b_ilv.size(); ++idx)
    b_ilv[idx] = !finite && (static_cast<int>(idx % G) + combo) % 5 == 4
                     ? (rng.below(2) ? mf.sign_mask() : 0u)
                     : operand();
  std::vector<uint64_t> seeds(G);
  for (auto& v : seeds)
    v = GaloisLfsr::seed_state(kernel.lfsr_width(), rng.next());
  std::vector<float> start(G);
  for (int l = 0; l < G; ++l)
    start[l] = (l + combo) % 3 == 0
                   ? special_starts[(l + combo) / 3 % 5]
                   : unpacked_to_float(
                         cfg.acc_fmt,
                         decode(cfg.acc_fmt,
                                static_cast<uint32_t>(rng.below(
                                    uint64_t{1} << cfg.acc_fmt.width()))));
  for (int valid : {G, G / 2 + 1, G / 2 - 1}) {
    for (bool accumulate : {false, true}) {
      std::vector<float> c = start;
      std::fill(c.begin() + valid, c.end(), sentinel);
      std::vector<uint64_t> vlfsr = seeds;
      kernel.chain_group(a.data(), b_ilv.data(), n1, vlfsr.data(), c.data(),
                         valid, accumulate);
      kernel.chain_group(a.data() + n1,
                         b_ilv.data() + static_cast<size_t>(n1) * G, n - n1,
                         vlfsr.data(), c.data(), valid, /*accumulate=*/true);
      const std::string what = cfg.name() + " mul=" + mf.name() +
                               (finite ? " finite" : " raw") +
                               " valid=" + std::to_string(valid) +
                               (accumulate ? " acc" : "") + " lane ";
      for (int l = 0; l < G; ++l) {
        Unpacked sc = accumulate && l < valid
                          ? decode(cfg.acc_fmt, q(start[l]))
                          : unpacked_zero(cfg.acc_fmt, false);
        uint64_t s = seeds[l];
        std::vector<uint32_t> bcol(n);
        for (int k = 0; k < n; ++k)
          bcol[k] = b_ilv[static_cast<size_t>(k) * G + l];
        kernel.chain(sc, a.data(), bcol.data(), n, s);
        const float want =
            l < valid ? unpacked_to_float(cfg.acc_fmt, sc) : sentinel;
        ASSERT_EQ(std::bit_cast<uint32_t>(c[l]), std::bit_cast<uint32_t>(want))
            << what << l;
        if (l < valid) {
          ASSERT_EQ(vlfsr[l], s) << what << l;
        }
      }
    }
  }
}

TEST(GemmFastpath, VectorChainsMatchScalarAcrossRandomFormats) {
  // Scalar-vs-vector parity fuzz for every adder kind through the group
  // entry/exit contract: for each (adder, acc fmt, mul fmt, subnormals, r)
  // chain_group — the 16-lane vector kernel on AVX-512 hosts, the 4-wide
  // scalar lockstep groups elsewhere — must match, lane by lane, decode +
  // chain() + unpacked_to_float from the same LFSR seed. The group runs K
  // as two calls, the second accumulating the first's floats, so the lane
  // registers must carry the sequence across calls and end in the same
  // state. Lanes start at +0, -0, NaN, +-Inf and random acc-format values
  // (some summing only signed zeros, which pins the zero + zero sign rule),
  // read with and without `accumulate`, in a full group and in partial ones
  // (more and fewer valid lanes than half the group) whose padding lanes
  // must not be written.
  //
  // Each config runs two operand streams. Raw random encodings of the
  // multiplier format make NaN/Inf/zero/subnormal lanes, parking, and replay
  // all trigger. But they park most lanes early, so a gate one bit too loose
  // would pass on them alone; the finite stream's same-sign products of
  // similar magnitude run long chains of effective additions that carry out
  // of the window. r sweeps the 1..32 edge widths (normalized() clamps below
  // each adder's minimum), the benchmark's r = 9, the paper's r = 13, and
  // the 32-bit-lane bounds for the accumulator's precision p: 31 - p and
  // 32 - p, the largest r the lazy and the eager gate admit (the vector
  // chain on AVX-512 hosts), and 33 - p (the scalar groups for both).
  Xoshiro256 rng(0xF0522);
  const FpFormat accs[] = {kFp12,          kFp16,           FpFormat{4, 8},
                           FpFormat{7, 3}, FpFormat{8, 14}, kFp32};
  const AdderKind kinds[] = {AdderKind::kLazySR, AdderKind::kRoundNearest,
                             AdderKind::kEagerSR};
  int combo = 0;
  for (AdderKind kind : kinds) {
    for (const FpFormat& acc : accs) {
      for (const FpFormat& mul : {kFp8E5M2, kFp8E4M3}) {
        for (bool sub : {true, false}) {
          const int p = acc.precision();
          for (int r : {1, 2, 3, 4, 9, 13, 31 - p, 32 - p, 33 - p, 31, 32}) {
            const MacConfig cfg =
                make_cfg(kind, r, sub, acc, mul).normalized();
            for (bool finite : {false, true}) {
              expect_group_matches_chain(cfg, finite, combo++, rng);
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST(GemmFastpath, RepoScenariosRunTheVectorChain) {
  // Every scenario the repo runs fits its adder's 32-bit-lane bound (eager
  // p + r <= 32, lazy p + r <= 31, RN p <= 29), so on an AVX-512 host each
  // must report the vector width: a gate that sent one to the scalar groups
  // would pass every parity test and show only as a slower benchmark. The
  // lazy and RN rows are the scenarios the tests, benches and examples run,
  // Table III's RN rows included. Eager E6M5 at r = 31 and lazy E6M5 at r = 26
  // (p + r = 32) are past their bounds. RN E5M2/E6M5, which every gate
  // admits, reporting the scalar width means the host has no AVX-512 chain.
  const struct {
    const char* scenario;
    int width;
  } cases[] = {{"eager_sr:e5m2/e6m5:r=3", 16},  {"eager_sr:e5m2/e6m5:r=6", 16},
               {"eager_sr:e5m2/e6m5:r=9", 16},  {"eager_sr:e5m2/e6m5:r=13", 16},
               {"eager_sr:e4m3/e6m5:r=4", 16},  {"eager_sr:e4m3/e6m5:r=9", 16},
               {"eager_sr:e5m2/e5m4:r=8", 16},  {"eager_sr:e4m3/e7m8:r=17", 16},
               {"eager_sr:e5m2/e6m5:r=31", FusedMacKernel::kLanes},
               {"lazy_sr:e5m2/e6m5:r=1", 16},   {"lazy_sr:e5m2/e6m5:r=6", 16},
               {"lazy_sr:e5m2/e6m5:r=9", 16},   {"lazy_sr:e5m2/e6m5:r=13", 16},
               {"lazy_sr:e4m3/e6m5:r=4", 16},   {"lazy_sr:e4m3/e5m6:r=3", 16},
               {"lazy_sr:e5m2/e6m5:r=26", FusedMacKernel::kLanes},
               {"rn:e5m2/e6m5", 16},            {"rn:e4m3/e6m5", 16},
               {"rn:e4m3/e8m23", 16},           {"rn:e5m2/e5m10", 16},
               {"rn:e5m2/e8m7", 16}};
  const auto probe = MacConfig::parse("rn:e5m2/e6m5");
  ASSERT_TRUE(probe.has_value());
  if (FusedMacKernel(*probe).group_width() == FusedMacKernel::kLanes)
    GTEST_SKIP() << "no AVX-512 chain on this host";
  for (const auto& cs : cases) {
    std::string error;
    const auto cfg = MacConfig::parse(cs.scenario, &error);
    ASSERT_TRUE(cfg.has_value()) << cs.scenario << ": " << error;
    EXPECT_EQ(FusedMacKernel(*cfg).group_width(), cs.width) << cs.scenario;
  }
}

TEST(GemmFastpath, ZeroDenseOperandsMatchReference) {
  // ReLU-like operands, as in training and serving: A (weights-like,
  // signed) has whole zero rows, so a zero is broadcast to every lane of a
  // group, whole strictly negative rows, and at least half its other
  // entries exact zeros; B (activations-like) is max(0, x) with extra
  // padding zeros and whole zero columns (dead channels), so a negative row
  // meets runs of -0 products that pin the sign bit of a zero output. Runs
  // read C (zeros of both signs) with accumulate and overwrite it without.
  // Shapes are ResNet-20 GEMMs, plus K = 600 for a chain past 512 steps in
  // one call; N covers every padding depth of a partial last group
  // (N = 27: conv0's dW). C's rows are ldc = N + 3 apart with a sentinel in
  // the gap and a group's worth past the last row, which no padding lane may
  // overwrite. The wide N = 1024 panels,
  // most of the reference time, take one r per K (each r still meets
  // N = 1024 under every adder) and accumulate only.
  const AdderKind kinds[] = {AdderKind::kRoundNearest, AdderKind::kLazySR,
                             AdderKind::kEagerSR};
  const int rs[] = {3, 9, 27, 32};
  const int ks[] = {1, 4, 27, 36, 144, 600};
  Xoshiro256 rng(0x2E20);
  int combo = 0;
  for (AdderKind kind : kinds) {
    for (int ri = 0; ri < 4; ++ri) {
      for (int ki = 0; ki < 6; ++ki) {
        for (int n : {1, 7, 15, 16, 17, 27, 36, 47, 1024}) {
          for (bool accumulate : {false, true}) {
            if (n == 1024 &&
                (ks[ki] == 600 || ki % 4 != ri || !accumulate))
              continue;
            const int r = rs[ri], k = ks[ki];
            const int m = (combo % 2 == 0) ? 4 : 16;
            const int ldc = n + 3;
            const MacConfig cfg = make_cfg(kind, r, true, kFp12);
            std::vector<float> A(static_cast<size_t>(m) * k);
            std::vector<float> B(static_cast<size_t>(k) * n);
            // A group's worth of sentinel tail past the last row.
            std::vector<float> Cf(static_cast<size_t>(m) * ldc +
                                  FusedMacKernel::kMaxGroupWidth, 4242.0f);
            for (int i = 0; i < m; ++i) {
              const bool zero_row = i % 3 == 1, negative_row = i % 3 == 2;
              for (int kk = 0; kk < k; ++kk) {
                float& w = A[static_cast<size_t>(i) * k + kk];
                if (negative_row)
                  w = -0.5f - static_cast<float>(std::fabs(rng.normal()));
                else
                  w = zero_row || rng.below(2)
                          ? 0.0f
                          : static_cast<float>(rng.normal());
              }
            }
            for (int kk = 0; kk < k; ++kk)
              for (int j = 0; j < n; ++j)
                B[static_cast<size_t>(kk) * n + j] =
                    j % 5 == 2 || rng.below(5) == 0
                        ? 0.0f
                        : std::max(0.0f, static_cast<float>(rng.normal()));
            for (int i = 0; i < m; ++i)
              for (int j = 0; j < n; ++j)
                Cf[static_cast<size_t>(i) * ldc + j] =
                    rng.below(2) ? 0.0f : -0.0f;
            std::vector<float> Cr = Cf;
            const uint64_t seed = 77 + combo;
            gemm_mac(cfg, m, n, k, A.data(), k, B.data(), n, Cf.data(), ldc,
                     accumulate, seed, /*threads=*/2);
            gemm_mac_reference(cfg, m, n, k, A.data(), k, B.data(), n,
                               Cr.data(), ldc, accumulate, seed,
                               /*threads=*/2);
            expect_bitwise_equal(Cf, Cr,
                                 cfg.name() + " " + std::to_string(m) + "x" +
                                     std::to_string(n) + "x" +
                                     std::to_string(k) +
                                     (accumulate ? " acc" : ""));
            ++combo;
          }
        }
      }
    }
  }
}

TEST(GemmFastpath, NormalizedConfigClampsRandomBits) {
  // Regression for the MacUnit constructor sizing its LFSR from the raw
  // (un-normalized) random_bits: width and draw amount must both come from
  // the normalized configuration.
  MacConfig cfg = make_cfg(AdderKind::kEagerSR, 64, true, kFp12);
  EXPECT_EQ(cfg.normalized().random_bits, 32);
  EXPECT_EQ(MacUnit(cfg).lfsr_width(), 32);  // was 64 before the fix

  cfg.random_bits = 1;  // below the eager minimum of 3
  EXPECT_EQ(cfg.normalized().random_bits, 3);
  EXPECT_EQ(MacUnit(cfg).lfsr_width(), 4);

  cfg.adder = AdderKind::kLazySR;
  cfg.random_bits = 0;
  EXPECT_EQ(cfg.normalized().random_bits, 1);
  EXPECT_EQ(MacUnit(cfg).lfsr_width(), 4);

  cfg.adder = AdderKind::kRoundNearest;
  cfg.random_bits = -5;
  EXPECT_EQ(cfg.normalized().random_bits, 0);
  EXPECT_EQ(MacUnit(cfg).lfsr_width(), 4);

  // A non-normalized config must still run bit-identically through the
  // fused engine (both paths normalize to the same clamped r).
  const MacConfig wide = make_cfg(AdderKind::kEagerSR, 40, true, kFp12);
  const int M = 3, N = 4, K = 25;
  Xoshiro256 rng(0xC1A);
  std::vector<float> A(M * K), B(K * N), Cf(M * N, 0.f), Cr(M * N, 0.f);
  fill_inputs(rng, A, false);
  fill_inputs(rng, B, false);
  gemm_mac(wide, M, N, K, A.data(), K, B.data(), N, Cf.data(), N, false, 3, 2);
  gemm_mac_reference(wide, M, N, K, A.data(), K, B.data(), N, Cr.data(), N,
                     false, 3, 1);
  expect_bitwise_equal(Cf, Cr, "r=40 clamp");
}

}  // namespace
}  // namespace srmac
