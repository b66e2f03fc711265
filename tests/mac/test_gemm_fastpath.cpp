// Bit-exactness suite for the fused emulation engine: the blocked GEMM
// (decoded accumulator + product table + in-kernel LFSR lanes) must match
// the per-element MacUnit reference bit-for-bit, and the decoded adder cores
// must match the packed adder entry points on every input.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

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

TEST(GemmFastpath, VectorChainsMatchScalarAcrossRandomFormats) {
  // Scalar-vs-vector parity fuzz for every adder kind, with the lazy-SR and
  // RN chains as the main subjects (their AVX-512 paths landed after the
  // eager one): for each (adder, acc fmt, mul fmt, subnormals, r) the
  // 16-lane chain_group — the vector kernel on AVX-512 hosts, the 4-wide
  // scalar lockstep groups elsewhere — must be bit-identical to per-lane
  // chain() calls from the same LFSR seeds. The group runs K as two calls
  // and the lanes as one, so the lane registers must carry the sequence
  // across calls and end in the same state. Operands are raw random
  // encodings of the multiplier format, so NaN/Inf/zero/subnormal lanes,
  // parking, and replay all trigger; r sweeps the 1..32 edge widths
  // (normalized() clamps below each adder's minimum).
  Xoshiro256 rng(0xF0522);
  const FpFormat accs[] = {kFp12, kFp16, FpFormat{4, 8}, FpFormat{7, 3},
                           FpFormat{8, 14}};
  const AdderKind kinds[] = {AdderKind::kLazySR, AdderKind::kRoundNearest,
                             AdderKind::kEagerSR};
  for (AdderKind kind : kinds) {
    for (const FpFormat& acc : accs) {
      for (const FpFormat& mul : {kFp8E5M2, kFp8E4M3}) {
        for (bool sub : {true, false}) {
          for (int r : {1, 2, 3, 4, 31, 32}) {
            const MacConfig cfg = make_cfg(kind, r, sub, acc, mul).normalized();
            const FusedMacKernel kernel(cfg);
            const int G = kernel.group_width();
            const int n = 96, n1 = 37;
            std::vector<uint32_t> a(n), b_ilv(static_cast<size_t>(n) * G);
            for (auto& v : a)
              v = static_cast<uint32_t>(rng.below(1u << cfg.mul_fmt.width()));
            for (auto& v : b_ilv)
              v = static_cast<uint32_t>(rng.below(1u << cfg.mul_fmt.width()));
            std::vector<uint64_t> seeds(G);
            for (auto& v : seeds)
              v = GaloisLfsr::seed_state(kernel.lfsr_width(), rng.next());
            // Start lanes on a mix of zero and random finite/special values.
            std::vector<Unpacked> start(G);
            for (int l = 0; l < G; ++l)
              start[l] = (l % 3 == 0)
                             ? unpacked_zero(cfg.acc_fmt, false)
                             : decode(cfg.acc_fmt,
                                      static_cast<uint32_t>(rng.below(
                                          1u << cfg.acc_fmt.width())));
            std::vector<Unpacked> vec = start;
            std::vector<uint64_t> vlfsr = seeds;
            kernel.chain_group(vec.data(), a.data(), b_ilv.data(), n1,
                               vlfsr.data());
            kernel.chain_group(vec.data(), a.data() + n1,
                               b_ilv.data() + static_cast<size_t>(n1) * G,
                               n - n1, vlfsr.data());
            for (int l = 0; l < G; ++l) {
              Unpacked sc = start[l];
              uint64_t s = seeds[l];
              std::vector<uint32_t> bcol(n);
              for (int k = 0; k < n; ++k)
                bcol[k] = b_ilv[static_cast<size_t>(k) * G + l];
              kernel.chain(sc, a.data(), bcol.data(), n, s);
              ASSERT_EQ(encode_unpacked(cfg.acc_fmt, vec[l]),
                        encode_unpacked(cfg.acc_fmt, sc))
                  << cfg.name() << " mul=" << mul.name() << " lane " << l;
              ASSERT_EQ(vlfsr[l], s)
                  << cfg.name() << " mul=" << mul.name() << " lane " << l;
            }
          }
        }
      }
    }
  }
}

TEST(GemmFastpath, ZeroDenseOperandsMatchReference) {
  // ReLU-like operands, as in training and serving: A (weights-like,
  // signed) has whole zero rows, so a zero is broadcast to every lane of a
  // group, and at least half its other entries are exact zeros; B
  // (activations-like) is max(0, x) with extra padding zeros; C is zero
  // (both signs) and accumulated into, so chains start parked. Shapes are
  // ResNet-20 GEMMs, plus K = 600 for a chain past 512 steps in one call.
  // The wide N = 1024 panels, most of the reference time, take one r per K
  // (each r still meets N = 1024 under every adder).
  const AdderKind kinds[] = {AdderKind::kRoundNearest, AdderKind::kLazySR,
                             AdderKind::kEagerSR};
  const int rs[] = {3, 9, 27, 32};
  const int ks[] = {1, 4, 27, 36, 144, 600};
  Xoshiro256 rng(0x2E20);
  int combo = 0;
  for (AdderKind kind : kinds) {
    for (int ri = 0; ri < 4; ++ri) {
      for (int ki = 0; ki < 6; ++ki) {
        for (int n : {16, 36, 1024}) {
          if (n == 1024 && (ks[ki] == 600 || ki % 4 != ri)) continue;
          const int r = rs[ri], k = ks[ki];
          const int m = (combo % 2 == 0) ? 4 : 16;
          const MacConfig cfg = make_cfg(kind, r, true, kFp12);
          std::vector<float> A(static_cast<size_t>(m) * k);
          std::vector<float> B(static_cast<size_t>(k) * n);
          std::vector<float> Cf(static_cast<size_t>(m) * n);
          for (int i = 0; i < m; ++i) {
            const bool zero_row = i % 3 == 1;
            for (int kk = 0; kk < k; ++kk)
              A[static_cast<size_t>(i) * k + kk] =
                  zero_row || rng.below(2) ? 0.0f
                                           : static_cast<float>(rng.normal());
          }
          for (auto& x : B)
            x = rng.below(5) == 0
                    ? 0.0f
                    : std::max(0.0f, static_cast<float>(rng.normal()));
          for (auto& x : Cf) x = rng.below(2) ? 0.0f : -0.0f;
          std::vector<float> Cr = Cf;
          const uint64_t seed = 77 + combo;
          gemm_mac(cfg, m, n, k, A.data(), k, B.data(), n, Cf.data(), n,
                   /*accumulate=*/true, seed, /*threads=*/2);
          gemm_mac_reference(cfg, m, n, k, A.data(), k, B.data(), n,
                             Cr.data(), n, /*accumulate=*/true, seed,
                             /*threads=*/2);
          expect_bitwise_equal(Cf, Cr,
                               cfg.name() + " " + std::to_string(m) + "x" +
                                   std::to_string(n) + "x" +
                                   std::to_string(k));
          ++combo;
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
