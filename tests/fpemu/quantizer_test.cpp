// Parity of the branch-free operand converter (FpQuantizer) and the direct
// accumulator readback (unpacked_to_float) against the golden SoftFloat
// paths, on every format FpFormat::parse accepts: exp 2..8 x man 0..23 x
// subnormals on/off. The inputs are a strided sweep of all 2^32 binary32
// patterns plus dense neighbourhoods of every rounding and range boundary.
#include "fpemu/quantizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "fpemu/softfloat.hpp"
#include "mac/gemm.hpp"

namespace srmac {
namespace {

std::vector<FpFormat> all_formats() {
  std::vector<FpFormat> v;
  for (int e = 2; e <= 8; ++e)
    for (int m = 0; m <= 23; ++m)
      for (bool sub : {true, false}) v.push_back(FpFormat{e, m, sub});
  return v;
}

/// Adds the bit patterns within `k` ulps of |anchor|, with both signs.
void add_neighbourhood(std::vector<float>* xs, double anchor, int k) {
  const uint32_t c =
      std::bit_cast<uint32_t>(std::fabs(static_cast<float>(anchor)));
  for (int d = -k; d <= k; ++d) {
    const uint32_t u = c + static_cast<uint32_t>(d);
    if (u > 0x7fffffffu) continue;  // stepped below +0
    xs->push_back(std::bit_cast<float>(u));
    xs->push_back(std::bit_cast<float>(u | 0x80000000u));
  }
}

/// The inputs compared for format `f` (the `index`-th format): a strided
/// sweep of the 2^32 patterns, offset per format so the formats together
/// cover more residues, plus every boundary of `f` and of binary32.
std::vector<float> inputs_for(const FpFormat& f, int index) {
  std::vector<float> xs;
  constexpr uint64_t kStride = 1000003;  // prime: the low bits all vary
  for (uint64_t b = static_cast<uint64_t>(index) * 7919 % kStride;
       b < (uint64_t{1} << 32); b += kStride)
    xs.push_back(std::bit_cast<float>(static_cast<uint32_t>(b)));

  constexpr int k = 16;
  const int m = f.man_bits;
  const double ulp_sub = std::ldexp(1.0, f.emin() - m);
  add_neighbourhood(&xs, 0.0, k);                     // +-0, float subnormals
  add_neighbourhood(&xs, std::ldexp(1.0, -126), k);   // float min normal
  add_neighbourhood(&xs, std::ldexp(1.0, f.emin()), k);
  // Subnormal midpoints: ties between adjacent subnormals and, at the top,
  // between the largest subnormal and the smallest normal.
  const double top = std::ldexp(1.0, m);  // subnormal mantissas < top
  for (double mm : {0.0, 1.0, 2.0, top - 2, top - 1})
    if (mm >= 0) add_neighbourhood(&xs, (mm + 0.5) * ulp_sub, k);
  // Normal-range ties with an even and an odd kept LSB, low and high.
  for (int e : {f.emin(), 0, f.emax()}) {
    const double half_ulp = std::ldexp(1.0, e - m - 1);
    add_neighbourhood(&xs, std::ldexp(1.0, e) + half_ulp, k);
    add_neighbourhood(&xs, std::ldexp(1.0, e) + 3 * half_ulp, k);
  }
  // Max finite, its RN midpoint toward 2^(emax+1), and 2^(emax+1) itself
  // (binary32 infinity for 8-bit exponents).
  const double binade = std::ldexp(1.0, f.emax());
  add_neighbourhood(&xs, (2.0 - std::ldexp(1.0, -m)) * binade, k);
  add_neighbourhood(&xs, (2.0 - std::ldexp(1.0, -m - 1)) * binade, k);
  add_neighbourhood(&xs, std::ldexp(1.0, f.emax() + 1), k);
  add_neighbourhood(&xs, std::bit_cast<float>(0x7f7fffffu), k);  // float max
  // Infinity and NaN payloads (quiet, signalling, all-ones), both signs.
  for (uint32_t u : {0x7f800000u, 0x7f800001u, 0x7fa00000u, 0x7fc00000u,
                     0x7fc00001u, 0x7fffffffu}) {
    xs.push_back(std::bit_cast<float>(u));
    xs.push_back(std::bit_cast<float>(u | 0x80000000u));
  }
  return xs;
}

TEST(FpQuantizer, MatchesFromDoubleOnEveryFormat) {
  const std::vector<FpFormat> formats = all_formats();
  for (size_t fi = 0; fi < formats.size(); ++fi) {
    const FpFormat& f = formats[fi];
    const FpQuantizer q(f);
    const std::vector<float> xs = inputs_for(f, static_cast<int>(fi));
    // The bulk path: gemm_quantize's dispatched loop (the AVX-512 build on
    // hosts that pass the cpuid gate, the portable build elsewhere).
    std::vector<uint32_t> bulk(xs.size());
    gemm_quantize(f, 1, static_cast<int>(xs.size()), xs.data(),
                  static_cast<int>(xs.size()), bulk.data());
    int scalar_bad = 0, bulk_bad = 0;
    std::string first;
    for (size_t i = 0; i < xs.size(); ++i) {
      const uint32_t want = SoftFloat::from_double(f, xs[i]);
      const uint32_t got = q(xs[i]);
      scalar_bad += got != want;
      bulk_bad += bulk[i] != want;
      if ((got != want || bulk[i] != want) && first.empty()) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "x=0x%08x want 0x%08x scalar 0x%08x bulk 0x%08x",
                      std::bit_cast<uint32_t>(xs[i]), want, got, bulk[i]);
        first = buf;
      }
    }
    EXPECT_EQ(scalar_bad, 0) << f.name() << ": " << first;
    EXPECT_EQ(bulk_bad, 0) << f.name() << ": " << first;
  }
}

TEST(FpQuantizer, GemmQuantizeCrossesRowsAndChunks) {
  // A strided source whose rows are cut by the element-count chunking at
  // arbitrary columns; every element must land at its dense position.
  const FpFormat f = kFp8E4M3;
  const int rows = 3, cols = 40001, ld = 40011;
  std::vector<float> src(static_cast<size_t>(rows) * ld);
  for (size_t i = 0; i < src.size(); ++i)
    src[i] = std::ldexp(static_cast<float>(i % 997) - 498.f, -5);
  std::vector<uint32_t> dst(static_cast<size_t>(rows) * cols);
  gemm_quantize(f, rows, cols, src.data(), ld, dst.data());
  std::vector<uint32_t> dst_t(static_cast<size_t>(rows) * cols);
  gemm_quantize_transposed(f, rows, cols, src.data(), dst_t.data());
  int bad = 0;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      bad += dst[static_cast<size_t>(r) * cols + c] !=
             SoftFloat::from_double(f, src[static_cast<size_t>(r) * ld + c]);
      // gemm_quantize_transposed reads a dense rows x cols source.
      bad += dst_t[static_cast<size_t>(c) * rows + r] !=
             SoftFloat::from_double(f, src[static_cast<size_t>(r) * cols + c]);
    }
  EXPECT_EQ(bad, 0);
}

TEST(UnpackedToFloat, MatchesGoldenReadbackOnEveryFormat) {
  for (const FpFormat& f : all_formats()) {
    const uint64_t n = uint64_t{1} << f.width();  // up to 2^32 (E8M23)
    std::vector<uint32_t> patterns;
    const uint64_t stride = std::max<uint64_t>(1, n >> 10);
    for (uint64_t b = 0; b < n; b += stride)
      patterns.push_back(static_cast<uint32_t>(b));
    // Around zero and the subnormals, the smallest normal, max finite,
    // and Inf/NaN, with both signs.
    for (uint32_t anchor :
         {0u, 1u << f.man_bits, f.max_finite_bits(), f.inf_bits()})
      for (uint32_t d = 0; d <= 64; ++d)
        for (uint32_t u : {anchor + d, anchor - d})
          if (u < n / 2) {
            patterns.push_back(u);
            patterns.push_back(u | f.sign_mask());
          }
    int bad = 0;
    std::string first;
    for (uint32_t bits : patterns) {
      const Unpacked u = decode(f, bits);
      const float want = static_cast<float>(
          SoftFloat::to_double(f, encode_unpacked(f, u)));
      const float got = unpacked_to_float(f, u);
      if (std::bit_cast<uint32_t>(got) != std::bit_cast<uint32_t>(want)) {
        if (!bad) first = "bits=" + std::to_string(bits);
        ++bad;
      }
    }
    EXPECT_EQ(bad, 0) << f.name() << ": " << first;
  }
}

}  // namespace
}  // namespace srmac
