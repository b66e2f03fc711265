#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "fpemu/format.hpp"
#include "fpemu/softfloat.hpp"
#include "fpemu/value.hpp"

namespace srmac {

/// Round-to-nearest-even conversion of binary32 values into `fmt` bit
/// patterns, bit-identical to SoftFloat::from_double(fmt, x) for every float
/// x and every format FpFormat::parse accepts (tests/fpemu/quantizer_test.cpp)
/// — a few integer operations per value instead of frexp/ldexp and the
/// generic round_pack. The body is branch-free on the float's bits; every
/// per-format quantity is a constant computed once by the constructor:
///  * normal range: add the rounding bias (half an output ULP minus one,
///    plus the kept LSB for ties-to-even), shift the dropped bits out and
///    rebias the exponent field. A mantissa carry bumps the exponent; a
///    result at or past the Inf encoding (overflow, or an Inf input)
///    saturates to Inf, as round_pack does under RN.
///  * below 2^emin: one binary32 add of 2^(emin + 23 - man_bits), whose ULP
///    is the format's subnormal ULP, rounds the magnitude once (RNE).
///    Subtracting the constant's bits leaves the mantissa field, which is
///    2^man_bits exactly when the value rounds up into the smallest normal.
///    With subnormals off the whole range flushes to a signed zero *before*
///    rounding, as round_pack does.
///  * NaN: the unsigned canonical nan_bits(), as from_double returns.
///
/// Precondition: the default floating-point environment (round to nearest
/// even, no FTZ/DAZ), and no -ffast-math on a translation unit that compiles
/// the body — the subnormal arm is an IEEE binary32 add.
class FpQuantizer {
 public:
  explicit FpQuantizer(const FpFormat& fmt) {
    const int m = fmt.man_bits;
    const int shift = 23 - m;
    shift_ = static_cast<uint32_t>(shift);
    // man_bits = 23 drops nothing: no rounding bias and no tie term.
    // man_bits = 0 keeps only the implicit bit, which is odd: ties always
    // round up (round_pack's kept & 1 is the implicit 1).
    if (shift == 0) {
      round_half_ = 0;
      odd_mask_ = 0;
    } else if (m == 0) {
      round_half_ = 1u << (shift - 1);
      odd_mask_ = 0;
    } else {
      round_half_ = (1u << (shift - 1)) - 1;
      odd_mask_ = 1;
    }
    rebias_ = static_cast<uint32_t>(127 - fmt.bias()) << m;
    inf_bits_ = fmt.inf_bits();
    nan_bits_ = fmt.nan_bits();
    min_normal_ = static_cast<uint32_t>(127 + fmt.emin()) << 23;
    magic_ = static_cast<uint32_t>(127 + fmt.emin() + shift) << 23;
    sub_mask_ = fmt.subnormals ? ~0u : 0u;
    sign_pos_ = static_cast<uint32_t>(fmt.exp_bits + m);
  }

  /// The RN-even encoding of `x` in the format (from_double's bits).
  uint32_t operator()(float x) const {
    const uint32_t u = std::bit_cast<uint32_t>(x);
    const uint32_t a = u & 0x7fffffffu;
    const uint32_t bias = round_half_ + ((a >> shift_) & odd_mask_);
    const uint32_t normal =
        std::min(((a + bias) >> shift_) - rebias_, inf_bits_);
    const float f = std::bit_cast<float>(a) + std::bit_cast<float>(magic_);
    const uint32_t sub = (std::bit_cast<uint32_t>(f) - magic_) & sub_mask_;
    const uint32_t mag = a < min_normal_ ? sub : normal;
    const uint32_t bits = ((u >> 31) << sign_pos_) | mag;
    return a > 0x7f800000u ? nan_bits_ : bits;
  }

  /// dst[i] = (*this)(src[i]) for i in [0, n): the same body as a flat loop
  /// the compiler vectorizes. Always inlined, so a caller compiled for a
  /// wider ISA (gemm_quantize's AVX-512 instantiation) vectorizes it at
  /// that width.
  [[gnu::always_inline]] void convert(const float* src, uint32_t* dst,
                                      size_t n) const {
    const FpQuantizer q = *this;  // stores through dst cannot alias it
    for (size_t i = 0; i < n; ++i) dst[i] = q(src[i]);
  }

 private:
  uint32_t shift_ = 0;       ///< dropped mantissa bits, 23 - man_bits
  uint32_t round_half_ = 0;  ///< RNE bias without the tie term
  uint32_t odd_mask_ = 0;    ///< 1 when the kept LSB breaks ties
  uint32_t rebias_ = 0;      ///< (127 - bias) in the output exponent field
  uint32_t inf_bits_ = 0;
  uint32_t nan_bits_ = 0;
  uint32_t min_normal_ = 0;  ///< binary32 bits of 2^emin
  uint32_t magic_ = 0;       ///< binary32 bits of 2^(emin + 23 - man_bits)
  uint32_t sub_mask_ = 0;    ///< ~0 with subnormals, 0 to flush
  uint32_t sign_pos_ = 0;    ///< bit position of the output sign
};

/// The float value of a canonical decoded `fmt` value (as decode() and the
/// adder cores produce it): equal to
/// static_cast<float>(SoftFloat::to_double(fmt, encode_unpacked(fmt, u))),
/// built straight from the fields. Exact for every format here because
/// p <= 24; only exponents below binary32's emin (-126), which 8-bit
/// exponent formats reach, take the golden path to land on a binary32
/// subnormal.
inline float unpacked_to_float(const FpFormat& fmt, const Unpacked& u) {
  uint32_t bits = 0;
  switch (u.cls) {
    case FpClass::kNaN:
      return std::numeric_limits<float>::quiet_NaN();
    case FpClass::kInf:
      bits = 0x7f800000u;
      break;
    case FpClass::kZero:
      break;
    default:
      if (u.exp < -126) [[unlikely]]
        return static_cast<float>(
            SoftFloat::to_double(fmt, encode_unpacked(fmt, u)));
      bits = (static_cast<uint32_t>(u.exp + 127) << 23) |
             (static_cast<uint32_t>(u.sig << (23 - fmt.man_bits)) &
              0x7fffffu);
  }
  return std::bit_cast<float>(bits | (static_cast<uint32_t>(u.sign) << 31));
}

}  // namespace srmac
