#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fpemu/quantizer.hpp"
#include "fpemu/value.hpp"
#include "mac/adder_common.hpp"
#include "mac/mac_config.hpp"

namespace srmac {

/// Fused high-throughput emulation of one MAC accumulation chain.
///
/// MacUnit::step pays four costs per accumulation that this kernel
/// eliminates while staying bit-identical (the adders' decoded cores are
/// the *same code* both paths run through):
///
///  1. The accumulator is packed into acc_fmt bits after every add and
///     decoded again by the next one. Here it stays decoded (Unpacked)
///     across the whole K-chain; packing happens once at the end. The
///     per-step rounding points are unchanged — every add still rounds in
///     acc_fmt through the configured adder core.
///  2. The exact multiply + RN conversion into acc_fmt is a pure function
///     of the two operand bit patterns. For FP8-class multiplier formats
///     (width <= 9) it is precomputed into a magnitude-indexed table of
///     decoded addends, built once per (mul_fmt, acc_fmt, subnormals)
///     triple and shared process-wide.
///  3. Random words come from the lanes' Galois LFSR registers, stepped
///     in place by the kernel (one branch-free register step per
///     accumulation, in-register on the vector path) instead of one
///     virtual RandomSource::draw per step.
///  4. The adder-kind dispatch is hoisted out of the k-loop.
struct MacAddend {
  uint32_t sig = 0;
  int16_t exp = 0;
  uint8_t cls = 0;            ///< FpClass of the addend
  uint8_t sign_sensitive = 0; ///< 0 only for NaN (canonical sign false)
};

/// The product table of one (mul_fmt, acc_fmt, subnormals) triple, indexed
/// (|a| << mag_bits) | |b| by the operands' magnitude fields.
struct ProductTable {
  /// The decoded addends: the scalar lockstep groups, chain() and the
  /// vector chain's scalar replays read these.
  std::vector<MacAddend> addends;
  /// The same addends as one 32-bit word each, for the vector chain's
  /// 32-bit lanes (p = acc_fmt precision): the significand in bits [0, p), a
  /// non-finite flag at bit p, and the exponent in two's complement in bits
  /// [p + 1, 32). Zeros are 0 and NaN/Inf the flag alone. Empty when p > 29
  /// or some finite addend's exponent does not fit 31 - p bits.
  std::vector<uint32_t> words;
};

class FusedMacKernel {
 public:
  /// `cfg` is normalized by the constructor; the table (when the multiplier
  /// format is narrow enough) is fetched from the process-wide cache.
  explicit FusedMacKernel(const MacConfig& cfg);

  const MacConfig& config() const { return cfg_; }
  bool has_table() const { return table_ != nullptr; }
  /// LFSR register width matching MacUnit's (max(4, normalized r)).
  int lfsr_width() const { return cfg_.random_bits < 4 ? 4 : cfg_.random_bits; }

  /// The decoded addend the adder sees for operand bits (a, b) in
  /// cfg.mul_fmt: decode(acc_fmt, convert(multiply_exact(a, b))), exactly
  /// as MacUnit::step computes it.
  Unpacked addend(uint32_t a, uint32_t b) const;

  /// Runs acc <- acc (+) a[i]*b[i] for i in [0, n), with the accumulator
  /// held decoded. `lfsr` is the chain's LFSR register (width lfsr_width(),
  /// seeded as GaloisLfsr seeds it): for the SR adders it steps once per
  /// accumulation and each add consumes its low r bits, exactly as
  /// MacUnit's LFSR draws. On return it holds the state after the last
  /// step, so a chain split across calls continues its sequence. RN leaves
  /// it untouched. The GEMM runs chain_group; this one-lane form is the
  /// scalar reference chain_group is tested against.
  void chain(Unpacked& acc, const uint32_t* a, const uint32_t* b, int n,
             uint64_t& lfsr) const;

  /// Lanes per scalar lockstep subgroup. Each accumulation chain is a
  /// serial dependency (acc -> next add, ~30 cycles); interleaving
  /// independent output elements fills the pipeline between those chains.
  static constexpr int kLanes = 4;

  /// Output elements processed together by chain_group: 16 when the
  /// AVX-512 chain runs, 4 on the scalar lockstep path. The GEMM packs B
  /// panels group-interleaved at this width. The vector chain holds sixteen
  /// 32-bit lanes in one zmm, so it needs cpuid, a product table whose
  /// addends pack into ProductTable::words (p <= 29, p = acc_fmt
  /// precision), and every intermediate of the adder within a lane: eager SR
  /// needs p + r <= 32 (the aligned operand y << r), lazy SR p + r <= 31 (its
  /// sum's carry-out), and RN p + 3 <= 32, which the words already imply.
  /// Configs past their adder's bound run the scalar groups.
  int group_width() const { return group_width_; }

  /// The largest group_width() on any host (the vector chain's).
  static constexpr int kMaxGroupWidth = 16;

  /// Runs group_width() independent chains over a shared A stream, from
  /// float outputs and back into them (G = group_width()):
  ///   c[l] <- c[l] (+) a[i] * b_ilv[i*G + l]   for i in [0, n),
  /// lane l drawing from LFSR register lfsr[l] under the chain() contract.
  ///
  /// Entry: with `accumulate`, lane l < valid starts from c[l] quantized RN
  /// into acc_fmt, as gemm_mac's accumulate reads C; otherwise it starts at
  /// +0. Exit: lanes l < valid store unpacked_to_float of their result into
  /// c[l], and their LFSR registers hold the state after the last step.
  /// Lanes l >= valid are the zero padding of a partial group: their
  /// outputs are neither read nor written, so `c` needs only `valid`
  /// elements (1 <= valid <= G), and their registers end unspecified.
  ///
  /// Per valid lane this is bit-identical to decode, chain(),
  /// unpacked_to_float. The float round trip is lossless (every acc_fmt
  /// value is a float), so a chain split across calls, the later ones with
  /// `accumulate`, continues exactly.
  void chain_group(const uint32_t* a, const uint32_t* b_ilv, int n,
                   uint64_t* lfsr, float* c, int valid,
                   bool accumulate) const;

 private:
  template <AdderKind kKind, bool kTable>
  void chain_impl(Unpacked& acc, const uint32_t* a, const uint32_t* b, int n,
                  uint64_t& lfsr) const;

  template <AdderKind kKind, bool kTable>
  void chain_group_impl(const uint32_t* a, const uint32_t* b_ilv, int n,
                        uint64_t* lfsr, float* c, int valid,
                        bool accumulate) const;

  Unpacked addend_slow(uint32_t a, uint32_t b) const;
  Unpacked addend_from_table(uint32_t a, uint32_t b) const;

  /// The AVX-512 chain (mac_kernel_avx512.cpp), instantiated per AdderKind.
  friend void chain_group_avx512(const FusedMacKernel& kernel,
                                 const uint32_t* a, const uint32_t* b_ilv,
                                 int n, uint64_t* lfsr, float* c, int valid,
                                 bool accumulate);

  int group_width_ = kLanes;
  bool use_avx512_ = false;

  MacConfig cfg_;
  AddParams params_;  ///< precomputed (acc_fmt, r) adder constants
  FpQuantizer acc_quant_;  ///< RN float -> acc_fmt, for accumulate entry
  FpFormat prod_fmt_;
  bool direct_ = false;  ///< product bits feed the adder without conversion
  std::shared_ptr<const ProductTable> table_;
  int mag_bits_ = 0;       ///< magnitude field width of mul_fmt
  uint32_t mag_mask_ = 0;
  uint32_t mul_sign_mask_ = 0;
  uint64_t lfsr_taps_ = 0;  ///< Galois feedback mask for lfsr_width()
};

}  // namespace srmac
