// AVX-512 implementation of the fused accumulation chain: one function
// template, instantiated per AdderKind. Eager SR fuses its rounding into
// the add; lazy SR and RN align into a K-bit window below the kept p bits,
// add once, normalize, then make one rounding decision at the cut.
//
// Sixteen independent output chains run in lockstep as the sixteen 32-bit
// lanes of one zmm per field (sig, exp, sign, LFSR state), and each step
// gathers its sixteen addends at once from the product table's 32-bit
// words. FusedMacKernel admits a config only when every intermediate of its
// adder fits a 32-bit lane (see group_width()). Each vector step is a
// lane-parallel transcription of the adder core's hot path, and only the
// align/add/round block differs between the kinds. Zeros stay in the
// vector, under prepare_add_u's rules: a zero accumulator is an ordinary
// lane with sig = 0 and its sign; a zero addend (ReLU outputs, im2col
// padding) leaves the accumulator unchanged (x + 0 is exact), a zero
// accumulator takes a finite addend exactly (0 + d = d), zero + zero keeps a
// negative sign only when both are negative, and exact cancellation gives
// +0. Every other rare event — a non-finite addend, a subnormal (emin) cut,
// overflow past emax — raises a lane mask and is replayed through the
// *scalar* core for exactly those lanes, so the vector chain is
// bit-identical to the scalar engine by construction (and is covered by the
// same bit-exactness suite).
//
// For the SR adders the sixteen lanes' Galois LFSRs live in registers and
// step once per accumulation in-register, s = (s >> 1) ^ (taps & -(s & 1)),
// the random word being the low r bits; a replayed lane takes its word from
// the same step. The caller's lane states are written back at the end, so a
// chain continues across calls. RN draws no words and leaves them as they
// are.
//
// Only NaN/Inf accumulators are "parked": held as decoded Unpacked values at
// the side. Both are absorbing under a finite or zero addend, so a parked
// lane is replayed through the scalar core only on a non-finite addend.
//
// Group entry and exit run in registers too (entry_lanes / exit_lanes):
// the starting accumulators are quantized from the output floats and
// decoded lane-parallel, and the results are built as floats and stored
// under the valid-lane mask. Only parked lanes and results below binary32's
// normal range leave through the scalar unpacked_to_float.
#include "mac/mac_kernel.hpp"

#include "fpemu/quantizer.hpp"

// SRMAC_DISABLE_AVX512 (CMake -DSRMAC_DISABLE_AVX512=ON) compiles this TU
// as the non-x86 stub, forcing the scalar lockstep groups and the portable
// operand converter everywhere — the CI leg that keeps the scalar
// replay/fallback paths built and tested on hosts that would otherwise
// always take the vector paths.
#if (defined(__x86_64__) || defined(_M_X64)) && !defined(SRMAC_DISABLE_AVX512)

// GCC's AVX-512 intrinsic wrappers pass self-initialized dummy operands to
// the masked builtins, tripping -Wmaybe-uninitialized and -Wuninitialized at
// -O3 (GCC bug 105593). Header-internal false positives; silence them for
// this TU only.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

#include <immintrin.h>

#include "mac/adder_eager_sr.hpp"
#include "mac/adder_lazy_sr.hpp"
#include "mac/adder_rn.hpp"

namespace srmac {

bool mac_kernel_avx512_supported() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512cd");
}

// gemm_quantize's operand converter: FpQuantizer's scalar body, inlined
// here and vectorized 16 lanes wide. Not a second algorithm — the same
// source, compiled for the ISA this gate admits.
__attribute__((target("avx512f,avx512cd"))) void quantize_avx512(
    const FpQuantizer& q, const float* src, uint32_t* dst, size_t n) {
  q.convert(src, dst, n);
}

namespace {

/// The register group's lane fields spilled for a scalar replay.
struct alignas(64) LaneArrays {
  int32_t sig[16];
  int32_t exp[16];
  int32_t sign[16];  ///< -1 for a negative lane, else 0
  int32_t rand[16];  ///< this step's random words, for scalar replays
};

/// Lanes [0, valid) of a 16-lane group.
inline __mmask16 valid_mask(int valid) {
  return static_cast<__mmask16>(valid >= 16 ? 0xffffu : (1u << valid) - 1u);
}

/// The decoded accumulator of unparked lane l from its spilled vector
/// fields (sig = 0 is a signed zero), in decode()'s canonical form.
inline Unpacked lane_value(const AddParams& ap, const LaneArrays& la, int l) {
  if (la.sig[l] == 0) return unpacked_zero(ap.fmt, la.sign[l] != 0);
  Unpacked u;
  u.sig = static_cast<uint64_t>(la.sig[l]);
  u.exp = la.exp[l];
  u.sign = la.sign[l] != 0;
  u.sig_bits = ap.p;
  u.cls = u.exp >= ap.emin ? FpClass::kNormal : FpClass::kSubnormal;
  return u;
}

/// Writes a scalar replay's result back into lane l: finite values and
/// zeros return to the vector fields, NaN/Inf park in `spare`.
inline void set_lane(LaneArrays& la, Unpacked* spare, uint32_t& parked, int l,
                     const Unpacked& res) {
  const bool finite =
      res.cls != FpClass::kNaN && res.cls != FpClass::kInf;
  la.sig[l] = finite ? static_cast<int32_t>(res.sig) : 0;
  la.exp[l] = res.exp;
  la.sign[l] = res.sign ? -1 : 0;
  if (finite) {
    parked &= ~(1u << l);
  } else {
    spare[l] = res;
    parked |= 1u << l;
  }
}

/// Group entry (the chain_group contract): the 16 lanes' starting
/// accumulators as 32-bit lanes, sign 0 or -1. With `accumulate` the valid
/// lanes' floats are quantized RN into acc_fmt (FpQuantizer's body,
/// vectorized here) and decoded lane-parallel exactly as decode() does;
/// NaN/Inf lanes park with their decoded value in `spare`. Everything else
/// starts at +0. Returns the parked-lane mask.
__attribute__((target("avx512f,avx512cd"), always_inline)) inline uint32_t
entry_lanes(const FpQuantizer& q, const FpFormat& fmt, const float* c,
            int valid, bool accumulate, __m512i& sig, __m512i& ex,
            __m512i& sgn, Unpacked* spare) {
  if (!accumulate) {
    sig = ex = sgn = _mm512_setzero_si512();
    return 0;
  }
  alignas(64) float cin[16];
  alignas(64) uint32_t qbits[16];
  _mm512_store_ps(cin, _mm512_maskz_loadu_ps(valid_mask(valid), c));
  q.convert(cin, qbits, 16);
  const __m512i bits = _mm512_load_si512(qbits);

  const int man = fmt.man_bits;
  const __m512i vexpmax =
      _mm512_set1_epi32(static_cast<int>(fmt.exp_field_max()));
  const __m512i e = _mm512_and_si512(
      _mm512_srl_epi32(bits, _mm_cvtsi32_si128(man)), vexpmax);
  const __m512i m = _mm512_and_si512(
      bits, _mm512_set1_epi32(static_cast<int>(fmt.man_mask())));
  sgn = _mm512_sub_epi32(
      _mm512_setzero_si512(),
      _mm512_srl_epi32(bits, _mm_cvtsi32_si128(fmt.exp_bits + man)));
  const __mmask16 special = _mm512_cmpeq_epi32_mask(e, vexpmax);
  // The significand with its implicit bit; a zero exponent field keeps the
  // bare mantissa (a subnormal, or zero when the format flushes them), and
  // the leading-zero count normalizes it: sig << lz, exponent emin - lz.
  const __m512i full = _mm512_mask_or_epi32(
      fmt.subnormals ? m : _mm512_setzero_si512(), _mm512_test_epi32_mask(e, e),
      m, _mm512_set1_epi32(1 << man));
  const __m512i lz = _mm512_sub_epi32(_mm512_lzcnt_epi32(full),
                                      _mm512_set1_epi32(31 - man));
  sig = _mm512_maskz_sllv_epi32(static_cast<__mmask16>(~special), full, lz);
  ex = _mm512_sub_epi32(
      _mm512_sub_epi32(_mm512_max_epu32(e, _mm512_set1_epi32(1)),
                       _mm512_set1_epi32(fmt.bias())),
      lz);

  const uint32_t parked = special;
  for (uint32_t pk = parked; pk != 0; pk &= pk - 1) {
    const int l = __builtin_ctz(pk);
    spare[l] = decode(fmt, qbits[l]);
  }
  return parked;
}

/// Group exit (the chain_group contract): the valid lanes' results as
/// floats, built lane-parallel as unpacked_to_float builds them and stored
/// under the valid-lane mask. Parked lanes and finite results below
/// binary32's normal range (exp < -126) take the scalar unpacked_to_float.
__attribute__((target("avx512f,avx512cd"), always_inline)) inline void
exit_lanes(const AddParams& ap, __m512i sig, __m512i ex, __m512i sgn,
           uint32_t parked, const Unpacked* spare, float* c, int valid) {
  const __mmask16 nz = _mm512_test_epi32_mask(sig, sig);
  const __mmask16 vm = valid_mask(valid);
  uint32_t slow =
      (parked | (nz & _mm512_cmplt_epi32_mask(ex, _mm512_set1_epi32(-126)))) &
      vm;
  const __m512i mag = _mm512_maskz_or_epi32(
      nz, _mm512_slli_epi32(_mm512_add_epi32(ex, _mm512_set1_epi32(127)), 23),
      _mm512_and_si512(
          _mm512_sll_epi32(sig, _mm_cvtsi32_si128(23 - ap.fmt.man_bits)),
          _mm512_set1_epi32(0x7fffff)));
  _mm512_mask_storeu_epi32(c, vm,
                           _mm512_or_si512(mag, _mm512_slli_epi32(sgn, 31)));
  if (slow != 0) [[unlikely]] {
    LaneArrays la;
    _mm512_store_si512(la.sig, sig);
    _mm512_store_si512(la.exp, ex);
    _mm512_store_si512(la.sign, sgn);
    for (; slow != 0; slow &= slow - 1) {
      const int l = __builtin_ctz(slow);
      c[l] = unpacked_to_float(
          ap.fmt, (parked >> l) & 1 ? spare[l] : lane_value(ap, la, l));
    }
  }
}

/// The scalar core of adder kKind: the replay of one flagged lane. (Written
/// as an if-constexpr chain inside the replay loop instead, it made GCC 12
/// schedule the eager inner loop with three more instructions.)
template <AdderKind kKind>
inline Unpacked add_core(const AddParams& ap, const Unpacked& acc,
                         const Unpacked& ad, uint32_t rand_word) {
  if constexpr (kKind == AdderKind::kEagerSR)
    return add_eager_sr_core(ap, acc, ad, rand_word, nullptr);
  else if constexpr (kKind == AdderKind::kLazySR)
    return add_lazy_sr_core(ap, acc, ad, rand_word, nullptr);
  else
    return add_rn_core(ap, acc, ad, nullptr);
}

/// The kernel's private constants the vector chain reads, extracted by
/// chain_group_avx512 at the bottom of this file.
struct ChainConsts {
  AddParams ap;            ///< precomputed (acc_fmt, r) adder constants
  const FpQuantizer* q;    ///< RN float -> acc_fmt, for accumulate entry
  const uint32_t* words;   ///< the product table's 32-bit words
  uint32_t mag_mask;       ///< magnitude field mask of mul_fmt
  int mag_bits;            ///< magnitude field width of mul_fmt
  int w1;                  ///< sign bit position of mul_fmt
  uint64_t taps;           ///< Galois feedback mask of the lane LFSRs
};

/// A mask or constant below 2^32, broadcast to every 32-bit lane.
__attribute__((target("avx512f,avx512cd"), always_inline)) inline __m512i
bcast32(uint64_t v) {
  return _mm512_set1_epi32(static_cast<int>(static_cast<uint32_t>(v)));
}

// ---------------------------------------------------------------------------
// The chain of adder kKind in the sixteen 32-bit lanes of one zmm. Sign
// lanes are 0 or -1, so the effective-subtraction mask is their XOR, and a
// variable shift by a count that is negative as int32 gives 0, which folds
// the cores' two-arm normalizations into ORs of the two shifts.
//
// Eager SR transcribes add_eager_sr_core: the aligned operand y << r takes
// p + r <= 32 bits, the main sum p + 2, the sticky-round partial sum r.
// Lazy SR and RN transcribe add_lazy_sr_core / add_rn_core with the window
// K = r (lazy) or K = 2 plus a sticky OR (RN): the sum S = (x << K) +- B
// takes p + K + 1 bits on a carry-out, so lazy needs p + r <= 31 and RN
// p + 3 <= 32. FusedMacKernel's gate enforces these bounds.
template <AdderKind kKind>
__attribute__((target("avx512f,avx512cd"))) void chain(
    const FusedMacKernel& kernel, const ChainConsts& kc, const uint32_t* a,
    const uint32_t* b_ilv, int n, uint64_t* lfsr, float* c, int valid,
    bool accumulate) {
  constexpr int G = 16;
  constexpr bool kEager = kKind == AdderKind::kEagerSR;
  constexpr bool kRn = kKind == AdderKind::kRoundNearest;
  const AddParams ap = kc.ap;
  const uint32_t* tab = kc.words;
  const int p = ap.p;
  const int r = ap.r;
  const int K = kRn ? 2 : r;  // late rounding's window below the kept p

  // Broadcast constants.
  const __m512i vzero = _mm512_setzero_si512();
  const __m512i vone = _mm512_set1_epi32(1);
  const __m512i vallones = _mm512_set1_epi32(-1);
  const __m512i vemin = _mm512_set1_epi32(ap.emin);
  const __m512i vemax = _mm512_set1_epi32(ap.fmt.emax());
  const __m512i vmask_p = bcast32(ap.mask_p);
  const __m512i vmask_p1 = bcast32(ap.mask_p1);
  const __m512i vmask_r = bcast32(ap.mask_r);
  const __m512i vnonfinite = bcast32(1ull << p);
  const __m512i vmagmask = bcast32(kc.mag_mask);
  const __m512i vtaps = bcast32(kc.taps);
  const __m128i cnt_r = _mm_cvtsi32_si128(r);
  const __m128i cnt_p = _mm_cvtsi32_si128(p);
  const __m128i cnt_p1 = _mm_cvtsi32_si128(p + 1);
  const __m128i cnt_sign = _mm_cvtsi32_si128(31 - kc.w1);
  // Eager only.
  [[maybe_unused]] const __m512i v31mp = _mm512_set1_epi32(31 - p);
  [[maybe_unused]] const __m512i vrp32 = _mm512_set1_epi32(r + p - 32);
  [[maybe_unused]] const __m512i vmask_rm1 = bcast32(ap.mask_rm1);
  [[maybe_unused]] const __m512i vmask_rm2 = bcast32(ap.mask_rm2);
  [[maybe_unused]] const __m128i cnt_r1 = _mm_cvtsi32_si128(r - 1);
  // Lazy SR and RN only.
  [[maybe_unused]] const __m512i v32mp = _mm512_set1_epi32(32 - p);
  [[maybe_unused]] const __m512i v32 = _mm512_set1_epi32(32);
  [[maybe_unused]] const __m512i vK = _mm512_set1_epi32(K);
  [[maybe_unused]] const __m512i vmsb = bcast32(0x80000000u);
  [[maybe_unused]] const __m512i vrest = bcast32(0x7fffffffu);
  [[maybe_unused]] const __m128i cnt_K = _mm_cvtsi32_si128(K);
  [[maybe_unused]] const __m128i cnt_32mr = _mm_cvtsi32_si128(32 - r);

  // Lane state: the vectors hold every finite accumulator (sig = 0 for a
  // zero); `spare` holds the decoded value of parked (NaN/Inf) lanes. Each
  // LFSR state fits a lane (lfsr_width() <= 32).
  LaneArrays la;
  Unpacked spare[G];
  __m512i gsig, gexp, gsign;
  uint32_t parked = entry_lanes(*kc.q, ap.fmt, c, valid, accumulate, gsig,
                                gexp, gsign, spare);
  __m512i gst = vzero;
  if constexpr (!kRn)
    gst = _mm512_inserti64x4(
        _mm512_castsi256_si512(_mm512_cvtepi64_epi32(_mm512_loadu_si512(lfsr))),
        _mm512_cvtepi64_epi32(_mm512_loadu_si512(lfsr + 8)), 1);

  for (int i = 0; i < n; ++i) {
    const uint32_t ai = a[i];
    const __m512i vabase =
        _mm512_set1_epi32(static_cast<int>((ai & kc.mag_mask) << kc.mag_bits));
    const __m512i va = _mm512_set1_epi32(static_cast<int>(ai));

    // ---- addend: gather the packed product word, apply the sign --------
    const __m512i bq = _mm512_loadu_si512(b_ilv + static_cast<size_t>(i) * G);
    // idx = abase | (bq & magmask)
    const __m512i idx = _mm512_ternarylogic_epi32(vabase, bq, vmagmask, 0xF8);
    const __m512i e = _mm512_i32gather_epi32(idx, tab, 4);
    const __m512i dsig = _mm512_and_si512(e, vmask_p);
    const __m512i dexp = _mm512_sra_epi32(e, cnt_p1);
    // zero addend: word 0; non-finite: the flag at bit p
    const __mmask16 dzero = _mm512_testn_epi32_mask(e, vmask_p1);
    const __mmask16 dbad = _mm512_test_epi32_mask(e, vnonfinite);
    // The product's sign, a ^ b at the multiplier's sign bit, as 0 / -1
    // (the table's NaN words replay, so its canonical sign never enters).
    const __m512i dsign = _mm512_srai_epi32(
        _mm512_sll_epi32(_mm512_xor_si512(bq, va), cnt_sign), 31);

    // ---- zeros (prepare_add_u's rules) -----------------------------------
    // `hold` lanes do not take the vector sum: x + 0 keeps x, 0 + d takes
    // d exactly, 0 + 0 keeps a negative sign only when both are negative;
    // non-finite operands replay (a parked lane only on a non-finite
    // addend: NaN and Inf absorb everything else).
    const __mmask16 accz = _mm512_testn_epi32_mask(gsig, gsig);
    const __mmask16 dspecial = dzero | dbad;
    const __mmask16 hold = dspecial | accz;
    const __mmask16 take = accz & ~(dspecial | parked);
    const __m512i hsig = _mm512_mask_mov_epi32(gsig, take, dsig);
    const __m512i hexp = _mm512_mask_mov_epi32(gexp, take, dexp);
    const __m512i hsign =
        _mm512_mask_and_epi32(_mm512_mask_mov_epi32(gsign, take, dsign),
                              accz & dzero, gsign, dsign);

    // ---- random word: one in-register LFSR step per lane (SR only) -------
    __m512i R = vzero;
    if constexpr (!kRn) {
      const __m512i sh = _mm512_srli_epi32(gst, 1);
      gst = _mm512_mask_xor_epi32(sh, _mm512_test_epi32_mask(gst, vone), sh,
                                  vtaps);
      R = _mm512_and_si512(gst, vmask_r);
    }

    // ---- prepare: magnitude swap, effective op (branch-free) ------------
    const __mmask16 swap =
        _mm512_cmpgt_epi32_mask(dexp, gexp) |
        _mm512_mask_cmpgt_epu32_mask(_mm512_cmpeq_epi32_mask(dexp, gexp),
                                     dsig, gsig);
    const __m512i psign = _mm512_mask_blend_epi32(swap, gsign, dsign);
    const __m512i x = _mm512_mask_blend_epi32(swap, gsig, dsig);
    const __m512i y = _mm512_mask_blend_epi32(swap, dsig, gsig);
    const __m512i exph = _mm512_max_epi32(gexp, dexp);
    const __m512i d = _mm512_abs_epi32(_mm512_sub_epi32(gexp, dexp));
    const __m512i opm = _mm512_xor_si512(gsign, dsign);

    // ---- align, add, round: the rounded sig (p + 1 bits on a carry into
    // the next binade), its exponent before that carry, and the exact
    // cancellations (kept = 0: +0, sign cleared below) ---------------------
    __m512i kept, expz;
    __mmask16 vzerom;
    if constexpr (kEager) {
      // Alignment (srlv gives 0 for d >= 32; for d in [p + r, 32) the
      // shifted value is 0 by itself, the core's d >= p + r arm).
      const __m512i yk = _mm512_srlv_epi32(_mm512_sll_epi32(y, cnt_r), d);
      const __m512i Bhi = _mm512_srl_epi32(yk, cnt_r1);

      // Sticky-round stage: Dc = ((yk & mask_rm1) ^ opm) & mask_rm1;
      // u = Dc + 2 Rlow + op stays below 2^r, so S1 = u >> (r - 1) needs no
      // mask.
      const __m512i Dc = _mm512_ternarylogic_epi32(yk, opm, vmask_rm1, 0x28);
      const __m512i u = _mm512_sub_epi32(
          _mm512_add_epi32(
              Dc, _mm512_slli_epi32(_mm512_and_si512(R, vmask_rm2), 1)),
          opm);
      const __m512i S1 = _mm512_srl_epi32(u, cnt_r1);

      // Main addition + normalization.
      const __m512i Bc = _mm512_ternarylogic_epi32(Bhi, opm, vmask_p1, 0x28);
      const __m512i full = _mm512_add_epi32(
          _mm512_add_epi32(_mm512_slli_epi32(x, 1), Bc), S1);
      // v = full & ~(opm << (p + 1)) = full & (mask_p1 | ~opm)
      const __m512i v = _mm512_ternarylogic_epi32(full, opm, vmask_p1, 0xB0);
      vzerom = _mm512_testn_epi32_mask(v, v);
      const __m512i lz = _mm512_lzcnt_epi32(v);
      const __m512i s = _mm512_sub_epi32(v31mp, lz);  // msb - p

      // Round correction. kept: v >> (s + 1) on the s >= 0 arm,
      // v << (-s - 1) = v << ~s on the LZD arm; each shift gives 0 on the
      // other arm and both give v at s = -1. Both keep exactly v's p bits
      // from its MSB down (the core's & mask_p is a no-op).
      // rc = (t + (R >> (r - 1 - s))) >> (s + 1) with t = v's low s + 1
      // bits is 0 on the LZD arm without a select: t = 0 and R >> r = 0 at
      // s = -1, and the final shift gives 0 below.
      const __m512i sp1 = _mm512_add_epi32(s, vone);
      const __m512i kept0 = _mm512_or_si512(
          _mm512_srlv_epi32(v, sp1),
          _mm512_sllv_epi32(v, _mm512_xor_si512(s, vallones)));
      const __m512i t =
          _mm512_andnot_si512(_mm512_sllv_epi32(vallones, sp1), v);
      const __m512i rc = _mm512_srlv_epi32(
          _mm512_add_epi32(t,
                           _mm512_srlv_epi32(R, _mm512_add_epi32(lz, vrp32))),
          sp1);
      expz = _mm512_add_epi32(exph, s);
      kept = _mm512_add_epi32(kept0, rc);
    } else {
      // Alignment into the K-bit window (srlv gives 0 for d >= 32; for d
      // in [p + K, 32) the shifted value is 0 by itself, the cores'
      // d >= p + K arm), then one add/subtract: A - B == A + ~B + 1.
      const __m512i yk = _mm512_sll_epi32(y, cnt_K);
      __m512i S = _mm512_sub_epi32(
          _mm512_add_epi32(_mm512_sll_epi32(x, cnt_K),
                           _mm512_xor_si512(_mm512_srlv_epi32(yk, d), opm)),
          opm);
      [[maybe_unused]] __mmask16 stickym = 0;
      if constexpr (kRn) {
        // Bits shifted past the window OR into the sticky (the mask is all
        // ones for d >= 32); a subtrahend that dropped sticky bits borrows
        // one window ULP (truncation invariant).
        stickym = _mm512_test_epi32_mask(
            yk, _mm512_sub_epi32(_mm512_sllv_epi32(vone, d), vone));
        S = _mm512_mask_add_epi32(
            S, stickym & _mm512_test_epi32_mask(opm, opm), S, vallones);
      }
      vzerom = _mm512_testn_epi32_mask(S, S);

      // Normalization: fw = msb - (p - 1) fraction bits fall below the kept
      // p (negative: the LZD left shift). The discarded fraction is
      // left-aligned at bit 31 (the count is >= 32, giving 0, for fw <= 0).
      const __m512i lz = _mm512_lzcnt_epi32(S);
      const __m512i fw = _mm512_sub_epi32(v32mp, lz);
      kept = _mm512_or_si512(_mm512_srlv_epi32(S, fw),
                             _mm512_sllv_epi32(S, _mm512_sub_epi32(vzero, fw)));
      const __m512i frac = _mm512_sllv_epi32(S, _mm512_sub_epi32(v32, fw));
      expz = _mm512_add_epi32(exph, _mm512_sub_epi32(fw, vK));

      // One rounding decision at the cut.
      if constexpr (kRn) {
        // RN-even on (guard, rest | sticky, lsb).
        const __mmask16 upm =
            _mm512_test_epi32_mask(frac, vmsb) &
            (_mm512_test_epi32_mask(frac, vrest) | stickym |
             _mm512_test_epi32_mask(kept, vone));
        kept = _mm512_mask_add_epi32(kept, upm, kept, vone);
      } else {
        // Add-R-and-carry on the top r fraction bits (paper Fig. 1
        // scheme).
        kept = _mm512_add_epi32(
            kept, _mm512_srl_epi32(
                      _mm512_add_epi32(_mm512_srl_epi32(frac, cnt_32mr), R),
                      cnt_r));
      }
    }
    const __mmask16 eminm = _mm512_cmpgt_epi32_mask(vemin, expz);
    const __m512i bin = _mm512_srl_epi32(kept, cnt_p);
    kept = _mm512_srlv_epi32(kept, bin);
    expz = _mm512_add_epi32(expz, bin);
    const __mmask16 emaxm = _mm512_cmpgt_epi32_mask(expz, vemax);

    const uint32_t bad = dbad | (~(hold | vzerom) & (eminm | emaxm));

    // Commit the vector sum on the remaining lanes; bad lanes keep the old
    // accumulator and are replayed through the scalar core below.
    const __mmask16 keep = static_cast<__mmask16>(hold | bad);
    gsig = _mm512_mask_mov_epi32(kept, keep, hsig);
    gexp = _mm512_mask_mov_epi32(expz, keep, hexp);
    gsign = _mm512_mask_mov_epi32(
        _mm512_maskz_mov_epi32(static_cast<__mmask16>(~vzerom), psign), keep,
        hsign);

    if (bad != 0) [[unlikely]] {
      // Scalar replay for flagged lanes, through the exact same decoded
      // core the scalar engine runs.
      _mm512_store_si512(la.sig, gsig);
      _mm512_store_si512(la.exp, gexp);
      _mm512_store_si512(la.sign, gsign);
      _mm512_store_si512(la.rand, R);
      for (uint32_t bl = bad; bl != 0; bl &= bl - 1) {
        const int l = __builtin_ctz(bl);
        const Unpacked cur =
            (parked >> l) & 1 ? spare[l] : lane_value(ap, la, l);
        const Unpacked ad =
            kernel.addend(ai, b_ilv[static_cast<size_t>(i) * G + l]);
        set_lane(la, spare, parked, l,
                 add_core<kKind>(ap, cur, ad,
                                 static_cast<uint32_t>(la.rand[l])));
      }
      gsig = _mm512_load_si512(la.sig);
      gexp = _mm512_load_si512(la.exp);
      gsign = _mm512_load_si512(la.sign);
    }
  }

  if constexpr (!kRn) {
    _mm512_storeu_si512(lfsr,
                        _mm512_cvtepu32_epi64(_mm512_castsi512_si256(gst)));
    _mm512_storeu_si512(
        lfsr + 8, _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(gst, 1)));
  }
  exit_lanes(ap, gsig, gexp, gsign, parked, spare, c, valid);
}

}  // namespace

void chain_group_avx512(const FusedMacKernel& kernel, const uint32_t* a,
                        const uint32_t* b_ilv, int n, uint64_t* lfsr, float* c,
                        int valid, bool accumulate) {
  const ChainConsts kc{kernel.params_,
                       &kernel.acc_quant_,
                       kernel.table_->words.data(),
                       kernel.mag_mask_,
                       kernel.mag_bits_,
                       kernel.cfg_.mul_fmt.width() - 1,
                       kernel.lfsr_taps_};
  switch (kernel.cfg_.adder) {
    case AdderKind::kEagerSR:
      return chain<AdderKind::kEagerSR>(kernel, kc, a, b_ilv, n, lfsr, c,
                                        valid, accumulate);
    case AdderKind::kLazySR:
      return chain<AdderKind::kLazySR>(kernel, kc, a, b_ilv, n, lfsr, c,
                                       valid, accumulate);
    case AdderKind::kRoundNearest:
      return chain<AdderKind::kRoundNearest>(kernel, kc, a, b_ilv, n, lfsr, c,
                                             valid, accumulate);
  }
}

}  // namespace srmac

#else  // !x86-64 or SRMAC_DISABLE_AVX512

namespace srmac {

bool mac_kernel_avx512_supported() { return false; }

void quantize_avx512(const FpQuantizer& q, const float* src, uint32_t* dst,
                     size_t n) {
  q.convert(src, dst, n);
}

void chain_group_avx512(const FusedMacKernel&, const uint32_t*,
                        const uint32_t*, int, uint64_t*, float*, int, bool) {}

}  // namespace srmac

#endif
