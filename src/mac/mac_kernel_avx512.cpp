// AVX-512 implementations of the fused accumulation chains, one per
// AdderKind: the eager-SR chain (rounding fused into the add) and the
// late-rounding chain shared by lazy-SR and RN (full-width alignment
// window, normalize, then one rounding decision at the cut).
//
// Sixteen independent output chains run in lockstep. The eager chain holds
// them as the sixteen 32-bit lanes of one zmm per field (sig, exp, sign,
// LFSR state) and gathers its sixteen addends at once from the product
// table's 32-bit words; FusedMacKernel admits it only for configs whose
// every intermediate fits a 32-bit lane (p + r <= 32, see group_width()).
// The late chain runs two groups of eight 64-bit lanes, interleaved so each
// group's serial add latency hides behind the other's work. Each vector
// step is a lane-parallel transcription of the corresponding adder core's
// hot path. Zeros stay in the vector, under
// prepare_add_u's rules: a zero accumulator is an ordinary lane with sig = 0
// and its sign; a zero addend (ReLU outputs, im2col padding) leaves the
// accumulator unchanged (x + 0 is exact), a zero accumulator takes a finite
// addend exactly (0 + d = d), zero + zero keeps a negative sign only when
// both are negative, and exact cancellation gives +0. Every other rare event
// — a non-finite addend, a subnormal (emin) cut, overflow past emax —
// raises a lane mask and is replayed through the *scalar* core for exactly
// those lanes, so the vector paths are bit-identical to the scalar engine
// by construction (and are covered by the same bit-exactness suite).
//
// The sixteen lanes' Galois LFSRs live in registers and step once per
// accumulation in-register, s = (s >> 1) ^ (taps & -(s & 1)), the random
// word being the low r bits; a replayed lane takes its word from the same
// step. The caller's lane states are written back at the end, so a chain
// continues across calls.
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

/// A register group's lane fields spilled for a scalar replay; T is the
/// lane width (int32_t for the eager chain, int64_t for the late chain).
template <typename T>
struct alignas(64) LaneArrays {
  T sig[16];
  T exp[16];
  T sign[16];  ///< nonzero for a negative lane
  T rand[16];  ///< this step's random words, for scalar replays
};

/// Lanes [0, valid) of a 16-lane group.
inline __mmask16 valid_mask(int valid) {
  return static_cast<__mmask16>(valid >= 16 ? 0xffffu : (1u << valid) - 1u);
}

/// The decoded accumulator of unparked lane l from its spilled vector
/// fields (sig = 0 is a signed zero), in decode()'s canonical form.
template <typename T>
inline Unpacked lane_value(const AddParams& ap, const LaneArrays<T>& la,
                           int l) {
  if (la.sig[l] == 0) return unpacked_zero(ap.fmt, la.sign[l] != 0);
  Unpacked u;
  u.sig = static_cast<uint64_t>(la.sig[l]);
  u.exp = static_cast<int>(la.exp[l]);
  u.sign = la.sign[l] != 0;
  u.sig_bits = ap.p;
  u.cls = u.exp >= ap.emin ? FpClass::kNormal : FpClass::kSubnormal;
  return u;
}

/// Writes a scalar replay's result back into lane l: finite values and
/// zeros return to the vector fields (a negative sign as `neg`, the chain's
/// sign encoding), NaN/Inf park in `spare`.
template <typename T>
inline void set_lane(LaneArrays<T>& la, Unpacked* spare, uint32_t& parked,
                     int l, const Unpacked& res, T neg) {
  const bool finite =
      res.cls != FpClass::kNaN && res.cls != FpClass::kInf;
  la.sig[l] = finite ? static_cast<T>(res.sig) : 0;
  la.exp[l] = res.exp;
  la.sign[l] = res.sign ? neg : 0;
  if (finite) {
    parked &= ~(1u << l);
  } else {
    spare[l] = res;
    parked |= 1u << l;
  }
}

/// Group entry (the chain_group contract): the 16 lanes' starting
/// accumulators as 32-bit lanes, sign 0 or 1. With `accumulate` the valid
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
  sgn = _mm512_srl_epi32(bits, _mm_cvtsi32_si128(fmt.exp_bits + man));
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

/// entry_lanes widened into the late chain's two 8-lane 64-bit groups.
__attribute__((target("avx512f,avx512cd"), always_inline)) inline uint32_t
group_entry(const FpQuantizer& q, const FpFormat& fmt, const float* c,
            int valid, bool accumulate, __m512i* gsig, __m512i* gexp,
            __m512i* gsign, Unpacked* spare) {
  __m512i sig, ex, sgn;
  const uint32_t parked =
      entry_lanes(q, fmt, c, valid, accumulate, sig, ex, sgn, spare);
  gsig[0] = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(sig));
  gsig[1] = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(sig, 1));
  gexp[0] = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(ex));
  gexp[1] = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(ex, 1));
  gsign[0] = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(sgn));
  gsign[1] = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(sgn, 1));
  return parked;
}

/// Group exit (the chain_group contract): the valid lanes' results from
/// 32-bit lanes (a negative lane's sign is 1 or -1: bit 0 set) as floats,
/// built
/// lane-parallel as unpacked_to_float builds them and stored under the
/// valid-lane mask. Parked lanes and finite results below binary32's
/// normal range (exp < -126) take the scalar unpacked_to_float.
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
    LaneArrays<int32_t> la;
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

/// Sixteen 64-bit lanes (two 8-lane groups) truncated to 32-bit lanes.
__attribute__((target("avx512f,avx512cd"), always_inline)) inline __m512i
narrow_lanes(const __m512i* g) {
  return _mm512_inserti64x4(
      _mm512_castsi256_si512(_mm512_cvtepi64_epi32(g[0])),
      _mm512_cvtepi64_epi32(g[1]), 1);
}

/// exit_lanes from the late chain's two 8-lane 64-bit groups (every field
/// fits 32 bits: sig has p <= 24 bits, sign is 0 or 1).
__attribute__((target("avx512f,avx512cd"), always_inline)) inline void
group_exit(const AddParams& ap, const __m512i* gsig, const __m512i* gexp,
           const __m512i* gsign, uint32_t parked, const Unpacked* spare,
           float* c, int valid) {
  exit_lanes(ap, narrow_lanes(gsig), narrow_lanes(gexp), narrow_lanes(gsign),
             parked, spare, c, valid);
}

/// The kernel's private constants the vector chains read, extracted by
/// chain_group_avx512 at the bottom of this file.
struct ChainConsts {
  AddParams ap;            ///< precomputed (acc_fmt, r) adder constants
  const FpQuantizer* q;    ///< RN float -> acc_fmt, for accumulate entry
  const MacAddend* tab;    ///< the product table's decoded addends
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
// Eager-SR chain, the vector transcription of add_eager_sr_core in the
// sixteen 32-bit lanes of one zmm. FusedMacKernel runs it only when every
// intermediate fits a lane: the aligned operand y << r takes p + r <= 32
// bits, the main sum p + 2, the sticky-round partial sum r, the LFSR
// max(r, 4). Sign lanes are 0 or -1, so the effective-subtraction mask is
// their XOR. The two-arm normalization and its mask, written as selects in
// the core, are folded where the shifts already produce the arm's value:
// a variable shift by a count that is negative as int32 gives 0.
__attribute__((target("avx512f,avx512cd"))) void chain_eager(
    const FusedMacKernel& kernel, const ChainConsts& kc, const uint32_t* a,
    const uint32_t* b_ilv, int n, uint64_t* lfsr, float* c, int valid,
    bool accumulate) {
  constexpr int G = 16;
  const AddParams ap = kc.ap;
  const uint32_t* tab = kc.words;
  const int p = ap.p;
  const int r = ap.r;

  // Broadcast constants.
  const __m512i vzero = _mm512_setzero_si512();
  const __m512i vone = _mm512_set1_epi32(1);
  const __m512i vallones = _mm512_set1_epi32(-1);
  const __m512i v31mp = _mm512_set1_epi32(31 - p);
  const __m512i vrp32 = _mm512_set1_epi32(r + p - 32);
  const __m512i vemin = _mm512_set1_epi32(ap.emin);
  const __m512i vemax = _mm512_set1_epi32(ap.fmt.emax());
  const __m512i vmask_p = bcast32(ap.mask_p);
  const __m512i vmask_p1 = bcast32(ap.mask_p1);
  const __m512i vmask_r = bcast32(ap.mask_r);
  const __m512i vmask_rm1 = bcast32(ap.mask_rm1);
  const __m512i vmask_rm2 = bcast32(ap.mask_rm2);
  const __m512i vnonfinite = bcast32(1ull << p);
  const __m512i vmagmask = bcast32(kc.mag_mask);
  const __m512i vtaps = bcast32(kc.taps);
  const __m128i cnt_r = _mm_cvtsi32_si128(r);
  const __m128i cnt_r1 = _mm_cvtsi32_si128(r - 1);
  const __m128i cnt_p = _mm_cvtsi32_si128(p);
  const __m128i cnt_p1 = _mm_cvtsi32_si128(p + 1);
  const __m128i cnt_sign = _mm_cvtsi32_si128(31 - kc.w1);

  // Lane state: the vectors hold every finite accumulator (sig = 0 for a
  // zero); `spare` holds the decoded value of parked (NaN/Inf) lanes.
  LaneArrays<int32_t> la;
  Unpacked spare[G];
  __m512i gsig, gexp, gsign;
  uint32_t parked = entry_lanes(*kc.q, ap.fmt, c, valid, accumulate, gsig,
                                gexp, gsign, spare);
  gsign = _mm512_sub_epi32(vzero, gsign);
  const __m512i st64[2] = {_mm512_loadu_si512(lfsr),
                           _mm512_loadu_si512(lfsr + 8)};
  __m512i gst = narrow_lanes(st64);

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

    // ---- random word: one in-register LFSR step per lane -----------------
    const __m512i sh = _mm512_srli_epi32(gst, 1);
    gst = _mm512_mask_xor_epi32(sh, _mm512_test_epi32_mask(gst, vone), sh,
                                vtaps);
    const __m512i R = _mm512_and_si512(gst, vmask_r);

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

    // ---- alignment (srlv gives 0 for d >= 32; for d in [p + r, 32) the
    // shifted value is 0 by itself, the core's d >= p + r arm) -----------
    const __m512i yk = _mm512_srlv_epi32(_mm512_sll_epi32(y, cnt_r), d);
    const __m512i Bhi = _mm512_srl_epi32(yk, cnt_r1);

    // ---- sticky-round stage ----------------------------------------------
    // Dc = ((yk & mask_rm1) ^ opm) & mask_rm1; u = Dc + 2 Rlow + op stays
    // below 2^r, so S1 = u >> (r - 1) needs no mask.
    const __m512i Dc = _mm512_ternarylogic_epi32(yk, opm, vmask_rm1, 0x28);
    const __m512i u = _mm512_sub_epi32(
        _mm512_add_epi32(Dc,
                         _mm512_slli_epi32(_mm512_and_si512(R, vmask_rm2), 1)),
        opm);
    const __m512i S1 = _mm512_srl_epi32(u, cnt_r1);

    // ---- main addition + normalization -----------------------------------
    const __m512i Bc = _mm512_ternarylogic_epi32(Bhi, opm, vmask_p1, 0x28);
    const __m512i full = _mm512_add_epi32(
        _mm512_add_epi32(_mm512_slli_epi32(x, 1), Bc), S1);
    // v = full & ~(opm << (p + 1)) = full & (mask_p1 | ~opm)
    const __m512i v = _mm512_ternarylogic_epi32(full, opm, vmask_p1, 0xB0);
    const __mmask16 vzerom = _mm512_testn_epi32_mask(v, v);
    const __m512i lz = _mm512_lzcnt_epi32(v);
    const __m512i s = _mm512_sub_epi32(v31mp, lz);  // msb - p

    // ---- round correction --------------------------------------------------
    // kept: v >> (s + 1) on the s >= 0 arm, v << (-s - 1) = v << ~s on the
    // LZD arm; each shift gives 0 on the other arm and both give v at
    // s = -1. Both keep exactly v's p bits from its MSB down (the core's
    // & mask_p is a no-op). rc = (t + (R >> (r - 1 - s))) >> (s + 1) with
    // t = v's low s + 1 bits is 0 on the LZD arm without a select: t = 0 and
    // R >> r = 0 at s = -1, and the final shift gives 0 below.
    const __m512i sp1 = _mm512_add_epi32(s, vone);
    const __m512i kept0 = _mm512_or_si512(
        _mm512_srlv_epi32(v, sp1),
        _mm512_sllv_epi32(v, _mm512_xor_si512(s, vallones)));
    const __m512i t = _mm512_andnot_si512(_mm512_sllv_epi32(vallones, sp1), v);
    const __m512i rc = _mm512_srlv_epi32(
        _mm512_add_epi32(t,
                         _mm512_srlv_epi32(R, _mm512_add_epi32(lz, vrp32))),
        sp1);
    __m512i expz = _mm512_add_epi32(exph, s);
    const __mmask16 eminm = _mm512_cmpgt_epi32_mask(vemin, expz);
    __m512i kept = _mm512_add_epi32(kept0, rc);
    const __m512i bin = _mm512_srl_epi32(kept, cnt_p);
    kept = _mm512_srlv_epi32(kept, bin);
    expz = _mm512_add_epi32(expz, bin);
    const __mmask16 emaxm = _mm512_cmpgt_epi32_mask(expz, vemax);

    // Exact cancellation (v == 0) leaves kept = 0: +0, sign cleared below.
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
                 add_eager_sr_core(ap, cur, ad,
                                   static_cast<uint32_t>(la.rand[l]), nullptr),
                 int32_t{-1});
      }
      gsig = _mm512_load_si512(la.sig);
      gexp = _mm512_load_si512(la.exp);
      gsign = _mm512_load_si512(la.sign);
    }
  }

  _mm512_storeu_si512(lfsr, _mm512_cvtepu32_epi64(_mm512_castsi512_si256(gst)));
  _mm512_storeu_si512(lfsr + 8,
                      _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(gst, 1)));
  exit_lanes(ap, gsig, gexp, gsign, parked, spare, c, valid);
}

// ---------------------------------------------------------------------------
// Late-rounding chain (lazy-SR and RN), the vector transcription of
// add_lazy_sr_core / add_rn_core: align the smaller operand into a K-bit
// extension window below the p+1 adder bits (K = r for lazy, K = 2 plus a
// sticky OR for RN), one full-width add/subtract, LZD normalization, then a
// single rounding decision at the cut — add-R-and-carry on the top r
// fraction bits for lazy, guard/rest/even for RN. It runs kGroups register
// groups of eight 64-bit lanes: two for a group with more than eight valid
// lanes, one otherwise (the upper eight lanes are then all padding, and
// their LFSR registers are left as they were).
template <bool kRn, int kGroups>
__attribute__((target("avx512f,avx512cd"))) void chain_late(
    const FusedMacKernel& kernel, const ChainConsts& kc, const uint32_t* a,
    const uint32_t* b_ilv, int n, uint64_t* lfsr, float* c, int valid,
    bool accumulate) {
  constexpr int G = 16;
  const AddParams ap = kc.ap;
  const MacAddend* tab = kc.tab;
  const uint32_t mag_mask = kc.mag_mask;
  const int mag_bits = kc.mag_bits;
  const int w1 = kc.w1;
  const uint64_t taps = kc.taps;
  const int p = ap.p;
  const int r = ap.r;
  const int K = kRn ? 2 : r;  // extension window below the kept p bits

  // Broadcast constants.
  const __m512i vzero64 = _mm512_setzero_si512();
  const __m512i vone = _mm512_set1_epi64(1);
  const __m512i vtwo = _mm512_set1_epi64(2);
  const __m512i v63 = _mm512_set1_epi64(63);
  const __m512i v64 = _mm512_set1_epi64(64);
  const __m512i vpm1 = _mm512_set1_epi64(p - 1);
  const __m512i vpK1 = _mm512_set1_epi64(p + K - 1);
  const __m512i vemin = _mm512_set1_epi64(ap.emin);
  const __m512i vemax = _mm512_set1_epi64(ap.fmt.emax());
  [[maybe_unused]] const __m512i vmask_r =
      _mm512_set1_epi64(static_cast<int64_t>(ap.mask_r));
  const __m512i vmask32 = _mm512_set1_epi64(0xffffffffll);
  [[maybe_unused]] const __m512i vmsb63 =
      _mm512_set1_epi64(static_cast<int64_t>(1ull << 63));
  const __m512i vmagmask = _mm512_set1_epi64(mag_mask);
  [[maybe_unused]] const __m512i vtaps =
      _mm512_set1_epi64(static_cast<int64_t>(taps));
  const __m128i cnt_K = _mm_cvtsi32_si128(K);
  const __m128i cnt_p = _mm_cvtsi32_si128(p);
  [[maybe_unused]] const __m128i cnt_r = _mm_cvtsi32_si128(r);
  [[maybe_unused]] const __m128i cnt_64mr = _mm_cvtsi32_si128(64 - r);
  const __m128i cnt_w1 = _mm_cvtsi32_si128(w1);

  // Lane state: the vectors hold every finite accumulator (sig = 0 for a
  // zero); `spare` holds the decoded value of parked (NaN/Inf) lanes.
  LaneArrays<int64_t> la;
  Unpacked spare[G];
  __m512i gsig[2], gexp[2], gsign[2], gst[2];
  uint32_t parked = group_entry(*kc.q, ap.fmt, c, valid, accumulate, gsig, gexp,
                                gsign, spare);
  for (int g = 0; g < kGroups; ++g) gst[g] = _mm512_loadu_si512(lfsr + 8 * g);

  for (int i = 0; i < n; ++i) {
    const uint32_t ai = a[i];
    const int64_t abase = static_cast<int64_t>(
        static_cast<uint64_t>(ai & mag_mask) << mag_bits);
    const __m512i vabase = _mm512_set1_epi64(abase);
    const __m512i vasign =
        _mm512_set1_epi64(static_cast<int64_t>((ai >> w1) & 1u));

    __m512i nsig[2], nexp[2], nsign[2];
    __m512i R[2] = {vzero64, vzero64};  // random words (lazy only)
    uint32_t bad = 0;
    for (int g = 0; g < kGroups; ++g) {
      // ---- addend: gather the pre-decoded product, apply the sign -------
      const __m256i b32 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          b_ilv + static_cast<size_t>(i) * G + 8 * g));
      const __m512i bq = _mm512_cvtepu32_epi64(b32);
      const __m512i idx =
          _mm512_or_si512(vabase, _mm512_and_si512(bq, vmagmask));
      const __m512i e = _mm512_i64gather_epi64(idx, tab, 8);
      const __m512i dsig = _mm512_and_si512(e, vmask32);
      const __m512i dexp = _mm512_srai_epi64(_mm512_slli_epi64(e, 16), 48);
      const __m512i dcls =
          _mm512_and_si512(_mm512_srli_epi64(e, 48), _mm512_set1_epi64(0xff));
      // zero addend: cls kZero = 0; non-finite: cls > kNormal = 2
      const __mmask8 dzero = _mm512_cmpeq_epi64_mask(dcls, vzero64);
      const __mmask8 dbad = _mm512_cmpgt_epu64_mask(dcls, vtwo);
      const __m512i bsign =
          _mm512_and_si512(_mm512_srl_epi64(bq, cnt_w1), vone);
      const __m512i dsign = _mm512_and_si512(
          _mm512_srli_epi64(e, 56), _mm512_xor_si512(vasign, bsign));

      // ---- zeros (prepare_add_u's rules, as in the eager chain) ----------
      const __mmask8 pk = static_cast<__mmask8>(parked >> (8 * g));
      const __mmask8 accz = _mm512_testn_epi64_mask(gsig[g], gsig[g]);
      const __mmask8 dspecial = static_cast<__mmask8>(dzero | dbad);
      const __mmask8 hold = static_cast<__mmask8>(dspecial | accz);
      const __mmask8 take = static_cast<__mmask8>(accz & ~(dspecial | pk));
      const __m512i hsig = _mm512_mask_mov_epi64(gsig[g], take, dsig);
      const __m512i hexp = _mm512_mask_mov_epi64(gexp[g], take, dexp);
      const __m512i hsign = _mm512_mask_and_epi64(
          _mm512_mask_mov_epi64(gsign[g], take, dsign),
          static_cast<__mmask8>(accz & dzero), gsign[g], dsign);

      // ---- prepare: magnitude swap, effective op (branch-free) ----------
      const __mmask8 keq = _mm512_cmpeq_epi64_mask(dexp, gexp[g]);
      const __mmask8 swap = static_cast<__mmask8>(
          _mm512_cmpgt_epi64_mask(dexp, gexp[g]) |
          (keq & _mm512_cmpgt_epi64_mask(dsig, gsig[g])));
      const __m512i psign = _mm512_mask_blend_epi64(swap, gsign[g], dsign);
      const __m512i x = _mm512_mask_blend_epi64(swap, gsig[g], dsig);
      const __m512i y = _mm512_mask_blend_epi64(swap, dsig, gsig[g]);
      const __m512i exph = _mm512_mask_blend_epi64(swap, gexp[g], dexp);
      const __m512i d = _mm512_abs_epi64(_mm512_sub_epi64(gexp[g], dexp));
      const __m512i op = _mm512_xor_si512(gsign[g], dsign);
      const __m512i opm = _mm512_sub_epi64(vzero64, op);

      // ---- alignment into the K-bit window (srlv zeroes for d >= 64; for
      // d in [p+K, 64) the window value underruns to zero by itself, which
      // is exactly the scalar cores' d >= p+K arm) -------------------------
      const __m512i ykfull = _mm512_sll_epi64(y, cnt_K);
      const __m512i B = _mm512_srlv_epi64(ykfull, d);

      // ---- one full-width add/subtract (A - B == A + ~B + 1) -------------
      __m512i S = _mm512_add_epi64(
          _mm512_add_epi64(_mm512_sll_epi64(x, cnt_K),
                           _mm512_xor_si512(B, opm)),
          op);
      [[maybe_unused]] __mmask8 stickym = 0;
      if constexpr (kRn) {
        // Bits shifted past the window OR into the sticky; a subtrahend that
        // dropped sticky bits borrows one window ULP (truncation invariant).
        const __m512i maskd =
            _mm512_sub_epi64(_mm512_sllv_epi64(vone, d), vone);
        stickym = _mm512_test_epi64_mask(ykfull, maskd);
        S = _mm512_mask_sub_epi64(
            S, _mm512_test_epi64_mask(op, vone) & stickym, S, vone);
      }
      const __mmask8 vzerom = _mm512_cmpeq_epi64_mask(S, vzero64);

      // ---- normalization (LZD) -------------------------------------------
      const __m512i msb = _mm512_sub_epi64(v63, _mm512_lzcnt_epi64(S));
      const __m512i fw = _mm512_sub_epi64(msb, vpm1);
      const __mmask8 fwneg = _mm512_cmpgt_epi64_mask(vzero64, fw);
      __m512i sig = _mm512_mask_blend_epi64(
          fwneg, _mm512_srlv_epi64(S, fw),
          _mm512_sllv_epi64(S, _mm512_sub_epi64(vzero64, fw)));
      // Discarded fraction, left-aligned at bit 63 (sllv count >= 64 for
      // fw <= 0 gives the scalar cores' frac64 = 0).
      const __m512i frac = _mm512_sllv_epi64(S, _mm512_sub_epi64(v64, fw));
      __m512i expz = _mm512_add_epi64(exph, _mm512_sub_epi64(msb, vpK1));
      const __mmask8 eminm = _mm512_cmpgt_epi64_mask(vemin, expz);

      // ---- one rounding decision at the cut ------------------------------
      if constexpr (kRn) {
        // RN-even on (guard, rest | sticky, lsb).
        const __mmask8 gm = _mm512_test_epi64_mask(frac, vmsb63);
        const __mmask8 restm =
            _mm512_cmpneq_epi64_mask(_mm512_slli_epi64(frac, 1), vzero64);
        const __mmask8 lsbm = _mm512_test_epi64_mask(sig, vone);
        const __mmask8 upm =
            gm & static_cast<__mmask8>(restm | stickym | lsbm);
        sig = _mm512_mask_add_epi64(sig, upm, sig, vone);
      } else {
        // Add-R-and-carry on the top r fraction bits (paper Fig. 1 scheme),
        // R from one in-register LFSR step per lane.
        const __m512i sh = _mm512_srli_epi64(gst[g], 1);
        gst[g] = _mm512_mask_xor_epi64(
            sh, _mm512_test_epi64_mask(gst[g], vone), sh, vtaps);
        R[g] = _mm512_and_si512(gst[g], vmask_r);
        const __m512i fr = _mm512_srl_epi64(frac, cnt_64mr);
        const __m512i up =
            _mm512_srl_epi64(_mm512_add_epi64(fr, R[g]), cnt_r);
        sig = _mm512_add_epi64(sig, up);
      }
      const __m512i bin = _mm512_srl_epi64(sig, cnt_p);
      sig = _mm512_srlv_epi64(sig, bin);
      expz = _mm512_add_epi64(expz, bin);
      const __mmask8 emaxm = _mm512_cmpgt_epi64_mask(expz, vemax);

      // Exact cancellation (S == 0) leaves sig = 0: +0, sign cleared below.
      const __mmask8 badg = static_cast<__mmask8>(
          dbad | (~(hold | vzerom) & (eminm | emaxm)));
      bad |= static_cast<uint32_t>(badg) << (8 * g);

      // Commit the vector sum on the remaining lanes; bad lanes keep the
      // old accumulator and are replayed through the scalar core below.
      const __mmask8 keep = static_cast<__mmask8>(hold | badg);
      nsig[g] = _mm512_mask_mov_epi64(sig, keep, hsig);
      nexp[g] = _mm512_mask_mov_epi64(expz, keep, hexp);
      nsign[g] = _mm512_mask_mov_epi64(
          _mm512_maskz_mov_epi64(static_cast<__mmask8>(~vzerom), psign), keep,
          hsign);
    }

    if (bad != 0) [[unlikely]] {
      // Scalar replay for flagged lanes, through the exact same decoded
      // core the scalar engine runs.
      for (int g = 0; g < kGroups; ++g) {
        _mm512_store_si512(la.sig + 8 * g, nsig[g]);
        _mm512_store_si512(la.exp + 8 * g, nexp[g]);
        _mm512_store_si512(la.sign + 8 * g, nsign[g]);
        _mm512_store_si512(la.rand + 8 * g, R[g]);
      }
      for (uint32_t bl = bad; bl != 0; bl &= bl - 1) {
        const int l = __builtin_ctz(bl);
        const Unpacked cur =
            (parked >> l) & 1 ? spare[l] : lane_value(ap, la, l);
        const Unpacked ad =
            kernel.addend(ai, b_ilv[static_cast<size_t>(i) * G + l]);
        set_lane(la, spare, parked, l,
                 kRn ? add_rn_core(ap, cur, ad, nullptr)
                     : add_lazy_sr_core(ap, cur, ad,
                                        static_cast<uint64_t>(la.rand[l]),
                                        nullptr),
                 int64_t{1});
      }
      for (int g = 0; g < kGroups; ++g) {
        nsig[g] = _mm512_load_si512(la.sig + 8 * g);
        nexp[g] = _mm512_load_si512(la.exp + 8 * g);
        nsign[g] = _mm512_load_si512(la.sign + 8 * g);
      }
    }
    for (int g = 0; g < kGroups; ++g) {
      gsig[g] = nsig[g];
      gexp[g] = nexp[g];
      gsign[g] = nsign[g];
    }
  }

  for (int g = 0; g < kGroups; ++g) _mm512_storeu_si512(lfsr + 8 * g, gst[g]);
  group_exit(ap, gsig, gexp, gsign, parked, spare, c, valid);
}

}  // namespace

void chain_group_avx512(const FusedMacKernel& kernel, const uint32_t* a,
                        const uint32_t* b_ilv, int n, uint64_t* lfsr, float* c,
                        int valid, bool accumulate) {
  const ChainConsts kc{kernel.params_,
                       &kernel.acc_quant_,
                       kernel.table_->addends.data(),
                       kernel.table_->words.data(),
                       kernel.mag_mask_,
                       kernel.mag_bits_,
                       kernel.cfg_.mul_fmt.width() - 1,
                       kernel.lfsr_taps_};
  const bool wide = valid > 8;
  switch (kernel.cfg_.adder) {
    case AdderKind::kEagerSR:
      return chain_eager(kernel, kc, a, b_ilv, n, lfsr, c, valid, accumulate);
    case AdderKind::kLazySR:
      return wide ? chain_late<false, 2>(kernel, kc, a, b_ilv, n, lfsr, c,
                                         valid, accumulate)
                  : chain_late<false, 1>(kernel, kc, a, b_ilv, n, lfsr, c,
                                         valid, accumulate);
    case AdderKind::kRoundNearest:
      return wide ? chain_late<true, 2>(kernel, kc, a, b_ilv, n, lfsr, c,
                                        valid, accumulate)
                  : chain_late<true, 1>(kernel, kc, a, b_ilv, n, lfsr, c,
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
