#pragma once

#include <cstdint>

#include "mac/adder_common.hpp"

namespace srmac {

/// Floating-point adder with *lazy* stochastic rounding (paper Fig. 3a).
///
/// The datapath matches add_rn up to normalization, except that the sticky /
/// guard / round computation is replaced by a bounded r-bit window of the
/// shifted-out fraction (plain truncation beyond it, per [5, Sec. 7.3]).
/// After normalization the top r discarded fraction bits are added to the
/// r-bit random word; a carry out of that addition rounds the result up.
/// This is the reference SR behaviour the eager design is compared against;
/// it realizes SR with probability floor(2^r * eps)/2^r (Eq. (2) discrete).
///
/// Contract:
///  * Operand packing — `a` and `b` are bit patterns in `fmt`; the return
///    value is the packed, stochastically rounded sum in the same format
///    (specials as in add_rn: canonical NaN, Inf propagation, +0 on exact
///    cancellation).
///  * Random bits — exactly the low r bits of `rand_word` are consumed,
///    1 <= r <= 32, all of them at the single post-normalization rounding
///    cut; higher bits are ignored. Exposing the word (rather than a
///    RandomSource) lets the validation harness drive lazy and eager with
///    the same randomness: under an identical word the two designs are
///    bit-identical on effective-addition carry-out traces (the paper's
///    case (a)), and elsewhere their round-up probabilities are tested to
///    agree within 2^-(r-2) plus sampling error (see add_eager_sr).
///  * Trace — as in add_rn; `f_r` holds the r-bit field the random word was
///    added to, `round_up` whether that addition carried.
uint32_t add_lazy_sr(const FpFormat& fmt, uint32_t a, uint32_t b, int r,
                     uint64_t rand_word, AdderTrace* trace = nullptr);

/// Convenience overload drawing one word from a RandomSource.
uint32_t add_lazy_sr(const FpFormat& fmt, uint32_t a, uint32_t b, int r,
                     RandomSource& rng, AdderTrace* trace = nullptr);

/// Decoded-operand core of add_lazy_sr: canonical decoded operands in,
/// canonical decoded result out (see add_rn_core for the decoded-form
/// contract; packing, random-bit consumption, and trace semantics as in
/// add_lazy_sr above). The AddParams carry the precomputed constants of
/// the (fmt, r) configuration.
inline Unpacked add_lazy_sr_core(const AddParams& ap, const Unpacked& ua,
                                 const Unpacked& ub, uint64_t rand_word,
                                 AdderTrace* trace = nullptr) {
  const FpFormat& fmt = ap.fmt;
  const int p = ap.p;
  const int r = ap.r;
  assert(r >= 1 && r <= 32);
  const PreparedAddU pr = prepare_add_u(fmt, ua, ub);
  if (pr.special) [[unlikely]] {
    if (trace) trace->special = true;
    return pr.special_val;
  }
  const int K = r;  // extension window: r bits below the result ULP

  if (trace) {
    trace->far_path = pr.d > 1;
    trace->effective_sub = pr.op;
  }

  // Alignment with an r-bit extension window; bits shifted beyond it are
  // truncated (the random addition *replaces* the sticky computation).
  const uint64_t A = pr.x << K;
  const uint64_t B = (pr.d < p + K) ? ((pr.y << K) >> pr.d) : 0;

  // Branch-free add/subtract select (A - B == A + ~B + 1): the op flag is
  // data-dependent and effectively random in accumulation chains.
  const uint64_t opmask = pr.op ? ~0ull : 0ull;
  const uint64_t S = A + (B ^ opmask) + (pr.op ? 1u : 0u);
  if (S == 0) [[unlikely]]
    return unpacked_zero(fmt, false);  // exact cancellation -> +0

  const int msb = 63 - __builtin_clzll(S);
  if (trace) {
    trace->carry_out = !pr.op && msb == p + K;
    trace->norm_shift = (p + K - 1) - msb;
  }
  // Normalize: right shift when the sum grew past p bits, left shift after
  // deep cancellation (LZD path).
  const int fw = msb - (p - 1);  // fraction width (negative: left shift)
  const uint64_t sig_p = fw >= 0 ? (S >> fw) : (S << -fw);
  const uint64_t frac64 = fw >= 1 ? (S << (64 - fw)) : 0;
  const int exp_z = pr.exp + (msb - (p + K - 1));

  return round_unpacked_core(ap, pr.sign, exp_z, sig_p, frac64,
                             /*sticky=*/false, /*rn_mode=*/false, rand_word,
                             /*already_rounded=*/false, trace);
}

/// Decoded-operand entry point: add_lazy_sr_core with the AddParams built
/// per call (same contract; use the _core form with precomputed params in
/// loops).
inline Unpacked add_lazy_sr_u(const FpFormat& fmt, const Unpacked& ua,
                              const Unpacked& ub, int r, uint64_t rand_word,
                              AdderTrace* trace = nullptr) {
  return add_lazy_sr_core(AddParams(fmt, r), ua, ub, rand_word, trace);
}

/// Out-of-line, by-value form for the eager adder's rare subnormal-cut
/// fallback. Taking the operands by value (and never inlining) keeps their
/// addresses from escaping at the call site, so the eager hot path can hold
/// its accumulator fully in registers.
[[gnu::noinline]] inline Unpacked add_lazy_sr_fallback(const AddParams& ap,
                                                       Unpacked ua,
                                                       Unpacked ub,
                                                       uint64_t rand_word,
                                                       AdderTrace* trace) {
  return add_lazy_sr_core(ap, ua, ub, rand_word, trace);
}

}  // namespace srmac
