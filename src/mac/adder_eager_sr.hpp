#pragma once

#include <cstdint>

#include "mac/adder_common.hpp"
#include "mac/adder_lazy_sr.hpp"

namespace srmac {

/// Floating-point adder with *eager* stochastic rounding — the paper's main
/// contribution (Fig. 3b, Fig. 4).
///
/// Rounding starts right after significand alignment:
///  * Sticky Round stage (far path): the r-2 LSBs of the random word are
///    added to the aligned operand's shifted-out field starting at position
///    p+3; only the two MSBs of that partial sum survive: S'1 (the carry
///    into the main adder's LSB) and S'2.
///  * The main p+1-bit addition absorbs S'1 as carry-in, so the
///    normalization decision operates on the partially rounded sum.
///  * Round Correction (after the carry-dependent normalization):
///     - carry out  (paper case (a), "no normalization"): a 2-bit addition
///       of {G, L} and the two remaining random MSBs {R1, R2} yields the
///       rounding carry; the outcome is *bit-identical* to the lazy design
///       under the same random word (tested exhaustively on E4M3 at r = 6),
///       by carry-save associativity with the S'1 injection.
///     - no carry  (paper case (b), the window's 1-bit left shift): the
///       random LSBs were consumed one position high, so only R1 joins the
///       correction (at the guard bit, which already absorbed S'1). R2 is
///       deliberately unused here: the total injected randomness must stay
///       below one ULP or the two-neighbour SR invariant breaks.
///     - 1-bit cancellation on the far path: after the shift the old
///       position p+1 is the kept LSB, so the S'1 carry folded into the
///       main adder *is* the rounding carry — no further correction.
/// Reconstruction note: the paper consults S'2 explicitly and swaps the
/// S'1/S'2 roles between its cases; in this reconstruction S'1 rides the
/// main adder's carry-in, which places the Sticky-Round result at the
/// correct weight in every normalization outcome, so S'2 is carried in the
/// datapath but never gates the correction. Whether the two wirings give
/// the same distribution is not tested. What the tests pin for this one:
/// bit-identity with lazy on carry-out traces (case (a) above); elsewhere
/// each result is one of the two neighbours of the exact sum, and its
/// round-up probability is within 2^-(r-2) plus sampling error of lazy's
/// f_r / 2^r (the Sec. III-B harness, adder_eager_sr_test.cpp).
/// The close path (|d| <= 1) has no shifted-out field, so the Sticky Round
/// stage is bypassed; deep cancellations are exact and never round.
///
/// Denormalized results fall back to the late rounding stage (pack_round):
/// a subnormal cut invalidates the eager pre-alignment, mirroring the
/// dedicated slow path subnormal handling costs in the hardware model.
///
/// Contract:
///  * Operand packing — `a` and `b` are bit patterns in `fmt`; the return
///    value is the packed, stochastically rounded sum in the same format
///    (specials as in add_rn: canonical NaN, Inf propagation, +0 on exact
///    cancellation).
///  * Random bits — exactly the low r bits of `rand_word` are consumed,
///    3 <= r <= 32, split per the eager scheme: the r-2 LSBs enter at the
///    Sticky Round stage (alignment time), the two MSBs at Round
///    Correction; higher word bits are ignored. Under the same word the
///    result is bit-identical to add_lazy_sr on effective-addition
///    carry-out traces (tested exhaustively on E4M3 at r = 6) and on
///    subnormal results (which take the lazy path); on other traces the two
///    may round differently, and only their round-up probabilities are
///    tested to agree, within 2^-(r-2) plus sampling error.
///  * Trace — as in add_rn; `round_up` reports the Round Correction carry,
///    and the subnormal fallback re-fills the trace on the lazy path.
uint32_t add_eager_sr(const FpFormat& fmt, uint32_t a, uint32_t b, int r,
                      uint64_t rand_word, AdderTrace* trace = nullptr);

/// Convenience overload drawing one word from a RandomSource.
uint32_t add_eager_sr(const FpFormat& fmt, uint32_t a, uint32_t b, int r,
                      RandomSource& rng, AdderTrace* trace = nullptr);

/// Decoded-operand core of add_eager_sr: canonical decoded operands in,
/// canonical decoded result out (see add_rn_core for the decoded-form
/// contract; packing, random-bit consumption, and trace semantics as in
/// add_eager_sr above).
///
/// The op-dependent selects are written branch-free (XOR with a sign mask
/// instead of conditional complement): the effective-subtraction flag is a
/// coin flip on real accumulation data, and a data-dependent branch on it
/// costs more in mispredictions than both arms of the select. The remaining
/// branches (specials, normalization case, subnormal fallback) are heavily
/// skewed in accumulation chains and predict well. The AddParams carry the
/// precomputed loop-invariant masks of the (fmt, r) configuration.
inline Unpacked add_eager_sr_core(const AddParams& ap, const Unpacked& ua,
                                  const Unpacked& ub, uint64_t rand_word,
                                  AdderTrace* trace = nullptr) {
  const FpFormat& fmt = ap.fmt;
  const int p = ap.p;
  const int r = ap.r;
  assert(r >= 3 && r <= 32);
  const PreparedAddU pr = prepare_add_u(fmt, ua, ub);
  if (pr.special) [[unlikely]] {
    if (trace) trace->special = true;
    return pr.special_val;
  }
  const bool far = pr.d > 1;
  const bool op = pr.op;
  const uint64_t opmask = op ? ~0ull : 0ull;

  if (trace) {
    trace->far_path = far;
    trace->effective_sub = op;
  }

  // --- (ii) significand alignment -----------------------------------------
  // Window of p+r positions: the p+1 MSBs feed the main adder, the r-1 bits
  // below (positions p+2 .. p+r) form the shifted-out field D.
  const uint64_t yk = (pr.d < p + r) ? ((pr.y << r) >> pr.d) : 0;
  const uint64_t Bhi = yk >> (r - 1);               // positions 1 .. p+1
  const uint64_t D = yk & ap.mask_rm1;              // positions p+2 .. p+r
  const bool dropped =                    // any operand bit truncated away
      (pr.d >= p + r) ? (pr.y != 0)
                      : (((pr.y << r) & ((1ull << pr.d) - 1)) != 0);

  const uint64_t R = rand_word & ap.mask_r;
  const uint64_t Rlow = R & ap.mask_rm2;  // the r-2 LSBs used eagerly; the
                                          // top two (R1, R2) round-correct

  // --- Sticky Round stage (Fig. 3b) ---------------------------------------
  // Adds the r-2 random LSBs to D starting at position p+3 of the eventual
  // carry-normalized result (R3 lands on D1); the effective-subtraction
  // complement and its +1 are fused into the same small adder. Only the
  // partial sum's carry out survives: S'1, riding the main adder carry-in.
  // (The paper's S'2 is carried in the datapath but never gates the
  // correction in this reconstruction — see the header comment.)
  // On the close path (|d| <= 1) the shifted-out field D is zero by
  // construction, and this expression degenerates exactly to the paper's
  // close-path wiring: S'1 = op (the two's-complement +1), with the random
  // LSBs contributing nothing to the carry.
  const uint64_t Dc = (D ^ opmask) & ap.mask_rm1;
  const uint64_t u = Dc + (Rlow << 1) + (op ? 1u : 0u);
  const uint64_t S1 = (u >> (r - 1)) & 1;

  // --- (iii) main significand addition ------------------------------------
  const uint64_t Bc = (Bhi ^ opmask) & ap.mask_p1;
  const uint64_t full = (pr.x << 1) + Bc + S1;  // p+2 bits

  // --- (iv) carry-dependent normalization + (v) Round Correction ----------
  // For effective subtraction bit p+1 of `full` is the no-borrow flag
  // (always set after the magnitude swap), not a value bit; mask it away so
  // `v` holds the magnitude on both paths and the normalization case is a
  // single shift count s = msb - p: +1 carry (addition only), 0 in place,
  // negative LZD cancellation (subtraction only).
  assert(op ? (full >> (p + 1)) == 1 : true);
  const uint64_t v = full & ~(opmask << (p + 1));
  if (v == 0) [[unlikely]] return unpacked_zero(fmt, false);  // exact cancellation
  const int msb = 63 - __builtin_clzll(v);
  const int s = msb - p;

  if (trace) {
    trace->carry_out = !op && s == 1;
    trace->norm_shift = op ? p - msb : (s == 1 ? -1 : 0);
  }

  uint64_t kept;
  int exp_z;
  uint64_t rc;  // rounding carry produced by the correction stage
  bool exact;

  if (s >= 0) [[likely]] {
    // Paper cases (a) (s == 1, carry out: the carry becomes the implicit
    // bit, exponent++) and (b) (s == 0, the window's 1-bit left shift),
    // unified branch-free: s+1 value bits fall below the kept window, and
    // the Round Correction adds the top s+1 random bits to them. For (a)
    // that is the 2-bit addition {G,L} + {R1,R2} which — together with the
    // S'1 already folded into `full` — reproduces the lazy rounding chain
    // bit-for-bit (carry-save associativity). For (b) it degenerates to
    // Gp & R1: the random LSBs were consumed one position high, and R2
    // must stay unused or the total injected randomness could exceed one
    // ULP and break the two-neighbour SR invariant (the total here is
    // 2*Rlow + R1*2^(r-1) <= 2^r - 2 < one ULP).
    kept = (v >> (s + 1)) & ap.mask_p;
    const uint64_t t = v & ((1ull << (s + 1)) - 1);  // {G,L} or {Gp}
    exp_z = pr.exp + s;
    rc = (t + (R >> (r - 1 - s))) >> (s + 1);
    exact = !dropped && D == 0 && t == 0;
  } else {
    // LZD left shift by lz. On the far path lz == 1: after the shift the
    // old position p+1 becomes the kept LSB, so the Sticky-Round carry S'1
    // (already folded into the main adder at that position) IS the
    // rounding carry for the shifted cut — no further correction may be
    // applied or the randomness would be double-counted. Deeper shifts
    // only occur on the close path, where the result is exact.
    const int lz = -s;
    kept = (v << (lz - 1)) & ap.mask_p;
    exp_z = pr.exp - lz;
    rc = 0;
    exact = !far;
  }
  // Denormalized cut: the eager pre-alignment is invalid, fall back to the
  // late-rounding (lazy) datapath with the same operands and random word.
  if (exp_z < ap.emin) [[unlikely]]
    return add_lazy_sr_fallback(ap, ua, ub, rand_word, trace);

  kept += rc;
  const uint64_t binade = kept >> p;  // rounding carried into the next binade
  kept >>= binade;
  exp_z += static_cast<int>(binade);
  if (trace) {
    trace->round_up = rc != 0;
    trace->exact = exact;
  }
  return round_unpacked_core(ap, pr.sign, exp_z, kept, /*frac64=*/0,
                             /*sticky=*/false, /*rn_mode=*/false, R,
                             /*already_rounded=*/true, trace);
}

/// Decoded-operand entry point: add_eager_sr_core with the AddParams built
/// per call (same contract; use the _core form with precomputed params in
/// loops).
inline Unpacked add_eager_sr_u(const FpFormat& fmt, const Unpacked& ua,
                               const Unpacked& ub, int r, uint64_t rand_word,
                               AdderTrace* trace = nullptr) {
  return add_eager_sr_core(AddParams(fmt, r), ua, ub, rand_word, trace);
}

}  // namespace srmac
