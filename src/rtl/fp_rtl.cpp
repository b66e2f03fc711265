#include "rtl/fp_rtl.hpp"

#include <cassert>

#include "rng/lfsr.hpp"

namespace srmac::rtl {

namespace {

int clog2(int v) {
  int b = 0;
  while ((1 << b) < v) ++b;
  return b;
}

/// Internal exponent bookkeeping: stored = e_unbiased + bias + off, chosen
/// so every intermediate (subnormal decode, deep cancellation) stays
/// positive; `ew` holds the largest stored value.
struct ExpDomain {
  int off = 0;
  int ew = 0;
};

ExpDomain exp_domain(const FpFormat& fmt, int window) {
  ExpDomain d;
  d.off = fmt.man_bits + fmt.precision() + window + 2;
  d.ew = clog2((1 << fmt.exp_bits) + d.off + 2) + 1;
  return d;
}

/// Decoded operand: normalized p-bit significand (MSB set for every finite
/// nonzero value — subnormals are normalized on entry, the input-
/// normalization stage of a Sub-ON datapath) plus the stored exponent.
struct FpDecoded {
  Net sign;
  Net is_nan, is_inf, is_zero;
  Bus sig;  ///< p bits
  Bus exp;  ///< ew bits, stored domain
};

FpDecoded fp_decode(Netlist& nl, const FpFormat& fmt, const Bus& bits,
                    const ExpDomain& ed, AdderArch arch) {
  const int E = fmt.exp_bits, M = fmt.man_bits, p = fmt.precision();
  assert(static_cast<int>(bits.size()) == fmt.width());
  FpDecoded d;
  const Bus man = bus_slice(bits, 0, M);
  const Bus efield = bus_slice(bits, M, E);
  d.sign = bits[static_cast<size_t>(M + E)];

  const Net e_zero = is_zero(nl, efield);
  const Net e_max = eq_const(nl, efield, fmt.exp_field_max());
  const Net m_zero = is_zero(nl, man);
  d.is_nan = nl.and_(e_max, nl.not_(m_zero));
  d.is_inf = nl.and_(e_max, m_zero);

  // Normal path: sig = {1, man}, stored exponent = efield + off.
  Bus sig_norm = bus_resize(nl, man, p);
  sig_norm[static_cast<size_t>(M)] = nl.const1();
  const Bus exp_norm =
      add(nl, bus_resize(nl, efield, ed.ew),
          bus_const(nl, static_cast<uint64_t>(ed.off), ed.ew), nl.const0(),
          arch)
          .sum;

  if (!fmt.subnormals) {
    d.is_zero = e_zero;
    d.sig = std::move(sig_norm);
    d.exp = exp_norm;
    return d;
  }

  d.is_zero = nl.and_(e_zero, m_zero);
  const Net is_sub = nl.and_(e_zero, nl.not_(m_zero));

  // Subnormal input normalization: shift the leading one up to the
  // implicit-bit position; stored exponent = off - lz (ebiased = -lz).
  const LzdResult lz = lzd(nl, man);
  Bus sh = bus_resize(nl, lz.count, static_cast<int>(lz.count.size()) + 1);
  sh = inc_if(nl, sh, nl.const1());
  const Bus sig_sub = shl_barrel(nl, bus_resize(nl, man, p), sh);
  const Bus exp_sub =
      sub(nl, bus_const(nl, static_cast<uint64_t>(ed.off), ed.ew),
          bus_resize(nl, lz.count, ed.ew), arch)
          .diff;

  d.sig = bus_mux(nl, is_sub, sig_norm, sig_sub);
  d.exp = bus_mux(nl, is_sub, exp_norm, exp_sub);
  return d;
}

/// Gate-level PreparedAdd: specials resolved, operands ordered.
struct PreparedRtl {
  Net special;
  Bus special_bits;
  Net sign;  ///< sign of the larger operand (result sign)
  Net op;    ///< effective subtraction
  Bus exp;   ///< stored exponent of the larger operand
  Bus x, y;  ///< ordered significands, p bits, MSB set
  Bus d;     ///< exponent difference >= 0
};

PreparedRtl prepare_rtl(Netlist& nl, const FpFormat& fmt, const Bus& a,
                        const Bus& b, const ExpDomain& ed, AdderArch arch) {
  const FpDecoded ua = fp_decode(nl, fmt, a, ed, arch);
  const FpDecoded ub = fp_decode(nl, fmt, b, ed, arch);
  PreparedRtl pr;

  const Net opposite_inf =
      nl.and_(nl.and_(ua.is_inf, ub.is_inf), nl.xor_(ua.sign, ub.sign));
  const Net any_nan = nl.or_(nl.or_(ua.is_nan, ub.is_nan), opposite_inf);
  const Net any_inf = nl.and_(nl.or_(ua.is_inf, ub.is_inf), nl.not_(any_nan));
  const Net inf_sign = nl.mux(ua.is_inf, ub.sign, ua.sign);
  const Net both_zero = nl.and_(ua.is_zero, ub.is_zero);
  const Net one_zero = nl.xor_(ua.is_zero, ub.is_zero);

  const int w = fmt.width();
  const Bus nan_bits = bus_const(nl, fmt.nan_bits(), w);
  Bus inf_bits = bus_const(nl, fmt.inf_bits(), w);
  inf_bits[static_cast<size_t>(w - 1)] = inf_sign;
  Bus zero_bits = bus_const(nl, 0, w);
  zero_bits[static_cast<size_t>(w - 1)] = nl.and_(ua.sign, ub.sign);
  // x + 0 is exact: pass the nonzero operand through unchanged (a normal
  // or subnormal encoding is already canonical; a flushed subnormal reads
  // as zero and lands in the both_zero branch instead).
  const Bus passthrough = bus_mux(nl, ua.is_zero, a, b);

  Bus special = passthrough;
  special = bus_mux(nl, both_zero, special, zero_bits);
  special = bus_mux(nl, any_inf, special, inf_bits);
  special = bus_mux(nl, any_nan, special, nan_bits);
  pr.special_bits = special;
  pr.special =
      nl.or_(nl.or_(any_nan, any_inf), nl.or_(both_zero, one_zero));

  // Swap so |x| >= |y|: lexicographic compare on {exp, sig}.
  const Bus key_a = bus_concat(ua.sig, ua.exp);
  const Bus key_b = bus_concat(ub.sig, ub.exp);
  const Net swap = ult(nl, key_a, key_b, arch);

  pr.sign = nl.mux(swap, ua.sign, ub.sign);
  pr.op = nl.xor_(ua.sign, ub.sign);
  pr.exp = bus_mux(nl, swap, ua.exp, ub.exp);
  pr.x = bus_mux(nl, swap, ua.sig, ub.sig);
  pr.y = bus_mux(nl, swap, ub.sig, ua.sig);
  const Bus lo_exp = bus_mux(nl, swap, ub.exp, ua.exp);
  pr.d = sub(nl, pr.exp, lo_exp, arch).diff;
  return pr;
}

/// Clamps the exponent difference to `maxsh` and narrows it to a shift bus.
Bus clamp_shift(Netlist& nl, const Bus& d, int maxsh, AdderArch arch) {
  const int aw = clog2(maxsh + 1);
  const Net big =
      uge(nl, d,
          bus_const(nl, static_cast<uint64_t>(maxsh),
                    static_cast<int>(d.size())),
          arch);
  const Bus narrow = bus_resize(nl, d, aw);
  return bus_mux(nl, big, narrow,
                 bus_const(nl, static_cast<uint64_t>(maxsh), aw));
}

/// Increments `a` capturing the final carry (inc_if loses it).
struct IncResult {
  Bus sum;
  Net cout;
};
IncResult inc_carry(Netlist& nl, const Bus& a, Net en) {
  IncResult r;
  r.sum.resize(a.size());
  Net c = en;
  for (size_t i = 0; i < a.size(); ++i) {
    r.sum[i] = nl.xor_(a[i], c);
    c = nl.and_(a[i], c);
  }
  r.cout = c;
  return r;
}

/// Gate-level pack_round: rounding decision at the normal cut (unless
/// `already_rounded`), overflow to infinity, and either flush-to-zero
/// (Sub OFF / eager) or denormalize-and-re-round (Sub ON) on underflow.
/// `frac` is the discarded field, MSB = guard; `sticky` ORs all deeper bits.
Bus pack_rtl(Netlist& nl, const FpFormat& fmt, const ExpDomain& ed, Net sign,
             const Bus& exp_z, const Bus& sig_p, const Bus& frac, Net sticky,
             bool rn_mode, int r, const Bus& rand, bool already_rounded,
             AdderArch arch) {
  const int E = fmt.exp_bits, M = fmt.man_bits, p = fmt.precision();
  const int w = fmt.width();
  const int F = static_cast<int>(frac.size());

  // --- in-range rounding ---------------------------------------------------
  Net up = nl.const0();
  if (!already_rounded) {
    if (rn_mode) {
      const Net g = frac[static_cast<size_t>(F - 1)];
      const Net rest = nl.or_(
          F > 1 ? reduce_or(nl, bus_slice(frac, 0, F - 1)) : nl.const0(),
          sticky);
      up = nl.and_(g, nl.or_(rest, sig_p[0]));
    } else {
      assert(F >= r);
      const Bus fr = bus_slice(frac, F - r, r);
      up = add(nl, fr, bus_slice(rand, 0, r), nl.const0(), arch).cout;
    }
  }
  const IncResult inc = inc_carry(nl, sig_p, up);
  // Rounding into the next binade turns the significand into 10...0.
  const Bus res =
      bus_mux(nl, inc.cout, inc.sum, bus_const(nl, 1ull << (p - 1), p));
  const Bus exp_rounded = inc_if(nl, exp_z, inc.cout);

  // --- range ----------------------------------------------------------------
  const Bus emin_s = bus_const(nl, static_cast<uint64_t>(1 + ed.off), ed.ew);
  const Bus emax_s = bus_const(
      nl, static_cast<uint64_t>((fmt.exp_field_max() - 1) + ed.off), ed.ew);
  const Net underflow = ult(nl, exp_z, emin_s, arch);  // pre-round, as in C++
  const Net overflow = ult(nl, emax_s, exp_rounded, arch);

  const Bus efield = bus_slice(
      sub(nl, exp_rounded, bus_const(nl, static_cast<uint64_t>(ed.off), ed.ew),
          arch)
          .diff,
      0, E);
  Bus normal = bus_concat(bus_slice(res, 0, M), efield);
  normal.push_back(sign);

  Bus inf_bits = bus_const(nl, fmt.inf_bits(), w);
  inf_bits[static_cast<size_t>(w - 1)] = sign;
  Bus zero_bits = bus_const(nl, 0, w);
  zero_bits[static_cast<size_t>(w - 1)] = sign;

  Bus out = bus_mux(nl, overflow, normal, inf_bits);

  if (!fmt.subnormals || already_rounded) {
    return bus_mux(nl, underflow, out, zero_bits);
  }

  // --- denormalize + re-round at the subnormal ULP (Sub ON) ----------------
  // The clamp must preserve the top-r displaced field exactly: only when
  // sh >= p+r is every bit of it guaranteed zero (for RN, sh >= p+1
  // already zeroes the guard).
  const int shmax = p + (rn_mode ? 1 : r);
  const Bus sh_wide = sub(nl, emin_s, exp_z, arch).diff;
  const Bus sh = clamp_shift(nl, sh_wide, shmax, arch);

  const Bus kept = shr_barrel(nl, bus_resize(nl, sig_p, shmax + p), sh);
  // Displaced window: bit i of ({sig, 0^rw} >> sh) is sig[i + sh - rw], so
  // bits [0, rw) hold the guard-aligned top of the displaced field.
  const int rw = rn_mode ? 1 : r;
  const Bus T = bus_concat(bus_const(nl, 0, rw), sig_p);
  const Bus disp = shr_barrel(nl, T, sh);

  Net up_dn;
  if (rn_mode) {
    const Net g_dn = disp[0];
    const Bus sh_m1 =
        sub(nl, sh, bus_const(nl, 1, static_cast<int>(sh.size())), arch).diff;
    const Net below = shr_sticky(nl, sig_p, sh_m1);
    const Net frac_nz = F > 0 ? reduce_or(nl, frac) : nl.const0();
    const Net rest = nl.or_(below, nl.or_(frac_nz, sticky));
    up_dn = nl.and_(g_dn, nl.or_(rest, kept[0]));
  } else {
    up_dn =
        add(nl, bus_slice(disp, 0, r), bus_slice(rand, 0, r), nl.const0(),
            arch)
            .cout;
  }
  const Bus res_dn = inc_if(nl, bus_slice(kept, 0, p), up_dn);
  const Net dn_zero = is_zero(nl, res_dn);
  // res_dn[M] set: rounded back up to the smallest normal (exp field = 1).
  Bus dn_bits = bus_concat(bus_slice(res_dn, 0, M),
                           bus_resize(nl, Bus{res_dn[static_cast<size_t>(M)]},
                                      E));
  dn_bits.push_back(sign);
  dn_bits = bus_mux(nl, dn_zero, dn_bits, zero_bits);

  return bus_mux(nl, underflow, out, dn_bits);
}

/// RN / lazy-SR datapath: one shared adder/subtractor, LZD over the whole
/// window, rounding deferred until after normalization (Fig. 3a).
Bus add_lazy_datapath(Netlist& nl, const FpFormat& fmt, bool rn_mode, int r,
                      const PreparedRtl& pr, const Bus& rand,
                      const ExpDomain& ed, AdderArch arch) {
  const int p = fmt.precision();
  const int K = rn_mode ? 2 : r;  // extension window below the ULP
  const int W = p + K + 1;        // +1 carry headroom

  // (ii) alignment. RN collects a sticky of the shifted-out bits; the lazy
  // SR window truncates them (the random add replaces the sticky).
  const Bus sh = clamp_shift(nl, pr.d, p + K, arch);
  const Bus yk = bus_shl_const(nl, bus_resize(nl, pr.y, W), K);
  const Bus B = shr_barrel(nl, yk, sh);
  const Net sticky = rn_mode ? shr_sticky(nl, yk, sh) : nl.const0();

  // (iii) shared adder/subtractor. With sticky bits dropped from the
  // subtrahend, borrow one window ULP so the kept difference is a
  // truncation of the exact one (RN only; lazy SR has no sticky).
  const Bus A = bus_shl_const(nl, bus_resize(nl, pr.x, W), K);
  const Bus Bc = bus_mux(nl, pr.op, B, bus_not(nl, B));
  const Net cin = nl.and_(pr.op, nl.not_(sticky));
  const Bus S = add(nl, A, Bc, cin, arch).sum;

  const Net sum_zero = is_zero(nl, S);

  // (iv) LZD + normalization shift over the full p+K+1 window — the
  // "p + r versus p + 2" blocks the paper charges the lazy design for.
  const LzdResult lz = lzd(nl, S);
  const Bus norm =
      shl_barrel(nl, S, bus_resize(nl, lz.count, clog2(W) + 1));
  const Bus sig_p = bus_slice(norm, W - p, p);
  const Bus frac = bus_slice(norm, 0, W - p);  // MSB = guard

  // exp_z = exp + 1 - lz in the stored domain.
  const Bus exp1 = inc_if(nl, pr.exp, nl.const1());
  const Bus exp_z = sub(nl, exp1, bus_resize(nl, lz.count, ed.ew), arch).diff;

  // (v) round + pack.
  Bus packed = pack_rtl(nl, fmt, ed, pr.sign, exp_z, sig_p, frac, sticky,
                        rn_mode, r, rand, /*already_rounded=*/false, arch);
  packed = bus_mux(nl, sum_zero, packed, bus_const(nl, 0, fmt.width()));
  return bus_mux(nl, pr.special, packed, pr.special_bits);
}

/// Eager-SR datapath (Fig. 3b / Fig. 4): Sticky Round right after
/// alignment, p+2-bit main adder, carry-dependent normalization, 2-bit
/// Round Correction. Underflow falls back to the lazy result (Sub ON) or
/// flushes (Sub OFF), mirroring the behavioral model.
Bus add_eager_datapath(Netlist& nl, const FpFormat& fmt, int r,
                       const PreparedRtl& pr, const Bus& rand,
                       const Bus& lazy_fallback, const ExpDomain& ed,
                       AdderArch arch) {
  assert(r >= 3);
  const int p = fmt.precision();
  const int W = p + r;

  // (ii) alignment over p+r positions.
  const Bus sh = clamp_shift(nl, pr.d, W, arch);
  const Bus yfull = bus_shl_const(nl, bus_resize(nl, pr.y, W), r);
  const Bus yk = shr_barrel(nl, yfull, sh);
  const Bus Bhi = bus_slice(yk, r - 1, p + 1);
  const Bus D = bus_slice(yk, 0, r - 1);

  const Net R1 = rand[static_cast<size_t>(r - 1)];
  const Net R2 = rand[static_cast<size_t>(r - 2)];
  const Bus Rlow = bus_slice(rand, 0, r - 2);

  // Sticky Round stage: D (complemented under effective subtraction, the
  // two's-complement +1 fused as carry-in) plus the r-2 random LSBs
  // anchored one position up. The carry S'1 rides the main adder's
  // carry-in; the close path degenerates to S'1 = op automatically since
  // D is all-zero there. S'2 is computed but never gates the correction
  // (the reconstruction note in src/mac/adder_eager_sr.hpp; the
  // AdderEquivalence sweeps in tests/rtl/fp_rtl_test.cpp pin this netlist
  // to that golden model).
  const Bus Dc = bus_mux(nl, pr.op, D, bus_not(nl, D));
  const Bus rl1 = bus_shl_const(nl, bus_resize(nl, Rlow, r - 1), 1);
  const AddResult st = add(nl, Dc, rl1, pr.op, arch);
  const Net S1 = st.cout;

  // (iii) main addition: p+2-bit result {cout, sum}.
  const Bus x1 = bus_shl_const(nl, bus_resize(nl, pr.x, p + 1), 1);
  const Bus Bc = bus_mux(nl, pr.op, Bhi, bus_not(nl, Bhi));
  const AddResult main = add(nl, x1, Bc, S1, arch);
  Bus full = main.sum;
  full.push_back(main.cout);  // p+2 bits

  // --- addition branch ------------------------------------------------------
  const Net c = main.cout;
  // Carry case (paper (a)): Round Correction {G,L} + {R1,R2}.
  const Bus kept_a = bus_slice(full, 2, p);
  const Net G_a = full[1], L_a = full[0];
  const Net half = nl.and_(L_a, R2);
  const Net rc_a =
      nl.or_(nl.and_(G_a, R1), nl.and_(nl.xor_(G_a, R1), half));
  // No-carry case (paper (b)): only R1 joins, at the guard position.
  const Bus kept_b = bus_slice(full, 1, p);
  const Net rc_b = nl.and_(full[0], R1);

  const Bus kept_add = bus_mux(nl, c, kept_b, kept_a);
  const Net rc_add = nl.mux(c, rc_b, rc_a);
  const Bus exp_add = inc_if(nl, pr.exp, c);

  // --- subtraction branch ----------------------------------------------------
  const Bus val = bus_slice(full, 0, p + 1);
  const Net val_zero = is_zero(nl, val);
  const LzdResult lzv = lzd(nl, val);
  const Net lz_zero = is_zero(nl, lzv.count);
  // msb == p: normalized as-is, correction as in case (b).
  const Bus kept_s0 = bus_slice(val, 1, p);
  const Net rc_s0 = nl.and_(val[0], R1);
  // msb < p: left shift by lz-1; the Sticky-Round carry at the shifted cut
  // already is the rounding carry, so no further correction (rc = 0).
  const int lw = static_cast<int>(lzv.count.size());
  const Bus lzm1 = sub(nl, lzv.count, bus_const(nl, 1, lw), arch).diff;
  const Bus shifted = shl_barrel(nl, val, lzm1);
  const Bus kept_s1 = bus_slice(shifted, 0, p);

  const Bus kept_sub = bus_mux(nl, lz_zero, kept_s1, kept_s0);
  const Net rc_sub = nl.and_(lz_zero, rc_s0);
  const Bus exp_sub =
      sub(nl, pr.exp, bus_resize(nl, lzv.count, ed.ew), arch).diff;

  // --- merge branches, apply the correction carry ---------------------------
  const Bus kept = bus_mux(nl, pr.op, kept_add, kept_sub);
  const Net rc = nl.mux(pr.op, rc_add, rc_sub);
  const Bus exp_z = bus_mux(nl, pr.op, exp_add, exp_sub);

  const Bus emin_s = bus_const(nl, static_cast<uint64_t>(1 + ed.off), ed.ew);
  const Net underflow = ult(nl, exp_z, emin_s, arch);

  const IncResult inc = inc_carry(nl, kept, rc);
  const Bus sig_f = bus_mux(nl, inc.cout, inc.sum,
                            bus_const(nl, 1ull << (p - 1), p));
  const Bus exp_f = inc_if(nl, exp_z, inc.cout);

  Bus packed = pack_rtl(nl, fmt, ed, pr.sign, exp_f, sig_f, Bus{},
                        nl.const0(), /*rn_mode=*/false, r, rand,
                        /*already_rounded=*/true, arch);
  // Subnormal-range results: either re-run through the lazy datapath,
  // exactly as the behavioral model does (needed even for Sub OFF — a
  // far-path cancellation at exp == emin can land just below 2^emin and
  // the lazy rounding may lift it back to the smallest normal), or flush,
  // which is what standalone W/O-Sub hardware does (pack_rtl has already
  // emitted the signed zero in that case).
  if (!lazy_fallback.empty())
    packed = bus_mux(nl, underflow, packed, lazy_fallback);
  // Exact cancellation yields +0.
  const Bus plus_zero = bus_const(nl, 0, fmt.width());
  const Net cancel = nl.and_(pr.op, val_zero);
  packed = bus_mux(nl, cancel, packed, plus_zero);
  return bus_mux(nl, pr.special, packed, pr.special_bits);
}

}  // namespace

Bus fp_add_datapath(Netlist& nl, const FpFormat& fmt, AdderKind kind, int r,
                    const Bus& a, const Bus& b, const Bus& rand,
                    const FpAddRtlOptions& opt) {
  const AdderArch arch = opt.arch;
  const bool rn = kind == AdderKind::kRoundNearest;
  const int K = rn ? 2 : r;
  const ExpDomain ed = exp_domain(fmt, K + 2);
  const PreparedRtl pr = prepare_rtl(nl, fmt, a, b, ed, arch);
  switch (kind) {
    case AdderKind::kRoundNearest:
      return add_lazy_datapath(nl, fmt, /*rn_mode=*/true, 0, pr, Bus{}, ed,
                               arch);
    case AdderKind::kLazySR:
      return add_lazy_datapath(nl, fmt, /*rn_mode=*/false, r, pr, rand, ed,
                               arch);
    case AdderKind::kEagerSR: {
      Bus fallback;
      if (opt.eager_underflow == EagerUnderflow::kLazyFallback)
        fallback = add_lazy_datapath(nl, fmt, /*rn_mode=*/false, r, pr, rand,
                                     ed, arch);
      return add_eager_datapath(nl, fmt, r, pr, rand, fallback, ed, arch);
    }
  }
  return {};
}

Bus fp_mul_datapath(Netlist& nl, const FpFormat& in, const Bus& a,
                    const Bus& b, AdderArch arch) {
  const FpFormat out = product_format(in);
  const int pa = out.precision();
  assert(pa == 2 * in.precision());
  const ExpDomain ed = exp_domain(in, 2);
  const FpDecoded ua = fp_decode(nl, in, a, ed, arch);
  const FpDecoded ub = fp_decode(nl, in, b, ed, arch);
  const Net sign = nl.xor_(ua.sign, ub.sign);
  const int w = out.width();

  // --- specials --------------------------------------------------------------
  const Net any_zero = nl.or_(ua.is_zero, ub.is_zero);
  const Net any_inf = nl.or_(ua.is_inf, ub.is_inf);
  const Net any_nan = nl.or_(nl.or_(ua.is_nan, ub.is_nan),
                             nl.and_(any_inf, any_zero));

  // --- exact significand product --------------------------------------------
  const Bus prod0 = mul_array(nl, ua.sig, ub.sig, arch);  // 2*pm bits
  const Net msb_set = prod0[static_cast<size_t>(pa - 1)];
  // Normalize: either the MSB is already at pa-1 (product in [2,4), the
  // exponent absorbs it) or shift left one.
  const Bus prod =
      bus_mux(nl, msb_set, bus_shl_const(nl, prod0, 1), prod0);

  // Stored-domain output exponent: exp_unb = ea + eb (+1 when msb_set);
  // converting two input-domain stored values into the output domain adds
  // the constant bias_out + off_out - 2*(bias_in + off_in).
  const ExpDomain edo = exp_domain(out, 2);
  const int ew = edo.ew + 2;
  Bus e = add(nl, bus_resize(nl, ua.exp, ew), bus_resize(nl, ub.exp, ew),
              nl.const0(), arch)
              .sum;
  const int adjust =
      out.bias() + edo.off - 2 * (in.bias() + ed.off);
  if (adjust >= 0)
    e = add(nl, e, bus_const(nl, static_cast<uint64_t>(adjust), ew),
            nl.const0(), arch)
            .sum;
  else
    e = sub(nl, e, bus_const(nl, static_cast<uint64_t>(-adjust), ew), arch)
            .diff;
  e = inc_if(nl, e, msb_set);

  // --- range ------------------------------------------------------------------
  const Bus emin_s = bus_const(nl, static_cast<uint64_t>(1 + edo.off), ew);
  const Bus emax_s = bus_const(
      nl, static_cast<uint64_t>((out.exp_field_max() - 1) + edo.off), ew);
  const Net underflow = ult(nl, e, emin_s, arch);
  const Net overflow = ult(nl, emax_s, e, arch);

  const Bus efield = bus_slice(
      sub(nl, e, bus_const(nl, static_cast<uint64_t>(edo.off), ew), arch)
          .diff,
      0, out.exp_bits);
  Bus normal = bus_concat(bus_slice(prod, 0, out.man_bits), efield);
  normal.push_back(sign);

  // Subnormal product (reachable only from subnormal inputs; exact for the
  // paper's p_a = 2 p_m formats): shift right by emin - e.
  Bus dn_bits;
  if (out.subnormals) {
    const Bus shw = sub(nl, emin_s, e, arch).diff;
    const Bus dsh = clamp_shift(nl, shw, pa, arch);
    const Bus man = shr_barrel(nl, prod, dsh);
    dn_bits = bus_concat(bus_slice(man, 0, out.man_bits),
                         bus_resize(nl, Bus{man[static_cast<size_t>(
                                        out.man_bits)]},
                                    out.exp_bits));
    dn_bits.push_back(sign);
  } else {
    dn_bits = bus_const(nl, 0, w);
    dn_bits[static_cast<size_t>(w - 1)] = sign;
  }

  Bus inf_bits = bus_const(nl, out.inf_bits(), w);
  inf_bits[static_cast<size_t>(w - 1)] = sign;
  Bus zero_bits = bus_const(nl, 0, w);
  zero_bits[static_cast<size_t>(w - 1)] = sign;
  const Bus nan_bits = bus_const(nl, out.nan_bits(), w);

  Bus outb = bus_mux(nl, underflow, normal, dn_bits);
  outb = bus_mux(nl, overflow, outb, inf_bits);
  outb = bus_mux(nl, any_zero, outb, zero_bits);
  outb = bus_mux(nl, any_inf, outb, inf_bits);
  outb = bus_mux(nl, any_nan, outb, nan_bits);
  return outb;
}

Netlist build_fp_adder(const FpFormat& fmt, AdderKind kind, int r,
                       const FpAddRtlOptions& opt) {
  Netlist nl;
  const Bus a = nl.add_input("a", fmt.width());
  const Bus b = nl.add_input("b", fmt.width());
  Bus rand;
  if (kind != AdderKind::kRoundNearest) rand = nl.add_input("rand", r);
  nl.add_output("z", fp_add_datapath(nl, fmt, kind, r, a, b, rand, opt));
  return nl;
}

Netlist build_fp_multiplier(const FpFormat& in, AdderArch arch) {
  Netlist nl;
  const Bus a = nl.add_input("a", in.width());
  const Bus b = nl.add_input("b", in.width());
  nl.add_output("p", fp_mul_datapath(nl, in, a, b, arch));
  return nl;
}

Netlist build_mac_unit(const MacConfig& cfg_in, AdderArch arch) {
  const MacConfig cfg = cfg_in.normalized();
  assert(product_format(cfg.mul_fmt).exp_bits == cfg.acc_fmt.exp_bits &&
         product_format(cfg.mul_fmt).man_bits == cfg.acc_fmt.man_bits &&
         "MAC RTL assumes the paper's p_a = 2 p_m arrangement");
  Netlist nl;
  const Bus a = nl.add_input("a", cfg.mul_fmt.width());
  const Bus b = nl.add_input("b", cfg.mul_fmt.width());
  const Bus acc = nl.add_input("acc", cfg.acc_fmt.width());

  const Bus prod = fp_mul_datapath(nl, cfg.mul_fmt, a, b, arch);

  Bus rand;
  if (cfg.adder != AdderKind::kRoundNearest) {
    // Free-running Galois LFSR (Sec. III-c), low r bits of the state.
    const int width = std::max(cfg.random_bits, 4);
    const Bus state =
        lfsr_galois(nl, width, GaloisLfsr::taps_for_width(width));
    rand = bus_slice(state, 0, cfg.random_bits);
  }
  FpAddRtlOptions opt;
  opt.arch = arch;
  nl.add_output("z", fp_add_datapath(nl, cfg.acc_fmt, cfg.adder,
                                     cfg.random_bits, prod, acc, rand, opt));
  return nl;
}

MacPipelineRtl build_mac_pipeline(const MacConfig& cfg_in, AdderArch arch) {
  const MacConfig cfg = cfg_in.normalized();
  MacPipelineRtl out;
  Netlist& nl = out.netlist;
  const Bus a = nl.add_input("a", cfg.mul_fmt.width());
  const Bus b = nl.add_input("b", cfg.mul_fmt.width());
  const Bus clear = nl.add_input("clear", 1);

  Bus rand;
  if (cfg.adder != AdderKind::kRoundNearest) {
    const int width = std::max(cfg.random_bits, 4);
    out.lfsr = lfsr_galois(nl, width, GaloisLfsr::taps_for_width(width));
    rand = bus_slice(out.lfsr, 0, cfg.random_bits);
  }

  // Stage 1: exact product into the pipeline register.
  const Bus prod = fp_mul_datapath(nl, cfg.mul_fmt, a, b, arch);
  Bus prod_reg(prod.size());
  for (size_t i = 0; i < prod.size(); ++i) {
    prod_reg[i] = nl.dff();
    nl.bind_dff(prod_reg[i], prod[i]);
  }
  // The product of a cleared step must not leak into the fresh sum.
  Bus clear_reg{nl.dff()};
  nl.bind_dff(clear_reg[0], clear[0]);

  // Stage 2: the adder in the accumulator feedback loop.
  Bus acc_reg(static_cast<size_t>(cfg.acc_fmt.width()));
  for (auto& q : acc_reg) q = nl.dff();
  FpAddRtlOptions opt;
  opt.arch = arch;
  const Bus sum = fp_add_datapath(nl, cfg.acc_fmt, cfg.adder,
                                  cfg.random_bits, prod_reg, acc_reg, rand,
                                  opt);
  const Bus zero = bus_const(nl, 0, cfg.acc_fmt.width());
  const Bus acc_next = bus_mux(nl, clear_reg[0], sum, zero);
  for (size_t i = 0; i < acc_reg.size(); ++i)
    nl.bind_dff(acc_reg[i], acc_next[i]);

  nl.add_output("acc", acc_reg);
  return out;
}

}  // namespace srmac::rtl
