#include "mac/mac_kernel.hpp"

#include <mutex>
#include <utility>

#include "fpemu/softfloat.hpp"
#include "mac/adder_eager_sr.hpp"
#include "mac/adder_lazy_sr.hpp"
#include "mac/adder_rn.hpp"
#include "mac/multiplier.hpp"
#include "rng/lfsr.hpp"

namespace srmac {

// Defined in mac_kernel_avx512.cpp (x86-64 only).
bool mac_kernel_avx512_supported();
void chain_group_avx512(const FusedMacKernel& kernel, const uint32_t* a,
                        const uint32_t* b_ilv, int n, uint64_t* lfsr, float* c,
                        int valid, bool accumulate);

namespace {

/// Multiplier formats up to this encoding width get a product table
/// (width 9 -> 2^16 magnitude pairs -> 512 KiB of addends plus 256 KiB of
/// 32-bit words; the paper's FP8 formats are width 8 -> 128 + 64 KiB,
/// comfortably L2-resident).
constexpr int kMaxTableWidth = 9;

struct TableKey {
  int mul_exp, mul_man, acc_exp, acc_man;
  bool subnormals;
  bool operator==(const TableKey&) const = default;
};

std::mutex g_table_mutex;
std::vector<std::pair<TableKey, std::shared_ptr<const ProductTable>>> g_tables;

/// ProductTable::words from the decoded addends of an acc_fmt with
/// precision p; empty when a finite addend's exponent does not fit.
std::vector<uint32_t> pack_words(const std::vector<MacAddend>& addends,
                                 int p) {
  // No vector chain admits p > 29: RN's sum takes p + 3 bits and eager's
  // p + r with r >= 3; only lazy at r = 1, p = 30 would fit and runs the
  // scalar groups instead.
  if (p > 29) return {};
  const int exp_bits = 31 - p;
  const int lo = -(1 << (exp_bits - 1)), hi = (1 << (exp_bits - 1)) - 1;
  std::vector<uint32_t> words(addends.size());
  for (size_t i = 0; i < addends.size(); ++i) {
    const MacAddend& e = addends[i];
    const auto cls = static_cast<FpClass>(e.cls);
    if (cls == FpClass::kZero) continue;
    if (cls == FpClass::kInf || cls == FpClass::kNaN) {
      words[i] = 1u << p;
      continue;
    }
    if (e.exp < lo || e.exp > hi) return {};
    words[i] = (static_cast<uint32_t>(e.exp) << (p + 1)) | e.sig;
  }
  return words;
}

}  // namespace

FusedMacKernel::FusedMacKernel(const MacConfig& cfg)
    : cfg_(cfg.normalized()),
      params_(cfg_.acc_fmt, cfg_.random_bits),
      acc_quant_(cfg_.acc_fmt),
      prod_fmt_(product_format(cfg_.mul_fmt)) {
  direct_ = prod_fmt_ == cfg_.acc_fmt.with_subnormals(prod_fmt_.subnormals);
  mag_bits_ = cfg_.mul_fmt.width() - 1;
  mag_mask_ = (1u << mag_bits_) - 1;
  mul_sign_mask_ = cfg_.mul_fmt.sign_mask();
  lfsr_taps_ = GaloisLfsr::taps_for_width(lfsr_width());

  if (cfg_.mul_fmt.width() <= kMaxTableWidth) {
    const TableKey key{cfg_.mul_fmt.exp_bits, cfg_.mul_fmt.man_bits,
                       cfg_.acc_fmt.exp_bits, cfg_.acc_fmt.man_bits,
                       cfg_.subnormals};
    {
      std::lock_guard<std::mutex> lk(g_table_mutex);
      for (const auto& [k, tab] : g_tables) {
        if (k == key) {
          table_ = tab;
          break;
        }
      }
    }
    if (!table_) {
      // Build outside the lock (idempotent: a racing builder produces an
      // identical table and the registry just keeps whichever lands first).
      auto tab = std::make_shared<ProductTable>();
      tab->addends.resize(size_t{1} << (2 * mag_bits_));
      for (uint32_t ma = 0; ma <= mag_mask_; ++ma) {
        for (uint32_t mb = 0; mb <= mag_mask_; ++mb) {
          const Unpacked u = addend_slow(ma, mb);
          MacAddend& e = tab->addends[(size_t{ma} << mag_bits_) | mb];
          e.sig = static_cast<uint32_t>(u.sig);
          e.exp = static_cast<int16_t>(u.exp);
          e.cls = static_cast<uint8_t>(u.cls);
          e.sign_sensitive = u.cls == FpClass::kNaN ? 0 : 1;
        }
      }
      tab->words = pack_words(tab->addends, cfg_.acc_fmt.precision());
      std::lock_guard<std::mutex> lk(g_table_mutex);
      bool found = false;
      for (const auto& [k, existing] : g_tables) {
        if (k == key) {
          table_ = existing;
          found = true;
          break;
        }
      }
      if (!found) {
        g_tables.emplace_back(key, tab);
        table_ = std::move(tab);
      }
    }
  }

  // The 16-lane vector chain runs in 32-bit lanes, gated on the product
  // table's words (FP8-class multiplier formats whose addends pack), cpuid,
  // and every intermediate of the adder fitting a lane. Eager SR's widest is
  // the aligned operand y << r, p + r bits (the sum takes p + 2, the
  // sticky-round partial sum r). Lazy SR's sum S = (x << r) +- B takes
  // p + r + 1 bits on a carry-out. RN's takes p + 3, which the words'
  // p <= 29 already bounds. The LFSR takes max(r, 4) <= 32. Everything else
  // runs the scalar lockstep groups.
  const int p = params_.p, r = params_.r;
  const bool fits = cfg_.adder == AdderKind::kEagerSR  ? p + r <= 32
                    : cfg_.adder == AdderKind::kLazySR ? p + r <= 31
                                                       : true;
  use_avx512_ = table_ != nullptr && !table_->words.empty() && fits &&
                mac_kernel_avx512_supported();
  group_width_ = use_avx512_ ? 16 : kLanes;
}

Unpacked FusedMacKernel::addend_slow(uint32_t a, uint32_t b) const {
  const uint32_t prod = multiply_exact(cfg_.mul_fmt, a, b);
  const uint32_t bits =
      direct_ ? prod
              : SoftFloat::convert(prod_fmt_, prod, cfg_.acc_fmt,
                                   RoundingMode::kNearestEven);
  return decode(cfg_.acc_fmt, bits);
}

Unpacked FusedMacKernel::addend_from_table(uint32_t a, uint32_t b) const {
  const MacAddend& e =
      table_->addends[(size_t{a & mag_mask_} << mag_bits_) | (b & mag_mask_)];
  Unpacked u;
  u.sig = e.sig;
  u.exp = e.exp;
  u.sig_bits = cfg_.acc_fmt.precision();
  u.cls = static_cast<FpClass>(e.cls);
  u.sign = e.sign_sensitive != 0 && ((a ^ b) & mul_sign_mask_) != 0;
  return u;
}

Unpacked FusedMacKernel::addend(uint32_t a, uint32_t b) const {
  return table_ ? addend_from_table(a, b) : addend_slow(a, b);
}

template <AdderKind kKind, bool kTable>
void FusedMacKernel::chain_impl(Unpacked& acc, const uint32_t* a,
                                const uint32_t* b, int n,
                                uint64_t& lfsr) const {
  const AddParams ap = params_;
  const uint64_t taps = lfsr_taps_;
  uint64_t s = lfsr;
  for (int i = 0; i < n; ++i) {
    const Unpacked ad =
        kTable ? addend_from_table(a[i], b[i]) : addend_slow(a[i], b[i]);
    if constexpr (kKind == AdderKind::kRoundNearest) {
      acc = add_rn_core(ap, acc, ad, nullptr);
    } else if constexpr (kKind == AdderKind::kLazySR) {
      s = GaloisLfsr::next_state(s, taps);
      acc = add_lazy_sr_core(ap, acc, ad, s & ap.mask_r, nullptr);
    } else {
      s = GaloisLfsr::next_state(s, taps);
      acc = add_eager_sr_core(ap, acc, ad, s & ap.mask_r, nullptr);
    }
  }
  lfsr = s;
}

template <AdderKind kKind, bool kTable>
void FusedMacKernel::chain_group_impl(const uint32_t* a, const uint32_t* b_ilv,
                                      int n, uint64_t* lfsr, float* c,
                                      int valid, bool accumulate) const {
  static_assert(kLanes == 4);
  const AddParams ap = params_;
  const FpFormat acc_fmt = cfg_.acc_fmt;
  // Named lane state (not an array): GCC's scalar replacement runs before
  // loop unrolling, so an indexed array would pin every accumulator to the
  // stack; named locals keep the four chains in registers.
  const MacAddend* tab = kTable ? table_->addends.data() : nullptr;
  const int mag_bits = mag_bits_;
  const uint32_t mag_mask = mag_mask_;
  const uint32_t smask = mul_sign_mask_;
  const int acc_p = cfg_.acc_fmt.precision();
  const auto make_addend = [&](uint32_t av, uint32_t bv) -> Unpacked {
    if constexpr (kTable) {
      const MacAddend e =
          tab[(size_t{av & mag_mask} << mag_bits) | (bv & mag_mask)];
      Unpacked u;
      u.sig = e.sig;
      u.exp = e.exp;
      u.sig_bits = acc_p;
      u.cls = static_cast<FpClass>(e.cls);
      u.sign = e.sign_sensitive != 0 && ((av ^ bv) & smask) != 0;
      return u;
    } else {
      return addend_slow(av, bv);
    }
  };
  const uint64_t taps = lfsr_taps_;
  const auto step = [&](const Unpacked& la, uint32_t ai, uint32_t bi,
                        uint64_t& s) -> Unpacked {
    const Unpacked ad = make_addend(ai, bi);
    if constexpr (kKind == AdderKind::kRoundNearest) {
      (void)s;
      return add_rn_core(ap, la, ad, nullptr);
    } else {
      s = GaloisLfsr::next_state(s, taps);
      if constexpr (kKind == AdderKind::kLazySR)
        return add_lazy_sr_core(ap, la, ad, s & ap.mask_r, nullptr);
      else
        return add_eager_sr_core(ap, la, ad, s & ap.mask_r, nullptr);
    }
  };

  // Group entry: valid lanes read their output when accumulating; every
  // other lane (and every lane otherwise) starts at +0.
  const auto load = [&](int l) {
    return accumulate && l < valid ? decode(acc_fmt, acc_quant_(c[l]))
                                   : unpacked_zero(acc_fmt, false);
  };
  Unpacked l0 = load(0), l1 = load(1), l2 = load(2), l3 = load(3);
  uint64_t s0 = lfsr[0], s1 = lfsr[1], s2 = lfsr[2], s3 = lfsr[3];
  for (int i = 0; i < n; ++i) {
    const uint32_t ai = a[i];
    const uint32_t* bi = b_ilv + static_cast<size_t>(i) * kLanes;
    l0 = step(l0, ai, bi[0], s0);
    l1 = step(l1, ai, bi[1], s1);
    l2 = step(l2, ai, bi[2], s2);
    l3 = step(l3, ai, bi[3], s3);
  }
  // Group exit: only the valid lanes are stored.
  c[0] = unpacked_to_float(acc_fmt, l0);
  if (valid > 1) c[1] = unpacked_to_float(acc_fmt, l1);
  if (valid > 2) c[2] = unpacked_to_float(acc_fmt, l2);
  if (valid > 3) c[3] = unpacked_to_float(acc_fmt, l3);
  lfsr[0] = s0;
  lfsr[1] = s1;
  lfsr[2] = s2;
  lfsr[3] = s3;
}

void FusedMacKernel::chain_group(const uint32_t* a, const uint32_t* b_ilv,
                                 int n, uint64_t* lfsr, float* c, int valid,
                                 bool accumulate) const {
  assert(valid >= 1 && valid <= group_width_);
  if (use_avx512_) {
    chain_group_avx512(*this, a, b_ilv, n, lfsr, c, valid, accumulate);
    return;
  }
  const bool tab = table_ != nullptr;
  switch (cfg_.adder) {
    case AdderKind::kRoundNearest:
      tab ? chain_group_impl<AdderKind::kRoundNearest, true>(
                a, b_ilv, n, lfsr, c, valid, accumulate)
          : chain_group_impl<AdderKind::kRoundNearest, false>(
                a, b_ilv, n, lfsr, c, valid, accumulate);
      break;
    case AdderKind::kLazySR:
      tab ? chain_group_impl<AdderKind::kLazySR, true>(a, b_ilv, n, lfsr, c,
                                                       valid, accumulate)
          : chain_group_impl<AdderKind::kLazySR, false>(a, b_ilv, n, lfsr, c,
                                                        valid, accumulate);
      break;
    case AdderKind::kEagerSR:
      tab ? chain_group_impl<AdderKind::kEagerSR, true>(a, b_ilv, n, lfsr, c,
                                                        valid, accumulate)
          : chain_group_impl<AdderKind::kEagerSR, false>(a, b_ilv, n, lfsr, c,
                                                         valid, accumulate);
      break;
  }
}

void FusedMacKernel::chain(Unpacked& acc, const uint32_t* a, const uint32_t* b,
                           int n, uint64_t& lfsr) const {
  const bool tab = table_ != nullptr;
  switch (cfg_.adder) {
    case AdderKind::kRoundNearest:
      tab ? chain_impl<AdderKind::kRoundNearest, true>(acc, a, b, n, lfsr)
          : chain_impl<AdderKind::kRoundNearest, false>(acc, a, b, n, lfsr);
      break;
    case AdderKind::kLazySR:
      tab ? chain_impl<AdderKind::kLazySR, true>(acc, a, b, n, lfsr)
          : chain_impl<AdderKind::kLazySR, false>(acc, a, b, n, lfsr);
      break;
    case AdderKind::kEagerSR:
      tab ? chain_impl<AdderKind::kEagerSR, true>(acc, a, b, n, lfsr)
          : chain_impl<AdderKind::kEagerSR, false>(acc, a, b, n, lfsr);
      break;
  }
}

}  // namespace srmac
