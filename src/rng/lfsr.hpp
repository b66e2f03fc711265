#pragma once

#include <cstdint>

#include "rng/random_source.hpp"

namespace srmac {

/// Galois linear feedback shift register, the paper's PRNG (Sec. III-c).
///
/// The register is `width` bits (4..64). On each step, the register shifts
/// right by one; if the bit shifted out is 1, the feedback taps are XORed in.
/// Taps are chosen from a table of maximal-length polynomials so the sequence
/// period is 2^width - 1 for every width 4..32 (the all-zero state is
/// unreachable and rejected); wider registers use a non-maximal fallback.
///
/// In the paper's MAC the LFSR runs in parallel and asynchronously with the
/// multiplier; one fresh r-bit word is consumed per accumulation. We model
/// that by stepping the register once per draw and returning the low r bits.
class GaloisLfsr final : public RandomSource {
 public:
  /// `width` in [4, 64]; `seed` must be nonzero in the low `width` bits.
  explicit GaloisLfsr(int width, uint64_t seed = 0xACE1u);

  /// One register step (one shift with conditional tap XOR).
  void step();

  /// Steps the register and returns its low `bits` bits.
  uint64_t draw(int bits) override;

  /// The register state a `width`-bit LFSR seeded with `seed` starts from:
  /// the low `width` bits, with the all-zero lock-up state mapped to 1.
  /// Kernels that keep many registers as plain words seed them with this.
  static uint64_t seed_state(int width, uint64_t seed) {
    const uint64_t s = width >= 64 ? seed : seed & ((1ull << width) - 1);
    return s != 0 ? s : 1;
  }

  /// The register after one step from state `s` with feedback mask `taps`
  /// (branch-free form of step()).
  static uint64_t next_state(uint64_t s, uint64_t taps) {
    return (s >> 1) ^ (taps & (0 - (s & 1)));
  }

  uint64_t state() const { return state_; }
  int width() const { return width_; }
  /// Feedback mask for `width` (taps as a bit mask within the low `width`
  /// bits); maximal length for every width 4..32.
  static uint64_t taps_for_width(int width);

 private:
  int width_;
  uint64_t taps_;
  uint64_t state_;
};

}  // namespace srmac
