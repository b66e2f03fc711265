#pragma once

#include <cstdint>

#include "rng/random_source.hpp"

namespace srmac {

/// xoshiro256** — fast, high-quality 64-bit PRNG (Blackman & Vigna).
///
/// Used as the software-side random source for golden stochastic rounding,
/// dataset generation and weight initialization. Not part of the hardware
/// model (the hardware uses GaloisLfsr); chosen so that statistical tests on
/// SR unbiasedness are not confounded by PRNG structure.
class Xoshiro256 final : public RandomSource {
 public:
  explicit Xoshiro256(uint64_t seed = 0x9E3779B97F4A7C15ull);

  uint64_t next();
  uint64_t draw(int bits) override;

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Standard normal via Box–Muller.
  double normal();
  /// Uniform integer in [0, n).
  uint64_t below(uint64_t n);

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace srmac
