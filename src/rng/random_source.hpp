#pragma once

#include <cstdint>

namespace srmac {

/// Abstract source of uniform random bits, consumed by stochastic rounding.
///
/// `draw(n)` returns n i.i.d. uniform bits in the low bits of the result
/// (0 <= n <= 64). Hardware models use an r-bit Galois LFSR; software golden
/// models use a 64-bit xoshiro generator.
class RandomSource {
 public:
  virtual ~RandomSource() = default;
  virtual uint64_t draw(int bits) = 0;
};

/// A deterministic source that replays a fixed word; used by tests to drive
/// both the lazy and eager adders with the *same* random value.
class FixedSource final : public RandomSource {
 public:
  explicit FixedSource(uint64_t word) : word_(word) {}
  uint64_t draw(int bits) override {
    return bits >= 64 ? word_ : (word_ & ((1ull << bits) - 1));
  }
  void set(uint64_t word) { word_ = word; }

 private:
  uint64_t word_;
};

}  // namespace srmac
