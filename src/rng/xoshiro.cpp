#include "rng/xoshiro.hpp"

#include <cmath>

namespace srmac {

namespace {
inline uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64, the recommended seeder for xoshiro state.
inline uint64_t splitmix64(uint64_t& x) {
  uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Xoshiro256::Xoshiro256(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

uint64_t Xoshiro256::next() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t Xoshiro256::draw(int bits) {
  if (bits <= 0) return 0;
  const uint64_t v = next();
  return bits >= 64 ? v : (v >> (64 - bits));
}

double Xoshiro256::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Xoshiro256::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double Xoshiro256::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform(), u2 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double rad = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = rad * std::sin(2.0 * M_PI * u2);
  have_cached_normal_ = true;
  return rad * std::cos(2.0 * M_PI * u2);
}

uint64_t Xoshiro256::below(uint64_t n) {
  if (n == 0) return 0;
  // Rejection-free modulo is fine for our non-cryptographic uses.
  return next() % n;
}

}  // namespace srmac
