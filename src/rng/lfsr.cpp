#include "rng/lfsr.hpp"

#include <stdexcept>

namespace srmac {

// Maximal-length polynomial tap masks, one per register width. Entry w holds
// the Galois feedback mask (bit i set means tap after stage i, i.e. the
// polynomial term x^(i+1)). Standard table (Xilinx XAPP052 / Wikipedia LFSR
// polynomial listings); every width 4..32 is maximal length, the period
// 2^w - 1 (tests/rng/lfsr_test.cpp walks the full cycle for 4..24).
uint64_t GaloisLfsr::taps_for_width(int width) {
  switch (width) {
    case 4:  return 0xCull;                  // x^4 + x^3 + 1
    case 5:  return 0x14ull;                 // x^5 + x^3 + 1
    case 6:  return 0x30ull;                 // x^6 + x^5 + 1
    case 7:  return 0x60ull;                 // x^7 + x^6 + 1
    case 8:  return 0xB8ull;                 // x^8 + x^6 + x^5 + x^4 + 1
    case 9:  return 0x110ull;                // x^9 + x^5 + 1
    case 10: return 0x240ull;                // x^10 + x^7 + 1
    case 11: return 0x500ull;                // x^11 + x^9 + 1
    case 12: return 0xE08ull;                // x^12 + x^11 + x^10 + x^4 + 1
    case 13: return 0x1C80ull;               // x^13 + x^12 + x^11 + x^8 + 1
    case 14: return 0x3802ull;               // x^14 + x^13 + x^12 + x^2 + 1
    case 15: return 0x6000ull;               // x^15 + x^14 + 1
    case 16: return 0xD008ull;               // x^16 + x^15 + x^13 + x^4 + 1
    case 17: return 0x12000ull;              // x^17 + x^14 + 1
    case 18: return 0x20400ull;              // x^18 + x^11 + 1
    case 19: return 0x72000ull;              // x^19 + x^18 + x^17 + x^14 + 1
    case 20: return 0x90000ull;              // x^20 + x^17 + 1
    case 21: return 0x140000ull;             // x^21 + x^19 + 1
    case 22: return 0x300000ull;             // x^22 + x^21 + 1
    case 23: return 0x420000ull;             // x^23 + x^18 + 1
    case 24: return 0xE10000ull;             // x^24 + x^23 + x^22 + x^17 + 1
    case 25: return 0x1200000ull;            // x^25 + x^22 + 1
    case 26: return 0x2000023ull;            // x^26 + x^6 + x^2 + x + 1
    case 27: return 0x7200000ull;            // x^27 + x^26 + x^25 + x^22 + 1
    case 28: return 0x9000000ull;            // x^28 + x^25 + 1
    case 29: return 0x14000000ull;           // x^29 + x^27 + 1
    case 30: return 0x20000029ull;           // x^30 + x^6 + x^4 + x + 1
    case 31: return 0x48000000ull;           // x^31 + x^28 + 1
    case 32: return 0xB4BCD35Cull;
    case 64: return 0xB45A9E3BA3C3A95Eull & ~0ull;  // fallthrough-quality mask
    default: break;
  }
  // Widths 33..63 (never used by the MAC models, which clamp r to 32): the
  // width-8 style dense mask shifted into place. Not maximal length.
  return (0xB8ull << (width - 8)) & ((width >= 64) ? ~0ull : ((1ull << width) - 1));
}

GaloisLfsr::GaloisLfsr(int width, uint64_t seed) : width_(width) {
  if (width < 4 || width > 64) throw std::invalid_argument("LFSR width must be in [4,64]");
  taps_ = taps_for_width(width);
  state_ = seed_state(width, seed);
}

void GaloisLfsr::step() { state_ = next_state(state_, taps_); }

uint64_t GaloisLfsr::draw(int bits) {
  step();
  if (bits <= 0) return 0;
  if (bits >= 64) return state_;
  return state_ & ((1ull << bits) - 1);
}

}  // namespace srmac
