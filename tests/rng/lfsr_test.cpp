#include "rng/lfsr.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "rng/xoshiro.hpp"

namespace srmac {
namespace {

TEST(GaloisLfsr, RejectsBadWidths) {
  EXPECT_THROW(GaloisLfsr(3), std::invalid_argument);
  EXPECT_THROW(GaloisLfsr(65), std::invalid_argument);
  EXPECT_NO_THROW(GaloisLfsr(4));
  EXPECT_NO_THROW(GaloisLfsr(27));
}

TEST(GaloisLfsr, ZeroSeedIsRemapped) {
  GaloisLfsr l(8, 0);
  EXPECT_NE(l.state(), 0u);
}

// The tabulated polynomials must be maximal length: the state sequence
// visits all 2^w - 1 nonzero states before repeating.
class LfsrPeriodTest : public ::testing::TestWithParam<int> {};

TEST_P(LfsrPeriodTest, FullPeriod) {
  const int w = GetParam();
  GaloisLfsr l(w, 1);
  const uint64_t start = l.state();
  uint64_t period = 0;
  do {
    l.step();
    ++period;
    ASSERT_NE(l.state(), 0u) << "LFSR fell into the lock-up state";
    ASSERT_LE(period, (1ull << w));
  } while (l.state() != start);
  EXPECT_EQ(period, (1ull << w) - 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrPeriodTest, ::testing::Range(4, 25));

TEST(GaloisLfsr, E8M23DefaultWidthIsMaximal) {
  // r = p + 3 = 27 is the default for an E8M23 accumulator; its tap mask
  // once cycled after 100,663,293 of the 134,217,727 nonzero states.
  const int w = 27;
  GaloisLfsr l(w, 1);
  const uint64_t start = l.state();
  uint64_t period = 0;
  do {
    l.step();
    ++period;
  } while (l.state() != start && period <= (1ull << w));
  EXPECT_EQ(period, (1ull << w) - 1);
}

TEST(GaloisLfsr, PlainWordStepsMatchTheRegister) {
  // seed_state/next_state, the plain-word form the fused kernel steps, must
  // reproduce the register's own seeding and sequence.
  for (int w : {4, 9, 27, 32}) {
    for (uint64_t seed : {0ull, 1ull, 0xFFFFFFFFFull, 0x123456789ABCDEFull,
                          1ull << w}) {
      GaloisLfsr l(w, seed);
      uint64_t s = GaloisLfsr::seed_state(w, seed);
      ASSERT_EQ(s, l.state()) << "w=" << w << " seed=" << seed;
      ASSERT_NE(s, 0u);
      for (int i = 0; i < 100; ++i) {
        l.step();
        s = GaloisLfsr::next_state(s, GaloisLfsr::taps_for_width(w));
        ASSERT_EQ(s, l.state()) << "w=" << w << " step " << i;
      }
    }
  }
}

TEST(GaloisLfsr, DrawReturnsLowBits) {
  GaloisLfsr l(13, 0x1234);
  for (int i = 0; i < 100; ++i) {
    const uint64_t v = l.draw(9);
    EXPECT_LT(v, 1u << 9);
    EXPECT_EQ(v, l.state() & 0x1FFu);
  }
}

TEST(GaloisLfsr, BitBalanceIsUniformish) {
  // Over a full period, each output bit of a maximal LFSR is 1 in exactly
  // 2^(w-1) of the 2^w - 1 states.
  const int w = 13;
  GaloisLfsr l(w, 1);
  std::vector<int> onecount(w, 0);
  for (uint64_t i = 0; i < (1ull << w) - 1; ++i) {
    l.step();
    for (int b = 0; b < w; ++b) onecount[b] += (l.state() >> b) & 1;
  }
  for (int b = 0; b < w; ++b) EXPECT_EQ(onecount[b], 1 << (w - 1));
}

TEST(Xoshiro, UniformMomentsSane) {
  Xoshiro256 rng(99);
  double sum = 0, sq = 0;
  const int n = 1000000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sq += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 5e-3);
  EXPECT_NEAR(sq / n, 1.0 / 3.0, 5e-3);
}

TEST(Xoshiro, NormalMomentsSane) {
  Xoshiro256 rng(100);
  double sum = 0, sq = 0;
  const int n = 1000000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 8e-3);
  EXPECT_NEAR(sq / n, 1.0, 1e-2);
}

TEST(FixedSourceTest, MasksToRequestedWidth) {
  FixedSource s(0xFFFFull);
  EXPECT_EQ(s.draw(4), 0xFull);
  EXPECT_EQ(s.draw(9), 0x1FFull);
  EXPECT_EQ(s.draw(64), 0xFFFFull);
}

}  // namespace
}  // namespace srmac
