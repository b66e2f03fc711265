// SessionSpec (engine/session_spec.hpp): the one session description
// shared by EmuEngine::Builder, ServeConfig::shadow, serve_daemon, and the
// C API. The contract: a spec-built engine is indistinguishable from one
// built through the individual Builder setters — same scenario string,
// seed, threads, backend resolution, and (the part that matters) bitwise
// identical arithmetic.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "engine/cli.hpp"
#include "engine/emu_engine.hpp"
#include "engine/session_spec.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "rng/xoshiro.hpp"

using namespace srmac;

namespace {

Tensor make_sample() {
  Tensor x({1, 8});
  Xoshiro256 rng(7);
  for (int64_t j = 0; j < x.numel(); ++j)
    x[j] = static_cast<float>(rng.normal());
  return x;
}

std::unique_ptr<Sequential> make_model() {
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Linear>(8, 4));
  he_init(*net, 0xABCD);
  return net;
}

}  // namespace

TEST(SessionSpec, DefaultsMatchTheStackDefaults) {
  const SessionSpec s;
  EXPECT_EQ(s.scenario, "eager_sr:e5m2/e6m5:r=9:subON");
  EXPECT_TRUE(s.backend.empty());
  EXPECT_EQ(s.seed, kDefaultSeed);
  EXPECT_EQ(s.threads, 0);
  EXPECT_EQ(s, SessionSpec{});
}

TEST(SessionSpec, BuildEngineAppliesEveryField) {
  SessionSpec s;
  s.scenario = "rn:e5m2/e6m5:r=0:subOFF";
  s.backend = "reference";
  s.seed = 0x1234;
  s.threads = 2;
  const EmuEngine e = s.build_engine();
  EXPECT_EQ(e.scenario(), s.scenario);
  EXPECT_EQ(e.seed(), 0x1234u);
  EXPECT_EQ(e.threads(), 2);
}

TEST(SessionSpec, SpecBuiltEngineMatchesSetterBuiltBitwise) {
  SessionSpec s;
  s.scenario = "lazy_sr:e5m2/e6m5:r=9:subON";
  s.seed = 99;
  const EmuEngine via_spec = EmuEngine::Builder().spec(s).build();
  const EmuEngine via_setters =
      EmuEngine::Builder().scenario(s.scenario).seed(s.seed).build();

  auto m1 = make_model();
  auto m2 = make_model();
  const Tensor x = make_sample();
  const Tensor y1 = m1->forward(via_spec.context(), x, false);
  const Tensor y2 = m2->forward(via_setters.context(), x, false);
  ASSERT_EQ(y1.numel(), y2.numel());
  EXPECT_EQ(0, std::memcmp(y1.data(), y2.data(),
                           static_cast<size_t>(y1.numel()) * sizeof(float)));
}

TEST(SessionSpec, BadScenarioThrowsAtBuild) {
  SessionSpec s;
  s.scenario = "not_a_scenario";
  EXPECT_THROW(s.build_engine(), std::invalid_argument);
  s.scenario = "eager_sr:e5m2/e6m5:r=9:subON";
  s.backend = "no_such_backend";
  EXPECT_THROW(s.build_engine(), std::invalid_argument);
}

TEST(SessionSpec, CliArgsRoundTripThroughSession) {
  // The CLI helper's session()/shadow_session() accessors: engine flags
  // map onto the spec, and the shadow spec inherits everything but the
  // scenario (so drift measures the scenario, not the seed).
  EngineCliArgs args;
  args.scenario = "rn:e5m2/e6m5:r=0:subON";
  args.backend = "reference";
  args.seed = 77;
  args.threads = 3;
  args.shadow_scenario = "lazy_sr:e5m2/e6m5:r=9:subON";

  const SessionSpec s = args.session();
  EXPECT_EQ(s.scenario, args.scenario);
  EXPECT_EQ(s.backend, "reference");
  EXPECT_EQ(s.seed, 77u);
  EXPECT_EQ(s.threads, 3);

  const SessionSpec sh = args.shadow_session();
  EXPECT_EQ(sh.scenario, args.shadow_scenario);
  EXPECT_EQ(sh.backend, "reference");
  EXPECT_EQ(sh.seed, 77u);
  EXPECT_EQ(sh.threads, 3);
}
