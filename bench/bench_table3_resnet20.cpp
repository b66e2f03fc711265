// Regenerates the paper's Table III: impact of the number format (E, M) and
// the number of random bits r on accuracy when training ResNet-20.
//
// Substitutions (docs/ARCHITECTURE.md, "Substitutions"): synthetic-CIFAR
// stands in for CIFAR-10, and the default scale shrinks the model/schedule
// to a single-CPU budget; the signal it aims at is the *ordering* of
// configurations:
//   r=4 collapses << r=9 < r=11 < r=13 ~ FP32 baseline,
//   RN at E6M5 degrades clearly below the baseline,
//   subnormal support does not matter for SR at r>=11.
// Run with --full (and more --epochs) to approach paper scale.
#include "paper_reference.hpp"
#include "train_common.hpp"

using namespace srmac;
using namespace srmac::benchutil;

int main(int argc, char** argv) {
  const Scale s = Scale::from_args(argc, argv);

  SyntheticImages::Options dopt;
  dopt.classes = 10;
  dopt.size = s.size;
  dopt.train_samples = s.train_samples;
  dopt.noise = s.noise;
  dopt.jitter = 1.5f;
  const SyntheticImages train(dopt);
  const SyntheticImages test = train.test_split(s.test_samples);

  auto model = [&] { return make_resnet20(10, s.width); };

  const ConfigRow rows[] = {
      {"FP32 baseline", ComputeContext::fp32()},
      {"RN subON E5M10", ctx_for(AdderKind::kRoundNearest, kFp16, 0, true, 1, s.backend)},
      {"RN subON E8M7", ctx_for(AdderKind::kRoundNearest, kBf16, 0, true, 1, s.backend)},
      {"RN subON E6M5", ctx_for(AdderKind::kRoundNearest, kFp12, 0, true, 1, s.backend)},
      {"SR subON E6M5 r=4", ctx_for(AdderKind::kEagerSR, kFp12, 4, true, 1, s.backend)},
      {"SR subON E6M5 r=9", ctx_for(AdderKind::kEagerSR, kFp12, 9, true, 1, s.backend)},
      {"SR subON E6M5 r=11", ctx_for(AdderKind::kEagerSR, kFp12, 11, true, 1, s.backend)},
      {"SR subON E6M5 r=13", ctx_for(AdderKind::kEagerSR, kFp12, 13, true, 1, s.backend)},
      {"SR subOFF E6M5 r=11", ctx_for(AdderKind::kEagerSR, kFp12, 11, false, 1, s.backend)},
      {"SR subOFF E6M5 r=13", ctx_for(AdderKind::kEagerSR, kFp12, 13, false, 1, s.backend)},
  };

  std::printf(
      "Table III reproduction: ResNet-20 (width %.2f, %dx%d synthetic-CIFAR,"
      " %d epochs)\n", s.width, s.size, s.size, s.epochs);
  std::printf("%-26s %12s %14s\n", "Configuration", "Acc(model)%",
              "Acc(paper)%");
  float baseline = 0;
  for (const auto& row : rows) {
    const float acc = run_config(model, row.ctx, s, train, test);
    if (row.name == "FP32 baseline") baseline = acc;
    const auto it = paperref::table3().find(row.name);
    std::printf("%-26s %12.2f %14.2f\n", row.name.c_str(), acc,
                it != paperref::table3().end() ? it->second : 0.0);
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape: SR r=13 within a few points of the FP32 baseline"
      " (%.2f%%);\nr=4 collapses; RN@E6M5 degrades; Sub OFF harmless at"
      " r>=11.\n", baseline);
  return 0;
}
