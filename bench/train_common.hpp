#pragma once

// Shared scaffolding for the training benches (Tables III/IV): builds the
// compute contexts for each rounding configuration and runs the paper's
// training recipe on the synthetic datasets at a CPU-budget scale.
//
// Scale note (docs/ARCHITECTURE.md, "Substitutions"): the paper trains
// ResNet-20/VGG16 for 165-200 epochs on CIFAR-10 with CUDA-accelerated
// bit-accurate emulation. This repository aims at the *orderings* of
// Tables III/IV on one CPU core by shrinking width/resolution/epochs; pass
// --full for paper-scale models (slow), or tune
// --width/--size/--samples/--epochs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "data/synthetic.hpp"
#include "engine/registry.hpp"
#include "nn/init.hpp"
#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "train/trainer.hpp"

namespace srmac::benchutil {

struct Scale {
  float width = 0.25f;
  int size = 16;
  int train_samples = 192;
  int test_samples = 160;
  int epochs = 3;
  int batch = 16;
  float lr = 0.1f;
  float noise = 0.15f;
  bool verbose = false;
  // Registry key the emulated rows run on ("sharded" by default;
  // "reference" or "systolic" re-run the same table on another backend).
  std::string backend = "sharded";

  static Scale from_args(int argc, char** argv) {
    Scale s;
    for (int i = 1; i < argc; ++i) {
      auto val = [&](const char* flag) -> const char* {
        const size_t n = std::strlen(flag);
        if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=')
          return argv[i] + n + 1;
        return nullptr;
      };
      if (const char* v = val("--width")) s.width = std::atof(v);
      if (const char* v = val("--size")) s.size = std::atoi(v);
      if (const char* v = val("--samples")) s.train_samples = std::atoi(v);
      if (const char* v = val("--test")) s.test_samples = std::atoi(v);
      if (const char* v = val("--epochs")) s.epochs = std::atoi(v);
      if (const char* v = val("--batch")) s.batch = std::atoi(v);
      if (const char* v = val("--lr")) s.lr = std::atof(v);
      if (const char* v = val("--noise")) s.noise = std::atof(v);
      if (const char* v = val("--backend")) s.backend = v;
      if (std::strcmp(argv[i], "--verbose") == 0) s.verbose = true;
      if (std::strcmp(argv[i], "--full") == 0) {
        // Paper-scale models and data shapes (still synthetic data and few
        // epochs; a full 165-epoch run is days of single-core time).
        s.width = 1.0f;
        s.size = 32;
        s.train_samples = 2048;
        s.test_samples = 512;
        s.epochs = 10;
        s.batch = 32;
      }
    }
    return s;
  }
};

struct ConfigRow {
  std::string name;
  ComputeContext ctx;
};

inline ComputeContext ctx_for(AdderKind kind, const FpFormat& acc, int r,
                              bool sub, uint64_t seed,
                              const std::string& backend = "sharded") {
  MacConfig m;
  m.mul_fmt = kFp8E5M2;
  m.acc_fmt = acc;
  m.adder = kind;
  m.random_bits = r;
  m.subnormals = sub;
  return ComputeContext::with_backend(backend, QuantPolicy::uniform(m), seed);
}

/// Trains a fresh copy of `make_model()` under `ctx` and returns final test
/// accuracy. Identical init/data/shuffling seeds across configs, so the
/// arithmetic is the only difference.
template <typename MakeModel>
float run_config(MakeModel&& make_model, const ComputeContext& ctx,
                 const Scale& s, const SyntheticImages& train,
                 const SyntheticImages& test) {
  auto net = make_model();
  he_init(*net, 0xC0FFEE);
  TrainOptions opt;
  opt.epochs = s.epochs;
  opt.batch_size = s.batch;
  opt.lr = s.lr;
  // Horizontal flips are label-breaking for the orientation-coded synthetic
  // classes, so augmentation stays off in these benches.
  opt.augment = false;
  opt.weight_decay = 1e-4f;
  opt.initial_loss_scale = 1024.0f;
  opt.seed = 42;
  opt.eval_samples = s.test_samples;
  opt.verbose = s.verbose;
  Trainer tr(*net, ctx, opt);
  const auto hist = tr.fit(train, test);
  return hist.back().test_acc;
}

}  // namespace srmac::benchutil
