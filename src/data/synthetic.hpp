#pragma once

#include "data/dataset.hpp"

namespace srmac {

/// Procedurally generated image-classification datasets standing in for
/// CIFAR-10 and Imagewoof (no dataset files are available offline; see
/// docs/ARCHITECTURE.md, "Substitutions"). Each class is a family of
/// structured images — an oriented grating whose angle/frequency depend on
/// the class, plus a class-colored blob at a class-dependent location —
/// with per-instance random phase, jitter and additive Gaussian noise. The
/// task is CNN-learnable, exercises conv/GEMM forward+backward exactly like
/// a natural-image dataset, and its accuracy degrades the same way under
/// broken low-precision arithmetic.
class SyntheticImages : public Dataset {
 public:
  struct Options {
    int classes = 10;
    int size = 32;          ///< square images
    int train_samples = 2048;
    float noise = 0.35f;    ///< additive Gaussian noise sigma
    float jitter = 2.5f;    ///< positional jitter of the class blob
    uint64_t seed = 1234;
    bool hard = false;      ///< "Imagewoof" mode: subtler class differences
  };

  explicit SyntheticImages(const Options& opt);

  int size() const override { return opt_.train_samples; }
  int channels() const override { return 3; }
  int height() const override { return opt_.size; }
  int width() const override { return opt_.size; }
  int classes() const override { return opt_.classes; }
  int get(int idx, float* img) const override;

  /// A disjoint evaluation split (same generative process, different seeds).
  SyntheticImages test_split(int samples) const;

 private:
  Options opt_;
  uint64_t split_salt_ = 0;
};

}  // namespace srmac
