#include "train/optimizer.hpp"

#include <cmath>

namespace srmac {

SgdMomentum::SgdMomentum(std::vector<Param*> params, float lr, float momentum,
                         float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {}

void SgdMomentum::step(float loss_scale, bool skip) {
  if (skip) return;
  const float inv = 1.0f / loss_scale;
  for (Param* p : params_) {
    const float wd = p->decay ? weight_decay_ : 0.0f;
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      const float g = p->grad[i] * inv + wd * p->value[i];
      p->momentum[i] = momentum_ * p->momentum[i] + g;
      p->value[i] -= lr_ * p->momentum[i];
    }
    p->bump();  // invalidate compiled weight planes
  }
}

void SgdMomentum::zero_grad() {
  for (Param* p : params_) p->grad.zero();
}

bool SgdMomentum::grads_overflowed(float loss_scale) const {
  (void)loss_scale;
  for (const Param* p : params_)
    for (int64_t i = 0; i < p->grad.numel(); ++i)
      if (!std::isfinite(p->grad[i])) return true;
  return false;
}

}  // namespace srmac
