#include "train/adam.hpp"

#include <cmath>

namespace srmac {

Adam::Adam(std::vector<Param*> params, const Options& opt)
    : params_(std::move(params)), opt_(opt) {
  slots_.reserve(params_.size());
  for (const Param* p : params_) {
    Slots s;
    s.m = Tensor(p->value.shape());
    s.v = Tensor(p->value.shape());
    slots_.push_back(std::move(s));
  }
}

void Adam::step(float loss_scale, bool skip) {
  if (skip) return;
  ++t_;
  const float inv_scale = 1.0f / loss_scale;
  const double bc1 = 1.0 - std::pow(opt_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(opt_.beta2, static_cast<double>(t_));
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    Param& p = *params_[pi];
    Slots& s = slots_[pi];
    for (int64_t i = 0; i < p.value.numel(); ++i) {
      const float g = p.grad[i] * inv_scale;
      s.m[i] = opt_.beta1 * s.m[i] + (1.0f - opt_.beta1) * g;
      s.v[i] = opt_.beta2 * s.v[i] + (1.0f - opt_.beta2) * g * g;
      const float mhat = static_cast<float>(s.m[i] / bc1);
      const float vhat = static_cast<float>(s.v[i] / bc2);
      float update = opt_.lr * mhat / (std::sqrt(vhat) + opt_.eps);
      if (p.decay && opt_.weight_decay > 0.0f)
        update += opt_.lr * opt_.weight_decay * p.value[i];
      p.value[i] -= update;
    }
    p.bump();  // invalidate compiled weight planes
  }
}

void Adam::zero_grad() {
  for (Param* p : params_) p->grad.fill(0.0f);
}

bool Adam::grads_overflowed(float loss_scale) const {
  const float inv_scale = 1.0f / loss_scale;
  for (const Param* p : params_)
    for (int64_t i = 0; i < p->grad.numel(); ++i)
      if (!std::isfinite(p->grad[i] * inv_scale)) return true;
  return false;
}

}  // namespace srmac
