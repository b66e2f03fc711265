#include "nn/init.hpp"

#include <cmath>

namespace srmac {

void he_init(Layer& model, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Param*> params;
  model.collect_params(params);
  for (Param* p : params) {
    if (p->value.ndim() != 2) continue;  // weights only (BN/bias are 1-D)
    const int fan_in = p->value.dim(1);
    const double std = std::sqrt(2.0 / fan_in);
    for (int64_t i = 0; i < p->value.numel(); ++i)
      p->value[i] = static_cast<float>(rng.normal() * std);
    p->bump();  // invalidate compiled weight planes
  }
}

int64_t param_count(Layer& model) {
  std::vector<Param*> params;
  model.collect_params(params);
  int64_t n = 0;
  for (Param* p : params) n += p->value.numel();
  return n;
}

}  // namespace srmac
