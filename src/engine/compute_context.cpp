#include "engine/compute_context.hpp"

#include "engine/registry.hpp"

namespace srmac {

ComputeContext ComputeContext::fp32() {
  ComputeContext c;
  c.backend = BackendRegistry::instance().get("fp32");
  return c;
}

ComputeContext ComputeContext::emulated(const MacConfig& cfg, uint64_t seed) {
  ComputeContext c;
  c.backend = BackendRegistry::instance().get("sharded");
  c.policy = QuantPolicy::uniform(cfg);
  c.seed = seed;
  return c;
}

ComputeContext ComputeContext::with_backend(const std::string& backend_name,
                                            const QuantPolicy& policy,
                                            uint64_t seed, int threads) {
  ComputeContext c;
  c.backend = BackendRegistry::instance().get(backend_name);
  c.policy = policy;
  c.seed = seed;
  c.threads = threads;
  return c;
}

ComputeContext ComputeContext::for_layer(const std::string& layer_name) const {
  if (!policy.layer_rules) return *this;
  const auto it = policy.layer_rules->find(layer_name);
  if (it == policy.layer_rules->end()) return *this;
  ComputeContext c = *this;
  for (MacConfig& cfg : c.policy.passes) cfg = it->second.applied_to(cfg);
  return c;
}

}  // namespace srmac
