#include "engine/emu_engine.hpp"

#include <cstdio>
#include <stdexcept>

namespace srmac {

EmuEngine::Builder& EmuEngine::Builder::scenario(const std::string& spec) {
  scenario_ = spec;
  return *this;
}

EmuEngine::Builder& EmuEngine::Builder::backend(const std::string& name) {
  backend_ = name;
  return *this;
}

EmuEngine::Builder& EmuEngine::Builder::spec(const SessionSpec& s) {
  scenario_ = s.scenario;
  backend_ = s.backend;
  seed_ = s.seed;
  threads_ = s.threads;
  return *this;
}

EmuEngine::Builder& EmuEngine::Builder::policy(const QuantPolicy& p) {
  policy_ = p;
  return *this;
}

EmuEngine::Builder& EmuEngine::Builder::hfp8(const FpFormat& fwd_fmt,
                                             const FpFormat& bwd_fmt) {
  hfp8_ = true;
  hfp8_fwd_ = fwd_fmt;
  hfp8_bwd_ = bwd_fmt;
  return *this;
}

EmuEngine::Builder& EmuEngine::Builder::seed(uint64_t s) {
  seed_ = s;
  return *this;
}

EmuEngine::Builder& EmuEngine::Builder::threads(int t) {
  threads_ = t;
  return *this;
}

EmuEngine EmuEngine::Builder::build() const {
  std::string backend_name = backend_;
  QuantPolicy policy;
  if (policy_) {
    policy = *policy_;
    if (backend_name.empty()) backend_name = "sharded";
  } else if (scenario_ == "fp32") {
    policy = QuantPolicy::uniform(MacConfig{});
    if (backend_name.empty()) backend_name = "fp32";
  } else {
    std::string error;
    const auto cfg = MacConfig::parse(scenario_, &error);
    if (!cfg) throw std::invalid_argument("bad scenario: " + error);
    policy = QuantPolicy::uniform(*cfg);
    if (backend_name.empty()) backend_name = "sharded";
  }
  if (hfp8_) {
    const MacConfig base = policy.mac_for(GemmPass::kForward);
    const QuantPolicy h = QuantPolicy::hfp8(base, hfp8_fwd_, hfp8_bwd_);
    policy.passes[0] = h.passes[0];
    policy.passes[1] = h.passes[1];
    policy.passes[2] = h.passes[2];
  }
  const MatmulBackend* backend = BackendRegistry::instance().get(backend_name);
  return EmuEngine(backend, std::move(policy), scenario_, seed_, threads_);
}

EmuEngine::EmuEngine(const MatmulBackend* backend, QuantPolicy policy,
                     std::string scenario, uint64_t seed, int threads)
    : backend_(backend),
      policy_(std::move(policy)),
      scenario_(std::move(scenario)),
      seed_(seed),
      threads_(threads),
      telemetry_(std::make_unique<Telemetry>()) {}

std::vector<std::string> EmuEngine::backends() {
  return BackendRegistry::instance().names();
}

ComputeContext EmuEngine::context() const {
  ComputeContext c;
  c.backend = backend_;
  c.policy = policy_;
  c.seed = seed_;
  c.threads = threads_;
  c.telemetry = telemetry_.get();
  return c;
}

std::string EmuEngine::describe() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "backend=%s scenario=%s seed=0x%llx threads=%s",
                backend_->name().c_str(),
                backend_->bit_accurate()
                    ? policy_.mac_for(GemmPass::kForward).to_string().c_str()
                    : "fp32",
                static_cast<unsigned long long>(seed_),
                threads_ == 0 ? "hw" : std::to_string(threads_).c_str());
  return buf;
}

}  // namespace srmac
