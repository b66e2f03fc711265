#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/compute_context.hpp"
#include "engine/quant_policy.hpp"
#include "engine/registry.hpp"
#include "engine/session_spec.hpp"
#include "engine/telemetry.hpp"

namespace srmac {

/// Facade over the emulation stack: one object owning the backend choice,
/// the quantization policy, the telemetry sink, and the execution defaults
/// (seed, thread cap — the persistent thread pool itself is process-wide;
/// the engine carries the cap its contexts dispatch with). Examples,
/// benches, and tests construct one engine and hand its context() to the
/// layers/trainer; everything downstream is reached through that context.
///
/// Built with a builder that accepts the shared scenario-string grammar
/// (MacConfig::to_string): `"eager_sr:e5m2/e6m5:r=9:subON"` selects the
/// paper's reference MAC on the default "sharded" backend, `"fp32"` the
/// float baseline. The engine must outlive every context it hands out
/// (contexts point at its telemetry sink).
class EmuEngine {
 public:
  class Builder {
   public:
    /// Parses a scenario string: "fp32", or a MacConfig spec (see
    /// MacConfig::parse) run under a uniform policy. Later policy()/hfp8()
    /// calls replace the parsed policy; backend() overrides the backend.
    Builder& scenario(const std::string& spec);

    /// Registry key ("fp32", "reference", "sharded", "systolic", ...).
    Builder& backend(const std::string& name);

    /// Applies a whole SessionSpec at once: scenario, backend, seed, and
    /// threads. The shared entry point of the CLI helper, serve_daemon,
    /// the C API, and EmuServer's shadow sessions.
    Builder& spec(const SessionSpec& s);

    Builder& policy(const QuantPolicy& p);

    /// HFP8 [7] on top of the current forward configuration.
    Builder& hfp8(const FpFormat& fwd_fmt = kFp8E4M3,
                  const FpFormat& bwd_fmt = kFp8E5M2);

    Builder& seed(uint64_t s);
    Builder& threads(int t);

    /// Resolves the backend through the registry and builds the engine.
    /// Throws std::invalid_argument on an unparsable scenario or unknown
    /// backend name.
    EmuEngine build() const;

   private:
    std::string scenario_ = "eager_sr:e5m2/e6m5:r=9:subON";
    std::string backend_;  // empty: scenario decides (fp32 vs sharded)
    std::optional<QuantPolicy> policy_;
    bool hfp8_ = false;
    FpFormat hfp8_fwd_ = kFp8E4M3, hfp8_bwd_ = kFp8E5M2;
    uint64_t seed_ = kDefaultSeed;
    int threads_ = 0;
  };

  /// Registered backend names (the registry the engine fronts).
  static std::vector<std::string> backends();

  /// A context dispatching on this engine's backend/policy and recording
  /// into its telemetry sink.
  ComputeContext context() const;

  const MatmulBackend& backend() const { return *backend_; }
  const QuantPolicy& policy() const { return policy_; }
  uint64_t seed() const { return seed_; }
  int threads() const { return threads_; }

  /// The scenario string the engine was built from ("fp32" or a MacConfig
  /// spec) — the key drift telemetry identifies scenario pairs by.
  const std::string& scenario() const { return scenario_; }

  Telemetry& telemetry() { return *telemetry_; }
  const Telemetry& telemetry() const { return *telemetry_; }

  /// One-line human summary, e.g.
  /// "backend=sharded scenario=eager_sr:e5m2/e6m5:r=9:subON seed=0x5eed5eed".
  std::string describe() const;

 private:
  friend class Builder;
  EmuEngine(const MatmulBackend* backend, QuantPolicy policy,
            std::string scenario, uint64_t seed, int threads);

  const MatmulBackend* backend_;
  QuantPolicy policy_;
  std::string scenario_;
  uint64_t seed_;
  int threads_;
  std::unique_ptr<Telemetry> telemetry_;  // unique_ptr: keeps the engine movable
};

}  // namespace srmac
