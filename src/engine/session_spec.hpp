#pragma once

#include <cstdint>
#include <string>

#include "mac/mac_config.hpp"

namespace srmac {

class EmuEngine;

/// The shared description of one emulation session: which scenario it runs,
/// on which backend, with which seed/thread defaults. Before this struct
/// existed the same fields were plumbed separately through
/// EmuEngine::Builder, the CLI helper, serve_daemon's flag parsing, and the
/// C API's session builder — and drifted apart; now all of them carry a
/// SessionSpec, and a shadow A/B session (ServeConfig::shadow) is simply a
/// second one.
struct SessionSpec {
  /// Scenario string in the shared grammar (MacConfig::to_string), or
  /// "fp32" for the float baseline.
  std::string scenario = "eager_sr:e5m2/e6m5:r=9:subON";

  /// Backend registry key ("sharded", "fp32", "reference", "systolic", ...).
  /// Empty: the scenario decides (fp32 -> "fp32", anything else ->
  /// "sharded").
  std::string backend;

  uint64_t seed = kDefaultSeed;  ///< base seed of the per-element LFSRs
  int threads = 0;               ///< GEMM thread cap (0 = hardware)

  /// Builds the engine this spec describes (EmuEngine::Builder::spec).
  /// Throws std::invalid_argument on an unparsable scenario or unknown
  /// backend name.
  EmuEngine build_engine() const;

  friend bool operator==(const SessionSpec& a, const SessionSpec& b) {
    return a.scenario == b.scenario && a.backend == b.backend &&
           a.seed == b.seed && a.threads == b.threads;
  }
};

}  // namespace srmac
