#pragma once

// Common CLI plumbing for the examples and benches: every binary that
// selects arithmetic accepts the same flags, parsed into an EmuEngine —
//
//   --scenario=SPEC   "fp32" or a MacConfig spec, e.g.
//                     "eager_sr:e5m2/e6m5:r=9:subON" (see docs/API.md)
//   --backend=NAME    registry key: fp32 | reference | sharded | systolic |
//                     ... (default: sharded; fp32 for the fp32 scenario)
//   --hfp8            HFP8 policy (E4M3 forward / E5M2 backward) on top of
//                     the scenario's accumulator and adder
//   --seed=N          base LFSR seed (default kDefaultSeed)
//   --threads=N       thread cap (default 0 = hardware concurrency)
//   --serve-batch=N   serving: micro-batch coalescing cap (EmuServer
//                     max_batch; 1 = no coalescing)
//   --serve-wait-us=N serving: linger for stragglers after the first
//                     request of a micro-batch (EmuServer max_wait_us)
//   --serve-clients=N serving: closed-loop client threads the serve
//                     bench/example drives the session with
//   --serve-replicas=N serving: fleet size (ClusterController replicas;
//                     1 = a single EmuServer session, no controller)
//   --serve-deadline-us=N serving: per-request deadline (0 = none)
//   --serve-slo-us=N  serving: p95 SLO target of the fleet load score
//   --shadow-scenario=SPEC serving: shadow A/B — re-run a sample of
//                     requests through a second engine built from SPEC
//                     after the primary forward (docs/SERVING.md)
//   --shadow-fraction=F serving: fraction of requests the shadow trace-id
//                     hash selects (default 1.0 once a shadow scenario is
//                     set)
//
// Unknown flags are left alone so callers can parse their own arguments
// from the same argv.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "engine/emu_engine.hpp"
#include "engine/session_spec.hpp"

namespace srmac {

struct EngineCliArgs {
  std::string scenario = "eager_sr:e5m2/e6m5:r=9:subON";
  std::string backend;  // empty: the scenario decides (fp32 vs sharded)
  bool hfp8 = false;
  uint64_t seed = kDefaultSeed;
  int threads = 0;
  // Serving knobs (EmuServer / serve_daemon / loadgen / examples):
  int serve_batch = 16;          // micro-batch coalescing cap
  uint64_t serve_wait_us = 200;  // straggler linger per micro-batch
  int serve_clients = 16;        // closed-loop client load-generator threads
  int serve_replicas = 1;        // fleet size (1 = no ClusterController)
  uint64_t serve_deadline_us = 0;  // per-request deadline (0 = none)
  uint64_t serve_slo_us = 20000;   // p95 SLO target of the fleet load score
  // Shadow A/B (ServeConfig::shadow; docs/SERVING.md):
  std::string shadow_scenario;     // empty = shadowing off
  double shadow_fraction = 1.0;    // trace-id-hash sample fraction

  /// The engine flags as a SessionSpec — the shared session description
  /// EmuEngine::Builder, ServeConfig, serve_daemon, and the C API all
  /// accept. Note --hfp8 layers a policy on top and is applied separately
  /// (engine_or_die).
  SessionSpec session() const {
    SessionSpec s;
    s.scenario = scenario;
    s.backend = backend;
    s.seed = seed;
    s.threads = threads;
    return s;
  }

  /// The shadow session the flags describe (scenario empty = disabled).
  /// Seed/threads/backend follow the primary: drift should measure the
  /// scenario, not an incidental seed difference.
  SessionSpec shadow_session() const {
    SessionSpec s = session();
    s.scenario = shadow_scenario;
    return s;
  }
};

inline const char* engine_cli_usage() {
  return "  --scenario=SPEC  'fp32' or adder:mulfmt/accfmt[:r=N][:subON|subOFF]\n"
         "                   (e.g. eager_sr:e5m2/e6m5:r=9:subON)\n"
         "  --backend=NAME   fp32 | reference | sharded | systolic | ...\n"
         "                   (default: sharded; fp32 for the fp32 scenario)\n"
         "  --hfp8           E4M3-forward / E5M2-backward multiplier formats\n"
         "  --seed=N         base LFSR seed\n"
         "  --threads=N      thread cap (0 = hardware concurrency)\n"
         "  --serve-batch=N  serving micro-batch cap (1 = no coalescing)\n"
         "  --serve-wait-us=N  micro-batch straggler linger in microseconds\n"
         "  --serve-clients=N  closed-loop client threads (serve bench)\n"
         "  --serve-replicas=N serving fleet size (1 = single session)\n"
         "  --serve-deadline-us=N  per-request deadline (0 = none)\n"
         "  --serve-slo-us=N   p95 SLO target of the fleet load score\n"
         "  --shadow-scenario=SPEC  shadow A/B: second scenario to re-run a\n"
         "                   sample of requests under (empty = off)\n"
         "  --shadow-fraction=F  shadow sample fraction in [0,1] (default 1)\n";
}

/// Scans argv for the engine flags above; everything else is ignored (the
/// caller parses its own flags from the same argv).
inline EngineCliArgs parse_engine_cli(int argc, char** argv) {
  EngineCliArgs args;
  for (int i = 1; i < argc; ++i) {
    auto val = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=')
        return argv[i] + n + 1;
      return nullptr;
    };
    if (const char* v = val("--scenario")) args.scenario = v;
    if (const char* v = val("--backend")) args.backend = v;
    if (const char* v = val("--seed")) args.seed = std::strtoull(v, nullptr, 0);
    if (const char* v = val("--threads")) args.threads = std::atoi(v);
    if (const char* v = val("--serve-batch")) args.serve_batch = std::atoi(v);
    if (const char* v = val("--serve-wait-us"))
      args.serve_wait_us = std::strtoull(v, nullptr, 0);
    if (const char* v = val("--serve-clients"))
      args.serve_clients = std::atoi(v);
    if (const char* v = val("--serve-replicas"))
      args.serve_replicas = std::atoi(v);
    if (const char* v = val("--serve-deadline-us"))
      args.serve_deadline_us = std::strtoull(v, nullptr, 0);
    if (const char* v = val("--serve-slo-us"))
      args.serve_slo_us = std::strtoull(v, nullptr, 0);
    if (const char* v = val("--shadow-scenario")) args.shadow_scenario = v;
    if (const char* v = val("--shadow-fraction"))
      args.shadow_fraction = std::strtod(v, nullptr);
    if (std::strcmp(argv[i], "--hfp8") == 0) args.hfp8 = true;
  }
  return args;
}

/// Builds the engine the parsed flags describe; on a bad scenario or
/// backend name prints the error plus the flag reference and exits — the
/// behavior every CLI binary wants.
inline EmuEngine engine_or_die(const EngineCliArgs& args) {
  try {
    EmuEngine::Builder b;
    b.spec(args.session());
    if (args.hfp8) b.hfp8();
    return b.build();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), engine_cli_usage());
    std::exit(2);
  }
}

}  // namespace srmac
