// Standalone serving daemon: an EmuServer session (or a ClusterController
// fleet with --serve-replicas=N) behind the length-prefixed wire protocol
// on a loopback TCP port — the process you point bench/loadgen.cpp or any
// WireClient at (docs/PERSISTENCE.md has the frame layout, docs/SERVING.md
// the serving semantics).
//
// The model comes from the shared zoo, or from a checkpoint: with
// --checkpoint FILE the architecture is rebuilt from the file's embedded
// model tag, the weights come from its tensor records, and the engine
// adopts the file's pinned scenario unless --scenario= overrides it —
// the same precedence srmac_session_open() applies.
//
// Usage: serve_daemon [--model SPEC] [--checkpoint FILE] [--port N]
//                     [--port-file PATH] [--max-seconds N] [engine flags]
//   --model SPEC     model-zoo grammar (default mlp:64,3); ignored when
//                    --checkpoint names the architecture
//   --checkpoint F   serve the weights (and scenario) pinned in F
//   --port N         TCP port (default 0 = ephemeral, printed on stdout)
//   --port-file P    write the bound port to P (atomically, via rename) —
//                    how scripts find an ephemeral port
//   --max-seconds N  exit after N seconds (default: run until SIGINT/
//                    SIGTERM)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "engine/cli.hpp"
#include "io/checkpoint.hpp"
#include "net/wire_server.hpp"
#include "nn/model_zoo.hpp"
#include "serve/cluster_controller.hpp"
#include "serve/emu_server.hpp"

using namespace srmac;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

void write_port_file(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f || std::fprintf(f, "%u\n", static_cast<unsigned>(port)) < 0 ||
      std::fclose(f) != 0 || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "error: cannot write port file %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_spec = "mlp:64,3";
  std::string ckpt_path, port_file;
  int port = 0, max_seconds = 0;
  bool scenario_flag_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc)
      model_spec = argv[++i];
    else if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc)
      ckpt_path = argv[++i];
    else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc)
      port = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc)
      port_file = argv[++i];
    else if (std::strcmp(argv[i], "--max-seconds") == 0 && i + 1 < argc)
      max_seconds = std::atoi(argv[++i]);
    else if (std::strncmp(argv[i], "--scenario=", 11) == 0)
      scenario_flag_given = true;  // explicit flag beats a pinned scenario
  }
  EngineCliArgs eng = parse_engine_cli(argc, argv);

  // Resolve the architecture and scenario: checkpoint metadata wins on the
  // model tag, and on the scenario too unless --scenario= was given.
  ModelSpec model = ModelSpec::parse_or_die(model_spec);
  if (!ckpt_path.empty()) {
    try {
      const CheckpointMeta meta = read_checkpoint_meta(ckpt_path);
      if (meta.model.empty()) {
        std::fprintf(stderr,
                     "error: %s carries no model tag; pass --model and load "
                     "it elsewhere\n",
                     ckpt_path.c_str());
        return 1;
      }
      model = ModelSpec::parse_or_die(meta.model);
      if (!scenario_flag_given && !meta.scenario.empty())
        eng.scenario = meta.scenario;
    } catch (const CheckpointError& e) {
      std::fprintf(stderr, "error: %s: %s\n", ckpt_path.c_str(), e.what());
      return 1;
    }
  }

  // Every replica builds the same deterministic weights, then (optionally)
  // replaces them from the checkpoint — so a fleet stays bitwise uniform.
  auto build_model = [&] {
    std::unique_ptr<Sequential> net = model.build();
    if (!ckpt_path.empty()) load_checkpoint(ckpt_path, *net);
    return net;
  };

  ServeConfig scfg;
  scfg.max_batch = std::max(1, eng.serve_batch);
  scfg.max_wait_us = eng.serve_wait_us;
  scfg.input_shape = model.input_shape();
  if (!eng.shadow_scenario.empty()) {
    scfg.shadow.session = eng.shadow_session();
    scfg.shadow.fraction = eng.shadow_fraction;
  }
  const int replicas = std::max(1, eng.serve_replicas);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // The back end outlives the WireServer (stop order: wire first).
  std::unique_ptr<EmuServer> server;
  std::unique_ptr<ClusterController> cluster;
  WireServerConfig wcfg;
  wcfg.port = static_cast<uint16_t>(port);
  wcfg.scenario = eng.scenario;
  wcfg.model = model.name;
  wcfg.input_shape = model.input_shape();
  std::unique_ptr<WireServer> wire;
  try {
    if (replicas > 1) {
      ClusterConfig ccfg;
      ccfg.replicas = replicas;
      ccfg.serve = scfg;
      ccfg.deadline_us = eng.serve_deadline_us;
      ccfg.slo_us = eng.serve_slo_us;
      cluster = std::make_unique<ClusterController>(
          build_model, [&] { return engine_or_die(eng); }, ccfg);
      // TELEMETRY frames answer with the cluster-level snapshot (routing
      // counters + per-replica rows); snapshot() is thread-safe so the
      // reader threads may call this directly.
      wcfg.telemetry_json = [c = cluster.get()] {
        return c->telemetry_snapshot().to_json();
      };
      wire = std::make_unique<WireServer>(wire_submit(*cluster), wcfg);
    } else {
      server = std::make_unique<EmuServer>(build_model(), engine_or_die(eng),
                                           scfg);
      wcfg.telemetry_json = [s = server.get()] {
        return s->telemetry().to_json();
      };
      wire = std::make_unique<WireServer>(wire_submit(*server), wcfg);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!port_file.empty()) write_port_file(port_file, wire->port());
  // compiled=0: the compiler rejected the backend, so every session serves
  // one sample at a time through model.forward.
  const EmuServer& primary = cluster ? cluster->replica(0) : *server;
  std::printf("serve_daemon: model=%s scenario=%s backend=%s replicas=%d "
              "compiled=%d port=%u\n",
              model.name.c_str(), eng.scenario.c_str(),
              engine_or_die(eng).backend().name().c_str(), replicas,
              primary.compiled() ? 1 : 0,
              static_cast<unsigned>(wire->port()));
  std::fflush(stdout);

  const auto t0 = std::chrono::steady_clock::now();
  while (!g_stop) {
    if (max_seconds > 0 &&
        std::chrono::steady_clock::now() - t0 >=
            std::chrono::seconds(max_seconds))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Snapshot before teardown, emit through the shared Telemetry JSON
  // serializer (the same object a TELEMETRY wire frame returns) instead of
  // a hand-rolled printf — scripts scrape one format everywhere.
  const std::string tjson = cluster ? cluster->telemetry_snapshot().to_json()
                                    : server->telemetry().to_json();
  wire->stop();  // closes the listener and drains the connections...
  if (cluster) cluster->stop();  // ...before the back end goes away
  if (server) server->stop();
  std::printf("serve_daemon: %llu connections, %llu requests, "
              "%llu protocol errors\n",
              static_cast<unsigned long long>(wire->connections_accepted()),
              static_cast<unsigned long long>(wire->requests_received()),
              static_cast<unsigned long long>(wire->protocol_errors()));
  std::printf("serve_daemon telemetry: %s\n", tjson.c_str());
  return 0;
}
