// Cross-process wire load generator: closed-loop client threads driving an
// external serve_daemon (or anything speaking the wire protocol) over TCP,
// verifying every response bitwise against offline forwards computed in
// THIS process — the cross-process end of the determinism contract: two
// binaries, two address spaces, one bit pattern.
//
// The HELLO handshake pins the scenario and model tag, so a daemon running
// a different configuration than the one our references were computed
// under is refused before any request flows — a mismatch can only mean
// broken arithmetic, never a config skew.
//
// Latency here is measured client-side (send to receive, wire included),
// unlike the server-side telemetry percentiles.
//
// Usage: loadgen --port N | --port-file PATH [--host H] [--model SPEC]
//                [--checkpoint FILE] [--requests N] [--deadline-us N]
//                [--smoke] [engine flags]
//   --port-file P    poll P (written by serve_daemon --port-file) for up
//                    to 15 s, then read the port from it
//   --model SPEC     model-zoo grammar (default mlp:64,3) — must match the
//                    daemon (the handshake enforces it)
//   --checkpoint F   compute references from F's weights, and adopt its
//                    pinned scenario unless --scenario= overrides — pass
//                    the same file the daemon serves
//   --requests N     total requests (default 2000; smoke 240)
//   --deadline-us N  per-request deadline budget (0 = none)
//   --serve-clients=N  closed-loop client threads (engine CLI; default 16)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/cli.hpp"
#include "io/checkpoint.hpp"
#include "net/wire_client.hpp"
#include "nn/model_zoo.hpp"

using namespace srmac;

namespace {

constexpr int kSamplePool = 16;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile over the client-side latency samples.
double percentile_us(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t idx = static_cast<size_t>(p / 100.0 * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return v[idx];
}

uint16_t port_from_file(const std::string& path) {
  const double deadline = now_s() + 15.0;
  for (;;) {
    std::ifstream f(path);
    int port = 0;
    if (f && (f >> port) && port > 0 && port < 65536)
      return static_cast<uint16_t>(port);
    if (now_s() > deadline) {
      std::fprintf(stderr, "error: no port appeared in %s within 15s\n",
                   path.c_str());
      std::exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1", port_file, ckpt_path;
  std::string model_spec = "mlp:64,3";
  int port = 0, requests = 0;
  uint64_t deadline_us = 0;
  bool smoke = false, scenario_flag_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc)
      host = argv[++i];
    else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc)
      port = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc)
      port_file = argv[++i];
    else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc)
      model_spec = argv[++i];
    else if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc)
      ckpt_path = argv[++i];
    else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      requests = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--deadline-us") == 0 && i + 1 < argc)
      deadline_us = static_cast<uint64_t>(std::atoll(argv[++i]));
    else if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strncmp(argv[i], "--scenario=", 11) == 0)
      scenario_flag_given = true;
  }
  EngineCliArgs eng = parse_engine_cli(argc, argv);
  if (requests <= 0) requests = smoke ? 240 : 2000;
  const int clients = std::max(1, eng.serve_clients);
  if (port == 0 && port_file.empty()) {
    std::fprintf(stderr, "error: pass --port N or --port-file PATH\n");
    return 1;
  }
  if (port == 0) port = port_from_file(port_file);

  // Resolve the model and scenario the same way serve_daemon does, so
  // pointing both at the same checkpoint yields matching configurations.
  ModelSpec model = ModelSpec::parse_or_die(model_spec);
  if (!ckpt_path.empty()) {
    try {
      const CheckpointMeta meta = read_checkpoint_meta(ckpt_path);
      if (!meta.model.empty()) model = ModelSpec::parse_or_die(meta.model);
      if (!scenario_flag_given && !meta.scenario.empty())
        eng.scenario = meta.scenario;
    } catch (const CheckpointError& e) {
      std::fprintf(stderr, "error: %s: %s\n", ckpt_path.c_str(), e.what());
      return 1;
    }
  }

  // Offline references, computed locally: the bitwise anchor. The daemon
  // never sees these — agreement must come from the arithmetic itself.
  std::vector<Tensor> refs;
  {
    EmuEngine engine = engine_or_die(eng);
    std::unique_ptr<Sequential> net = model.build();
    if (!ckpt_path.empty()) load_checkpoint(ckpt_path, *net);
    for (int s = 0; s < kSamplePool; ++s)
      refs.push_back(net->forward(engine.context(), model.sample(s), false));
  }

  std::printf("loadgen: %s:%d model=%s scenario=%s clients=%d requests=%d\n",
              host.c_str(), port, model.name.c_str(), eng.scenario.c_str(),
              clients, requests);

  std::atomic<int> next{0};
  std::atomic<int> completed{0}, failed{0};
  std::atomic<bool> mismatch{false};
  std::mutex lat_m;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<size_t>(requests));

  auto client = [&] {
    try {
      WireClient conn(host, static_cast<uint16_t>(port), eng.scenario,
                      model.name);
      std::vector<double> local;
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests) break;
        const int s = i % kSamplePool;
        const double t0 = now_s();
        try {
          const InferResult r = conn.infer(model.sample(s), deadline_us);
          local.push_back((now_s() - t0) * 1e6);
          if (r.output.numel() != refs[s].numel() ||
              std::memcmp(r.output.data(), refs[s].data(),
                          static_cast<size_t>(r.output.numel()) *
                              sizeof(float)) != 0)
            mismatch.store(true, std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const ServeException&) {
          // A typed serving failure (deadline, shed, ...) is a resolved
          // request; a transport failure below is not.
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(lat_m);
      latencies_us.insert(latencies_us.end(), local.begin(), local.end());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: wire client died: %s\n", e.what());
      std::exit(1);
    }
  };

  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client);
  for (auto& t : threads) t.join();
  const double wall = now_s() - t0;

  if (mismatch.load()) {
    std::fprintf(stderr,
                 "error: served output diverged from the offline forward\n");
    return 1;
  }
  if (completed.load() + failed.load() != requests) {
    std::fprintf(stderr, "error: %d of %d requests unaccounted for\n",
                 requests - completed.load() - failed.load(), requests);
    return 1;
  }

  const double req_per_s = completed.load() / wall;
  const double p50 = percentile_us(latencies_us, 50);
  const double p95 = percentile_us(latencies_us, 95);
  const double p99 = percentile_us(latencies_us, 99);
  std::printf("loadgen: %d completed, %d failed in %.3fs — %.1f req/s, "
              "p50 %.0fus p95 %.0fus p99 %.0fus (client-side)\n",
              completed.load(), failed.load(), wall, req_per_s, p50, p95,
              p99);
  return 0;
}
