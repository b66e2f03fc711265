// Serving demo: an EmuServer session hosting ResNet-20, driven by
// concurrent clients — the request-level entry point over the emulation
// stack (docs/SERVING.md).
//
//  1. Build a (width-reduced) ResNet-20 and an EmuEngine scenario.
//  2. Start the server: the model is lowered into a compiled program at
//     construction; a bounded admission queue + dynamic micro-batcher feed
//     it, and each GEMM op runs the whole micro-batch as one wide kernel.
//  3. Fire closed-loop clients at it and read the serving telemetry:
//     requests/sec, coalesced batch sizes, p50/p95/p99 latency.
//  4. Verify a served output is bitwise identical to the same sample run
//     offline — coalescing changes scheduling, never bits.
//
// Usage: serve_resnet20 [--requests N] [--checkpoint=FILE]
//                       [engine flags incl. --serve-*]
//   defaults: 64 requests, --serve-clients=8 clients, --serve-batch=16,
//   the default backend "sharded" (the compiler rejects "reference" and
//   "systolic", which then serve one sample at a time).
//   --checkpoint=FILE serves FILE's weights instead of the deterministic
//   init (the architecture here stays this example's ResNet-20 — the file
//   must have been saved from a matching one, e.g. by this example's zoo
//   tag "resnet20:32"), and adopts the file's pinned scenario unless
//   --scenario= is also given (docs/PERSISTENCE.md).
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/cli.hpp"
#include "io/checkpoint.hpp"
#include "nn/init.hpp"
#include "nn/resnet.hpp"
#include "rng/xoshiro.hpp"
#include "serve/emu_server.hpp"

using namespace srmac;

namespace {

std::string g_ckpt_path;  // --checkpoint=FILE ("" = deterministic init)

std::unique_ptr<Sequential> make_model() {
  auto net = make_resnet20(10, /*width_mult=*/0.25f);
  he_init(*net, 0xBE7C);
  if (!g_ckpt_path.empty()) load_checkpoint(g_ckpt_path, *net);
  return net;
}

Tensor make_sample(int i) {
  Tensor x({1, 3, 32, 32});
  Xoshiro256 rng(900 + static_cast<uint64_t>(i));
  for (int64_t j = 0; j < x.numel(); ++j)
    x[j] = static_cast<float>(rng.normal());
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 64;
  bool scenario_flag_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      requests = std::atoi(argv[++i]);
    else if (std::strncmp(argv[i], "--checkpoint=", 13) == 0)
      g_ckpt_path = argv[i] + 13;
    else if (std::strncmp(argv[i], "--scenario=", 11) == 0)
      scenario_flag_given = true;
  }
  EngineCliArgs eng = parse_engine_cli(argc, argv);
  eng.serve_clients = std::max(1, std::min(eng.serve_clients, 8));
  if (!g_ckpt_path.empty()) {
    try {
      const CheckpointMeta meta = read_checkpoint_meta(g_ckpt_path);
      if (!scenario_flag_given && !meta.scenario.empty())
        eng.scenario = meta.scenario;  // adopt the pinned arithmetic
      std::printf("serving weights from %s (format v%u, scenario %s)\n",
                  g_ckpt_path.c_str(), meta.format_version,
                  eng.scenario.c_str());
    } catch (const CheckpointError& e) {
      std::fprintf(stderr, "error: %s: %s\n", g_ckpt_path.c_str(), e.what());
      return 1;
    }
  }

  // Offline reference for the bitwise check, on the same configuration.
  const Tensor probe = make_sample(0);
  Tensor ref;
  try {
    EmuEngine offline = engine_or_die(eng);
    ref = make_model()->forward(offline.context(), probe, false);
  } catch (const CheckpointError& e) {
    std::fprintf(stderr, "error: %s: %s\n", g_ckpt_path.c_str(), e.what());
    return 1;
  }

  ServeConfig cfg;
  cfg.max_batch = std::max(1, eng.serve_batch);
  cfg.max_wait_us = eng.serve_wait_us;
  cfg.input_shape = {3, 32, 32};  // reject wrong-shaped requests at submit
  EmuEngine engine = engine_or_die(eng);
  std::printf("serving ResNet-20 (width 0.25) on %s\n",
              engine.describe().c_str());
  std::printf("  max_batch=%d max_wait=%lluus clients=%d requests=%d\n",
              cfg.max_batch,
              static_cast<unsigned long long>(cfg.max_wait_us),
              eng.serve_clients, requests);
  EmuServer server(make_model(), std::move(engine), cfg);

  // Closed-loop clients: each keeps exactly one request in flight.
  std::atomic<int> next{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < eng.serve_clients; ++c)
    clients.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= requests) break;
        server.submit(make_sample(i % 32)).get();
      }
    });
  for (auto& t : clients) t.join();

  // One more request through the running server, checked against offline.
  const InferResult checked = server.submit(probe).get();
  const bool bitwise =
      checked.output.numel() == ref.numel() &&
      std::memcmp(checked.output.data(), ref.data(),
                  static_cast<size_t>(ref.numel()) * sizeof(float)) == 0;

  const TelemetrySnapshot snap = server.telemetry();
  std::printf("\n== serving telemetry ==\n");
  std::printf("  requests: %llu in %llu micro-batches (mean batch %.2f)\n",
              static_cast<unsigned long long>(snap.serve_requests),
              static_cast<unsigned long long>(snap.serve_batches),
              snap.serve_mean_batch());
  std::printf("  latency: p50 %.0fus  p95 %.0fus  p99 %.0fus\n",
              snap.serve_latency_percentile_us(50),
              snap.serve_latency_percentile_us(95),
              snap.serve_latency_percentile_us(99));
  std::printf("  batch-size histogram:");
  for (size_t s = 1; s < snap.serve_batch_hist.size(); ++s)
    if (snap.serve_batch_hist[s])
      std::printf("  %zux%llu", s,
                  static_cast<unsigned long long>(snap.serve_batch_hist[s]));
  std::printf("\n  served output vs offline forward: %s\n",
              bitwise ? "bitwise identical" : "MISMATCH");
  return bitwise ? 0 : 1;
}
