// Per-layer throughput bench (ROADMAP candidate): Conv2d and Linear
// forward+backward at ResNet-20 CIFAR shapes, measured through the engine's
// shared telemetry counters — the same sink the training stack records
// into — and written as BENCH_layers.json alongside the BENCH_gemm.json
// workflow.
//
// Usage: bench_layers [--smoke] [--json PATH] [engine flags]
//   --smoke          tiny batch/reps for CI
//   --json PATH      output path (default BENCH_layers.json)
//   --scenario=SPEC, --backend=NAME, --threads=N, --seed=N, --hfp8
//                    the common engine CLI (src/engine/cli.hpp)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/cli.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "rng/xoshiro.hpp"

using namespace srmac;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LayerCase {
  std::string name;
  std::unique_ptr<Layer> layer;
  std::vector<int> in_shape;  // including batch
};

struct Row {
  std::string name;
  std::string pass;      // "fwd" or "bwd"
  uint64_t gemm_macs = 0;
  uint64_t gemms = 0;
  uint64_t bytes_quantized = 0;
  double gemm_seconds = 0;   // telemetry: time inside the backend
  double wall_seconds = 0;   // whole layer call (im2col, reorders, ...)
  double mmac_per_s = 0;     // gemm_macs / gemm_seconds
};

Tensor random_tensor(const std::vector<int>& shape, uint64_t seed) {
  Tensor t(shape);
  Xoshiro256 rng(seed);
  for (int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal());
  return t;
}

Row from_snapshot(const std::string& name, const std::string& pass,
                  const TelemetrySnapshot& snap, double wall, int reps) {
  Row r;
  r.name = name;
  r.pass = pass;
  r.gemm_macs = snap.macs / reps;
  r.gemms = snap.gemms / reps;
  r.bytes_quantized = snap.bytes_quantized / reps;
  r.gemm_seconds = snap.seconds / reps;
  r.wall_seconds = wall / reps;
  r.mmac_per_s =
      r.gemm_seconds > 0 ? static_cast<double>(r.gemm_macs) / r.gemm_seconds / 1e6
                         : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_layers.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  EmuEngine engine = engine_or_die(parse_engine_cli(argc, argv));

  const int batch = smoke ? 2 : 8;
  const int reps = smoke ? 1 : 3;

  // ResNet-20 on CIFAR: the stem, one conv of each stage, and the head.
  std::vector<LayerCase> cases;
  cases.push_back({"stem3x3_3to16_32x32",
                   std::make_unique<Conv2d>(3, 16, 3), {batch, 3, 32, 32}});
  cases.push_back({"stage1_3x3_16to16_32x32",
                   std::make_unique<Conv2d>(16, 16, 3), {batch, 16, 32, 32}});
  cases.push_back({"stage2_3x3_32to32_16x16",
                   std::make_unique<Conv2d>(32, 32, 3), {batch, 32, 16, 16}});
  cases.push_back({"stage3_3x3_64to64_8x8",
                   std::make_unique<Conv2d>(64, 64, 3), {batch, 64, 8, 8}});
  cases.push_back({"fc_64to10", std::make_unique<Linear>(64, 10), {batch, 64}});

  std::printf("Per-layer throughput, %s, batch %d (%s)\n",
              engine.describe().c_str(), batch, smoke ? "smoke" : "full");
  std::printf("%-26s %5s %12s %10s %12s %12s\n", "layer", "pass", "GEMM MACs",
              "GEMMs", "MMAC/s", "wall ms");

  std::vector<Row> rows;
  for (LayerCase& c : cases) {
    he_init(*c.layer, 0xBE7C);
    const Tensor x = random_tensor(c.in_shape, 99);
    const ComputeContext ctx = engine.context();

    // Warm-up (pool spin-up, product table, weight-plane quantization).
    Tensor out = c.layer->forward(ctx, x, /*training=*/true);
    Tensor gout(out.shape(), 1.0f);
    c.layer->backward(ctx.backward(), gout);

    engine.telemetry().reset();
    double t0 = now_s();
    for (int i = 0; i < reps; ++i) c.layer->forward(ctx, x, /*training=*/true);
    double wall = now_s() - t0;
    rows.push_back(from_snapshot(c.name, "fwd", engine.telemetry().snapshot(),
                                 wall, reps));

    engine.telemetry().reset();
    t0 = now_s();
    for (int i = 0; i < reps; ++i) c.layer->backward(ctx.backward(), gout);
    wall = now_s() - t0;
    rows.push_back(from_snapshot(c.name, "bwd", engine.telemetry().snapshot(),
                                 wall, reps));
  }

  for (const Row& r : rows)
    std::printf("%-26s %5s %12llu %10llu %12.1f %12.3f\n", r.name.c_str(),
                r.pass.c_str(), static_cast<unsigned long long>(r.gemm_macs),
                static_cast<unsigned long long>(r.gemms), r.mmac_per_s,
                1e3 * r.wall_seconds);

  std::ofstream js(json_path);
  if (!js) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 json_path.c_str());
    return 1;
  }
  js << "{\n  \"bench\": \"layers\",\n";
  js << "  \"engine\": \"" << engine.describe() << "\",\n";
  js << "  \"batch\": " << batch << ",\n";
  js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  js << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    js << "    {\"layer\": \"" << r.name << "\", \"pass\": \"" << r.pass
       << "\", \"gemm_macs\": " << r.gemm_macs << ", \"gemms\": " << r.gemms
       << ", \"bytes_quantized\": " << r.bytes_quantized
       << ", \"gemm_seconds\": " << r.gemm_seconds
       << ", \"wall_seconds\": " << r.wall_seconds
       << ", \"mmac_per_s\": " << r.mmac_per_s << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  js.flush();
  if (!js) {
    std::fprintf(stderr, "error: failed writing %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
