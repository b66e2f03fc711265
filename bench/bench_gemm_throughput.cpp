// Throughput benchmark of the fused emulation engine against the seed
// per-element MacUnit reference, on the paper's reference configuration
// (E5M2 multiplier inputs, E6M5 accumulator, eager SR). Reports MMAC/s for
// single- and multi-threaded runs and writes BENCH_gemm.json so the perf
// trajectory is tracked across PRs (see docs/PERF.md).
//
// Usage: bench_gemm_throughput [--smoke] [--json PATH] [engine flags]
//   --smoke          small problem size for CI (correctness of the harness,
//                    not publishable numbers)
//   --json PATH      output path (default BENCH_gemm.json in the workdir)
//   --scenario=SPEC  MAC configuration (default the paper's reference MAC)
//   --backend=NAME   bench one registry backend against the reference
//                    instead of the default fused-vs-reference pair — the
//                    CI backend smoke loops this over every built-in
//   --batch=N        with --backend: also run N problems sharing one B
//                    plane as one MatmulBatch and report the batch speedup
//                    over the N sequential matmul() dispatches
//   --threads=N      thread count of the multi-thread rows (default 0 =
//                    the pool's parallelism; 1 drops them, leaving only the
//                    single-thread rows)
//   --seed=N         base seed of the kernels' per-element LFSRs
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/cli.hpp"
#include "engine/compute_context.hpp"
#include "engine/registry.hpp"
#include "mac/gemm.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/thread_pool.hpp"

using namespace srmac;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Result {
  std::string path;
  int threads = 1;
  double seconds = 0;
  double mmacs = 0;  // million MAC steps per second
};

template <typename Fn>
Result run_case(const std::string& path, int threads, int m, int n, int k,
                int reps, Fn&& fn) {
  // One warm-up rep (thread pool spin-up, product-table build), then the
  // best of `reps` timed runs.
  fn(threads);
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn(threads);
    best = std::min(best, now_s() - t0);
  }
  Result r;
  r.path = path;
  r.threads = threads;
  r.seconds = best;
  r.mmacs = static_cast<double>(m) * n * k / best / 1e6;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int batch = 0;
  std::string json_path = "BENCH_gemm.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strncmp(argv[i], "--batch=", 8) == 0)
      batch = std::atoi(argv[i] + 8);
  }
  const EngineCliArgs eng = parse_engine_cli(argc, argv);

  const int M = smoke ? 48 : 256, N = smoke ? 48 : 256, K = smoke ? 48 : 256;
  const int reps = smoke ? 1 : 3;
  const int hw = ThreadPool::global().parallelism();
  const int mt = eng.threads > 0 ? eng.threads : hw;  // multi-thread rows
  const uint64_t seed = eng.seed;

  // Default: the paper's reference MAC (E5M2 inputs, E6M5 acc, eager SR).
  std::string error;
  const auto parsed = MacConfig::parse(eng.scenario, &error);
  if (!parsed) {
    std::fprintf(stderr, "error: %s\n%s", error.c_str(), engine_cli_usage());
    return 2;
  }
  const MacConfig cfg = *parsed;

  Xoshiro256 rng(42);
  std::vector<float> A(static_cast<size_t>(M) * K);
  std::vector<float> B(static_cast<size_t>(K) * N);
  std::vector<float> C(static_cast<size_t>(M) * N);
  for (auto& v : A) v = static_cast<float>(rng.normal());
  for (auto& v : B) v = static_cast<float>(rng.normal());

  auto fast = [&](int threads) {
    gemm_mac(cfg, M, N, K, A.data(), K, B.data(), N, C.data(), N, false, seed,
             threads);
  };
  auto reference = [&](int threads) {
    gemm_mac_reference(cfg, M, N, K, A.data(), K, B.data(), N, C.data(), N,
                       false, seed, threads);
  };

  std::vector<Result> results;
  if (eng.backend.empty()) {
    results.push_back(run_case("reference", 1, M, N, K, reps, reference));
    results.push_back(run_case("fast", 1, M, N, K, reps, fast));
    if (mt > 1) {
      results.push_back(run_case("reference", mt, M, N, K, reps, reference));
      results.push_back(run_case("fast", mt, M, N, K, reps, fast));
    }
  } else {
    // Registry mode: one named backend through the MatmulBackend dispatch,
    // against the reference baseline.
    const MatmulBackend* backend = nullptr;
    try {
      backend = BackendRegistry::instance().get(eng.backend);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    auto via_backend = [&](int threads) {
      GemmArgs a;
      a.M = M;
      a.N = N;
      a.K = K;
      a.A = A.data();
      a.lda = K;
      a.B = B.data();
      a.ldb = N;
      a.C = C.data();
      a.ldc = N;
      a.seed = seed;
      a.threads = threads;
      backend->gemm(cfg, a);
    };
    results.push_back(run_case("reference", 1, M, N, K, reps, reference));
    results.push_back(run_case(backend->name(), 1, M, N, K, reps, via_backend));
    if (mt > 1) {
      // Reference at the same thread count, so the multi-thread row's
      // speedup_vs_reference stays meaningful in BENCH_gemm.json.
      results.push_back(run_case("reference", mt, M, N, K, reps, reference));
      results.push_back(
          run_case(backend->name(), mt, M, N, K, reps, via_backend));
    }
    if (batch > 1) {
      // Batch mode: `batch` problems over the same operands (one shared B
      // plane — the weight-plane fan-out pattern) with distinct seeds and
      // outputs, run once through MatmulBatch (one problem per pool
      // thread) vs looped through matmul(). The MAC total is
      // batch * M*N*K; rows compare the two schedules.
      std::vector<std::vector<float>> Cs(batch,
                                         std::vector<float>(C.size()));
      const ComputeContext base =
          ComputeContext::with_backend(eng.backend, QuantPolicy::uniform(cfg));
      auto problem = [&](int b, int threads) {
        ComputeContext c = base;
        c.seed = seed + static_cast<uint64_t>(b);
        c.threads = threads;
        return c;
      };
      auto seq = [&](int threads) {
        for (int b = 0; b < batch; ++b)
          matmul(problem(b, threads), M, N, K, A.data(), B.data(),
                 Cs[b].data());
      };
      auto batched = [&](int threads) {
        MatmulBatch mb(problem(0, threads));
        for (int b = 0; b < batch; ++b)
          mb.add(problem(b, threads), M, N, K, A.data(), B.data(),
                 Cs[b].data());
        mb.flush();
      };
      const std::string tag = "x" + std::to_string(batch);
      results.push_back(
          run_case("seq" + tag, 1, M, N, K * batch, reps, seq));
      results.push_back(
          run_case("batch" + tag, 1, M, N, K * batch, reps, batched));
      if (mt > 1) {
        results.push_back(
            run_case("seq" + tag, mt, M, N, K * batch, reps, seq));
        results.push_back(
            run_case("batch" + tag, mt, M, N, K * batch, reps, batched));
      }
    }
  }

  auto find = [&](const std::string& path, int threads) -> const Result* {
    for (const auto& r : results)
      if (r.path == path && r.threads == threads) return &r;
    return nullptr;
  };
  // Batch rows compare against the sequential loop over the same problems;
  // everything else against the seed reference at the same thread count.
  auto base_of = [&](const Result& r) -> const Result* {
    if (r.path.rfind("batchx", 0) == 0)
      return find("seq" + r.path.substr(5), r.threads);
    if (r.path.rfind("seqx", 0) == 0) return find(r.path, r.threads);
    return find("reference", r.threads);
  };

  std::printf("gemm_mac throughput, %dx%dx%d %s (%s)\n", M, N, K,
              cfg.name().c_str(), smoke ? "smoke" : "full");
  std::printf("%-10s %8s %12s %12s %9s\n", "path", "threads", "seconds",
              "MMAC/s", "speedup");
  for (const auto& r : results) {
    const Result* base = base_of(r);
    std::printf("%-10s %8d %12.4f %12.1f %8.2fx\n", r.path.c_str(), r.threads,
                r.seconds, r.mmacs, base ? base->seconds / r.seconds : 1.0);
  }

  std::ofstream js(json_path);
  if (!js) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 json_path.c_str());
    return 1;
  }
  js << "{\n  \"bench\": \"gemm_throughput\",\n";
  js << "  \"config\": \"" << cfg.name() << "\",\n";
  js << "  \"scenario\": \"" << cfg.to_string() << "\",\n";
  js << "  \"mul_fmt\": \"" << cfg.mul_fmt.name() << "\",\n";
  js << "  \"acc_fmt\": \"" << cfg.acc_fmt.name() << "\",\n";
  js << "  \"m\": " << M << ", \"n\": " << N << ", \"k\": " << K << ",\n";
  js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  js << "  \"hardware_parallelism\": " << hw << ",\n";
  js << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const Result* base = base_of(r);
    js << "    {\"path\": \"" << r.path << "\", \"threads\": " << r.threads
       << ", \"seconds\": " << r.seconds << ", \"mmac_per_s\": " << r.mmacs
       << ", \"speedup_vs_reference\": "
       << (base ? base->seconds / r.seconds : 1.0) << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
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
