// Closed-loop serving benchmark: drives an EmuServer session with
// concurrent clients and compares request-at-a-time serving (max_batch=1)
// against dynamic micro-batching (max_batch=N; each GEMM op of the compiled
// program runs the micro-batch as one wide kernel, docs/SERVING.md) on the
// same model, scenario, and backend — the request-level workload the
// ROADMAP's serving milestone asks for. Writes BENCH_serve.json for the
// perf-tracking workflow (docs/PERF.md, docs/SERVING.md); the CI regression
// gate floors the batched row and the batchN/batch1 speedup.
//
// Every client verifies its responses bitwise against an offline forward
// of the same sample on the same engine configuration, so a throughput win
// can never come from changed arithmetic.
//
// A "wireN" leg re-runs the batched configuration behind a WireServer on a
// loopback ephemeral port, every client holding its own WireClient
// connection — pricing the length-prefixed framing + TCP round trip
// against the in-process submit() path (docs/PERSISTENCE.md has the frame
// layout). The cross-process flavor of the same measurement lives in
// bench/loadgen.cpp, which drives an external serve_daemon.
//
// A "classesN" leg drives the same session with three priority classes
// (gold/silver/bronze, weighted 4/2/1) and reports per-class latency
// percentiles in the row's "class_lat" array — the admission-ordering
// measurement the SLO floors in bench_floors.json gate.
//
// With --serve-replicas=N (N > 1) a "fleetN" leg additionally drives a
// ClusterController fleet of N replicas through the same closed loop, and
// --chaos adds a "chaosN" leg where a deterministic FaultInjector delays,
// fails, and finally kills one replica mid-run: every request must still
// resolve (a bitwise-verified result or a typed ServeError — a hang fails
// the bench), and the JSON row carries the fleet's shed/retry/deadline/
// breaker counters plus per-replica stats (docs/SERVING.md).
//
// Usage: bench_serve [--smoke] [--json PATH] [--model SPEC] [--requests N]
//                    [--reps N] [--chaos] [--leg NAME]
//                    [engine flags incl. --serve-*]
//   --leg NAME       stamp a file-level "leg" key into the JSON so the
//                    regression gate can scope floors to one CI matrix leg
//                    (e.g. the multicore runner's class-SLO floors)
//   --model SPEC     model-zoo grammar (nn/model_zoo.hpp): mlp:W,D
//                    (default mlp:64,3), resnet20[:S], vgg_mini:C,B[,S]
//   --requests N     total requests per leg (default 2000; smoke 240)
//   --reps N         repetitions per leg, best kept; telemetry resets per
//                    repetition so every JSON row is per-run (default 3/1)
//   --chaos          add the fault-injection leg (3 replicas unless
//                    --serve-replicas says otherwise)
//   --serve-batch=N  coalescing cap of the batched leg (default 16)
//   --serve-wait-us=N, --serve-clients=N, --serve-replicas=N,
//   --serve-deadline-us=N, --serve-slo-us=N, --scenario, --backend, ...
//                    the common engine CLI (src/engine/cli.hpp)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/cli.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"
#include "nn/model_zoo.hpp"
#include "serve/cluster_controller.hpp"
#include "serve/emu_server.hpp"
#include "serve/fault_injector.hpp"

using namespace srmac;

namespace {

constexpr int kSamplePool = 16;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The model comes from the shared zoo (nn/model_zoo.hpp): the same spec
// grammar, deterministic init, and sample stream every serving front end
// uses — which is what lets the wire leg verify responses against offline
// forwards computed in this process.

/// Per-priority-class latency summary for the "classesN" leg row.
struct ClassLat {
  std::string name;
  int priority = 0;
  int requests = 0;
  double p50_us = 0, p95_us = 0;
  uint64_t slo_us = 0;
  double completed_fraction = 0;
};

struct LegResult {
  std::string path;  // "batch1" / "batch16" / "wire16" / "fleet3" / "chaos3"
  int max_batch = 1;
  int requests = 0;
  double seconds = 0;
  double req_per_s = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  double mean_batch = 0;
  uint64_t batches = 0;
  // Fleet/chaos accounting (single-session legs: completed == requests).
  int replicas = 1;
  int completed = 0;
  int failed = 0;  ///< resolved with a typed ServeError
  uint64_t sheds = 0, retries = 0, deadline_misses = 0;
  uint64_t breaker_transitions = 0, failed_batches = 0, faults_injected = 0;
  std::vector<ServeReplicaStats> replica_stats;
  std::vector<ClassLat> class_lat;  ///< per-class summary (classesN only)
};

/// Client-side latency percentile over a sample set (the serving-session
/// reservoir covers the whole leg; the classes leg needs them per class).
double percentile_us(std::vector<double> us, int pct) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  size_t rank = (us.size() * static_cast<size_t>(pct) + 99) / 100;
  if (rank > 0) --rank;
  return us[rank];
}

/// One serving leg: `clients` closed-loop threads push `requests` total
/// requests through a fresh session; every response is verified bitwise
/// against `refs`. Repeated `reps` times (telemetry reset per repetition);
/// the best-throughput repetition is reported.
LegResult run_leg(const std::string& path, const ModelSpec& model,
                  const EngineCliArgs& eng, int max_batch, int clients,
                  int requests, int reps, const std::vector<Tensor>& refs) {
  LegResult best;
  best.path = path;
  best.max_batch = max_batch;
  best.requests = requests;
  for (int rep = 0; rep < reps; ++rep) {
    ServeConfig cfg;
    cfg.max_batch = max_batch;
    cfg.max_wait_us = eng.serve_wait_us;
    cfg.queue_capacity = static_cast<size_t>(std::max(64, 4 * clients));
    cfg.input_shape = model.input_shape();
    EmuEngine engine = engine_or_die(eng);
    Telemetry& telemetry = engine.telemetry();
    EmuServer server(model.build(), std::move(engine), cfg);

    // Warm-up (weight-plane quantization, product table, pool spin-up),
    // then reset so the recorded counters cover exactly this repetition.
    server.submit(model.sample(0)).get();
    telemetry.reset();

    std::atomic<int> next{0};
    std::atomic<bool> mismatch{false};
    auto client = [&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests) return;
        const int s = i % kSamplePool;
        const InferResult r = server.submit(model.sample(s)).get();
        if (r.output.numel() != refs[s].numel() ||
            std::memcmp(r.output.data(), refs[s].data(),
                        static_cast<size_t>(r.output.numel()) *
                            sizeof(float)) != 0)
          mismatch.store(true, std::memory_order_relaxed);
      }
    };
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client);
    for (auto& t : threads) t.join();
    const double wall = now_s() - t0;

    if (mismatch.load()) {
      std::fprintf(stderr,
                   "error: served output diverged from the offline forward "
                   "(leg %s)\n",
                   path.c_str());
      std::exit(1);
    }
    const TelemetrySnapshot snap = server.telemetry();
    LegResult r;
    r.path = path;
    r.max_batch = max_batch;
    r.requests = requests;
    r.seconds = wall;
    r.req_per_s = requests / wall;
    r.p50_us = snap.serve_latency_percentile_us(50);
    r.p95_us = snap.serve_latency_percentile_us(95);
    r.p99_us = snap.serve_latency_percentile_us(99);
    r.mean_batch = snap.serve_mean_batch();
    r.batches = snap.serve_batches;
    if (r.req_per_s > best.req_per_s) best = r;
  }
  best.completed = best.requests;
  return best;
}

/// Classes leg: the batched session under three priority classes
/// (gold/silver/bronze weighted 4/2/1, request i in class i % 3), with
/// client-side latency measured per class. Everything completes — the
/// single healthy session never sheds — so the row's per-class
/// completed_fraction floors catch a class silently starving, and the
/// per-class p95 ceilings catch weighted admission inverting (bronze
/// beating gold would show up here long before users notice).
LegResult run_classes_leg(const std::string& path, const ModelSpec& model,
                          const EngineCliArgs& eng, int max_batch,
                          int clients, int requests, int reps,
                          const std::vector<Tensor>& refs) {
  const std::vector<PriorityClass> classes = {
      {"gold", 4, eng.serve_slo_us, 0, 1.0},
      {"silver", 2, eng.serve_slo_us ? 2 * eng.serve_slo_us : 0, 0, 1.0},
      {"bronze", 1, 0, 0, 0.5}};
  LegResult best;
  best.path = path;
  best.max_batch = max_batch;
  best.requests = requests;
  for (int rep = 0; rep < reps; ++rep) {
    ServeConfig cfg;
    cfg.max_batch = max_batch;
    cfg.max_wait_us = eng.serve_wait_us;
    cfg.queue_capacity = static_cast<size_t>(std::max(64, 4 * clients));
    cfg.input_shape = model.input_shape();
    cfg.classes = classes;
    EmuEngine engine = engine_or_die(eng);
    Telemetry& telemetry = engine.telemetry();
    EmuServer server(model.build(), std::move(engine), cfg);
    server.submit(model.sample(0)).get();
    telemetry.reset();

    std::atomic<int> next{0};
    std::atomic<bool> mismatch{false};
    // Slot i of the latency table belongs to request i (class i % 3): no
    // locking, and the per-class split falls out of the index.
    std::vector<double> lat_us(static_cast<size_t>(requests), 0.0);
    auto client = [&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests) return;
        const int s = i % kSamplePool;
        SubmitMeta meta;
        meta.priority = i % static_cast<int>(classes.size());
        const double t0 = now_s();
        std::future<InferResult> fut;
        Tensor x = model.sample(s);
        if (!server.try_submit(x, &fut, meta)) {
          fut = server.submit(std::move(x), meta);
        }
        const InferResult r = fut.get();
        lat_us[static_cast<size_t>(i)] = (now_s() - t0) * 1e6;
        if (r.output.numel() != refs[s].numel() ||
            std::memcmp(r.output.data(), refs[s].data(),
                        static_cast<size_t>(r.output.numel()) *
                            sizeof(float)) != 0)
          mismatch.store(true, std::memory_order_relaxed);
      }
    };
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client);
    for (auto& t : threads) t.join();
    const double wall = now_s() - t0;

    if (mismatch.load()) {
      std::fprintf(stderr,
                   "error: served output diverged from the offline forward "
                   "(leg %s)\n",
                   path.c_str());
      std::exit(1);
    }
    const TelemetrySnapshot snap = server.telemetry();
    LegResult r;
    r.path = path;
    r.max_batch = max_batch;
    r.requests = requests;
    r.seconds = wall;
    r.req_per_s = requests / wall;
    r.p50_us = snap.serve_latency_percentile_us(50);
    r.p95_us = snap.serve_latency_percentile_us(95);
    r.p99_us = snap.serve_latency_percentile_us(99);
    r.mean_batch = snap.serve_mean_batch();
    r.batches = snap.serve_batches;
    for (size_t c = 0; c < classes.size(); ++c) {
      std::vector<double> cls_lat;
      for (int i = static_cast<int>(c); i < requests;
           i += static_cast<int>(classes.size()))
        cls_lat.push_back(lat_us[static_cast<size_t>(i)]);
      ClassLat cl;
      cl.name = classes[c].name;
      cl.priority = static_cast<int>(c);
      cl.requests = static_cast<int>(cls_lat.size());
      cl.p50_us = percentile_us(cls_lat, 50);
      cl.p95_us = percentile_us(cls_lat, 95);
      cl.slo_us = classes[c].slo_us;
      cl.completed_fraction = 1.0;  // single healthy session: no shedding
      r.class_lat.push_back(cl);
    }
    if (r.req_per_s > best.req_per_s) best = r;
  }
  best.completed = best.requests;
  return best;
}

/// Wire leg: the batched session again, but fronted by a WireServer on a
/// loopback ephemeral port, with every client thread holding its own
/// WireClient connection — so the row prices the full frame encode / TCP /
/// decode path against the in-process "batchN" row. Responses stay
/// bitwise-anchored to the same offline refs.
LegResult run_wire_leg(const std::string& path, const ModelSpec& model,
                       const EngineCliArgs& eng, int max_batch, int clients,
                       int requests, int reps,
                       const std::vector<Tensor>& refs) {
  LegResult best;
  best.path = path;
  best.max_batch = max_batch;
  best.requests = requests;
  for (int rep = 0; rep < reps; ++rep) {
    ServeConfig cfg;
    cfg.max_batch = max_batch;
    cfg.max_wait_us = eng.serve_wait_us;
    cfg.queue_capacity = static_cast<size_t>(std::max(64, 4 * clients));
    cfg.input_shape = model.input_shape();
    EmuEngine engine = engine_or_die(eng);
    Telemetry& telemetry = engine.telemetry();
    EmuServer server(model.build(), std::move(engine), cfg);

    WireServerConfig wcfg;
    wcfg.scenario = eng.scenario;
    wcfg.model = model.name;
    wcfg.input_shape = model.input_shape();
    WireServer wire(wire_submit(server), wcfg);

    {  // Warm up through the wire, then reset the counters.
      WireClient warm("127.0.0.1", wire.port(), eng.scenario, model.name);
      warm.infer(model.sample(0));
    }
    telemetry.reset();

    std::atomic<int> next{0};
    std::atomic<bool> mismatch{false};
    auto client = [&] {
      WireClient conn("127.0.0.1", wire.port(), eng.scenario, model.name);
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests) return;
        const int s = i % kSamplePool;
        const Tensor out = conn.infer(model.sample(s)).output;
        if (out.numel() != refs[s].numel() ||
            std::memcmp(out.data(), refs[s].data(),
                        static_cast<size_t>(out.numel()) * sizeof(float)) !=
                0)
          mismatch.store(true, std::memory_order_relaxed);
      }
    };
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client);
    for (auto& t : threads) t.join();
    const double wall = now_s() - t0;

    if (mismatch.load()) {
      std::fprintf(stderr,
                   "error: wire output diverged from the offline forward "
                   "(leg %s)\n",
                   path.c_str());
      std::exit(1);
    }
    wire.stop();
    server.stop();
    const TelemetrySnapshot snap = server.telemetry();
    LegResult r;
    r.path = path;
    r.max_batch = max_batch;
    r.requests = requests;
    r.seconds = wall;
    r.req_per_s = requests / wall;
    r.p50_us = snap.serve_latency_percentile_us(50);
    r.p95_us = snap.serve_latency_percentile_us(95);
    r.p99_us = snap.serve_latency_percentile_us(99);
    r.mean_batch = snap.serve_mean_batch();
    r.batches = snap.serve_batches;
    if (r.req_per_s > best.req_per_s) best = r;
  }
  best.completed = best.requests;
  return best;
}

/// Fleet leg: the same closed loop through a ClusterController of
/// `replicas` EmuServer sessions. With `chaos`, a deterministic
/// FaultInjector delays, then fails, then kills the highest-index replica
/// mid-run; clients tolerate typed ServeErrors (anything else — a hang, a
/// bitwise mismatch, an anonymous failure — fails the bench), and the
/// result row carries the fleet's robustness counters.
LegResult run_fleet_leg(const std::string& path, const ModelSpec& model,
                        const EngineCliArgs& eng, int max_batch, int clients,
                        int requests, int reps, const std::vector<Tensor>& refs,
                        int replicas, bool chaos) {
  LegResult best;
  best.path = path;
  best.max_batch = max_batch;
  best.requests = requests;
  best.replicas = replicas;
  for (int rep = 0; rep < reps; ++rep) {
    ClusterConfig ccfg;
    ccfg.replicas = replicas;
    ccfg.serve.max_batch = max_batch;
    ccfg.serve.max_wait_us = eng.serve_wait_us;
    ccfg.serve.queue_capacity = static_cast<size_t>(std::max(64, 4 * clients));
    ccfg.serve.input_shape = model.input_shape();
    ccfg.deadline_us = eng.serve_deadline_us;
    ccfg.slo_us = eng.serve_slo_us;
    FaultInjector injector;
    if (chaos) {
      // The chaos schedule, keyed on the victim's executed-batch sequence
      // (deterministic, no wall-clock): wedge it, fail it, kill it.
      const int victim = replicas - 1;
      injector.delay_batches(victim, /*from=*/1, /*to=*/3, /*delay_us=*/2000);
      injector.fail_batches(victim, /*from=*/3, /*to=*/5);
      injector.kill_at(victim, /*seq=*/5);
    }
    ClusterController cluster([&] { return model.build(); },
                              [&] { return engine_or_die(eng); }, ccfg,
                              /*clock=*/nullptr,
                              chaos ? &injector : nullptr);

    // Warm every replica (one request each lands on distinct replicas while
    // the others' admissions are still in flight), then reset the sinks.
    // The chaos schedule starts at batch 1, after this per-replica batch 0.
    std::vector<std::future<InferResult>> warm;
    for (int r = 0; r < replicas; ++r)
      warm.push_back(cluster.submit(model.sample(0)));
    for (auto& f : warm) f.get();
    cluster.reset_telemetry();

    std::atomic<int> next{0};
    std::atomic<int> completed{0}, failed{0};
    std::atomic<bool> mismatch{false};
    auto client = [&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests) return;
        const int s = i % kSamplePool;
        try {
          const InferResult r = cluster.submit(model.sample(s)).get();
          if (r.output.numel() != refs[s].numel() ||
              std::memcmp(r.output.data(), refs[s].data(),
                          static_cast<size_t>(r.output.numel()) *
                              sizeof(float)) != 0)
            mismatch.store(true, std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const ServeException&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client);
    for (auto& t : threads) t.join();
    const double wall = now_s() - t0;

    if (mismatch.load()) {
      std::fprintf(stderr,
                   "error: served output diverged from the offline forward "
                   "(leg %s)\n",
                   path.c_str());
      std::exit(1);
    }
    if (completed.load() + failed.load() != requests) {
      std::fprintf(stderr, "error: %d of %d requests unaccounted for (leg %s)\n",
                   requests - completed.load() - failed.load(), requests,
                   path.c_str());
      std::exit(1);
    }
    if (!chaos && failed.load() != 0) {
      std::fprintf(stderr,
                   "error: %d requests failed on a healthy fleet (leg %s)\n",
                   failed.load(), path.c_str());
      std::exit(1);
    }

    // Merge execution-side telemetry across the replicas; the latency
    // percentiles come from the concatenated per-replica reservoirs.
    TelemetrySnapshot merged;
    LegResult r;
    r.path = path;
    r.max_batch = max_batch;
    r.requests = requests;
    r.replicas = replicas;
    r.replica_stats.resize(static_cast<size_t>(replicas));
    for (int i = 0; i < replicas; ++i) {
      const TelemetrySnapshot snap = cluster.replica(static_cast<size_t>(i))
                                         .telemetry();
      merged.serve_batches += snap.serve_batches;
      merged.serve_requests += snap.serve_requests;
      merged.serve_latency_us.insert(merged.serve_latency_us.end(),
                                     snap.serve_latency_us.begin(),
                                     snap.serve_latency_us.end());
      r.failed_batches += snap.serve_failed_batches;
      r.deadline_misses += snap.serve_deadline_misses;
      if (static_cast<size_t>(i) < snap.serve_replicas.size())
        r.replica_stats[static_cast<size_t>(i)] =
            snap.serve_replicas[static_cast<size_t>(i)];
    }
    const TelemetrySnapshot cs = cluster.telemetry_snapshot();
    r.sheds = cs.serve_sheds;
    r.retries = cs.serve_retries;
    r.breaker_transitions = cs.serve_breaker_transitions;
    for (size_t i = 0; i < r.replica_stats.size() &&
                       i < cs.serve_replicas.size();
         ++i) {
      r.replica_stats[i].sheds = cs.serve_replicas[i].sheds;
      r.replica_stats[i].retries = cs.serve_replicas[i].retries;
      r.replica_stats[i].breaker_opens = cs.serve_replicas[i].breaker_opens;
      r.replica_stats[i].breaker_half_opens =
          cs.serve_replicas[i].breaker_half_opens;
      r.replica_stats[i].breaker_closes = cs.serve_replicas[i].breaker_closes;
    }
    r.completed = completed.load();
    r.failed = failed.load();
    r.faults_injected = injector.injected();
    r.seconds = wall;
    r.req_per_s = r.completed / wall;
    r.p50_us = merged.serve_latency_percentile_us(50);
    r.p95_us = merged.serve_latency_percentile_us(95);
    r.p99_us = merged.serve_latency_percentile_us(99);
    r.mean_batch = merged.serve_mean_batch();
    r.batches = merged.serve_batches;
    if (r.req_per_s > best.req_per_s) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, chaos = false;
  std::string json_path = "BENCH_serve.json";
  std::string model_spec = "mlp:64,3";
  std::string leg_tag;
  int requests = 0, reps = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--leg") == 0 && i + 1 < argc)
      leg_tag = argv[++i];
    else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc)
      model_spec = argv[++i];
    else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      requests = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::atoi(argv[++i]);
  }
  EngineCliArgs eng = parse_engine_cli(argc, argv);
  const ModelSpec model = ModelSpec::parse_or_die(model_spec);
  if (requests <= 0) requests = smoke ? 240 : 2000;
  if (reps <= 0) reps = smoke ? 1 : 3;
  const int clients = std::max(1, eng.serve_clients);
  const int batch = std::max(2, eng.serve_batch);
  const int replicas = std::max(1, eng.serve_replicas);
  // Chaos needs somewhere to reroute: at least 2 replicas (default 3).
  const int chaos_replicas = replicas > 1 ? replicas : 3;

  // Offline references on the same engine configuration: the bitwise
  // anchor every served response is checked against.
  std::vector<Tensor> refs;
  std::string backend;
  {
    EmuEngine engine = engine_or_die(eng);
    backend = engine.backend().name();
    std::unique_ptr<Sequential> net = model.build();
    for (int s = 0; s < kSamplePool; ++s)
      refs.push_back(net->forward(engine.context(), model.sample(s), false));
  }

  std::printf(
      "serve bench: model=%s backend=%s scenario=%s clients=%d "
      "requests=%d wait=%lluus (%s)\n",
      model.name.c_str(), backend.c_str(), eng.scenario.c_str(), clients,
      requests, static_cast<unsigned long long>(eng.serve_wait_us),
      smoke ? "smoke" : "full");

  const LegResult base = run_leg("batch1", model, eng, /*max_batch=*/1,
                                 clients, requests, reps, refs);
  const std::string tag = "batch" + std::to_string(batch);
  const LegResult coal =
      run_leg(tag, model, eng, batch, clients, requests, reps, refs);
  const double speedup = coal.req_per_s / base.req_per_s;
  const LegResult classes =
      run_classes_leg("classes" + std::to_string(batch), model, eng, batch,
                      clients, requests, reps, refs);
  const LegResult wire = run_wire_leg("wire" + std::to_string(batch), model,
                                      eng, batch, clients, requests, reps,
                                      refs);

  std::vector<const LegResult*> rows = {&base, &coal, &classes, &wire};
  LegResult fleet, wreck;
  if (replicas > 1) {
    fleet = run_fleet_leg("fleet" + std::to_string(replicas), model, eng,
                          batch, clients, requests, reps, refs, replicas,
                          /*chaos=*/false);
    rows.push_back(&fleet);
  }
  if (chaos) {
    wreck = run_fleet_leg("chaos" + std::to_string(chaos_replicas), model,
                          eng, batch, clients, requests, reps, refs,
                          chaos_replicas, /*chaos=*/true);
    rows.push_back(&wreck);
  }

  std::printf("%-10s %10s %10s %9s %9s %9s %11s %9s %7s\n", "path", "req/s",
              "p50 us", "p95 us", "p99 us", "batches", "mean batch", "done",
              "failed");
  for (const LegResult* r : rows)
    std::printf("%-10s %10.1f %10.1f %9.1f %9.1f %9llu %11.2f %9d %7d\n",
                r->path.c_str(), r->req_per_s, r->p50_us, r->p95_us,
                r->p99_us, static_cast<unsigned long long>(r->batches),
                r->mean_batch, r->completed, r->failed);
  std::printf("coalescing speedup (%s vs batch1): %.2fx\n", tag.c_str(),
              speedup);
  for (const ClassLat& cl : classes.class_lat)
    std::printf("class %-7s (w-pri %d): %5d req, p50 %8.1fus, p95 %8.1fus\n",
                cl.name.c_str(), cl.priority, cl.requests, cl.p50_us,
                cl.p95_us);
  if (chaos)
    std::printf(
        "chaos (%d replicas): %d completed, %d typed failures, %llu sheds, "
        "%llu retries, %llu breaker transitions, %llu faults injected\n",
        chaos_replicas, wreck.completed, wreck.failed,
        static_cast<unsigned long long>(wreck.sheds),
        static_cast<unsigned long long>(wreck.retries),
        static_cast<unsigned long long>(wreck.breaker_transitions),
        static_cast<unsigned long long>(wreck.faults_injected));

  std::ofstream js(json_path);
  if (!js) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 json_path.c_str());
    return 1;
  }
  js << "{\n  \"bench\": \"serve\",\n";
  js << "  \"model\": \"" << model.name << "\",\n";
  js << "  \"backend\": \"" << backend << "\",\n";
  js << "  \"scenario\": \"" << eng.scenario << "\",\n";
  js << "  \"clients\": " << clients << ",\n";
  js << "  \"serve_wait_us\": " << eng.serve_wait_us << ",\n";
  js << "  \"requests\": " << requests << ",\n";
  js << "  \"shards\": " << ThreadPool::default_shards() << ",\n";
  // The coalescing speedup is a strong function of core count: batch-16
  // problems run concurrently across the pool, batch-1 serving is serial.
  js << "  \"hardware_parallelism\": " << ThreadPool::global().parallelism()
     << ",\n";
  js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  js << "  \"leg\": \"" << leg_tag << "\",\n";
  js << "  \"serve_replicas\": " << replicas << ",\n";
  js << "  \"chaos\": " << (chaos ? "true" : "false") << ",\n";
  js << "  \"speedup_batched_vs_batch1\": " << speedup << ",\n";
  js << "  \"results\": [\n";
  bool first = true;
  for (const LegResult* r : rows) {
    if (!first) js << ",\n";
    first = false;
    js << "    {\"path\": \"" << r->path << "\", \"max_batch\": "
       << r->max_batch << ", \"requests\": " << r->requests
       << ", \"seconds\": " << r->seconds << ", \"req_per_s\": "
       << r->req_per_s << ", \"p50_us\": " << r->p50_us << ", \"p95_us\": "
       << r->p95_us << ", \"p99_us\": " << r->p99_us << ", \"mean_batch\": "
       << r->mean_batch << ", \"batches\": " << r->batches
       << ", \"replicas\": " << r->replicas << ", \"completed\": "
       << r->completed << ", \"failed\": " << r->failed;
    if (r->replicas > 1) {
      js << ", \"sheds\": " << r->sheds << ", \"retries\": " << r->retries
         << ", \"deadline_misses\": " << r->deadline_misses
         << ", \"breaker_transitions\": " << r->breaker_transitions
         << ", \"failed_batches\": " << r->failed_batches
         << ", \"faults_injected\": " << r->faults_injected
         << ", \"replica_stats\": [";
      for (size_t i = 0; i < r->replica_stats.size(); ++i) {
        if (i) js << ", ";
        js << to_json(r->replica_stats[i], static_cast<int>(i));
      }
      js << "]";
    }
    if (!r->class_lat.empty()) {
      js << ", \"class_lat\": [";
      for (size_t i = 0; i < r->class_lat.size(); ++i) {
        const ClassLat& cl = r->class_lat[i];
        if (i) js << ", ";
        js << "{\"class\": \"" << cl.name << "\", \"priority\": "
           << cl.priority << ", \"requests\": " << cl.requests
           << ", \"p50_us\": " << cl.p50_us << ", \"p95_us\": " << cl.p95_us
           << ", \"slo_us\": " << cl.slo_us << ", \"completed_fraction\": "
           << cl.completed_fraction << "}";
      }
      js << "]";
    }
    js << "}";
  }
  js << "\n  ]\n}\n";
  js.flush();
  if (!js) {
    std::fprintf(stderr, "error: failed writing %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
