// The repository benchmark program: one process, one workload, timed from
// outside the library through its public API only.
//
//   srmac_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out PATH]
//
// Workloads (all under the paper's scenario eager_sr:e5m2/e6m5:r=9:subON):
//   train_resnet20  SGD-momentum training steps of resnet20:32 at batch 16:
//                   forward, loss, backward (grad bucketing on the sharded
//                   backend) and the optimizer. Weights change every step,
//                   so weight planes repack every step; serving is unused.
//   serve_resnet20  in-process EmuServer on resnet20 (16x16) with the
//                   serve_daemon defaults (sharded, max_batch 16, 200 us
//                   linger, grouped). One thread keeps 16 futures in flight.
//                   Weights never change, so plane caches always hit.
//   wire_mlp        mlp:16,1 behind an in-process WireServer on loopback; one
//                   WireClient pipelines 16 frames. The kernel is tiny, so
//                   framing, sockets, threads, admission and batching
//                   dominate.
//
// Load is closed-loop from one generator thread and at most one connection,
// so on a few cores the numbers measure the program, not the scheduler.
// setup_s is the median of several fresh set-ups per run (model, engine,
// server and socket) each timed through its first finished step or answered
// request; the first one also pays the process-wide thread pool and product
// table.
//
// --trace 0 measures one untraced window and prints the end-to-end metrics.
// --trace 1 alternates untraced and traced windows (U T U T), prints the
// per-layer metrics from the traced windows plus the tracing overhead
// against the untraced ones, and writes the traced spans as Chrome
// trace-event JSON to --trace-out. Spans are recorded here, around the
// benchmark's own calls into each module; nothing inside the library is
// timed.
//
// Every served response is compared bit for bit against an offline
// model.forward on the serving engine, the first training step against the
// "reference" backend, and the serving counters are reconciled against the
// client's own counts. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any check failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "engine/emu_engine.hpp"
#include "mac/gemm.hpp"
#include "mac/mac_config.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"
#include "nn/layers.hpp"
#include "nn/model_zoo.hpp"
#include "rng/xoshiro.hpp"
#include "serve/emu_server.hpp"
#include "train/optimizer.hpp"
#include "util/thread_pool.hpp"

using namespace srmac;

namespace {

constexpr const char* kScenario = "eager_sr:e5m2/e6m5:r=9:subON";
constexpr const char* kBackend = "sharded";  // serve_daemon's default
constexpr int kWindow = 16;                  // requests kept in flight
constexpr int kTrainBatch = 16;
// Fresh set-ups per run, median reported; more where one set-up is short.
constexpr int kTrainSetups = 5;
constexpr int kServeSetups = 15;
constexpr int kWireSetups = 31;
constexpr size_t kTraceItemCap = 2000;  // steps/requests kept for the file

// ---------------------------------------------------------------------------
// Metric names. BENCHMARK.json lists the same names and units; every run
// prints all of them (zero where a layer does not take part in a workload).
// ---------------------------------------------------------------------------
struct MetricDef {
  const char* name;
  const char* unit;
};

// samples_per_s counts training samples or answered requests (one sample
// each); the latencies are per training step or per request, client-side,
// and the tail is the highest percentile up to p95 the sample supports.
constexpr MetricDef kEndToEnd[] = {
    {"samples_per_s", "1/s"},  {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// engine.* counts are per training step or per request.
constexpr MetricDef kPerLayer[] = {
    {"mac.mmac_per_s", "MMAC/s"},
    {"mac.peak_mmac_per_s", "MMAC/s"},
    {"mac.efficiency", "ratio"},
    {"engine.gemm_ms", "ms"},
    {"engine.gemms", "count"},
    {"engine.macs", "count"},
    {"engine.bytes_quantized", "bytes"},
    {"engine.batch_problems", "count"},
    {"engine.planes_packed", "count"},
    {"engine.grouped_samples", "count"},
    {"nn.forward_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"nn.non_gemm_ms", "ms"},
    {"train.loss_ms", "ms"},
    {"train.optimizer_ms", "ms"},
    {"serve.submit_us", "us"},
    {"serve.queue_p50_us", "us"},
    {"serve.queue_p95_us", "us"},
    {"serve.exec_us", "us"},
    {"serve.wake_us", "us"},
    {"serve.mean_batch", "count"},
    {"serve.batches_per_s", "1/s"},
    {"net.send_us", "us"},
    {"net.overhead_us", "us"},
    {"unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0,100]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The host and build every number was measured on.
std::string host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
#if defined(__x86_64__) && !defined(SRMAC_DISABLE_AVX512)
  const bool avx512 = __builtin_cpu_supports("avx512f");
#else
  const bool avx512 = false;
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << nproc
     << ", \"pool_parallelism\": " << ThreadPool::global().parallelism()
     << ", \"default_shards\": " << ThreadPool::default_shards()
     << ", \"avx512\": " << (avx512 ? "true" : "false")
     << ", \"build_type\": \"" << SRMAC_PERFBENCH_BUILD_TYPE << "\""
     << ", \"compiler\": \"" << SRMAC_PERFBENCH_COMPILER << "\"}";
  return os.str();
}

EmuEngine build_engine(const char* backend) {
  return EmuEngine::Builder().scenario(kScenario).backend(backend).build();
}

// ---------------------------------------------------------------------------
// Spans. A workload reports each step or request as one item span with its
// child spans; the trace keeps the first kTraceItemCap items for the Chrome
// trace file and accumulates, over every item, the share of item time that
// no child span covers.
// ---------------------------------------------------------------------------
struct Child {
  const char* name;
  int64_t t0, t1;
  const char* arg_name = nullptr;
  double arg = 0.0;
};

class Trace {
 public:
  void item(const char* name, int lane, uint64_t id, int64_t t0, int64_t t1,
            std::initializer_list<Child> children) {
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (const Child& c : children) {
      const int64_t a = std::max(c.t0, t0), b = std::min(c.t1, t1);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0, end = t0;
    for (const auto& [a, b] : cover) {
      if (b <= end) continue;
      covered += b - std::max(a, end);
      end = b;
    }
    item_ns_ += static_cast<double>(t1 - t0);
    uncovered_ns_ += static_cast<double>(t1 - t0 - covered);

    if (items_kept_ >= kTraceItemCap) return;
    ++items_kept_;
    const int parent = static_cast<int>(spans_.size());
    spans_.push_back({name, lane, id, t0, t1, -1, nullptr, 0.0});
    for (const Child& c : children)
      spans_.push_back({c.name, lane, id, c.t0, c.t1, parent, c.arg_name,
                        c.arg});
  }

  double unattributed_frac() const {
    return item_ns_ > 0 ? uncovered_ns_ / item_ns_ : 0.0;
  }

  /// Chrome trace-event JSON ("X" complete events, one tid per lane), the
  /// format chrome://tracing and Perfetto open.
  bool write(const std::string& path, const std::string& workload,
             const std::string& host) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
      << workload << "\", \"host\": " << host << "},\n\"traceEvents\": [\n";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      int n = std::snprintf(
          buf, sizeof(buf),
          "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
          "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
          "\"span\": %zu, \"parent\": %d",
          s.name, workload.c_str(), s.lane,
          static_cast<double>(s.t0 - origin_ns_) * 1e-3,
          static_cast<double>(s.t1 - s.t0) * 1e-3,
          static_cast<unsigned long long>(s.id), i, s.parent);
      if (s.arg_name)
        n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                           ", \"%s\": %.17g", s.arg_name, s.arg);
      f << buf << "}},\n";
    }
    f << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": "
         "{\"name\": \"srmac_perfbench " << workload << "\"}}\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  struct Span {
    const char* name;
    int lane;
    uint64_t id;
    int64_t t0, t1;
    int parent;
    const char* arg_name;
    double arg;
  };
  std::vector<Span> spans_;
  size_t items_kept_ = 0;
  double item_ns_ = 0.0, uncovered_ns_ = 0.0;
  int64_t origin_ns_ = now_ns();
};

/// What one workload run reports.
struct Report {
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;  ///< failed checks, one line each
  std::map<std::string, double> e2e, layer;

  void problem(const std::string& what) { problems.push_back(what); }
};

/// Items and wall time of the measured windows of one kind (traced or not),
/// cut into slices of at least `slice_ns`, each closed by the first
/// completion past its end. Throughput and latency are medians over the
/// slices, so a burst of interference on a shared host moves one slice
/// rather than the whole figure, and only the open slice's latencies are
/// kept, so the benchmark's own memory does not grow with throughput.
/// slice_ns == 0 (training) makes every step a slice; a window holds a few
/// dozen steps, so their latencies are also pooled for the tail.
struct Totals {
  explicit Totals(int64_t slice) : slice_ns(slice) {}

  const int64_t slice_ns;
  int64_t wall_ns = 0;
  uint64_t items = 0, samples = 0;
  std::vector<double> slice_rate;  ///< samples/s
  std::vector<double> slice_p50, slice_tail;  ///< latency, ms
  std::vector<double> pooled_ms;  ///< every latency, when slice_ns == 0

  /// Marks the start of a measured window (an open slice is dropped).
  void begin(int64_t now) {
    slice_start_ = now;
    slice_samples_ = 0;
    slice_ms_.clear();
  }

  /// Counts one completed item of `n` samples that finished at `now`.
  void done(int64_t now, uint64_t n, double latency_ms) {
    ++items;
    samples += n;
    slice_samples_ += n;
    slice_ms_.push_back(latency_ms);
    if (slice_ns == 0) pooled_ms.push_back(latency_ms);
    if (now - slice_start_ < slice_ns) return;
    slice_rate.push_back(static_cast<double>(slice_samples_) * 1e9 /
                         static_cast<double>(now - slice_start_));
    slice_p50.push_back(percentile(slice_ms_, 50));
    if (slice_ns > 0) {
      double q = 0;
      slice_tail.push_back(tail(slice_ms_, &q));
      tail_q_ = std::min(tail_q_, q);
    }
    begin(now);
  }

  /// Median slice; the whole window when no slice closed.
  double rate() const {
    return slice_rate.empty() ? samples_per_s() : median(slice_rate);
  }

  double latency_p50() const { return median(slice_p50); }

  /// Tail latency (see tail()), with the percentile used written to *q:
  /// the median slice's tail when slicing by time, else the pooled steps'.
  double latency_tail(double* q) const {
    if (slice_ns == 0) return tail(pooled_ms, q);
    *q = tail_q_;
    return median(slice_tail);
  }

  double samples_per_s() const {
    return wall_ns > 0 ? static_cast<double>(samples) * 1e9 /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }

 private:
  /// The highest percentile up to p95 with at least ten samples beyond it
  /// (the median when there are too few).
  static double tail(const std::vector<double>& v, double* q) {
    const double n = static_cast<double>(v.size());
    *q = std::clamp(100.0 * (n - 10) / std::max(n, 1.0), 50.0, 95.0);
    return percentile(v, *q);
  }

  int64_t slice_start_ = 0;
  uint64_t slice_samples_ = 0;
  std::vector<double> slice_ms_;
  double tail_q_ = 95;  ///< lowest percentile any slice's tail used
};

/// Engine counters between two telemetry snapshots.
struct EngineDelta {
  double gemms = 0, macs = 0, bytes_quantized = 0, batch_problems = 0,
         planes_packed = 0, grouped_samples = 0, seconds = 0,
         serve_requests = 0, serve_batches = 0;

  static double planes(const TelemetrySnapshot& s) {
    double n = 0;
    for (uint64_t p : s.planes_packed_per_shard) n += static_cast<double>(p);
    return n;
  }

  void add(const TelemetrySnapshot& a, const TelemetrySnapshot& b) {
    auto d = [](uint64_t x, uint64_t y) {
      return static_cast<double>(y) - static_cast<double>(x);
    };
    gemms += d(a.gemms, b.gemms);
    macs += d(a.macs, b.macs);
    bytes_quantized += d(a.bytes_quantized, b.bytes_quantized);
    batch_problems += d(a.batch_problems, b.batch_problems);
    planes_packed += planes(b) - planes(a);
    grouped_samples += d(a.grouped_samples, b.grouped_samples);
    seconds += b.seconds - a.seconds;
    serve_requests += d(a.serve_requests, b.serve_requests);
    serve_batches += d(a.serve_batches, b.serve_batches);
  }

  /// engine.* per-layer rows, per step or request (`items`).
  void report(Report& r, double items) const {
    if (items <= 0) return;
    r.layer["engine.gemm_ms"] = seconds * 1e3 / items;
    r.layer["engine.gemms"] = gemms / items;
    r.layer["engine.macs"] = macs / items;
    r.layer["engine.bytes_quantized"] = bytes_quantized / items;
    r.layer["engine.batch_problems"] = batch_problems / items;
    r.layer["engine.planes_packed"] = planes_packed / items;
    r.layer["engine.grouped_samples"] = grouped_samples / items;
    r.layer["mac.mmac_per_s"] = seconds > 0 ? macs / seconds / 1e6 : 0.0;
  }
};

/// The kernel's own rate at the session's thread count: one standalone
/// gemm_mac at 256^3 under the benchmark scenario, median of three.
double peak_mmac_per_s(uint64_t seed) {
  constexpr int n = 256;
  const MacConfig cfg = *MacConfig::parse(kScenario);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  Xoshiro256 rng(seed ^ 0x9EA4);
  for (float& v : a) v = static_cast<float>(rng.normal());
  for (float& v : b) v = static_cast<float>(rng.normal());
  std::vector<double> secs;
  for (int rep = 0; rep < 4; ++rep) {
    const int64_t t0 = now_ns();
    gemm_mac(cfg, n, n, n, a.data(), n, b.data(), n, c.data(), n);
    if (rep > 0) secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return static_cast<double>(n) * n * n / median(secs) / 1e6;
}

// ---------------------------------------------------------------------------
// train_resnet20
// ---------------------------------------------------------------------------
class TrainWorkload {
 public:
  static constexpr int64_t kSliceNs = 0;  // every step is a slice

  explicit TrainWorkload(uint64_t seed)
      : spec_(ModelSpec::parse_or_die("resnet20:32")) {
    // Four distinct batches cycled through; labels from the workload seed.
    Xoshiro256 rng(seed);
    const int base = static_cast<int>(seed % 1000003) * 64;
    std::vector<int> shape = spec_.input_shape();
    shape.insert(shape.begin(), kTrainBatch);
    const int64_t per = spec_.sample(0).numel();
    for (int b = 0; b < 4; ++b) {
      Batch batch{Tensor(shape), {}};
      for (int i = 0; i < kTrainBatch; ++i) {
        const Tensor x = spec_.sample(base + b * kTrainBatch + i);
        std::memcpy(batch.images.data() + i * per, x.data(),
                    static_cast<size_t>(per) * sizeof(float));
        batch.labels.push_back(static_cast<int>(rng.below(10)));
      }
      batches_.push_back(std::move(batch));
    }
  }

  /// Fresh model, engine and optimizer, through the end of the first step.
  double setup(Report& r) {
    const int64_t t0 = now_ns();
    s_ = Session{};
    s_.model = spec_.build();
    s_.engine = std::make_unique<EmuEngine>(build_engine(kBackend));
    std::vector<Param*> params;
    s_.model->collect_params(params);
    s_.optim = std::make_unique<SgdMomentum>(params, kLr, 0.9f, 1e-4f);
    s_.optim->zero_grad();
    step(r, false, nullptr);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  void warmup(Report&) {}  // the set-up steps already ran warm

  void run_window(Report& r, double seconds, Totals& tot, Trace* trace) {
    const int64_t start = now_ns();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    tot.begin(start);
    while (now_ns() < deadline) {
      const int64_t t0 = now_ns();
      step(r, trace != nullptr, trace);
      const int64_t t1 = now_ns();
      tot.done(t1, kTrainBatch, static_cast<double>(t1 - t0) * 1e-6);
    }
    tot.wall_ns += now_ns() - start;
  }

  void finish(Report& r, bool traced) {
    if (traced) {
      engine_.report(r, static_cast<double>(gemm_ms_.size()));
      r.layer["nn.forward_ms"] = median(fwd_ms_);
      r.layer["nn.backward_ms"] = median(bwd_ms_);
      r.layer["nn.non_gemm_ms"] = median(non_gemm_ms_);
      r.layer["train.loss_ms"] = median(loss_ms_);
      r.layer["train.optimizer_ms"] = median(opt_ms_);
    }
    s_ = Session{};
    check_reference(r);
  }

 private:
  static constexpr float kLr = 0.05f;
  static constexpr float kLossScale = 1024.0f;

  struct Session {
    std::unique_ptr<Sequential> model;
    std::unique_ptr<EmuEngine> engine;
    std::unique_ptr<SgdMomentum> optim;
    uint64_t steps = 0;
  };

  /// One step as Trainer::train_epoch runs it (forward, loss, backward,
  /// overflow check, SGD-momentum step), with the gradient zeroing moved to
  /// the end of the step so the optimizer's work is one contiguous span.
  void step(Report& r, bool traced, Trace* trace) {
    const Batch& batch = batches_[s_.steps % batches_.size()];
    const ComputeContext ctx = s_.engine->context().fork(0xE0000 + s_.steps);
    ++r.attempted;
    TelemetrySnapshot snap0, snap1, snap2;
    const int64_t t0 = now_ns();
    if (traced) snap0 = s_.engine->telemetry().snapshot();
    const int64_t t_fwd0 = now_ns();
    Tensor logits = s_.model->forward(ctx, batch.images, /*training=*/true);
    const int64_t t_fwd1 = now_ns();
    if (traced) snap1 = s_.engine->telemetry().snapshot();
    const int64_t t_loss0 = now_ns();
    const float loss = head_.forward_loss(logits, batch.labels);
    const bool finite = std::isfinite(loss);
    Tensor g;
    if (finite) g = head_.backward_loss(kLossScale);
    const int64_t t_loss1 = now_ns();
    if (finite) s_.model->backward(ctx.backward(), g);
    const int64_t t_bwd1 = now_ns();
    if (traced) snap2 = s_.engine->telemetry().snapshot();
    const int64_t t_opt0 = now_ns();
    const bool skip = !finite || s_.optim->grads_overflowed(kLossScale);
    s_.optim->step(kLossScale, skip);
    s_.optim->zero_grad();
    const int64_t t1 = now_ns();
    ++s_.steps;
    if (!finite) {
      ++r.failed;
      r.problem("non-finite training loss at step " +
                std::to_string(s_.steps - 1));
    }
    if (!traced) return;

    EngineDelta fwd, bwd;
    fwd.add(snap0, snap1);
    bwd.add(snap1, snap2);
    engine_.add(snap0, snap2);
    const double f = static_cast<double>(t_fwd1 - t_fwd0) * 1e-6;
    const double b = static_cast<double>(t_bwd1 - t_loss1) * 1e-6;
    fwd_ms_.push_back(f);
    bwd_ms_.push_back(b);
    gemm_ms_.push_back((fwd.seconds + bwd.seconds) * 1e3);
    non_gemm_ms_.push_back(f + b - gemm_ms_.back());
    loss_ms_.push_back(static_cast<double>(t_loss1 - t_loss0) * 1e-6);
    opt_ms_.push_back(static_cast<double>(t1 - t_opt0) * 1e-6);
    trace->item("train.step", 0, s_.steps - 1, t0, t1,
                {{"nn.forward", t_fwd0, t_fwd1, "engine.gemm_ms",
                  fwd.seconds * 1e3},
                 {"train.loss", t_loss0, t_loss1},
                 {"nn.backward", t_loss1, t_bwd1, "engine.gemm_ms",
                  bwd.seconds * 1e3},
                 {"train.optimizer", t_opt0, t1}});
  }

  /// The first step on the sharded backend against the same step on the
  /// seed MacUnit golden path ("reference"), on a reduced batch and outside
  /// every timed window: logits and every weight gradient must be bitwise
  /// equal.
  void check_reference(Report& r) {
    constexpr int kBatch = 2;
    const Batch& full = batches_[0];
    std::vector<int> shape = full.images.shape();
    shape[0] = kBatch;
    Tensor x(shape);
    std::memcpy(x.data(), full.images.data(),
                static_cast<size_t>(x.numel()) * sizeof(float));
    const std::vector<int> labels(full.labels.begin(),
                                  full.labels.begin() + kBatch);

    struct Out {
      Tensor logits;
      std::vector<Tensor> grads;
    };
    auto first_step = [&](const char* backend) {
      const EmuEngine engine = build_engine(backend);
      std::unique_ptr<Sequential> model = spec_.build();
      const ComputeContext ctx = engine.context().fork(0xE0000);
      Out out;
      out.logits = model->forward(ctx, x, /*training=*/true);
      SoftmaxCrossEntropy head;
      head.forward_loss(out.logits, labels);
      model->backward(ctx.backward(), head.backward_loss(kLossScale));
      std::vector<Param*> params;
      model->collect_params(params);
      for (Param* p : params) out.grads.push_back(p->grad);
      return out;
    };
    const Out fast = first_step(kBackend);
    const Out ref = first_step("reference");
    ++r.attempted;
    bool same = bitwise_equal(fast.logits, ref.logits) &&
                fast.grads.size() == ref.grads.size();
    for (size_t i = 0; same && i < fast.grads.size(); ++i)
      same = bitwise_equal(fast.grads[i], ref.grads[i]);
    if (!same) {
      ++r.failed;
      r.problem("first training step differs from the reference backend");
    }
  }

  ModelSpec spec_;
  std::vector<Batch> batches_;
  SoftmaxCrossEntropy head_;
  Session s_;
  EngineDelta engine_;
  std::vector<double> fwd_ms_, bwd_ms_, gemm_ms_, non_gemm_ms_, loss_ms_,
      opt_ms_;
};

// ---------------------------------------------------------------------------
// serve_resnet20 and wire_mlp
// ---------------------------------------------------------------------------
class ServeWorkload {
 public:
  // Two-second slices hold hundreds of requests even on the kernel-bound
  // workload, so each slice supports its own p95.
  static constexpr int64_t kSliceNs = 2'000'000'000;

  ServeWorkload(const std::string& model, bool wire, uint64_t seed)
      : spec_(ModelSpec::parse_or_die(model)), wire_(wire), rng_(seed) {
    const int base = static_cast<int>(seed % 1000003) * 64;
    for (int i = 0; i < kPool; ++i) pool_.push_back(spec_.sample(base + i));
  }

  /// Fresh serving session (EmuServer, plus WireServer and a connected
  /// WireClient on the wire workload), through the first answered request.
  double setup(Report& r) {
    if (s_.server) close(r);
    const int64_t t0 = now_ns();
    ServeConfig cfg;  // max_batch 16, max_wait_us 200, grouped, eager
    cfg.input_shape = spec_.input_shape();
    s_.server = std::make_unique<EmuServer>(spec_.build(),
                                            build_engine(kBackend), cfg);
    if (wire_) {
      WireServerConfig wcfg;
      wcfg.scenario = kScenario;
      wcfg.model = spec_.name;
      wcfg.input_shape = spec_.input_shape();
      s_.wire = std::make_unique<WireServer>(wire_submit(*s_.server), wcfg);
      s_.client = std::make_unique<WireClient>("127.0.0.1", s_.wire->port(),
                                               kScenario, spec_.name);
    }
    run_requests(r, 1, 0, nullptr, nullptr);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  /// Untimed closed-loop traffic before the first measured window.
  void warmup(Report& r) {
    run_requests(r, 0, kWarmupNs, nullptr, nullptr);
  }

  void run_window(Report& r, double seconds, Totals& tot, Trace* trace) {
    const TelemetrySnapshot a = s_.server->telemetry();
    const int64_t t0 = now_ns();
    run_requests(r, 0, static_cast<int64_t>(seconds * 1e9), &tot, trace);
    if (!trace) return;
    traced_ns_ += static_cast<double>(now_ns() - t0);
    engine_.add(a, s_.server->telemetry());
  }

  void finish(Report& r, bool traced) {
    // Offline references on the serving engine itself, after the session
    // stopped (its executor thread is joined, so the model is free).
    close(r, /*keep_server=*/true);
    Sequential& model = s_.server->model();
    const ComputeContext ctx = s_.server->engine().context();
    for (int i = 0; i < kPool; ++i) {
      if (!first_out_[i]) continue;
      const Tensor ref = model.forward(ctx, pool_[i], /*training=*/false);
      if (!bitwise_equal(ref, *first_out_[i])) {
        r.failed += responses_[i] - mismatched_[i];
        r.problem("served output of sample " + std::to_string(i) +
                  " differs from the offline forward");
      }
    }
    s_ = Session{};
    if (!traced) return;
    engine_.report(r, engine_.serve_requests);
    // The client-side call is the submit in process and the send over the
    // wire; the gap after the server's completion is the future's wake-up in
    // process and the network overhead over the wire.
    r.layer[wire_ ? "net.send_us" : "serve.submit_us"] = median(client_us_);
    r.layer[wire_ ? "net.overhead_us" : "serve.wake_us"] = median(gap_us_);
    r.layer["serve.queue_p50_us"] = percentile(queue_us_, 50);
    r.layer["serve.queue_p95_us"] = percentile(queue_us_, 95);
    r.layer["serve.exec_us"] = median(exec_us_);
    r.layer["serve.mean_batch"] =
        engine_.serve_batches > 0
            ? engine_.serve_requests / engine_.serve_batches
            : 0.0;
    r.layer["serve.batches_per_s"] =
        traced_ns_ > 0 ? engine_.serve_batches * 1e9 / traced_ns_ : 0.0;
  }

 private:
  static constexpr int kPool = 64;
  static constexpr int64_t kWarmupNs = 1'000'000'000;

  struct Session {
    std::unique_ptr<EmuServer> server;
    std::unique_ptr<WireServer> wire;
    std::unique_ptr<WireClient> client;
    uint64_t sent = 0, completed = 0;
  };

  struct InFlight {
    int sample = 0;
    int lane = 0;
    uint64_t id = 0;
    int64_t t0 = 0, t_sent = 0;
    std::future<InferResult> fut;  // in-process only
  };

  /// Closed loop over one session: keeps kWindow requests in flight until
  /// `count` requests were sent (count > 0) or `window_ns` elapsed, then
  /// drains every outstanding request. `tot` (null outside measured
  /// windows) receives the completions.
  void run_requests(Report& r, int count, int64_t window_ns, Totals* tot,
                    Trace* trace) {
    std::deque<InFlight> q;
    const int64_t start = now_ns();
    const int64_t deadline = start + window_ns;
    if (tot) tot->begin(start);
    int started = 0;
    auto more = [&] {
      return count > 0 ? started < count : now_ns() < deadline;
    };
    auto start_one = [&](int lane) {
      InFlight f;
      f.sample = next_sample();
      f.lane = lane;
      f.id = next_id_++;
      Tensor x = pool_[f.sample];
      ++s_.sent;
      ++r.attempted;
      ++started;
      f.t0 = now_ns();
      if (wire_)
        s_.client->send_infer(x);
      else
        f.fut = s_.server->submit(std::move(x));
      f.t_sent = now_ns();
      q.push_back(std::move(f));
    };
    for (int lane = 0; lane < kWindow && more(); ++lane) start_one(lane);
    while (!q.empty()) {
      InFlight f = std::move(q.front());
      q.pop_front();
      std::optional<InferResult> res;
      try {
        res = wire_ ? s_.client->recv_result() : f.fut.get();
      } catch (const ServeException& e) {
        r.problem(std::string("request failed: ") + e.what());
      }
      const int64_t t1 = now_ns();
      if (res) {
        ++s_.completed;
        record(r, f, *res, t1, tot, trace);
      } else {
        ++r.failed;
      }
      if (more()) start_one(f.lane);
    }
    if (tot) tot->wall_ns += now_ns() - start;
  }

  void record(Report& r, const InFlight& f, const InferResult& res,
              int64_t t1, Totals* tot, Trace* trace) {
    ++responses_[f.sample];
    if (!first_out_[f.sample]) {
      first_out_[f.sample] = res.output;
    } else if (!bitwise_equal(res.output, *first_out_[f.sample])) {
      ++mismatched_[f.sample];
      ++r.failed;
      r.problem("served outputs of sample " + std::to_string(f.sample) +
                " disagree with each other");
    }
    if (!tot) return;
    const double latency_us = static_cast<double>(t1 - f.t0) * 1e-3;
    tot->done(t1, 1, latency_us * 1e-3);
    if (!trace) return;

    // Server-side queue and exec come from InferResult (session clock,
    // microseconds). In-process they start at the submit call, since the
    // server stamps the request inside submit(); over the wire they start
    // once the frame has left the client.
    const double total = static_cast<double>(res.total_us);
    const double queue = static_cast<double>(res.queue_us);
    client_us_.push_back(static_cast<double>(f.t_sent - f.t0) * 1e-3);
    gap_us_.push_back(latency_us - total);
    queue_us_.push_back(queue);
    exec_us_.push_back(total - queue);
    const int64_t s0 = wire_ ? f.t_sent : f.t0;
    const int64_t q1 = s0 + static_cast<int64_t>(res.queue_us) * 1000;
    const int64_t e1 = s0 + static_cast<int64_t>(res.total_us) * 1000;
    trace->item("request", f.lane, f.id, f.t0, t1,
                {{wire_ ? "net.send" : "serve.submit", f.t0, f.t_sent},
                 {"serve.queue", s0, q1, "batch_size",
                  static_cast<double>(res.batch_size)},
                 {"serve.exec", q1, e1}});
  }

  /// Stops the session and reconciles its counters from outside: the
  /// server's serve_requests must equal the responses the client got, and
  /// the requests the server took in (batched, expired or shed) must equal
  /// the requests sent, so none is left unresolved.
  void close(Report& r, bool keep_server = false) {
    if (s_.client) s_.client->close();
    if (s_.wire) s_.wire->stop();
    s_.server->stop();
    const TelemetrySnapshot snap = s_.server->telemetry();
    if (snap.serve_requests != s_.completed)
      r.problem("server counted " + std::to_string(snap.serve_requests) +
                " requests, client received " + std::to_string(s_.completed));
    uint64_t taken = snap.serve_deadline_misses + snap.serve_sheds;
    for (size_t size = 0; size < snap.serve_batch_hist.size(); ++size)
      taken += size * snap.serve_batch_hist[size];
    if (taken != s_.sent)
      r.problem("server took in " + std::to_string(taken) +
                " requests, client sent " + std::to_string(s_.sent));
    if (s_.wire && s_.wire->requests_received() != s_.sent)
      r.problem("wire server received " +
                std::to_string(s_.wire->requests_received()) +
                " requests, client sent " + std::to_string(s_.sent));
    if (!keep_server) s_ = Session{};
  }

  int next_sample() { return static_cast<int>(rng_.below(kPool)); }

  ModelSpec spec_;
  bool wire_;
  Xoshiro256 rng_;
  std::vector<Tensor> pool_;
  // Per pool sample: the first served output, and the responses served and
  // found to differ from it.
  std::vector<std::optional<Tensor>> first_out_ =
      std::vector<std::optional<Tensor>>(kPool);
  std::vector<uint64_t> responses_ = std::vector<uint64_t>(kPool, 0);
  std::vector<uint64_t> mismatched_ = std::vector<uint64_t>(kPool, 0);
  Session s_;
  uint64_t next_id_ = 0;
  EngineDelta engine_;
  double traced_ns_ = 0;
  std::vector<double> client_us_, gap_us_, queue_us_, exec_us_;
};

// ---------------------------------------------------------------------------
// Command line and reporting
// ---------------------------------------------------------------------------
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: srmac_perfbench --workload "
               "train_resnet20|serve_resnet20|wire_mlp --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0') o.seconds = 0;
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1
                                                                        : -1;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload != "train_resnet20" && o.workload != "serve_resnet20" &&
      o.workload != "wire_mlp")
    usage("unknown workload");
  if (!have_seed) usage("--seed wants a non-negative integer");
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds wants (0, 600]");
  if (o.trace < 0) usage("--trace wants 0 or 1");
  return o;
}

/// Runs the measured windows: one untraced window, or U T U T quarters
/// when tracing, so the overhead compares windows of the same process.
template <typename W>
void measure(W& w, const Options& o, Report& r, Trace& trace) {
  Totals plain(W::kSliceNs), traced(W::kSliceNs);
  if (o.trace) {
    for (int i = 0; i < 4; ++i) {
      const bool on = i % 2 == 1;
      w.run_window(r, o.seconds / 4, on ? traced : plain,
                   on ? &trace : nullptr);
    }
    const double base = plain.samples_per_s();
    r.layer["trace.overhead_frac"] =
        base > 0 ? 1.0 - traced.samples_per_s() / base : 0.0;
    r.layer["unattributed_frac"] = trace.unattributed_frac();
  } else {
    w.run_window(r, o.seconds, plain, nullptr);
  }
  r.e2e["samples_per_s"] = plain.rate();
  double tail_q = 0;
  r.e2e["latency_p50_ms"] = plain.latency_p50();
  r.e2e["latency_tail_ms"] = plain.latency_tail(&tail_q);
  r.e2e["peak_rss_mb"] = peak_rss_mb();
  std::printf("measured: %llu untraced items in %.3f s, %llu traced items "
              "in %.3f s\n",
              static_cast<unsigned long long>(plain.items),
              static_cast<double>(plain.wall_ns) * 1e-9,
              static_cast<unsigned long long>(traced.items),
              static_cast<double>(traced.wall_ns) * 1e-9);
  std::printf("untraced: median of %zu slices, latency_tail_ms is p%.1f\n",
              plain.slice_rate.size(), tail_q);
}

template <typename W>
void run(W& w, const Options& o, Report& r, Trace& trace, int setups) {
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) setup_s.push_back(w.setup(r));
  r.e2e["setup_s"] = median(setup_s);
  std::printf("setup s:");
  for (double v : setup_s) std::printf(" %.5g", v);
  std::printf(" (median %.5g)\n", r.e2e["setup_s"]);
  w.warmup(r);
  measure(w, o, r, trace);
  w.finish(r, o.trace == 1);
}

void print_metrics(const char* title, const MetricDef* defs, size_t n,
                   const std::map<std::string, double>& values) {
  std::printf("%s\n", title);
  for (size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    std::printf("  %-24s %14.6g %s\n", defs[i].name,
                it == values.end() ? 0.0 : it->second, defs[i].unit);
  }
}

std::string result_json(const Report& r, bool traced) {
  const MetricDef* defs = traced ? kPerLayer : kEndToEnd;
  const size_t n = traced ? std::size(kPerLayer) : std::size(kEndToEnd);
  const auto& values = traced ? r.layer : r.e2e;
  std::ostringstream os;
  os << "{\"correct\": " << (r.problems.empty() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const std::string host = host_json();
  std::printf("host: %s\n", host.c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d scenario=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace, kScenario);
  std::fflush(stdout);

  Report r;
  for (const MetricDef& m : kPerLayer) r.layer[m.name] = 0.0;
  Trace trace;
  try {
    if (o.workload == "train_resnet20") {
      TrainWorkload w(o.seed);
      run(w, o, r, trace, kTrainSetups);
    } else {
      const bool wire = o.workload == "wire_mlp";
      ServeWorkload w(wire ? "mlp:16,1" : "resnet20", wire, o.seed);
      run(w, o, r, trace, wire ? kWireSetups : kServeSetups);
    }
    if (o.trace) {
      const double peak = peak_mmac_per_s(o.seed);
      r.layer["mac.peak_mmac_per_s"] = peak;
      r.layer["mac.efficiency"] = r.layer["mac.mmac_per_s"] / peak;
    }
  } catch (const std::exception& e) {
    // A transport fault (WireError) or any other escaped error: the run
    // cannot be trusted, so it reports as failed.
    ++r.failed;
    r.problem(std::string("aborted: ") + e.what());
  }

  if (o.trace && !o.trace_out.empty() &&
      !trace.write(o.trace_out, o.workload, host))
    r.problem("cannot write trace file " + o.trace_out);

  const double failed_frac =
      r.attempted ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::printf("attempted %llu, failed %llu, failed_frac %.6g\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), failed_frac);
  print_metrics("end-to-end:", kEndToEnd, std::size(kEndToEnd), r.e2e);
  if (o.trace)
    print_metrics("per-layer (traced windows):", kPerLayer,
                  std::size(kPerLayer), r.layer);
  for (const std::string& p : r.problems)
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  if (r.attempted == 0) r.attempted = 1, r.problem("nothing ran");
  std::printf("%s\n", result_json(r, o.trace == 1).c_str());
  return r.problems.empty() ? 0 : 1;
}
