#include "engine/telemetry.hpp"

#include <algorithm>
#include <cmath>

#include "hwcost/adder_designs.hpp"

namespace srmac {

void Telemetry::record_gemm(const std::string& backend, int M, int N, int K,
                            double seconds) {
  const uint64_t macs = static_cast<uint64_t>(M) * static_cast<uint64_t>(N) *
                        static_cast<uint64_t>(K);
  std::lock_guard<std::mutex> lock(mu_);
  totals_.gemms += 1;
  totals_.macs += macs;
  totals_.seconds += seconds;
  BackendStats& b = totals_.per_backend[backend];
  b.gemms += 1;
  b.macs += macs;
  b.seconds += seconds;
}

void Telemetry::record_batch(const std::string& backend, uint64_t problems,
                             uint64_t macs, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.gemms += problems;
  totals_.macs += macs;
  totals_.seconds += seconds;
  totals_.batches += 1;
  totals_.batch_problems += problems;
  BackendStats& b = totals_.per_backend[backend];
  b.gemms += problems;
  b.macs += macs;
  b.seconds += seconds;
  b.batches += 1;
  b.batch_problems += problems;
}

void Telemetry::record_grouped_gemm(uint64_t samples) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.gemms_grouped += 1;
  totals_.grouped_samples += samples;
}

void Telemetry::record_quantize(uint64_t values, const FpFormat& fmt) {
  const uint64_t bytes = values * static_cast<uint64_t>((fmt.width() + 7) / 8);
  std::lock_guard<std::mutex> lock(mu_);
  totals_.bytes_quantized += bytes;
}

void Telemetry::record_compile(uint64_t planes_packed, uint64_t folds,
                               uint64_t fusions) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.compile_planes_packed += planes_packed;
  totals_.compile_folds += folds;
  totals_.compile_fusions += fusions;
}

void Telemetry::record_compile_rebuild(uint64_t planes) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.compile_rebuilds += planes;
  totals_.compile_planes_packed += planes;
}

void Telemetry::record_compiled_forward(uint64_t gemms, uint64_t macs,
                                        uint64_t activation_bytes,
                                        double seconds) {
  const uint64_t bytes = activation_bytes;
  std::lock_guard<std::mutex> lock(mu_);
  totals_.gemms += gemms;
  totals_.macs += macs;
  totals_.seconds += seconds;
  totals_.compile_activation_bytes += bytes;
  BackendStats& b = totals_.per_backend["compiled"];
  b.gemms += gemms;
  b.macs += macs;
  b.seconds += seconds;
}

namespace {
ServeReplicaStats& replica_row(TelemetrySnapshot& t, int replica) {
  const size_t idx = replica < 0 ? 0 : static_cast<size_t>(replica);
  if (t.serve_replicas.size() <= idx) t.serve_replicas.resize(idx + 1);
  return t.serve_replicas[idx];
}
}  // namespace

void Telemetry::record_serve_batch(size_t batch_size,
                                   const uint64_t* latency_us, size_t n,
                                   int replica, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.serve_batches += 1;
  totals_.serve_requests += n;
  ServeReplicaStats& row = replica_row(totals_, replica);
  row.batches += 1;
  row.requests += n;
  if (!ok) {
    totals_.serve_failed_batches += 1;
    row.failures += 1;
  }
  if (totals_.serve_batch_hist.size() <= batch_size)
    totals_.serve_batch_hist.resize(batch_size + 1);
  totals_.serve_batch_hist[batch_size] += 1;
  // Bounded reservoir: exact below the cap; past it, halve the retained
  // series and double the sampling stride (deterministic decimation), so
  // a long-lived session keeps fixed memory and a representative spread.
  for (size_t i = 0; i < n; ++i) {
    if ((serve_lat_seen_++ % serve_lat_stride_) != 0) continue;
    std::vector<uint64_t>& v = totals_.serve_latency_us;
    if (v.size() >= kServeLatencySampleCap) {
      size_t w = 0;
      for (size_t r = 0; r < v.size(); r += 2) v[w++] = v[r];
      v.resize(w);
      serve_lat_stride_ *= 2;
    }
    v.push_back(latency_us[i]);
  }
}

void Telemetry::record_serve_deadline_miss(int replica, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.serve_deadline_misses += n;
  replica_row(totals_, replica).deadline_misses += n;
}

void Telemetry::record_serve_shed(int replica) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.serve_sheds += 1;
  if (replica >= 0) replica_row(totals_, replica).sheds += 1;
}

void Telemetry::record_serve_retry(int replica) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.serve_retries += 1;
  replica_row(totals_, replica).retries += 1;
}

void Telemetry::record_breaker_transition(int replica, int to_state) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.serve_breaker_transitions += 1;
  ServeReplicaStats& row = replica_row(totals_, replica);
  // 0 closed / 1 open / 2 half-open (CircuitBreaker::State's numbering).
  if (to_state == 1) row.breaker_opens += 1;
  else if (to_state == 2) row.breaker_half_opens += 1;
  else row.breaker_closes += 1;
}

void Telemetry::record_serve_shadow_selected(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.serve_shadow_selected += n;
}

void Telemetry::record_serve_shadow_run(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.serve_shadow_runs += n;
}

void Telemetry::record_serve_shadow_shed(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.serve_shadow_sheds += n;
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = totals_;
  }
  // The drift tracker has its own lock; merge outside mu_ (no nesting).
  out.drift = drift_.snapshot();
  return out;
}

void Telemetry::reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    totals_ = TelemetrySnapshot{};
    serve_lat_stride_ = 1;
    serve_lat_seen_ = 0;
  }
  drift_.reset();
}

double TelemetrySnapshot::serve_latency_percentile_us(double q) const {
  if (serve_latency_us.empty()) return 0.0;
  std::vector<uint64_t> sorted = serve_latency_us;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the smallest sample with at least q% of the mass at or
  // below it, so p50 of {1,2} is 1 and p100 is always the maximum.
  const double clamped = std::min(100.0, std::max(0.0, q));
  size_t rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  if (rank > 0) --rank;
  return static_cast<double>(sorted[rank]);
}

double TelemetrySnapshot::serve_mean_batch() const {
  return serve_batches
             ? static_cast<double>(serve_requests) /
                   static_cast<double>(serve_batches)
             : 0.0;
}

double TelemetrySnapshot::projected_mac_energy_uj(const MacConfig& cfg) const {
  const hw::AsicReport rep = hw::asic_mac_cost(cfg.normalized());
  // energy_nw_mhz is fJ per MAC cycle; 1e-9 converts fJ to uJ.
  return static_cast<double>(macs) * rep.energy_nw_mhz * 1e-9;
}

}  // namespace srmac
