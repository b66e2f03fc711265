#include <cinttypes>
#include <cstdio>
#include <string>

#include "engine/telemetry.hpp"

namespace srmac {

namespace {

void append_u64(std::string& out, const char* key, uint64_t v,
                bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %" PRIu64 "%s", key, v,
                comma ? ", " : "");
  out += buf;
}

void append_f64(std::string& out, const char* key, double v,
                bool comma = true) {
  char buf[96];
  // %.17g round-trips doubles; JSON has no inf/nan, clamp to 0 defensively.
  std::snprintf(buf, sizeof(buf), "\"%s\": %.17g%s", key,
                v == v && v * 0.0 == 0.0 ? v : 0.0, comma ? ", " : "");
  out += buf;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_series(std::string& out, const DriftSeries& s,
                   const std::vector<double>& epsilons) {
  out += '{';
  append_u64(out, "samples", s.samples);
  append_u64(out, "elems", s.elems);
  append_f64(out, "max_abs", s.max_abs);
  append_f64(out, "mean_abs", s.mean_abs());
  out += "\"mismatch_rates\": [";
  for (size_t i = 0; i < epsilons.size(); ++i) {
    if (i) out += ", ";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"eps\": %.17g, \"rate\": %.17g}",
                  epsilons[i], s.mismatch_rate(i));
    out += buf;
  }
  out += "], ";
  append_f64(out, "p50_maxabs", s.maxabs_percentile(50));
  append_f64(out, "p95_maxabs", s.maxabs_percentile(95));
  append_f64(out, "p99_maxabs", s.maxabs_percentile(99), /*comma=*/false);
  out += '}';
}

}  // namespace

std::string to_json(const ServeReplicaStats& row, int replica) {
  std::string out = "{";
  append_u64(out, "replica", static_cast<uint64_t>(replica < 0 ? 0 : replica));
  append_u64(out, "requests", row.requests);
  append_u64(out, "batches", row.batches);
  append_u64(out, "failures", row.failures);
  append_u64(out, "deadline_misses", row.deadline_misses);
  append_u64(out, "sheds", row.sheds);
  append_u64(out, "retries", row.retries);
  append_u64(out, "breaker_opens", row.breaker_opens);
  append_u64(out, "breaker_half_opens", row.breaker_half_opens);
  append_u64(out, "breaker_closes", row.breaker_closes, /*comma=*/false);
  out += '}';
  return out;
}

std::string to_json(const DriftPairSnapshot& pair) {
  std::string out = "{\"primary\": ";
  append_escaped(out, pair.primary);
  out += ", \"shadow\": ";
  append_escaped(out, pair.shadow);
  out += ", \"epsilons\": [";
  for (size_t i = 0; i < pair.epsilons.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "",
                  pair.epsilons[i]);
    out += buf;
  }
  out += "], \"final\": ";
  append_series(out, pair.final_output, pair.epsilons);
  out += ", \"layers\": [";
  for (size_t i = 0; i < pair.layers.size(); ++i) {
    if (i) out += ", ";
    out += "{";
    append_u64(out, "index", pair.layers[i].index);
    out += "\"layer\": ";
    append_escaped(out, pair.layers[i].layer);
    out += ", \"series\": ";
    append_series(out, pair.layers[i].series, pair.epsilons);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string TelemetrySnapshot::to_json() const {
  std::string out = "{";
  append_u64(out, "gemms", gemms);
  append_u64(out, "macs", macs);
  append_u64(out, "bytes_quantized", bytes_quantized);
  append_u64(out, "batches", batches);
  append_u64(out, "batch_problems", batch_problems);
  append_f64(out, "seconds", seconds);
  out += "\"per_backend\": {";
  bool first = true;
  for (const auto& kv : per_backend) {
    if (!first) out += ", ";
    first = false;
    append_escaped(out, kv.first);
    out += ": {";
    append_u64(out, "gemms", kv.second.gemms);
    append_u64(out, "macs", kv.second.macs);
    append_u64(out, "batches", kv.second.batches);
    append_u64(out, "batch_problems", kv.second.batch_problems);
    append_f64(out, "seconds", kv.second.seconds, /*comma=*/false);
    out += '}';
  }
  out += "}, \"compile\": {";
  append_u64(out, "planes_packed", compile_planes_packed);
  append_u64(out, "folds", compile_folds);
  append_u64(out, "fusions", compile_fusions);
  append_u64(out, "rebuilds", compile_rebuilds);
  append_u64(out, "activation_bytes", compile_activation_bytes,
             /*comma=*/false);
  out += "}, \"serve\": {";
  append_u64(out, "requests", serve_requests);
  append_u64(out, "batches", serve_batches);
  append_f64(out, "mean_batch", serve_mean_batch());
  append_f64(out, "p50_us", serve_latency_percentile_us(50));
  append_f64(out, "p95_us", serve_latency_percentile_us(95));
  append_f64(out, "p99_us", serve_latency_percentile_us(99));
  append_u64(out, "gemms_grouped", gemms_grouped);
  append_u64(out, "grouped_samples", grouped_samples);
  append_u64(out, "sheds", serve_sheds);
  append_u64(out, "retries", serve_retries);
  append_u64(out, "deadline_misses", serve_deadline_misses);
  append_u64(out, "failed_batches", serve_failed_batches);
  append_u64(out, "breaker_transitions", serve_breaker_transitions);
  out += "\"shadow\": {";
  append_u64(out, "selected", serve_shadow_selected);
  append_u64(out, "runs", serve_shadow_runs);
  append_u64(out, "sheds", serve_shadow_sheds, /*comma=*/false);
  out += "}, \"replicas\": [";
  for (size_t i = 0; i < serve_replicas.size(); ++i) {
    if (i) out += ", ";
    out += srmac::to_json(serve_replicas[i], static_cast<int>(i));
  }
  out += "]}, \"drift\": [";
  for (size_t i = 0; i < drift.size(); ++i) {
    if (i) out += ", ";
    out += srmac::to_json(drift[i]);
  }
  out += "]}";
  return out;
}

}  // namespace srmac
