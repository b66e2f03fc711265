// Scenario → drift → energy decision bench (docs/PERF.md "Drift sweep"):
// for a grid of candidate MAC scenarios, serve the same deterministic
// request stream through an EmuServer whose shadow block (ServeConfig::
// shadow, fraction 1.0) re-runs every request under the candidate, and
// join the recorded accuracy drift (DriftTracker: max-abs / mean-abs /
// mismatch rates / per-sample percentiles) against the hwcost layer's
// projected MAC energy for the *same* traffic — one JSON row per
// (primary, shadow) scenario pair. The row a deployment decision reads:
// "moving this serving traffic from scenario A to scenario B changes the
// output by this much and the ASIC MAC energy by that much".
//
// Anchors:
//   - The first pair shadows the primary under itself. Same scenario, same
//     seed, same fork chain => the drift must be exactly zero; the bench
//     exits nonzero otherwise — a standing end-to-end proof that the
//     shadow path replays the primary bitwise (the non-interference tests
//     are in tests/serve/shadow_serving_test.cpp).
//   - The sweep checks its own rows and exits nonzero unless it wrote at
//     least kMinPairRows pairs, every pair has both energy columns, and
//     every pair's final max-abs is within its shadow adder's ceiling.
//   - Both energy columns project the PRIMARY sink's MAC count (shadow
//     work is accounted to the shadow engine's own sink, so the primary
//     counters measure exactly the serving traffic) through
//     projected_mac_energy_uj under each pair member's MacConfig — the
//     counts are identical by construction, so the energy ratio isolates
//     the per-MAC cost difference.
//
// Usage: bench_drift [--smoke] [--json PATH] [--model SPEC] [--samples N]
//                    [--primary SPEC] [engine flags]
//   --model SPEC    model-zoo grammar (default resnet20)
//   --samples N     requests per pair (default 24; smoke 4)
//   --primary SPEC  the serving scenario every pair compares against
//                   (default eager_sr:e5m2/e6m5:r=9:subON — the paper's
//                   reference configuration)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "engine/cli.hpp"
#include "nn/model_zoo.hpp"
#include "serve/emu_server.hpp"

using namespace srmac;

namespace {

/// The candidate grid: every shadow scenario one sweep prices against the
/// primary. Spans the decision axes the paper studies — adder kind (RN vs
/// lazy vs eager SR), random-bit budget r, subnormal support, and the
/// multiplier/accumulator formats.
const char* kShadowGrid[] = {
    "rn:e5m2/e6m5:r=0:subON",      // RN baseline
    "rn:e5m2/e6m5:r=0:subOFF",     //   ... without subnormals
    "lazy_sr:e5m2/e6m5:r=9:subON", // lazy SR at the paper's default r
    "lazy_sr:e5m2/e6m5:r=6:subON", //   ... with a smaller LFSR
    "eager_sr:e5m2/e6m5:r=9:subOFF", // primary arithmetic, subnormals off
    "eager_sr:e5m2/e6m5:r=6:subON",  // cheaper randomness
    "eager_sr:e5m2/e6m5:r=13:subON", // more randomness than p+3
    "eager_sr:e4m3/e6m5:r=9:subON",  // E4M3 multiplier inputs
    "eager_sr:e5m2/e5m4:r=8:subON",  // narrower accumulator (r = p+3)
};

/// Sweep completeness and the per-adder final max-abs ceilings. The
/// arithmetic is bit-deterministic across hosts, so the ceilings (about
/// twice the recorded smoke values of 1.4-2.1) leave room for grid growth,
/// not for jitter.
constexpr size_t kMinPairRows = 8;
struct Ceiling {
  const char* shadow_prefix;
  double max_abs;
};
constexpr Ceiling kCeilings[] = {
    {"rn:", 4.0}, {"lazy_sr:", 4.0}, {"eager_sr:", 5.0}};

struct PairRow {
  std::string primary, shadow;
  DriftPairSnapshot drift;
  uint64_t macs = 0;
  uint64_t shadow_runs = 0, shadow_sheds = 0;
  double primary_energy_uj = 0, shadow_energy_uj = 0;
};

MacConfig config_or_die(const std::string& spec) {
  std::string error;
  std::optional<MacConfig> cfg = MacConfig::parse(spec, &error);
  if (!cfg) {
    std::fprintf(stderr, "error: %s: %s\n", spec.c_str(), error.c_str());
    std::exit(2);
  }
  return *cfg;
}

/// Runs one (primary, shadow) pair: a fresh session serving `samples`
/// deterministic requests with the shadow block at fraction 1.0, returning
/// the drift pair snapshot joined with the energy projections.
PairRow run_pair(const ModelSpec& model, const EngineCliArgs& eng,
                 const std::string& shadow_spec, int samples) {
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 0;  // no linger: the stream is closed-loop anyway
  // Deterministic harness: no batcher thread — run_once() executes each
  // micro-batch (and its shadow re-runs) inline on this thread, so the
  // telemetry reset below cannot race a shadow pass and every run of the
  // bench records identical drift series.
  cfg.start_thread = false;
  cfg.queue_capacity = static_cast<size_t>(samples) + 8;
  cfg.input_shape = model.input_shape();
  cfg.shadow.session = eng.shadow_session();
  cfg.shadow.session.scenario = shadow_spec;
  cfg.shadow.fraction = 1.0;
  EmuEngine engine = engine_or_die(eng);
  Telemetry& telemetry = engine.telemetry();
  EmuServer server(model.build(), std::move(engine), cfg);

  // Warm-up (plane packing, pool spin-up), then reset so the MAC count —
  // and with it both energy columns — covers exactly the measured stream.
  std::future<InferResult> warm = server.submit(model.sample(0));
  server.run_once();
  warm.get();
  telemetry.reset();

  std::vector<std::future<InferResult>> futs;
  futs.reserve(static_cast<size_t>(samples));
  for (int i = 0; i < samples; ++i)
    futs.push_back(server.submit(model.sample(i)));
  while (server.pending() > 0) server.run_once();
  for (std::future<InferResult>& f : futs) f.get();
  server.stop();

  const TelemetrySnapshot snap = server.telemetry();
  PairRow row;
  row.primary = eng.scenario;
  row.shadow = shadow_spec;
  row.macs = snap.macs;
  row.shadow_runs = snap.serve_shadow_runs;
  row.shadow_sheds = snap.serve_shadow_sheds;
  row.primary_energy_uj = snap.projected_mac_energy_uj(
      config_or_die(eng.scenario));
  row.shadow_energy_uj = snap.projected_mac_energy_uj(
      config_or_die(shadow_spec));
  for (const DriftPairSnapshot& p : snap.drift)
    if (p.primary == eng.scenario && p.shadow == shadow_spec) row.drift = p;
  if (row.drift.final_output.samples !=
      static_cast<uint64_t>(samples)) {
    std::fprintf(stderr,
                 "error: pair %s -> %s recorded %llu drift samples, "
                 "expected %d\n",
                 row.primary.c_str(), shadow_spec.c_str(),
                 static_cast<unsigned long long>(
                     row.drift.final_output.samples),
                 samples);
    std::exit(1);
  }
  return row;
}

void write_series(std::ofstream& js, const DriftPairSnapshot& p,
                  const DriftSeries& s) {
  js << "\"samples\": " << s.samples << ", \"elems\": " << s.elems
     << ", \"final_max_abs\": " << s.max_abs << ", \"final_mean_abs\": "
     << s.mean_abs() << ", \"p50_maxabs\": " << s.maxabs_percentile(50)
     << ", \"p95_maxabs\": " << s.maxabs_percentile(95)
     << ", \"p99_maxabs\": " << s.maxabs_percentile(99)
     << ", \"mismatch_rates\": [";
  for (size_t i = 0; i < p.epsilons.size(); ++i) {
    if (i) js << ", ";
    js << "{\"eps\": " << p.epsilons[i] << ", \"rate\": "
       << s.mismatch_rate(i) << "}";
  }
  js << "]";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_drift.json";
  std::string model_spec = "resnet20";
  std::string primary = "eager_sr:e5m2/e6m5:r=9:subON";
  int samples = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc)
      model_spec = argv[++i];
    else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc)
      samples = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--primary") == 0 && i + 1 < argc)
      primary = argv[++i];
  }
  if (samples <= 0) samples = smoke ? 4 : 24;

  EngineCliArgs eng = parse_engine_cli(argc, argv);
  eng.scenario = primary;
  config_or_die(primary);  // "fp32" has no MacConfig => no energy column
  const ModelSpec model = ModelSpec::parse_or_die(model_spec);

  std::vector<std::string> shadows;
  shadows.push_back(primary);  // the self pair: the zero-drift anchor
  for (const char* s : kShadowGrid)
    if (primary != s) shadows.emplace_back(s);

  std::vector<PairRow> rows;
  for (const std::string& shadow : shadows) {
    rows.push_back(run_pair(model, eng, shadow, samples));
    const PairRow& r = rows.back();
    if (r.shadow == r.primary && r.drift.final_output.max_abs != 0.0) {
      std::fprintf(stderr,
                   "error: self pair drifted (max_abs %.17g) — the shadow "
                   "path failed to replay the primary bitwise\n",
                   r.drift.final_output.max_abs);
      return 1;
    }
  }

  std::printf("%-32s %12s %12s %12s %12s %8s\n", "shadow scenario",
              "max_abs", "mean_abs", "p95_maxabs", "energy_uj", "ratio");
  for (const PairRow& r : rows) {
    const DriftSeries& s = r.drift.final_output;
    std::printf("%-32s %12.3e %12.3e %12.3e %12.3e %8.3f\n",
                r.shadow.c_str(), s.max_abs, s.mean_abs(),
                s.maxabs_percentile(95), r.shadow_energy_uj,
                r.primary_energy_uj > 0
                    ? r.shadow_energy_uj / r.primary_energy_uj
                    : 0.0);
  }

  int bad = 0;
  if (rows.size() < kMinPairRows) {
    std::fprintf(stderr, "error: only %zu pair rows, expected at least %zu\n",
                 rows.size(), kMinPairRows);
    ++bad;
  }
  for (const PairRow& r : rows) {
    if (r.primary_energy_uj <= 0 || r.shadow_energy_uj <= 0) {
      std::fprintf(stderr, "error: pair %s -> %s has no projected energy\n",
                   r.primary.c_str(), r.shadow.c_str());
      ++bad;
    }
    for (const Ceiling& c : kCeilings)
      if (r.shadow.rfind(c.shadow_prefix, 0) == 0 &&
          !(r.drift.final_output.max_abs <= c.max_abs)) {
        std::fprintf(stderr,
                     "error: pair %s -> %s final max_abs %.6g exceeds the "
                     "%s ceiling %.1f\n",
                     r.primary.c_str(), r.shadow.c_str(),
                     r.drift.final_output.max_abs, c.shadow_prefix,
                     c.max_abs);
        ++bad;
      }
  }
  if (bad) return 1;

  std::ofstream js(json_path);
  if (!js) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 json_path.c_str());
    return 1;
  }
  js << "{\n  \"bench\": \"drift\",\n";
  js << "  \"model\": \"" << model.name << "\",\n";
  js << "  \"primary\": \"" << primary << "\",\n";
  js << "  \"samples\": " << samples << ",\n";
  js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  js << "  \"pairs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const PairRow& r = rows[i];
    if (i) js << ",\n";
    js << "    {\"primary\": \"" << r.primary << "\", \"shadow\": \""
       << r.shadow << "\", ";
    write_series(js, r.drift, r.drift.final_output);
    js << ", \"layers\": [";
    for (size_t l = 0; l < r.drift.layers.size(); ++l) {
      const DriftLayerSnapshot& ls = r.drift.layers[l];
      if (l) js << ", ";
      js << "{\"index\": " << ls.index << ", \"layer\": \"" << ls.layer
         << "\", \"max_abs\": " << ls.series.max_abs << ", \"mean_abs\": "
         << ls.series.mean_abs() << "}";
    }
    js << "], \"macs\": " << r.macs << ", \"shadow_runs\": "
       << r.shadow_runs << ", \"shadow_sheds\": " << r.shadow_sheds
       << ", \"primary_energy_uj\": " << r.primary_energy_uj
       << ", \"shadow_energy_uj\": " << r.shadow_energy_uj
       << ", \"energy_ratio\": "
       << (r.primary_energy_uj > 0
               ? r.shadow_energy_uj / r.primary_energy_uj
               : 0.0)
       << "}";
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
