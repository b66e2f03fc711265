// C ABI shim over the C++ stack (include/srmac_c.h): every entry point
// catches at the language boundary — exceptions must never unwind into a C
// caller — and reports through the thread-local last-error string.

#include "srmac_c.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "compile/model_compiler.hpp"
#include "engine/emu_engine.hpp"
#include "engine/session_spec.hpp"
#include "io/checkpoint.hpp"
#include "nn/model_zoo.hpp"
#include "nn/module.hpp"
#include "serve/serve_types.hpp"
#include "tensor/tensor.hpp"

using namespace srmac;

struct srmac_session {
  ModelSpec spec;
  std::string scenario;
  std::optional<EmuEngine> engine;
  std::unique_ptr<Sequential> model;
  std::unique_ptr<CompiledModel> compiled;  // set by srmac_session_compile
  // Shadow A/B state (srmac_session_enable_shadow): a second engine over
  // the same model, a sample fraction, and the forward-call sequence
  // number standing in for a trace id in shadow_selects().
  std::optional<EmuEngine> shadow_engine;
  double shadow_fraction = 0.0;
  uint64_t forward_seq = 0;
};

namespace {

thread_local std::string g_last_error;

void set_error(const std::string& msg) { g_last_error = msg; }

/// Runs `fn` with the boundary guard: exceptions become last_error +
/// `on_error` as the return value.
template <typename Fn, typename R>
R guarded(R on_error, Fn&& fn) {
  try {
    g_last_error.clear();
    return fn();
  } catch (const std::exception& e) {
    set_error(e.what());
    return on_error;
  } catch (...) {
    set_error("unknown C++ exception");
    return on_error;
  }
}

srmac_session* build_session(const std::string& scenario,
                             const ModelSpec& spec) {
  auto s = std::make_unique<srmac_session>();
  s->spec = spec;
  s->scenario = scenario;
  SessionSpec session;
  session.scenario = scenario;
  s->engine = session.build_engine();
  s->model = spec.build();
  return s.release();
}

}  // namespace

extern "C" {

const char* srmac_last_error(void) { return g_last_error.c_str(); }

srmac_session* srmac_session_create(const char* scenario,
                                    const char* model_spec) {
  return guarded<>(static_cast<srmac_session*>(nullptr), [&] {
    if (!scenario || !model_spec)
      throw std::invalid_argument("srmac: NULL scenario or model spec");
    std::string error;
    std::optional<ModelSpec> spec = ModelSpec::parse(model_spec, &error);
    if (!spec) throw std::invalid_argument("srmac: " + error);
    return build_session(scenario, *spec);
  });
}

srmac_session* srmac_session_open(const char* checkpoint_path,
                                  const char* scenario) {
  return guarded<>(static_cast<srmac_session*>(nullptr), [&] {
    if (!checkpoint_path)
      throw std::invalid_argument("srmac: NULL checkpoint path");
    const CheckpointMeta meta = read_checkpoint_meta(checkpoint_path);
    if (meta.model.empty())
      throw std::runtime_error(
          "srmac: checkpoint carries no model tag; use "
          "srmac_session_create + srmac_session_load_checkpoint");
    std::string error;
    std::optional<ModelSpec> spec = ModelSpec::parse(meta.model, &error);
    if (!spec)
      throw std::runtime_error("srmac: checkpoint model tag: " + error);
    const std::string chosen =
        scenario ? std::string(scenario)
                 : (meta.scenario.empty() ? "fp32" : meta.scenario);
    srmac_session* s = build_session(chosen, *spec);
    try {
      load_checkpoint(checkpoint_path, *s->model);
    } catch (...) {
      delete s;
      throw;
    }
    return s;
  });
}

void srmac_session_destroy(srmac_session* s) { delete s; }

const char* srmac_session_scenario(const srmac_session* s) {
  return s ? s->scenario.c_str() : "";
}

const char* srmac_session_model(const srmac_session* s) {
  return s ? s->spec.name.c_str() : "";
}

int srmac_session_input_shape(const srmac_session* s, int* dims,
                              int capacity) {
  if (!s) {
    set_error("srmac: NULL session");
    return -1;
  }
  const std::vector<int> shape = s->spec.input_shape();
  const int n = static_cast<int>(shape.size());
  if (dims && capacity >= n)
    std::memcpy(dims, shape.data(), sizeof(int) * static_cast<size_t>(n));
  return n;
}

long srmac_session_input_numel(const srmac_session* s) {
  if (!s) {
    set_error("srmac: NULL session");
    return -1;
  }
  long numel = 1;
  for (int d : s->spec.input_shape()) numel *= d;
  return numel;
}

long srmac_session_forward(srmac_session* s, const float* input,
                           size_t input_numel, float* output,
                           size_t output_capacity) {
  return guarded<>(-1L, [&]() -> long {
    if (!s || !input) throw std::invalid_argument("srmac: NULL argument");
    std::vector<int> shape = s->spec.input_shape();
    size_t need = 1;
    for (int d : shape) need *= static_cast<size_t>(d);
    if (input_numel != need)
      throw std::invalid_argument(
          "srmac: input has " + std::to_string(input_numel) +
          " floats, the model wants " + std::to_string(need));
    shape.insert(shape.begin(), 1);
    Tensor x(shape);
    std::memcpy(x.data(), input, need * sizeof(float));
    // Shadow selection is decided (and the input copied) before the
    // primary forward, which may consume `x`.
    const uint64_t trace = ++s->forward_seq;
    const bool do_shadow =
        s->shadow_engine && shadow_selects(trace, s->shadow_fraction);
    Tensor shadow_x;
    if (do_shadow) {
      shadow_x = x;  // deep copy
      s->engine->telemetry().record_serve_shadow_selected(1);
    }
    Tensor y;
    if (s->compiled) {
      s->compiled->refresh();  // pick up checkpoint loads / weight writes
      std::vector<Tensor> xs;
      xs.push_back(std::move(x));
      s->compiled->forward_batch(xs, 0, s->compiled->stages());
      y = std::move(xs[0]);
    } else {
      y = s->model->forward(s->engine->context(), x, /*training=*/false);
    }
    if (do_shadow) {
      // After the primary output exists: the shadow pass reads copies only
      // and records final-output drift into the primary engine's tracker.
      const Tensor ys = s->model->forward(s->shadow_engine->context(),
                                          shadow_x, /*training=*/false);
      const size_t n =
          static_cast<size_t>(std::min(y.numel(), ys.numel()));
      s->engine->telemetry().drift().record_final(
          s->engine->scenario(), s->shadow_engine->scenario(), {}, y.data(),
          ys.data(), n);
      s->engine->telemetry().record_serve_shadow_run(1);
    }
    const long out_numel = static_cast<long>(y.numel());
    if (output && output_capacity >= static_cast<size_t>(out_numel))
      std::memcpy(output, y.data(),
                  static_cast<size_t>(out_numel) * sizeof(float));
    return out_numel;
  });
}

int srmac_session_compile(srmac_session* s, int max_batch) {
  return guarded<>(-1, [&] {
    if (!s) throw std::invalid_argument("srmac: NULL session");
    if (max_batch < 1)
      throw std::invalid_argument("srmac: max_batch must be >= 1");
    ModelCompiler::Options opts;
    opts.input_shape = s->spec.input_shape();
    opts.max_batch = max_batch;
    // Compile into a fresh program first: on failure the session keeps its
    // previous serving mode (eager, or an earlier compile).
    s->compiled = ModelCompiler(*s->engine).compile(*s->model, opts);
    return 0;
  });
}

int srmac_session_is_compiled(const srmac_session* s) {
  return s && s->compiled ? 1 : 0;
}

int srmac_session_load_checkpoint(srmac_session* s, const char* path) {
  return guarded<>(-1, [&] {
    if (!s || !path) throw std::invalid_argument("srmac: NULL argument");
    load_checkpoint(path, *s->model);
    return 0;
  });
}

int srmac_session_save_checkpoint(srmac_session* s, const char* path) {
  return guarded<>(-1, [&] {
    if (!s || !path) throw std::invalid_argument("srmac: NULL argument");
    save_checkpoint(path, *s->model, s->scenario, s->spec.name);
    return 0;
  });
}

int srmac_session_telemetry(const srmac_session* s, srmac_telemetry* out) {
  return guarded<>(-1, [&] {
    if (!s || !out) throw std::invalid_argument("srmac: NULL argument");
    const TelemetrySnapshot snap = s->engine->telemetry().snapshot();
    out->gemms = snap.gemms;
    out->macs = static_cast<double>(snap.macs);
    out->bytes_quantized = static_cast<double>(snap.bytes_quantized);
    out->seconds = snap.seconds;
    return 0;
  });
}

long srmac_session_telemetry_json(const srmac_session* s, char* buf,
                                  size_t capacity) {
  return guarded<>(-1L, [&]() -> long {
    if (!s) throw std::invalid_argument("srmac: NULL session");
    const std::string json = s->engine->telemetry().snapshot().to_json();
    const size_t need = json.size() + 1;  // with trailing NUL
    if (buf && capacity >= need)
      std::memcpy(buf, json.c_str(), need);
    return static_cast<long>(need);
  });
}

int srmac_session_enable_shadow(srmac_session* s, const char* scenario,
                                double fraction) {
  return guarded<>(-1, [&] {
    if (!s) throw std::invalid_argument("srmac: NULL session");
    if (!scenario || fraction <= 0.0) {
      s->shadow_engine.reset();
      s->shadow_fraction = 0.0;
      return 0;
    }
    // Build first: a bad scenario leaves the previous shadow state intact.
    SessionSpec spec;
    spec.scenario = scenario;
    spec.seed = s->engine->seed();  // divergence measures the scenario,
                                    // not the seed
    EmuEngine built = spec.build_engine();
    s->shadow_engine.emplace(std::move(built));
    s->shadow_fraction = fraction;
    return 0;
  });
}

int srmac_session_drift(const srmac_session* s, srmac_drift* out) {
  return guarded<>(-1, [&] {
    if (!s || !out) throw std::invalid_argument("srmac: NULL argument");
    if (!s->shadow_engine)
      throw std::runtime_error("srmac: shadowing is not enabled");
    *out = srmac_drift{};
    const std::vector<DriftPairSnapshot> pairs =
        s->engine->telemetry().drift().snapshot();
    for (const DriftPairSnapshot& p : pairs) {
      if (p.primary != s->engine->scenario() ||
          p.shadow != s->shadow_engine->scenario())
        continue;
      out->samples = p.final_output.samples;
      out->final_max_abs = p.final_output.max_abs;
      out->final_mean_abs = p.final_output.mean_abs();
      out->p50_maxabs = p.final_output.maxabs_percentile(50);
      out->p95_maxabs = p.final_output.maxabs_percentile(95);
      out->p99_maxabs = p.final_output.maxabs_percentile(99);
      break;
    }
    return 0;
  });
}

}  // extern "C"
