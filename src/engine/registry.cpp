#include "engine/registry.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mac/gemm.hpp"
#include "mac/systolic.hpp"

namespace srmac {

void MatmulBackend::gemm_bits(const MacConfig& cfg,
                              const GemmBitsArgs& args) const {
  (void)cfg;
  (void)args;
  throw std::logic_error("backend \"" + name() +
                         "\" does not implement gemm_bits; the engine must "
                         "route through the float fallback");
}

namespace {

/// FP32 baseline: floats untouched, gemm_ref. The MacConfig is ignored.
class Fp32Backend final : public MatmulBackend {
 public:
  std::string name() const override { return "fp32"; }
  bool bit_accurate() const override { return false; }
  void gemm(const MacConfig&, const GemmArgs& a) const override {
    gemm_ref(a.M, a.N, a.K, a.A, a.lda, a.B, a.ldb, a.C, a.ldc, a.accumulate,
             a.threads);
  }
};

/// The seed implementation (one MacUnit per output element) — the golden
/// baseline the fused kernel is verified against, now selectable by name.
class ReferenceBackend final : public MatmulBackend {
 public:
  std::string name() const override { return "reference"; }
  bool bit_accurate() const override { return true; }
  void gemm(const MacConfig& cfg, const GemmArgs& a) const override {
    gemm_mac_reference(cfg, a.M, a.N, a.K, a.A, a.lda, a.B, a.ldb, a.C, a.ldc,
                       a.accumulate, a.seed, a.threads);
  }
};

/// The fused emulation engine (docs/PERF.md): blocked GEMM, decoded adder
/// cores, product table, AVX-512 group chain, persistent thread pool. It
/// is bit-identical to "reference" at any thread count
/// (tests/engine/sharded_backend_test.cpp). It schedules nothing itself;
/// the name "sharded" stays only because the repository benchmark
/// (perfbench/) selects the backend by it.
class ShardedBackend final : public MatmulBackend {
 public:
  std::string name() const override { return "sharded"; }
  bool bit_accurate() const override { return true; }
  bool supports_prequantized() const override { return true; }
  void gemm(const MacConfig& cfg, const GemmArgs& a) const override {
    gemm_mac(cfg, a.M, a.N, a.K, a.A, a.lda, a.B, a.ldb, a.C, a.ldc,
             a.accumulate, a.seed, a.threads);
  }
  void gemm_bits(const MacConfig& cfg, const GemmBitsArgs& a) const override {
    gemm_mac_bits(cfg, a.M, a.N, a.K, a.Aq, a.lda, a.Bq, a.ldb, a.C, a.ldc,
                  a.accumulate, a.seed, a.threads);
  }
};

/// The functional systolic-array simulator: a rows x cols grid of SR-MAC
/// PEs with per-PE seeds (decorrelated from the sharded/reference per-element
/// seeding — this backend models the accelerator, it does not reproduce the
/// software engine's bits) plus the dataflow's cycle model.
class SystolicBackend final : public MatmulBackend {
 public:
  SystolicBackend(int rows, int cols) : rows_(rows), cols_(cols) {}
  std::string name() const override { return "systolic"; }
  bool bit_accurate() const override { return true; }
  void gemm(const MacConfig& cfg, const GemmArgs& a) const override {
    SystolicArray array(cfg, rows_, cols_, a.seed);
    array.gemm(a.M, a.N, a.K, a.A, a.lda, a.B, a.ldb, a.C, a.ldc,
               a.accumulate, a.threads);
  }

 private:
  int rows_, cols_;
};

}  // namespace

BackendRegistry::BackendRegistry() {
  factories_["fp32"] = [] { return std::make_shared<Fp32Backend>(); };
  factories_["reference"] = [] { return std::make_shared<ReferenceBackend>(); };
  factories_["sharded"] = [] { return std::make_shared<ShardedBackend>(); };
  factories_["systolic"] = [] { return std::make_shared<SystolicBackend>(16, 16); };
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_backend(const std::string& name,
                                       Factory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  factories_[name] = std::move(factory);
}

std::shared_ptr<MatmulBackend> BackendRegistry::create(
    const std::string& name) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = factories_.find(name);
    if (it != factories_.end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("unknown compute backend \"" + name +
                                "\" (registered: " + known + ")");
  }
  return factory();
}

const MatmulBackend* BackendRegistry::get(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = shared_.find(name);
    if (it != shared_.end()) return it->second.get();
  }
  std::shared_ptr<MatmulBackend> instance = create(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = shared_.emplace(name, std::move(instance));
  return it->second.get();
}

std::vector<std::string> BackendRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

bool BackendRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(name) != 0;
}

}  // namespace srmac
