#include "engine/registry.hpp"

#include <algorithm>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "mac/gemm.hpp"
#include "mac/systolic.hpp"
#include "util/thread_pool.hpp"

namespace srmac {

void MatmulBackend::gemm_bits(const MacConfig& cfg,
                              const GemmBitsArgs& args) const {
  (void)cfg;
  (void)args;
  throw std::logic_error("backend \"" + name() +
                         "\" does not implement gemm_bits; the engine must "
                         "route through the float fallback");
}

void MatmulBackend::gemm_batch(const GemmBatchItem* items,
                               size_t count) const {
  for (size_t i = 0; i < count; ++i) {
    const GemmBatchItem& it = items[i];
    const GemmArgs& a = it.args;
    if (!it.Aq && !it.Bq) {
      gemm(it.cfg, a);
      continue;
    }
    const MacConfig c = it.cfg.normalized();
    if (!supports_prequantized()) {
      // Decode the cached plane(s) back to floats (lossless round trip:
      // requantizing a representable value returns the same bits).
      GemmArgs fa = a;
      std::vector<float> af, bf;
      if (it.Aq) {
        af.resize(static_cast<size_t>(a.M) * a.K);
        gemm_dequantize(c.mul_fmt, a.M, a.K, it.Aq, a.lda, af.data());
        fa.A = af.data();
        fa.lda = a.K;
      }
      if (it.Bq) {
        bf.resize(static_cast<size_t>(a.K) * a.N);
        gemm_dequantize(c.mul_fmt, a.K, a.N, it.Bq, a.ldb, bf.data());
        fa.B = bf.data();
        fa.ldb = a.N;
      }
      gemm(c, fa);
      continue;
    }
    // Quantize the float side(s) and route through gemm_bits.
    std::vector<uint32_t> qa, qb;
    GemmBitsArgs b;
    b.M = a.M;
    b.N = a.N;
    b.K = a.K;
    b.C = a.C;
    b.ldc = a.ldc;
    b.accumulate = a.accumulate;
    b.seed = a.seed;
    b.threads = a.threads;
    if (it.Aq) {
      b.Aq = it.Aq;
      b.lda = a.lda;
    } else {
      qa.resize(static_cast<size_t>(a.M) * a.K);
      gemm_quantize(c.mul_fmt, a.M, a.K, a.A, a.lda, qa.data(), a.threads);
      b.Aq = qa.data();
      b.lda = a.K;
    }
    if (it.Bq) {
      b.Bq = it.Bq;
      b.ldb = a.ldb;
    } else {
      qb.resize(static_cast<size_t>(a.K) * a.N);
      gemm_quantize(c.mul_fmt, a.K, a.N, a.B, a.ldb, qb.data(), a.threads);
      b.Bq = qb.data();
      b.ldb = a.N;
    }
    gemm_bits(c, b);
  }
}

namespace {

/// Identity of one packable B plane: pointer, bits-vs-float space, dims,
/// and the (normalized) quantization format the panel layout depends on.
/// The key omits the adder / random-bit fields two passes may disagree on;
/// prequantized and float submissions of the same plane key separately
/// (distinct pointer spaces).
using PlaneKey = std::tuple<const void*, bool, int, int, int, int, int, bool>;

PlaneKey plane_key(const GemmBatchItem& it, const MacConfig& cfg) {
  return PlaneKey{it.Bq ? static_cast<const void*>(it.Bq)
                        : static_cast<const void*>(it.args.B),
                  it.Bq != nullptr,
                  it.args.ldb,
                  it.args.K,
                  it.args.N,
                  cfg.mul_fmt.exp_bits,
                  cfg.mul_fmt.man_bits,
                  cfg.mul_fmt.subnormals};
}

/// Quantizes (when the item carries floats) and packs one item's B plane
/// into the panel layout for its normalized config.
PackedBPanels pack_item_plane(const GemmBatchItem& it, const MacConfig& cfg) {
  const GemmArgs& a = it.args;
  if (it.Bq) return gemm_pack_b(cfg, a.K, a.N, it.Bq, a.ldb, a.threads);
  std::vector<uint32_t> bq(static_cast<size_t>(a.K) * a.N);
  gemm_quantize(cfg.mul_fmt, a.K, a.N, a.B, a.ldb, bq.data(), a.threads);
  return gemm_pack_b(cfg, a.K, a.N, bq.data(), a.N, a.threads);
}

/// Bytes one float B plane quantizes into under `cfg` (byte-rounded per
/// value, as Telemetry::record_quantize counts them).
uint64_t plane_quant_bytes(const GemmBatchItem& it, const MacConfig& cfg) {
  return static_cast<uint64_t>(it.args.K) * it.args.N *
         static_cast<uint64_t>((cfg.mul_fmt.width() + 7) / 8);
}

/// Thread cap for a cross-problem sweep: 0 means "full hardware
/// concurrency", so any uncapped item uncaps the whole batch.
int batch_thread_cap(const GemmBatchItem* items, size_t count) {
  int threads = 0;
  for (size_t i = 0; i < count; ++i) {
    if (items[i].args.threads <= 0) return 0;
    threads = std::max(threads, items[i].args.threads);
  }
  return threads;
}

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

/// The fused emulation engine (docs/PERF.md) — blocked GEMM, decoded adder
/// cores, product table, AVX-512 group chain, persistent thread pool — with
/// a topology-aware batch scheduler on the gemm_batch boundary. Whole
/// problems are routed round-robin to worker shards (default shard count =
/// the NUMA nodes ThreadPool::topology() detected; overridden per process
/// by --shards / SRMAC_SHARDS / ThreadPool::set_default_shards, or pinned
/// per instance through the constructor). Each shard's queue is drained by
/// resident participants that steal cross-shard only when their own shard
/// runs dry, and quantized/packed B planes live in per-shard caches: a
/// plane reused across a batch (the per-layer weight fan-out) is packed
/// once per shard that touches it instead of once per problem. (No CPU
/// pinning — the locality is structural, from shard-local queues and
/// caches, not enforced affinity.) Single GEMMs run the fused kernel
/// directly. Per-element seeds make the result bit-identical to the
/// sequential per-problem loop, and to "reference", at any shard count
/// (tests/engine/sharded_backend_test.cpp).
class ShardedBackend final : public MatmulBackend, public ShardStatsSource {
 public:
  /// `shards` pins the shard count; 0 defers to ThreadPool::default_shards
  /// at each dispatch (the registry's factory uses 0).
  explicit ShardedBackend(int shards = 0) : shards_(shards) {}

  std::string name() const override { return "sharded"; }
  bool bit_accurate() const override { return true; }
  bool supports_prequantized() const override { return true; }
  bool supports_batch() const override { return true; }
  void gemm(const MacConfig& cfg, const GemmArgs& a) const override {
    gemm_mac(cfg, a.M, a.N, a.K, a.A, a.lda, a.B, a.ldb, a.C, a.ldc,
             a.accumulate, a.seed, a.threads);
  }
  void gemm_bits(const MacConfig& cfg, const GemmBitsArgs& a) const override {
    gemm_mac_bits(cfg, a.M, a.N, a.K, a.Aq, a.lda, a.Bq, a.ldb, a.C, a.ldc,
                  a.accumulate, a.seed, a.threads);
  }

  void gemm_batch(const GemmBatchItem* items, size_t count) const override {
    if (count <= 1) {
      MatmulBackend::gemm_batch(items, count);
      // The default dispatch quantized any float B itself; fold the bytes
      // into the cumulative counter so the telemetry dispatcher's
      // shard-aware accounting (which leaves B planes to us) stays exact.
      uint64_t bytes = 0;
      for (size_t i = 0; i < count; ++i)
        if (!items[i].Bq)
          bytes += plane_quant_bytes(items[i], items[i].cfg.normalized());
      if (bytes) {
        std::lock_guard<std::mutex> lk(stats_m_);
        plane_bytes_ += bytes;
      }
      return;
    }
    const int requested =
        shards_ > 0 ? shards_ : ThreadPool::default_shards();
    const int S = static_cast<int>(std::min<int64_t>(
        std::max(1, requested), static_cast<int64_t>(count)));

    // Per-shard plane caches: packed lazily by whichever of the shard's
    // participants needs the plane first, under the shard's own lock —
    // contention stays intra-shard. A stolen problem reads (and on a miss
    // fills) its *home* shard's cache, so the pack it leaves behind is the
    // one the shard's resident threads will reuse.
    struct ShardCache {
      std::mutex m;
      std::deque<std::pair<PlaneKey, PackedBPanels>> planes;  // stable refs
      uint64_t packed = 0;
      uint64_t quantized_bytes = 0;  ///< float planes this shard quantized
    };
    std::vector<ShardCache> caches(S);
    ThreadPool::ShardStats run;
    ThreadPool::global().parallel_for_sharded(
        static_cast<int64_t>(count), S,
        [&](int64_t i) {
          const GemmBatchItem& it = items[i];
          const GemmArgs& a = it.args;
          const MacConfig cfg = it.cfg.normalized();
          // A operand: cached bits pass through, floats quantize locally
          // (on the executing shard, like every other per-problem cost).
          std::vector<uint32_t> aq_store;
          const uint32_t* aq = it.Aq;
          int lda = a.lda;
          if (!aq) {
            aq_store.resize(static_cast<size_t>(a.M) * a.K);
            gemm_quantize(cfg.mul_fmt, a.M, a.K, a.A, a.lda, aq_store.data(),
                          a.threads);
            aq = aq_store.data();
            lda = a.K;
          }
          ShardCache& cache = caches[i % S];
          const PlaneKey key = plane_key(it, cfg);
          auto lookup = [&]() -> const PackedBPanels* {
            for (const auto& [k, p] : cache.planes)
              if (k == key) return &p;
            return nullptr;
          };
          const PackedBPanels* panels = nullptr;
          {
            std::lock_guard<std::mutex> lk(cache.m);
            panels = lookup();
          }
          if (!panels) {
            // Pack outside the lock so shard mates whose next problem hits
            // a different plane keep running; on the rare concurrent first
            // touch the loser discards its pack (re-check before insert).
            PackedBPanels packed = pack_item_plane(it, cfg);
            std::lock_guard<std::mutex> lk(cache.m);
            panels = lookup();
            if (!panels) {
              cache.planes.emplace_back(key, std::move(packed));
              cache.packed += 1;
              if (!it.Bq) cache.quantized_bytes += plane_quant_bytes(it, cfg);
              panels = &cache.planes.back().second;
            }
          }
          gemm_mac_bits_packed(cfg, a.M, a.N, a.K, aq, lda, *panels, a.C,
                               a.ldc, a.accumulate, a.seed, a.threads);
        },
        [S](int64_t i) { return static_cast<int>(i % S); }, &run,
        batch_thread_cap(items, count));

    std::lock_guard<std::mutex> lk(stats_m_);
    migrations_ += run.migrations;
    if (planes_packed_.size() < static_cast<size_t>(S))
      planes_packed_.resize(S);
    for (int s = 0; s < S; ++s) {
      planes_packed_[s] += caches[s].packed;
      plane_bytes_ += caches[s].quantized_bytes;
    }
  }

  Stats shard_stats() const override {
    std::lock_guard<std::mutex> lk(stats_m_);
    return Stats{migrations_, planes_packed_, plane_bytes_};
  }

 private:
  int shards_;
  mutable std::mutex stats_m_;
  mutable uint64_t migrations_ = 0;
  mutable std::vector<uint64_t> planes_packed_;
  mutable uint64_t plane_bytes_ = 0;
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
  factories_["sharded"] = [] { return std::make_shared<ShardedBackend>(0); };
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
