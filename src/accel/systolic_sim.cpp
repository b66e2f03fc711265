#include "accel/systolic_sim.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "fpemu/softfloat.hpp"
#include "mac/gemm.hpp"
#include "util/thread_pool.hpp"

namespace srmac::accel {

uint64_t pe_seed(uint64_t base, int tile_i, int tile_j, int pi, int pj) {
  uint64_t z = base + 0x9E3779B97F4A7C15ull *
                          (static_cast<uint64_t>(tile_i) << 32 |
                           static_cast<uint64_t>(tile_j));
  z ^= (static_cast<uint64_t>(pi) << 17) + static_cast<uint64_t>(pj) +
       0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// One pipeline register carrying an operand and its valid flag.
struct Reg {
  uint32_t value = 0;
  bool valid = false;
};

/// Adds `from`'s event counters into `into` (pe_count is set by the driver;
/// tile counters are order-independent sums, so results are identical at
/// any thread count).
void merge_stats(const SimStats& from, SimStats* into) {
  into->cycles += from.cycles;
  into->macs += from.macs;
  into->a_reads += from.a_reads;
  into->b_reads += from.b_reads;
  into->c_writes += from.c_writes;
  into->c_reads += from.c_reads;
}

}  // namespace

CycleAccurateArray::CycleAccurateArray(const MacConfig& cfg, int rows,
                                       int cols, Dataflow dataflow,
                                       uint64_t seed)
    : cfg_(cfg.normalized()),
      rows_(rows),
      cols_(cols),
      dataflow_(dataflow),
      seed_(seed) {
  assert(rows > 0 && cols > 0);
}

SimStats CycleAccurateArray::expected_stats(int M, int N, int K,
                                            bool accumulate) const {
  SimStats st;
  st.pe_count = rows_ * cols_;
  const uint64_t m = static_cast<uint64_t>(M), n = static_cast<uint64_t>(N),
                 k = static_cast<uint64_t>(K);
  const uint64_t tiles_n = (n + cols_ - 1) / cols_;
  st.macs = m * n * k;
  if (dataflow_ == Dataflow::kOutputStationary) {
    // Each (rows x cols) output tile streams its A rows and B columns once:
    // K accumulations plus rows + cols - 2 cycles of skew, tiles back to
    // back, then one drain epilogue.
    const uint64_t tiles_m = (m + rows_ - 1) / rows_;
    st.cycles = tiles_m * tiles_n * (k + rows_ + cols_ - 2) + rows_ + cols_;
    st.a_reads = tiles_n * m * k;
    st.b_reads = tiles_m * n * k;
    st.c_writes = m * n;
    st.c_reads = accumulate ? m * n : 0;
    return st;
  }
  // Weight-stationary: per (k, n) tile, `rows` preload cycles plus the
  // M-deep stream through rows + cols - 2 stages of skew. Every k tile
  // writes the partials back; every one but the first re-reads them, and
  // the first reads C when accumulating.
  const uint64_t tiles_k = (k + rows_ - 1) / rows_;
  st.cycles = tiles_k * tiles_n * (2 * static_cast<uint64_t>(rows_) + m +
                                   cols_ - 2);
  st.a_reads = tiles_n * m * k;
  st.b_reads = n * k;
  st.c_writes = tiles_k * m * n;
  const uint64_t c_fetches = tiles_k == 0 ? 0 : tiles_k - 1 + accumulate;
  st.c_reads = c_fetches * m * n;
  return st;
}

SimStats CycleAccurateArray::gemm(int M, int N, int K, const float* A, int lda,
                                  const float* B, int ldb, float* C, int ldc,
                                  bool accumulate, int threads) {
  // Operand buffers hold mul_fmt words, exactly what the feeders read —
  // produced by the engine's shared operand-quantization pass.
  std::vector<uint32_t> qa(static_cast<size_t>(M) * K);
  std::vector<uint32_t> qb(static_cast<size_t>(K) * N);
  gemm_quantize(cfg_.mul_fmt, M, K, A, lda, qa.data(), threads);
  gemm_quantize(cfg_.mul_fmt, K, N, B, ldb, qb.data(), threads);

  return dataflow_ == Dataflow::kOutputStationary
             ? gemm_output_stationary(M, N, K, qa, qb, C, ldc, accumulate,
                                      threads)
             : gemm_weight_stationary(M, N, K, qa, qb, C, ldc, accumulate,
                                      threads);
}

void CycleAccurateArray::simulate_os_tile(int ti, int tj, int M, int N, int K,
                                          const std::vector<uint32_t>& qa,
                                          const std::vector<uint32_t>& qb,
                                          float* C, int ldc, bool accumulate,
                                          SimStats* st) const {
  // PEs past the last row or column of C never see a valid operand (their
  // feeders stay idle and their neighbours only pass idle registers on),
  // so only the live live_r x live_c corner is simulated, and only until
  // its last operand pair has met. The tile still takes the full array's
  // skew in cycles.
  const int live_r = std::min(rows_, M - ti * rows_);
  const int live_c = std::min(cols_, N - tj * cols_);
  const size_t npe = static_cast<size_t>(live_r) * live_c;
  // Fresh PEs per output tile (tile-specific LFSR phase), their
  // accumulators at +0 or preloaded with C through the drain network.
  std::vector<MacUnit> pes;
  pes.reserve(npe);
  for (int pi = 0; pi < live_r; ++pi)
    for (int pj = 0; pj < live_c; ++pj) {
      pes.emplace_back(cfg_, pe_seed(seed_, ti, tj, pi, pj));
      if (accumulate) {
        pes.back().set_acc(SoftFloat::from_double(
            cfg_.acc_fmt, C[static_cast<size_t>(ti * rows_ + pi) * ldc +
                            tj * cols_ + pj]));
        ++st->c_reads;
      }
    }

  std::vector<Reg> a_cur(npe), b_cur(npe), a_nxt(npe), b_nxt(npe);
  st->cycles += static_cast<uint64_t>(K) + rows_ + cols_ - 2;
  const int busy_cycles = K + live_r + live_c - 2;
  for (int t = 0; t < busy_cycles; ++t) {
    // Compute this cycle's operand at every PE: the left/top edges see
    // the skewed feeder streams, interior PEs see their neighbours'
    // registers from the previous edge.
    for (int pi = 0; pi < live_r; ++pi) {
      for (int pj = 0; pj < live_c; ++pj) {
        const size_t at = static_cast<size_t>(pi) * live_c + pj;
        Reg a_in, b_in;
        if (pj == 0) {
          const int k = t - pi;
          if (k >= 0 && k < K) {
            a_in = {qa[static_cast<size_t>(ti * rows_ + pi) * K + k], true};
            ++st->a_reads;
          }
        } else {
          a_in = a_cur[at - 1];
        }
        if (pi == 0) {
          const int k = t - pj;
          if (k >= 0 && k < K) {
            b_in = {qb[static_cast<size_t>(k) * N + tj * cols_ + pj], true};
            ++st->b_reads;
          }
        } else {
          b_in = b_cur[at - static_cast<size_t>(live_c)];
        }
        if (a_in.valid && b_in.valid) {
          pes[at].step(a_in.value, b_in.value);
          ++st->macs;
        }
        a_nxt[at] = a_in;
        b_nxt[at] = b_in;
      }
    }
    a_cur.swap(a_nxt);
    b_cur.swap(b_nxt);
  }
  // Drain overlaps the next tile's fill through a separate network;
  // only the traffic is charged here.
  for (int pi = 0; pi < live_r; ++pi)
    for (int pj = 0; pj < live_c; ++pj) {
      C[static_cast<size_t>(ti * rows_ + pi) * ldc + tj * cols_ + pj] =
          static_cast<float>(
              pes[static_cast<size_t>(pi) * live_c + pj].acc_value());
      ++st->c_writes;
    }
}

SimStats CycleAccurateArray::gemm_output_stationary(
    int M, int N, int K, const std::vector<uint32_t>& qa,
    const std::vector<uint32_t>& qb, float* C, int ldc, bool accumulate,
    int threads) {
  SimStats st;
  st.pe_count = rows_ * cols_;
  const int tiles_m = (M + rows_ - 1) / rows_;
  const int tiles_n = (N + cols_ - 1) / cols_;
  std::mutex merge_m;
  // Output tiles own disjoint C blocks and their own PE/LFSR state: they
  // simulate concurrently, with per-task statistics merged at the end.
  ThreadPool::global().parallel_for(
      0, static_cast<int64_t>(tiles_m) * tiles_n,
      [&](int64_t lo, int64_t hi) {
        SimStats local;
        for (int64_t t = lo; t < hi; ++t)
          simulate_os_tile(static_cast<int>(t / tiles_n),
                           static_cast<int>(t % tiles_n), M, N, K, qa, qb, C,
                           ldc, accumulate, &local);
        std::lock_guard<std::mutex> lk(merge_m);
        merge_stats(local, &st);
      },
      threads);
  st.cycles += static_cast<uint64_t>(rows_) + cols_;  // final drain epilogue
  return st;
}

void CycleAccurateArray::simulate_ws_tile(int kt, int tj, int M, int N, int K,
                                          const std::vector<uint32_t>& qa,
                                          const std::vector<uint32_t>& qb,
                                          bool accumulate,
                                          std::vector<uint32_t>* partial,
                                          SimStats* st) const {
  const size_t npe = static_cast<size_t>(rows_) * cols_;
  std::vector<MacUnit> pes;
  pes.reserve(npe);
  std::vector<uint32_t> weight(npe, 0);
  std::vector<bool> wvalid(npe, false);
  for (int pk = 0; pk < rows_; ++pk)
    for (int pj = 0; pj < cols_; ++pj) {
      pes.emplace_back(cfg_, pe_seed(seed_, kt, tj, pk, pj));
      const int k = kt * rows_ + pk;
      const int j = tj * cols_ + pj;
      const size_t at = static_cast<size_t>(pk) * cols_ + pj;
      if (k < K && j < N) {
        weight[at] = qb[static_cast<size_t>(k) * N + j];
        wvalid[at] = true;
        ++st->b_reads;
      }
    }
  st->cycles += static_cast<uint64_t>(rows_);  // weight preload shift-in

  std::vector<Reg> a_cur(npe), a_nxt(npe);
  std::vector<Reg> p_cur(npe), p_nxt(npe);
  const int tile_cycles = M + rows_ + cols_ - 2;
  for (int t = 0; t < tile_cycles; ++t) {
    ++st->cycles;
    for (int pk = 0; pk < rows_; ++pk) {
      for (int pj = 0; pj < cols_; ++pj) {
        const size_t at = static_cast<size_t>(pk) * cols_ + pj;
        Reg a_in, p_in;
        if (pj == 0) {
          // Row pk streams A column k = kt*rows_+pk, skewed by pk.
          const int i = t - pk;
          const int k = kt * rows_ + pk;
          if (i >= 0 && i < M && k < K) {
            a_in = {qa[static_cast<size_t>(i) * K + k], true};
            ++st->a_reads;
          }
        } else {
          a_in = a_cur[at - 1];
        }
        if (pk == 0) {
          // Top of the column: inject the running partial for row i — the
          // previous k tiles' sum, C in acc_fmt on the first k tile when
          // accumulating, +0 otherwise.
          const int i = t - pj;
          const int j = tj * cols_ + pj;
          if (i >= 0 && i < M && j < N) {
            p_in = {(*partial)[static_cast<size_t>(i) * N + j], true};
            if (kt > 0 || accumulate) ++st->c_reads;
          }
        } else {
          p_in = p_cur[at - static_cast<size_t>(cols_)];
        }
        Reg p_out = p_in;
        if (a_in.valid && p_in.valid && wvalid[at]) {
          pes[at].set_acc(p_in.value);
          p_out.value = pes[at].step(a_in.value, weight[at]);
          ++st->macs;
        }
        a_nxt[at] = a_in;
        p_nxt[at] = p_out;
      }
    }
    a_cur.swap(a_nxt);
    p_cur.swap(p_nxt);
    // Bottom edge emits finished partials.
    for (int pj = 0; pj < cols_; ++pj) {
      const Reg& out = p_cur[static_cast<size_t>(rows_ - 1) * cols_ + pj];
      const int i = t - (rows_ - 1) - pj;
      const int j = tj * cols_ + pj;
      if (out.valid && i >= 0 && i < M && j < N) {
        (*partial)[static_cast<size_t>(i) * N + j] = out.value;
        ++st->c_writes;
      }
    }
  }
}

SimStats CycleAccurateArray::gemm_weight_stationary(
    int M, int N, int K, const std::vector<uint32_t>& qa,
    const std::vector<uint32_t>& qb, float* C, int ldc, bool accumulate,
    int threads) {
  SimStats st;
  st.pe_count = rows_ * cols_;
  const FpFormat acc = cfg_.acc_fmt;

  // Partial results in accumulator format: C when accumulating, else +0.
  std::vector<uint32_t> partial(static_cast<size_t>(M) * N, 0);
  if (accumulate)
    for (int i = 0; i < M; ++i)
      for (int j = 0; j < N; ++j)
        partial[static_cast<size_t>(i) * N + j] =
            SoftFloat::from_double(acc, C[static_cast<size_t>(i) * ldc + j]);
  const int tiles_n = (N + cols_ - 1) / cols_;
  std::mutex merge_m;

  // k tiles chain through the partial-sum buffer and stay sequential;
  // within one k wave the column tiles touch disjoint partial columns and
  // run concurrently.
  for (int kt = 0; kt * rows_ < K; ++kt) {
    ThreadPool::global().parallel_for(
        0, tiles_n,
        [&](int64_t lo, int64_t hi) {
          SimStats local;
          for (int64_t tj = lo; tj < hi; ++tj)
            simulate_ws_tile(kt, static_cast<int>(tj), M, N, K, qa, qb,
                             accumulate, &partial, &local);
          std::lock_guard<std::mutex> lk(merge_m);
          merge_stats(local, &st);
        },
        threads);
  }
  for (int i = 0; i < M; ++i)
    for (int j = 0; j < N; ++j)
      C[static_cast<size_t>(i) * ldc + j] = static_cast<float>(
          SoftFloat::to_double(acc, partial[static_cast<size_t>(i) * N + j]));
  return st;
}

}  // namespace srmac::accel
