#pragma once

#include <cstdint>
#include <vector>

#include "mac/mac_config.hpp"
#include "mac/mac_unit.hpp"

namespace srmac::accel {

/// Which dataflow the array implements.
///
/// kOutputStationary: every PE owns one C element; A streams in from the
/// left edge, B from the top, both skewed one cycle per row/column.
/// kWeightStationary: each PE holds one B element; A streams from the
/// left while partial sums flow down the columns (one accumulation per PE
/// per result, in the same k order as the OS chain).
enum class Dataflow { kOutputStationary, kWeightStationary };

/// Per-run statistics of the cycle-accurate simulation.
struct SimStats {
  uint64_t cycles = 0;          ///< clock edges simulated
  uint64_t macs = 0;            ///< useful MAC operations retired
  uint64_t a_reads = 0;         ///< operand words fetched from the A buffer
  uint64_t b_reads = 0;
  uint64_t c_writes = 0;        ///< results drained to the C buffer
  uint64_t c_reads = 0;         ///< C/partial words fetched (accumulate
                                ///< preload, WS k-tiling)
  double utilization() const {
    const double denom = static_cast<double>(cycles);
    return denom > 0 ? static_cast<double>(macs) /
                           (denom * static_cast<double>(pe_count))
                     : 0.0;
  }
  int pe_count = 0;
};

/// LFSR seed of the PE at (pi, pj) while it works on tile (tile_i,
/// tile_j) of a GEMM seeded with `base`; the one seed function of the
/// array, under both dataflows.
uint64_t pe_seed(uint64_t base, int tile_i, int tile_j, int pi, int pj);

/// Register-level, cycle-accurate model of the paper's future-work
/// accelerator: a rows x cols grid of SR-MAC PEs with operand registers
/// between neighbours, skewed edge feeders, and a drain network. It backs
/// the engine's "systolic" backend (output-stationary, 16x16).
///
/// Every operand moves through the pipeline registers cycle by cycle; the
/// arithmetic runs through the bit-accurate MacUnit, so under
/// output-stationary dataflow each C element is one MacUnit chain in k
/// order seeded by pe_seed (tested), and the run also yields exact cycle,
/// buffer-traffic and PE-activity numbers.
class CycleAccurateArray {
 public:
  CycleAccurateArray(const MacConfig& cfg, int rows, int cols,
                     Dataflow dataflow = Dataflow::kOutputStationary,
                     uint64_t seed = 0xA11CAull);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  Dataflow dataflow() const { return dataflow_; }

  /// C[MxN] = A[MxK] * B[KxN] (+ C when `accumulate`), row-major floats
  /// with leading dimensions, quantized into mul_fmt on the way into the
  /// operand buffers. With `accumulate` each OS PE accumulator, and WS's
  /// first partial sum, starts from C in acc_fmt, as in gemm_mac.
  /// Independent tiles simulate in parallel on the shared thread pool
  /// (`threads` as in gemm_mac: 0 = hardware concurrency); per-PE seeds
  /// make the results and statistics identical at any thread count.
  SimStats gemm(int M, int N, int K, const float* A, int lda, const float* B,
                int ldb, float* C, int ldc, bool accumulate = false,
                int threads = 0);

  /// The statistics gemm() returns for this shape, from the dataflow's
  /// closed form (tested equal on every field): per output tile (OS) or
  /// per (k, n) tile (WS) the skew fill, the accumulation and the drain,
  /// tiles back to back.
  SimStats expected_stats(int M, int N, int K, bool accumulate = false) const;

 private:
  SimStats gemm_output_stationary(int M, int N, int K,
                                  const std::vector<uint32_t>& qa,
                                  const std::vector<uint32_t>& qb, float* C,
                                  int ldc, bool accumulate, int threads);
  SimStats gemm_weight_stationary(int M, int N, int K,
                                  const std::vector<uint32_t>& qa,
                                  const std::vector<uint32_t>& qb, float* C,
                                  int ldc, bool accumulate, int threads);
  /// Simulates one output-stationary tile (ti, tj); writes its C block and
  /// accumulates into `st`.
  void simulate_os_tile(int ti, int tj, int M, int N, int K,
                        const std::vector<uint32_t>& qa,
                        const std::vector<uint32_t>& qb, float* C, int ldc,
                        bool accumulate, SimStats* st) const;
  /// Simulates one weight-stationary (kt, tj) tile against the running
  /// partial-sum buffer (columns tj*cols..): tiles with distinct tj are
  /// independent within one kt wave.
  void simulate_ws_tile(int kt, int tj, int M, int N, int K,
                        const std::vector<uint32_t>& qa,
                        const std::vector<uint32_t>& qb, bool accumulate,
                        std::vector<uint32_t>* partial, SimStats* st) const;

  MacConfig cfg_;
  int rows_, cols_;
  Dataflow dataflow_;
  uint64_t seed_;
};

}  // namespace srmac::accel
