#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/systolic_sim.hpp"
#include "hwcost/systolic_cost.hpp"

namespace srmac::accel {

/// GEMM dimensions of one network layer after im2col lowering.
struct LayerShape {
  std::string name;
  int M = 0;  ///< output pixels * batch
  int N = 0;  ///< output channels
  int K = 0;  ///< input channels * kernel area
};

/// The GEMM shapes of the ResNet-20 (CIFAR-scale) forward pass — the
/// workload the paper trains — for batch size 1.
std::vector<LayerShape> resnet20_layer_shapes(int image_hw = 32);

/// Analytic mapping of one layer onto a rows x cols array (no simulation):
/// cycles and operand/result traffic in words from
/// CycleAccurateArray::expected_stats, and energy from the per-PE cost
/// model at the modelled clock.
struct MappingReport {
  LayerShape shape;
  uint64_t cycles = 0;
  uint64_t macs = 0;
  double utilization = 0.0;
  uint64_t a_words = 0, b_words = 0, c_words = 0;
  double time_us = 0.0;       ///< cycles * clock
  double energy_uj = 0.0;     ///< MAC energy + buffer access energy
};

/// Per-access energy for the operand buffers (pJ/word), a small SRAM
/// figure consistent with the 28nm-class MAC numbers.
struct BufferEnergyModel {
  double pj_per_a_word = 0.35;
  double pj_per_b_word = 0.35;
  double pj_per_c_word = 0.60;  ///< wider accumulator-format word
};

MappingReport map_layer(const LayerShape& shape, const MacConfig& cfg,
                        const hw::SystolicCostOptions& opt = {},
                        Dataflow dataflow = Dataflow::kOutputStationary,
                        const BufferEnergyModel& be = {});

/// Maps a whole network and sums the report (per-layer rows + a total).
std::vector<MappingReport> map_network(const std::vector<LayerShape>& layers,
                                       const MacConfig& cfg,
                                       const hw::SystolicCostOptions& opt = {},
                                       Dataflow dataflow =
                                           Dataflow::kOutputStationary);

}  // namespace srmac::accel
