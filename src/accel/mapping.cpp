#include "accel/mapping.hpp"

namespace srmac::accel {

std::vector<LayerShape> resnet20_layer_shapes(int image_hw) {
  // Three stages of six 3x3 convolutions (16, 32, 64 channels), strided at
  // the stage boundaries, plus the stem and the final FC; im2col lowering:
  // M = H*W, N = C_out, K = C_in * 9.
  std::vector<LayerShape> v;
  const int hw1 = image_hw, hw2 = image_hw / 2, hw3 = image_hw / 4;
  v.push_back({"stem3x3", hw1 * hw1, 16, 3 * 9});
  for (int i = 0; i < 6; ++i)
    v.push_back({"stage1_conv" + std::to_string(i), hw1 * hw1, 16, 16 * 9});
  v.push_back({"stage2_conv0", hw2 * hw2, 32, 16 * 9});
  for (int i = 1; i < 6; ++i)
    v.push_back({"stage2_conv" + std::to_string(i), hw2 * hw2, 32, 32 * 9});
  v.push_back({"stage3_conv0", hw3 * hw3, 64, 32 * 9});
  for (int i = 1; i < 6; ++i)
    v.push_back({"stage3_conv" + std::to_string(i), hw3 * hw3, 64, 64 * 9});
  v.push_back({"fc", 1, 10, 64});
  return v;
}

MappingReport map_layer(const LayerShape& shape, const MacConfig& cfg,
                        const hw::SystolicCostOptions& opt,
                        Dataflow dataflow, const BufferEnergyModel& be) {
  MappingReport rep;
  rep.shape = shape;
  const SimStats st = CycleAccurateArray(cfg, opt.rows, opt.cols, dataflow)
                          .expected_stats(shape.M, shape.N, shape.K);
  rep.cycles = st.cycles;
  rep.macs = st.macs;
  rep.utilization = st.utilization();
  rep.a_words = st.a_reads;
  rep.b_words = st.b_reads;
  rep.c_words = st.c_writes + st.c_reads;

  const hw::SystolicReport cost = hw::systolic_cost(cfg, opt);
  rep.time_us = static_cast<double>(rep.cycles) * cost.clock_ns * 1e-3;
  // nJ/kMAC -> pJ/MAC; buffer traffic on top.
  const double mac_pj = cost.energy_nj_per_kmac;
  rep.energy_uj = (static_cast<double>(rep.macs) * mac_pj +
                   static_cast<double>(rep.a_words) * be.pj_per_a_word +
                   static_cast<double>(rep.b_words) * be.pj_per_b_word +
                   static_cast<double>(rep.c_words) * be.pj_per_c_word) *
                  1e-6;
  return rep;
}

std::vector<MappingReport> map_network(const std::vector<LayerShape>& layers,
                                       const MacConfig& cfg,
                                       const hw::SystolicCostOptions& opt,
                                       Dataflow dataflow) {
  std::vector<MappingReport> reports;
  reports.reserve(layers.size() + 1);
  MappingReport total;
  total.shape.name = "TOTAL";
  for (const LayerShape& l : layers) {
    reports.push_back(map_layer(l, cfg, opt, dataflow));
    const MappingReport& r = reports.back();
    total.cycles += r.cycles;
    total.macs += r.macs;
    total.a_words += r.a_words;
    total.b_words += r.b_words;
    total.c_words += r.c_words;
    total.time_us += r.time_us;
    total.energy_uj += r.energy_uj;
  }
  total.utilization =
      static_cast<double>(total.macs) /
      (static_cast<double>(total.cycles) * opt.rows * opt.cols);
  reports.push_back(total);
  return reports;
}

}  // namespace srmac::accel
