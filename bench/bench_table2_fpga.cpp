// Regenerates the paper's Table II: FPGA (Virtex UltraScale+ VU9P) LUT/FF/
// delay estimates for the four published adder rows, from the structural
// FPGA model (the docs/ARCHITECTURE.md "Substitutions" stand-in for
// Vivado 2022.1).
#include <cstdio>
#include <string>

#include "hwcost/report.hpp"
#include "paper_reference.hpp"

using namespace srmac;
using namespace srmac::hw;

int main() {
  std::printf("Table II reproduction: FPGA adder implementations (model vs paper)\n");
  std::printf("%-28s %6s %5s %7s | %6s %5s %7s\n", "Configuration", "LUT",
              "FF", "Delay", "LUTp", "FFp", "Delayp");
  const char* keys[] = {"RN|E5M10|on", "RN|E5M10|off", "SR lazy|E6M5|off",
                        "SR eager|E6M5|off"};
  int i = 0;
  for (const FpgaReport& row : table2_grid()) {
    const auto& p = paperref::table2().at(keys[i++]);
    std::printf("%-28s %6d %5d %7.2f | %6d %5d %7.2f\n", row.name.c_str(),
                row.luts, row.ffs, row.delay_ns, p.lut, p.ff, p.delay);
  }
  // The paper's FPGA takeaway: the eager design still wins on LUTs and
  // delay versus the lazy one.
  const FpgaReport lazy = fpga_adder_cost(kFp12, AdderKind::kLazySR, 13, false);
  const FpgaReport eager = fpga_adder_cost(kFp12, AdderKind::kEagerSR, 13, false);
  std::printf("\nEager vs lazy on FPGA: LUT %+d (%+.1f%%), delay %+.2f ns\n",
              eager.luts - lazy.luts,
              100.0 * (eager.luts - lazy.luts) / lazy.luts,
              eager.delay_ns - lazy.delay_ns);
  std::printf("(paper: 251 vs 344 LUTs = -27%%, 8.04 vs 8.76 ns)\n");
  return 0;
}
