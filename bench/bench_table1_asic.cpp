// Regenerates the paper's Table I: energy/area/delay of the twelve FP adder
// configurations (RN / SR lazy / SR eager x Sub ON/OFF x four formats),
// using the structural ASIC cost model (the docs/ARCHITECTURE.md
// "Substitutions" stand-in for the Synopsys FDSOI-28nm flow). Prints model
// vs paper and the relative error, plus the headline claims derived from
// both.
#include <cstdio>
#include <string>
#include <vector>

#include "hwcost/report.hpp"
#include "paper_reference.hpp"

using namespace srmac;
using namespace srmac::hw;

namespace {

std::string key_of(const AsicReport& r) {
  // r.name looks like "SR eager E6M5 subON r=9".
  const bool off = r.name.find("subOFF") != std::string::npos;
  std::string kind = r.name.substr(0, r.name.find(" E"));
  const size_t e = r.name.find(" E") + 1;
  const std::string fmt = r.name.substr(e, r.name.find(' ', e) - e);
  return kind + "|" + fmt + "|" + (off ? "off" : "on");
}

}  // namespace

int main() {
  std::printf("Table I reproduction: FP adder configurations (model vs paper)\n");
  std::printf("%-30s %9s %9s %7s | %9s %9s %7s | %6s %6s %6s\n", "Configuration",
              "E(model)", "A(model)", "D(mod)", "E(paper)", "A(paper)",
              "D(pap)", "dE%", "dA%", "dD%");
  double max_area_err = 0, max_delay_err = 0;
  for (const AsicReport& row : table1_grid()) {
    const auto it = paperref::table1().find(key_of(row));
    if (it == paperref::table1().end()) continue;
    const auto& p = it->second;
    const double de = 100 * (row.energy_nw_mhz - p.energy) / p.energy;
    const double da = 100 * (row.area_um2 - p.area) / p.area;
    const double dd = 100 * (row.delay_ns - p.delay) / p.delay;
    max_area_err = std::max(max_area_err, std::abs(da));
    max_delay_err = std::max(max_delay_err, std::abs(dd));
    std::printf("%-30s %9.2f %9.1f %7.2f | %9.2f %9.1f %7.2f | %+5.1f %+5.1f %+5.1f\n",
                row.name.c_str(), row.energy_nw_mhz, row.area_um2,
                row.delay_ns, p.energy, p.area, p.delay, de, da, dd);
  }

  // Headline relative claims (conclusion of the paper): eager vs lazy and
  // the 12-bit SR design vs FP32/FP16 RN.
  auto get = [&](const char* kind, const FpFormat& f, bool sub, int r) {
    return asic_adder_cost(
        f,
        std::string(kind) == "RN"      ? AdderKind::kRoundNearest
        : std::string(kind) == "lazy"  ? AdderKind::kLazySR
                                       : AdderKind::kEagerSR,
        r, sub);
  };
  const auto eager = get("eager", kFp12, false, 9);
  const auto lazy = get("lazy", kFp12, false, 9);
  const auto rn32 = get("RN", kFp32, true, 0);
  const auto rn16 = get("RN", kFp16, true, 0);
  std::printf("\nHeadline claims (model):\n");
  std::printf("  eager vs lazy (E6M5, subOFF):  delay %+.1f%%  area %+.1f%%\n",
              100 * (eager.delay_ns - lazy.delay_ns) / lazy.delay_ns,
              100 * (eager.area_um2 - lazy.area_um2) / lazy.area_um2);
  std::printf("  (paper: up to -26.6%% latency, -18.5%% area across configs)\n");
  std::printf("  12-bit SR eager vs FP32 RN:    delay %+.1f%%  area %+.1f%%  energy %+.1f%%\n",
              100 * (eager.delay_ns - rn32.delay_ns) / rn32.delay_ns,
              100 * (eager.area_um2 - rn32.area_um2) / rn32.area_um2,
              100 * (eager.energy_nw_mhz - rn32.energy_nw_mhz) / rn32.energy_nw_mhz);
  std::printf("  (paper: ~-50%% on all three)\n");
  std::printf("  12-bit SR eager vs FP16 RN:    delay %+.1f%%  area %+.1f%%  energy %+.1f%%\n",
              100 * (eager.delay_ns - rn16.delay_ns) / rn16.delay_ns,
              100 * (eager.area_um2 - rn16.area_um2) / rn16.area_um2,
              100 * (eager.energy_nw_mhz - rn16.energy_nw_mhz) / rn16.energy_nw_mhz);
  std::printf("  (paper: -29.3%% latency, -13.1%% area)\n");
  std::printf("\nMax |error| vs paper: area %.1f%%, delay %.1f%%\n", max_area_err,
              max_delay_err);
  return 0;
}
