#pragma once

namespace srmac::hw {

/// A composable cost triple. Area is in gate equivalents (GE, NAND2-sized
/// cells); delay in nanoseconds; energy in nW/MHz (i.e. nJ per 10^6 ops,
/// the unit of the paper's Table I).
struct Cost {
  double area_ge = 0.0;
  double delay_ns = 0.0;
  double energy = 0.0;

  /// Series composition: blocks on the same path (areas and delays add).
  Cost then(const Cost& next) const {
    return {area_ge + next.area_ge, delay_ns + next.delay_ns,
            energy + next.energy};
  }
  /// Parallel composition: areas add, delay is the slower branch.
  Cost alongside(const Cost& other) const {
    return {area_ge + other.area_ge,
            delay_ns > other.delay_ns ? delay_ns : other.delay_ns,
            energy + other.energy};
  }
};

/// Technology constants for the ASIC model.
///
/// The *structure* of the cost model (which blocks each design instantiates
/// and how their widths scale with p, E and r) comes from the adder
/// micro-architectures of Sec. III; the constants below are calibrated so
/// the composed totals land on the paper's Table I anchors (Synopsys Design
/// Vision 2019.03, FDSOI 28nm, timing relaxed / area optimized). This is the
/// McPAT-style substitution documented in docs/ARCHITECTURE.md,
/// "Substitutions": relative deltas between configurations are structural,
/// absolute numbers are fitted.
struct AsicTech {
  // Area per gate equivalent, µm². (28nm FDSOI NAND2 ~0.49 µm² raw; the
  // factor above that absorbs drive sizing, buffers and synthesis overhead
  // of an area-optimized flow.)
  double um2_per_ge = 0.75;

  // Cell areas in GE.
  double ge_inv = 0.67;
  double ge_nand = 1.0;
  double ge_xor = 2.33;
  double ge_mux2 = 2.33;
  double ge_ha = 2.33;
  double ge_fa = 4.67;
  double ge_ff = 6.0;

  // Delays in ns (area-optimized cells, relaxed timing).
  double t_cmp_per_bit = 0.010;   // exponent comparator / subtractor
  double t_mux = 0.050;           // one mux-2 stage (shifter / swap level)
  double t_fa_carry = 0.145;      // ripple carry per bit (min-size cells,
                                  // timing fully relaxed as in the paper)
  double t_lzd_per_level = 0.040; // priority-encode level
  double t_round = 0.080;         // RN rounding decision + increment select
  double t_sr_carry_per_bit = 0.02; // lazy SR rounding-adder carry (short
                                  // chain, fused with the increment)
  double t_correction = 0.060;    // eager 2-bit Round Correction
  double t_pack = 0.080;          // exception handling + result mux

  // Energy: dynamic power tracks switched capacitance ~ area; the LFSR
  // free-runs every cycle and adds a per-bit toggle term.
  double energy_per_um2 = 0.00087;  // nW/MHz per µm² of logic
  double energy_lfsr_per_bit = 0.0030;
};

/// Technology constants for the FPGA model (Vivado 2022.1, Virtex
/// UltraScale+ VU9P, as in the paper's Table II). LUT6 + CARRY8 fabric.
struct FpgaTech {
  double luts_per_add_bit = 1.0;    // one LUT + carry chain per result bit
  double luts_per_mux_bit = 0.5;    // two 2:1 mux levels fit one LUT6
  double luts_per_lzd_bit = 1.0;
  double luts_per_or_bit = 0.2;     // 5-input OR per LUT
  double lut_overhead = 1.75;       // packing/routing overhead factor (fit)
  double t_lut = 0.45;              // ns per LUT level incl. routing
  double t_carry_per_bit = 0.045;
  double t_io = 2.7;                // IOB + clocking overhead in the paper's
                                    // out-of-context style measurement
};

}  // namespace srmac::hw
