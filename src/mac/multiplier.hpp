#pragma once

#include <cstdint>

#include "fpemu/format.hpp"

namespace srmac {

/// The paper's exact multiplier (Sec. III-a).
///
/// Multiplies two values in format `in` (p_m-bit precision, E_m exponent
/// bits) and returns the *exact* product encoded in `product_format(in)`
/// (p_a = 2*p_m precision, E_a = E_m + 1 exponent bits). Taking the full
/// product eliminates the rounding stage; an E5M2 multiplier outputs E6M5.
///
/// With `in.subnormals == false`, subnormal inputs are flushed to zero.
/// With subnormals on, the product of two finite inputs is always exactly
/// representable in the output format (the output's subnormal range is deep
/// enough; pinned exhaustively by tests/mac/multiplier_test.cpp).
uint32_t multiply_exact(const FpFormat& in, uint32_t a, uint32_t b);

}  // namespace srmac
