#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "tensor/tensor.hpp"

namespace srmac {

/// im2col: unfolds (C, H, W) patches of one image into columns so that a
/// convolution becomes a GEMM (the paper's GEMM-centric training view).
/// Output layout: rows = C*kh*kw, cols = out_h*out_w; consecutive rows are
/// `row_stride` floats apart (pass out_h*out_w for a dense matrix, or the
/// batched-GEMM pitch to scatter one sample's rows into a shared panel
/// without an intermediate copy).
///
/// The interior of each row — output positions whose source pixel is in
/// bounds — is written by a branch-free inner loop (a straight memcpy when
/// stride == 1); padding is materialized only on the edges.
void im2col(const float* img, int C, int H, int W, int kh, int kw, int stride,
            int pad, float* cols, int64_t row_stride);

/// Output size along one axis of a k-wide conv or pool window: the one
/// geometry function every conv and pool path calls. Throws
/// std::invalid_argument on stride <= 0, and on a window wider than the
/// padded input (truncating division would report 1 and the window would
/// read past the input).
inline int conv_out_dim(int in, int k, int stride, int pad) {
  if (stride <= 0)
    throw std::invalid_argument("conv/pool stride must be > 0, got " +
                                std::to_string(stride));
  if (in + 2 * pad < k)
    throw std::invalid_argument(
        "input " + std::to_string(in) + " with padding " +
        std::to_string(pad) + " is too small for a " + std::to_string(k) +
        "-wide window");
  return (in + 2 * pad - k) / stride + 1;
}

inline void im2col(const float* img, int C, int H, int W, int kh, int kw,
                   int stride, int pad, float* cols) {
  im2col(img, C, H, W, kh, kw, stride, pad, cols,
         static_cast<int64_t>(conv_out_dim(H, kh, stride, pad)) *
             conv_out_dim(W, kw, stride, pad));
}

/// col2im: the adjoint scatter-add of im2col, used by the convolution
/// backward pass to accumulate input gradients. The accumulate form adds
/// into `img` as-is (callers zero or reuse it) and reads strided rows like
/// the im2col above; the dense overload zeroes `img` first (the original
/// contract). Both hoist the in-bounds interior out of the per-pixel
/// bounds checks.
void col2im_accumulate(const float* cols, int C, int H, int W, int kh, int kw,
                       int stride, int pad, float* img, int64_t row_stride);
void col2im(const float* cols, int C, int H, int W, int kh, int kw, int stride,
            int pad, float* img);

}  // namespace srmac
