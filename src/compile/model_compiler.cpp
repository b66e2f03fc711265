#include "compile/model_compiler.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "nn/layers.hpp"
#include "nn/resnet.hpp"
#include "tensor/im2col.hpp"

namespace srmac {

std::unique_ptr<CompiledModel> ModelCompiler::compile(
    Sequential& model, const Options& opts) const {
  if (opts.input_shape.empty())
    throw CompileException(CompileError::kBadConfig,
                           "compile requires a per-sample input shape");
  if (opts.max_batch < 1)
    throw CompileException(CompileError::kBadConfig,
                           "compile requires max_batch >= 1");
  const ComputeContext base = engine_.context();
  const MatmulBackend* backend = base.backend;
  if (backend->bit_accurate() && !backend->supports_prequantized())
    throw CompileException(
        CompileError::kUnsupportedBackend,
        "backend \"" + backend->name() +
            "\" cannot replay precompiled operand planes bit-faithfully "
            "(no prequantized-dispatch support)");

  std::unique_ptr<CompiledModel> compiled(new CompiledModel());
  CompiledModel& m = *compiled;
  m.telemetry_ = base.telemetry;
  m.threads_ = base.threads;
  m.capacity_ = opts.max_batch;
  m.input_shape_ = opts.input_shape;

  // The lowering walk. Local to the friend's member function so it can
  // build CompiledModel's private IR directly.
  struct Lowerer {
    CompiledModel& m;
    const bool bits;

    std::vector<int> shape;  ///< current per-sample shape (no batch dim)
    int cur = 0;             ///< buffer holding the current activation
    int64_t max_conv_kl = 0;  ///< largest conv K*L (im2col scratch)
    int64_t max_conv_nk = 0;  ///< largest conv quantized panel (N*K words)
    size_t max_wide_panel = 0;  ///< largest packed wide conv panel
    int64_t max_conv_ml = 0;  ///< largest conv M*L (wide output)
    int64_t max_lin_k = 0;    ///< largest Linear K (activation quantize)

    static int64_t numel_of(const std::vector<int>& s) {
      int64_t n = 1;
      for (int d : s) n *= d;
      return n;
    }
    int64_t numel() const { return numel_of(shape); }

    int add_buffer(int64_t n) {
      m.buf_numel_.push_back(n);
      return static_cast<int>(m.buf_numel_.size()) - 1;
    }

    [[noreturn]] void mismatch(const std::string& what) {
      throw CompileException(CompileError::kShapeMismatch, what);
    }

    static uint64_t fmt_bytes(const FpFormat& fmt) {
      return static_cast<uint64_t>((fmt.width() + 7) / 8);
    }

    /// Folds `bn`'s inference affine into `op`'s epilogue: precomputes the
    /// per-channel (mean, invstd) pair exactly as BatchNorm2d::forward
    /// does; gamma/beta stay live Param reads.
    void fold_affine(CompiledModel::Op& op, BatchNorm2d& bn, int channels) {
      if (bn.channels() != channels)
        mismatch("BatchNorm2d over " + std::to_string(bn.channels()) +
                 " channels cannot normalize " + std::to_string(channels) +
                 "-channel activations");
      CompiledModel::Affine af;
      af.gamma = &bn.gamma();
      af.beta = &bn.beta();
      af.mean.resize(channels);
      af.invstd.resize(channels);
      for (int c = 0; c < channels; ++c) {
        const double mean = bn.running_mean()[c];
        const double var = bn.running_var()[c];
        af.mean[c] = static_cast<float>(mean);
        af.invstd[c] = static_cast<float>(1.0 / std::sqrt(var + bn.eps()));
      }
      op.affine = std::move(af);
    }

    void lower_conv(Conv2d& conv, const ComputeContext& cc, BatchNorm2d* bn,
                    bool relu) {
      if (shape.size() != 3 || shape[0] != conv.in_channels())
        mismatch("Conv2d expects (" + std::to_string(conv.in_channels()) +
                 ",H,W) input at this point of the graph");
      const int H = shape[1], W = shape[2], k = conv.kernel();
      const int oh = conv_out_dim(H, k, conv.stride(), conv.padding());
      const int ow = conv_out_dim(W, k, conv.stride(), conv.padding());
      if (oh <= 0 || ow <= 0)
        mismatch("input " + std::to_string(H) + "x" + std::to_string(W) +
                 " too small for a " + std::to_string(k) + "x" +
                 std::to_string(k) + " stride-" +
                 std::to_string(conv.stride()) + " convolution");
      CompiledModel::Op op;
      op.kind = CompiledModel::OpKind::kConvGemm;
      op.src = cur;
      op.M = conv.out_channels();
      op.K = conv.in_channels() * k * k;
      op.N = oh * ow;
      op.ch = conv.in_channels();
      op.H = H;
      op.W = W;
      op.kk = k;
      op.stride = conv.stride();
      op.pad = conv.padding();
      op.oh = oh;
      op.ow = ow;
      op.bits = bits;
      op.w = &conv.weight();
      op.w_version = op.w->version;
      const int64_t kl = static_cast<int64_t>(op.K) * op.N;
      max_conv_kl = std::max(max_conv_kl, kl);
      max_conv_ml = std::max(max_conv_ml,
                             static_cast<int64_t>(op.M) * op.N);
      if (bits) {
        op.cfg = cc.mac_config().normalized();
        op.seed = cc.seed;
        op.aq.resize(static_cast<size_t>(op.M) * op.K);
        gemm_quantize(op.cfg.mul_fmt, op.M, op.K, op.w->value.data(), op.K,
                      op.aq.data(), m.threads_);
        m.stats_.planes_packed += 1;
        max_conv_nk = std::max(max_conv_nk, kl);
        // Packed panels pad N to the kernel's group width.
        max_wide_panel = std::max(
            max_wide_panel,
            gemm_packed_b_words(op.cfg, op.K, m.capacity_ * op.N));
        op.act_bytes = static_cast<uint64_t>(kl) * fmt_bytes(op.cfg.mul_fmt);
      }
      if (bn) {
        fold_affine(op, *bn, op.M);
        m.stats_.folds += 1;
        m.stats_.fusions += 1;
      }
      if (relu) {
        op.relu = true;
        m.stats_.fusions += 1;
      }
      op.dst = add_buffer(static_cast<int64_t>(op.M) * op.N);
      cur = op.dst;
      shape = {op.M, oh, ow};
      m.stats_.gemm_ops += 1;
      m.ops_.push_back(std::move(op));
    }

    void lower_linear(Linear& lin, const ComputeContext& cc, bool relu) {
      if (numel() != lin.in_features())
        mismatch("Linear expects " + std::to_string(lin.in_features()) +
                 " input features, the graph provides " +
                 std::to_string(numel()));
      CompiledModel::Op op;
      op.kind = CompiledModel::OpKind::kLinearGemm;
      op.src = cur;
      op.M = 1;
      op.K = lin.in_features();
      op.N = lin.out_features();
      op.bits = bits;
      op.w = &lin.weight();
      op.w_version = op.w->version;
      op.bias = &lin.bias();
      m.stats_.fusions += 1;  // the bias add rides the epilogue pass
      const Tensor& w = op.w->value;
      if (bits) {
        op.cfg = cc.mac_config().normalized();
        op.seed = cc.seed;
        // W^T quantized elementwise (the layer cache's transposed plane),
        // then packed once into the fused kernel's panel layout.
        std::vector<uint32_t> wqt(static_cast<size_t>(op.K) * op.N);
        gemm_quantize_transposed(op.cfg.mul_fmt, op.N, op.K, w.data(),
                                 wqt.data(), m.threads_);
        gemm_pack_b_into(op.cfg, op.K, op.N, wqt.data(), op.N, &op.bpanels,
                         m.threads_);
        max_lin_k = std::max<int64_t>(max_lin_k, op.K);
        op.act_bytes = static_cast<uint64_t>(op.K) * fmt_bytes(op.cfg.mul_fmt);
      } else {
        // fp32: materialize W^T once (matmul_nt's per-call transpose).
        op.wt.resize(static_cast<size_t>(op.K) * op.N);
        for (int o = 0; o < op.N; ++o)
          for (int k = 0; k < op.K; ++k)
            op.wt[static_cast<size_t>(k) * op.N + o] = w.at(o, k);
      }
      m.stats_.planes_packed += 1;
      if (relu) {
        op.relu = true;
        m.stats_.fusions += 1;
      }
      op.dst = add_buffer(op.N);
      cur = op.dst;
      shape = {op.N};
      m.stats_.gemm_ops += 1;
      m.ops_.push_back(std::move(op));
    }

    /// Standalone BatchNorm (no producing GEMM to fold into): one eltwise
    /// copy-with-epilogue op, optionally absorbing a following ReLU.
    void lower_bn(BatchNorm2d& bn, bool relu) {
      if (shape.size() != 3)
        mismatch("BatchNorm2d expects (C,H,W) activations");
      CompiledModel::Op op;
      op.kind = CompiledModel::OpKind::kEltwise;
      op.src = cur;
      op.ch = shape[0];
      op.N = shape[1] * shape[2];
      fold_affine(op, bn, shape[0]);
      op.relu = relu;
      if (relu) m.stats_.fusions += 1;
      op.dst = add_buffer(numel());
      cur = op.dst;
      m.ops_.push_back(std::move(op));
    }

    void lower_relu() {
      CompiledModel::Op op;
      op.kind = CompiledModel::OpKind::kEltwise;
      op.src = cur;
      op.relu = true;
      op.dst = add_buffer(numel());
      cur = op.dst;
      m.ops_.push_back(std::move(op));
    }

    void lower_maxpool(MaxPool2d& mp) {
      if (shape.size() != 3) mismatch("MaxPool2d expects (C,H,W) activations");
      const int H = shape[1], W = shape[2];
      const int oh = (H - mp.kernel()) / mp.stride() + 1;
      const int ow = (W - mp.kernel()) / mp.stride() + 1;
      // H < k truncates to oh == 1 but the window would read past the
      // input (the layer's own bounds asserts compile out in Release, so
      // this boundary must catch it).
      if (oh <= 0 || ow <= 0 || H < mp.kernel() || W < mp.kernel())
        mismatch("input " + std::to_string(H) + "x" + std::to_string(W) +
                 " too small for a " + std::to_string(mp.kernel()) +
                 "-wide pooling window");
      CompiledModel::Op op;
      op.kind = CompiledModel::OpKind::kMaxPool;
      op.src = cur;
      op.ch = shape[0];
      op.H = H;
      op.W = W;
      op.kk = mp.kernel();
      op.stride = mp.stride();
      op.oh = oh;
      op.ow = ow;
      op.dst = add_buffer(static_cast<int64_t>(op.ch) * oh * ow);
      cur = op.dst;
      shape = {op.ch, oh, ow};
      m.ops_.push_back(std::move(op));
    }

    void lower_gap() {
      if (shape.size() != 3)
        mismatch("GlobalAvgPool expects (C,H,W) activations");
      CompiledModel::Op op;
      op.kind = CompiledModel::OpKind::kGlobalAvgPool;
      op.src = cur;
      op.ch = shape[0];
      op.H = shape[1];
      op.W = shape[2];
      op.dst = add_buffer(op.ch);
      cur = op.dst;
      shape = {op.ch};
      m.ops_.push_back(std::move(op));
    }

    /// Residual-join epilogue shared by both block kinds: main branch +
    /// shortcut, ReLU'd, as add_inplace + relu at the blocks' exit.
    void join(int main_buf, int sc_buf, const std::vector<int>& out_shape) {
      CompiledModel::Op op;
      op.kind = CompiledModel::OpKind::kJoin;
      op.src = main_buf;
      op.src2 = sc_buf;
      op.relu = true;
      op.dst = add_buffer(numel_of(out_shape));
      m.stats_.fusions += 1;  // add + ReLU in one output pass
      cur = op.dst;
      shape = out_shape;
      m.ops_.push_back(std::move(op));
    }

    void lower_basic(BasicBlock& b, const ComputeContext& cc) {
      // Replays forward()'s fixed fork salts (nn/resnet.cpp): conv1 =
      // fork(1), conv2 = fork(2), projection = fork(3); the BN/ReLU
      // children take no context.
      const int in_buf = cur;
      const std::vector<int> in_shape = shape;
      lower_conv(b.conv1(), cc.fork(1), &b.bn1(), /*relu=*/true);
      lower_conv(b.conv2(), cc.fork(2), &b.bn2(), /*relu=*/false);
      const int main_buf = cur;
      const std::vector<int> main_shape = shape;
      int sc_buf = in_buf;
      if (b.has_projection()) {
        cur = in_buf;
        shape = in_shape;
        lower_conv(*b.proj(), cc.fork(3), b.proj_bn(), /*relu=*/false);
        sc_buf = cur;
        if (shape != main_shape)
          mismatch("projection shortcut disagrees with the residual branch");
      } else if (in_shape != main_shape) {
        mismatch("identity shortcut disagrees with the residual branch");
      }
      join(main_buf, sc_buf, main_shape);
    }

    void lower_bottleneck(BottleneckBlock& b, const ComputeContext& cc) {
      // Salts 1..3 for the three convs, 4 for the projection.
      const int in_buf = cur;
      const std::vector<int> in_shape = shape;
      lower_conv(b.conv1(), cc.fork(1), &b.bn1(), /*relu=*/true);
      lower_conv(b.conv2(), cc.fork(2), &b.bn2(), /*relu=*/true);
      lower_conv(b.conv3(), cc.fork(3), &b.bn3(), /*relu=*/false);
      const int main_buf = cur;
      const std::vector<int> main_shape = shape;
      int sc_buf = in_buf;
      if (b.has_projection()) {
        cur = in_buf;
        shape = in_shape;
        lower_conv(*b.proj(), cc.fork(4), b.proj_bn(), /*relu=*/false);
        sc_buf = cur;
        if (shape != main_shape)
          mismatch("projection shortcut disagrees with the residual branch");
      } else if (in_shape != main_shape) {
        mismatch("identity shortcut disagrees with the residual branch");
      }
      join(main_buf, sc_buf, main_shape);
    }

    /// `top_level`: record a stage boundary after each child, together
    /// with the BatchNorm/ReLU children fused into it.
    void lower_sequential(Sequential& seq, const ComputeContext& cc,
                          bool top_level) {
      // Sequential::forward's chain: child i runs under
      // cc.fork(i+1).for_layer(name). Children consumed by a fusion
      // lookahead (BN/ReLU after a GEMM) still advance the salt — they
      // ignore their context in the layers' own walk too.
      int salt = 0;
      for (size_t i = 0; i < seq.size(); ++i) {
        Layer& child = seq.child(i);
        const ComputeContext ctx = cc.fork(++salt).for_layer(child.name());
        if (auto* conv = dynamic_cast<Conv2d*>(&child)) {
          BatchNorm2d* bn = i + 1 < seq.size()
                                ? dynamic_cast<BatchNorm2d*>(&seq.child(i + 1))
                                : nullptr;
          if (bn) {
            ++i;
            ++salt;
          }
          bool relu = false;
          if (i + 1 < seq.size() && dynamic_cast<ReLU*>(&seq.child(i + 1))) {
            relu = true;
            ++i;
            ++salt;
          }
          lower_conv(*conv, ctx, bn, relu);
        } else if (auto* lin = dynamic_cast<Linear*>(&child)) {
          bool relu = false;
          if (i + 1 < seq.size() && dynamic_cast<ReLU*>(&seq.child(i + 1))) {
            relu = true;
            ++i;
            ++salt;
          }
          lower_linear(*lin, ctx, relu);
        } else if (auto* bn = dynamic_cast<BatchNorm2d*>(&child)) {
          bool relu = false;
          if (i + 1 < seq.size() && dynamic_cast<ReLU*>(&seq.child(i + 1))) {
            relu = true;
            ++i;
            ++salt;
          }
          lower_bn(*bn, relu);
        } else if (dynamic_cast<ReLU*>(&child)) {
          lower_relu();
        } else if (auto* mp = dynamic_cast<MaxPool2d*>(&child)) {
          lower_maxpool(*mp);
        } else if (dynamic_cast<GlobalAvgPool*>(&child)) {
          lower_gap();
        } else if (dynamic_cast<Flatten*>(&child)) {
          // Row-major reshape: same bytes, no op — the buffer aliases.
          shape = {static_cast<int>(numel())};
          m.stats_.folds += 1;
        } else if (auto* bb = dynamic_cast<BasicBlock*>(&child)) {
          lower_basic(*bb, ctx);
        } else if (auto* nb = dynamic_cast<BottleneckBlock*>(&child)) {
          lower_bottleneck(*nb, ctx);
        } else if (auto* nested = dynamic_cast<Sequential*>(&child)) {
          lower_sequential(*nested, ctx, /*top_level=*/false);
        } else {
          throw CompileException(
              CompileError::kUnsupportedLayer,
              "no lowering rule for layer \"" + child.name() + "\"");
        }
        if (top_level)
          m.stages_.push_back(CompiledModel::Stage{m.ops_.size(), cur, shape});
      }
    }
  };

  Lowerer lo{m, base.bit_accurate(), opts.input_shape};
  lo.add_buffer(Lowerer::numel_of(opts.input_shape));  // buffer 0: input
  lo.lower_sequential(model, base, /*top_level=*/true);

  // Preplan every buffer and scratch region for (input_shape, max_batch):
  // after this, a steady-state forward allocates only its output tensors.
  const size_t cap = static_cast<size_t>(m.capacity_);
  for (const int64_t numel : m.buf_numel_)
    m.buffers_.push_back(std::make_unique_for_overwrite<float[]>(
        cap * static_cast<size_t>(numel)));
  m.cols_ = std::make_unique_for_overwrite<float[]>(
      cap * static_cast<size_t>(lo.max_conv_kl));
  m.qcols_ = std::make_unique_for_overwrite<uint32_t[]>(
      cap * static_cast<size_t>(lo.max_conv_nk));
  m.qact_ = std::make_unique_for_overwrite<uint32_t[]>(
      cap * static_cast<size_t>(lo.max_lin_k));
  m.gout_ = std::make_unique_for_overwrite<float[]>(
      cap * static_cast<size_t>(lo.max_conv_ml));
  m.panel_.bt.reserve(lo.max_wide_panel);

  if (base.telemetry)
    base.telemetry->record_compile(m.stats_.planes_packed, m.stats_.folds,
                                   m.stats_.fusions);
  return compiled;
}

}  // namespace srmac
