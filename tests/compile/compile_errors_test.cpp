// Negative paths of the compilation pipeline: the model-zoo spec grammar
// (a trust boundary — tags arrive from checkpoints and wire handshakes)
// must reject malformed input with a message, and the ModelCompiler must
// fail with a *typed* CompileException — never an assert or a silent
// mis-plan — for backends it cannot serve, shapes that do not thread
// through the graph, and configs that cannot plan buffers.
#include <gtest/gtest.h>

#include <climits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/model_compiler.hpp"
#include "nn/layers.hpp"
#include "nn/model_zoo.hpp"
#include "serve/emu_server.hpp"

using namespace srmac;

namespace {

EmuEngine bits_engine(const std::string& backend = "sharded") {
  return EmuEngine::Builder()
      .scenario("eager_sr:e5m2/e6m5:r=9:subON")
      .backend(backend)
      .build();
}

/// Runs `fn` and returns the CompileError it threw; fails the test if it
/// did not throw a CompileException.
template <typename Fn>
CompileError expect_compile_error(Fn&& fn, const std::string& what) {
  try {
    fn();
  } catch (const CompileException& e) {
    EXPECT_FALSE(std::string(e.what()).empty()) << what;
    return e.code();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": wrong exception type: " << e.what();
    return CompileError::kBadConfig;
  }
  ADD_FAILURE() << what << ": did not throw";
  return CompileError::kBadConfig;
}

/// A layer the compiler has no lowering for.
class OpaqueLayer : public Layer {
 public:
  Tensor forward(const ComputeContext&, const Tensor& x, bool) override {
    return x;
  }
  Tensor backward(const ComputeContext&, const Tensor& g) override {
    return g;
  }
  std::string name() const override { return "opaque"; }
};

}  // namespace

// ---- spec grammar: every malformed tag rejected with a message ----

TEST(ModelZooGrammar, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                    // empty
      "mlp",                 // missing argument list
      "mlp:",                // empty argument list
      "mlp:32",              // missing depth
      "mlp:32,",             // empty depth
      "mlp:0,3",             // width below range
      "mlp:4097,3",          // width above range
      "mlp:32,0",            // depth below range
      "mlp:32,65",           // depth above range
      "mlp:32,3,9",          // trailing garbage field
      "mlp:32,3x",           // trailing garbage characters
      "mlp:-5,3",            // sign is not part of the grammar
      "mlp:32, 3",           // embedded whitespace
      "resnet20:7",          // spatial size below range
      "resnet20:129",        // spatial size above range
      "resnet20:abc",        // non-numeric size
      "resnet20:16,16",      // too many fields
      "resnet20x",           // garbage suffix without the colon
      "vgg_mini",            // missing argument list
      "vgg_mini:1,8",        // classes below range
      "vgg_mini:1001,8",     // classes above range
      "vgg_mini:10,0",       // base width below range
      "vgg_mini:10,257",     // base width above range
      "vgg_mini:10,8,7",     // spatial size below range
      "vgg_mini:10,8,129",   // spatial size above range
      "vgg_mini:10,8,16,1",  // too many fields
      "transformer:12",      // unknown architecture
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(ModelSpec::parse(spec, &err)) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
  // ... and the boundary values themselves still parse.
  for (const char* ok : {"mlp:1,1", "mlp:4096,64", "resnet20", "resnet20:8",
                         "resnet20:128", "vgg_mini:2,1", "vgg_mini:1000,256",
                         "vgg_mini:10,8,128"}) {
    std::string err;
    EXPECT_TRUE(ModelSpec::parse(ok, &err)) << ok << ": " << err;
  }
}

// ---- ModelCompiler: typed rejections, never asserts ----

TEST(ModelCompilerErrors, BadOptionsAreTyped) {
  auto model = ModelSpec::parse("mlp:16,2")->build();
  const EmuEngine engine = bits_engine();
  ModelCompiler mc(engine);
  ModelCompiler::Options no_shape;  // input_shape unset
  EXPECT_EQ(expect_compile_error([&] { mc.compile(*model, no_shape); },
                                 "empty input_shape"),
            CompileError::kBadConfig);
  ModelCompiler::Options bad_batch;
  bad_batch.input_shape = {16};
  bad_batch.max_batch = 0;
  EXPECT_EQ(expect_compile_error([&] { mc.compile(*model, bad_batch); },
                                 "max_batch=0"),
            CompileError::kBadConfig);
}

TEST(ModelCompilerErrors, CapacityPastTheKernelColumnRangeIsTyped) {
  // Every region planned for max_batch samples holds at most INT_MAX
  // elements, so its indices and GEMM dimensions stay ints. resnet20's
  // 16x16 stem has L = 256, so 2^23 samples would run 2^31 wave columns;
  // one sample fewer still overflows its activation buffers and gout_, and
  // mlp:16,2 has no conv at all. The compiler rejects each capacity before
  // it forms an int product of it or allocates anything.
  const EmuEngine engine = bits_engine();
  const struct {
    const char* model;
    int max_batch;
  } cases[] = {{"resnet20", 8388608},
               {"resnet20", INT_MAX},
               {"resnet20", 8388607},
               {"mlp:16,2", INT_MAX}};
  for (const auto& c : cases) {
    const ModelSpec spec = ModelSpec::parse_or_die(c.model);
    auto model = spec.build();
    ModelCompiler::Options opts;
    opts.input_shape = spec.input_shape();
    opts.max_batch = c.max_batch;
    try {
      ModelCompiler(engine).compile(*model, opts);
      ADD_FAILURE() << c.model << " at max_batch " << c.max_batch
                    << " compiled";
    } catch (const CompileException& e) {
      EXPECT_EQ(e.code(), CompileError::kBadConfig);
      EXPECT_NE(std::string(e.what()).find("max_batch"), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.model << " at max_batch " << c.max_batch
                    << ": wrong exception type: " << e.what();
    }
  }
  // A small capacity still compiles and runs.
  const ModelSpec spec = ModelSpec::parse_or_die("resnet20");
  auto model = spec.build();
  ModelCompiler::Options opts;
  opts.input_shape = spec.input_shape();
  opts.max_batch = 2;
  auto cm = ModelCompiler(engine).compile(*model, opts);
  std::vector<Tensor> xs = {spec.sample(0)};
  cm->forward_batch(xs, 0, cm->stages());
  EXPECT_EQ(xs[0].numel(), 10);
}

TEST(ModelCompilerErrors, BitAccurateBackendsOffTheFusedKernel) {
  // reference and systolic run their own gemm(), not the fused kernel the
  // compiled program runs, so compilation refuses them up front rather
  // than serving the fused kernel's bits under their names.
  auto model = ModelSpec::parse("mlp:16,2")->build();
  ModelCompiler::Options opts;
  opts.input_shape = {16};
  for (const char* backend : {"reference", "systolic"}) {
    const EmuEngine engine = bits_engine(backend);
    ModelCompiler mc(engine);
    EXPECT_EQ(expect_compile_error([&] { mc.compile(*model, opts); }, backend),
              CompileError::kUnsupportedBackend)
        << backend;
  }
}

TEST(ModelCompilerErrors, ShapeMismatchIsTypedNotAssert) {
  const EmuEngine engine = bits_engine();
  ModelCompiler mc(engine);
  {
    // MLP expects a 16-feature input; planning for 8 must fail at the first
    // Linear, as a typed error (the layer-level asserts compile out in
    // Release — the compiler is the boundary that must catch this).
    auto model = ModelSpec::parse("mlp:16,2")->build();
    ModelCompiler::Options opts;
    opts.input_shape = {8};
    EXPECT_EQ(expect_compile_error([&] { mc.compile(*model, opts); },
                                   "mlp feature mismatch"),
              CompileError::kShapeMismatch);
  }
  {
    // ResNet stem expects 3 input channels.
    auto model = ModelSpec::parse("resnet20:8")->build();
    ModelCompiler::Options opts;
    opts.input_shape = {1, 8, 8};
    EXPECT_EQ(expect_compile_error([&] { mc.compile(*model, opts); },
                                   "resnet channel mismatch"),
              CompileError::kShapeMismatch);
  }
  {
    // Spatial size so small the conv stack pools it away entirely.
    auto model = ModelSpec::parse("vgg_mini:10,8,16")->build();
    ModelCompiler::Options opts;
    opts.input_shape = {3, 2, 2};
    EXPECT_EQ(expect_compile_error([&] { mc.compile(*model, opts); },
                                   "vgg degenerate spatial"),
              CompileError::kShapeMismatch);
  }
  {
    // A 3x3 stride-2 unpadded conv on a 2x2 input: truncating division
    // gives oh = 1, but the window is wider than the input.
    Sequential model;
    model.add(std::make_unique<Conv2d>(1, 2, 3, /*stride=*/2, /*pad=*/0));
    ModelCompiler::Options opts;
    opts.input_shape = {1, 2, 2};
    EXPECT_EQ(expect_compile_error([&] { mc.compile(model, opts); },
                                   "conv window wider than input"),
              CompileError::kShapeMismatch);
  }
  {
    // A 3-wide pooling window over a 2x2 input.
    Sequential model;
    model.add(std::make_unique<MaxPool2d>(3));
    ModelCompiler::Options opts;
    opts.input_shape = {1, 2, 2};
    EXPECT_EQ(expect_compile_error([&] { mc.compile(model, opts); },
                                   "pool window wider than input"),
              CompileError::kShapeMismatch);
  }
  // A zero stride never reaches the compiler: the layers reject it.
  EXPECT_THROW(Conv2d(1, 2, 3, /*stride=*/0), std::invalid_argument);
  EXPECT_THROW(MaxPool2d(2, /*stride=*/0), std::invalid_argument);
}

TEST(ModelCompilerErrors, UnsupportedLayerIsTyped) {
  auto model = std::make_unique<Sequential>();
  model->add(std::make_unique<OpaqueLayer>());
  const EmuEngine engine = bits_engine();
  ModelCompiler mc(engine);
  ModelCompiler::Options opts;
  opts.input_shape = {16};
  EXPECT_EQ(
      expect_compile_error([&] { mc.compile(*model, opts); }, "opaque layer"),
      CompileError::kUnsupportedLayer);
}

TEST(ModelCompilerErrors, ForwardBatchGuardsCapacityAndShape) {
  const ModelSpec spec = *ModelSpec::parse("mlp:16,2");
  auto model = spec.build();
  const EmuEngine engine = bits_engine();
  ModelCompiler::Options opts;
  opts.input_shape = {16};
  opts.max_batch = 2;
  auto compiled = ModelCompiler(engine).compile(*model, opts);

  // One sample over the planned capacity: typed, and the batch untouched.
  const size_t all = compiled->stages();
  std::vector<Tensor> over(3, spec.sample(0));
  EXPECT_EQ(
      expect_compile_error([&] { compiled->forward_batch(over, 0, all); },
                           "capacity"),
      CompileError::kCapacityExceeded);

  // A wrong-shaped sample inside an otherwise valid batch: typed too.
  std::vector<Tensor> wrong;
  wrong.push_back(spec.sample(0));
  wrong.push_back(Tensor({1, 8}));
  EXPECT_EQ(
      expect_compile_error([&] { compiled->forward_batch(wrong, 0, all); },
                           "sample shape"),
      CompileError::kShapeMismatch);

  // A stage range past the program's end is rejected before any work.
  std::vector<Tensor> one{spec.sample(0)};
  EXPECT_THROW(compiled->forward_batch(one, 0, all + 1), std::out_of_range);

  // ... and the program still serves correctly afterwards.
  std::vector<Tensor> ok{spec.sample(0)};
  compiled->forward_batch(ok, 0, all);
  EXPECT_EQ(ok[0].shape(), (std::vector<int>{1, 10}));
}

TEST(ModelCompilerErrors, ServerFallsBackOnlyForRejectedBackendsAndLayers) {
  // A backend or layer the compiler rejects leaves the session serving
  // through the per-sample loop; a shape the graph rejects is a
  // configuration error and fails construction typed, before any traffic.
  ServeConfig cfg;
  cfg.start_thread = false;
  cfg.input_shape = {8};  // mlp:16,2 wants 16 features
  EXPECT_EQ(expect_compile_error(
                [&] {
                  EmuServer server(ModelSpec::parse("mlp:16,2")->build(),
                                   bits_engine(), cfg);
                },
                "server with a mismatched input_shape"),
            CompileError::kShapeMismatch);
  cfg.input_shape = {16};
  EmuServer fallback(ModelSpec::parse("mlp:16,2")->build(),
                     bits_engine("reference"), cfg);
  EXPECT_EQ(fallback.compiled(), nullptr);
  EXPECT_EQ(fallback.stages(), 1u);
}
