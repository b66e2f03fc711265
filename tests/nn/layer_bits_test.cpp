// Bits on record for the eager layers: 64-bit digests of the output float
// bits of Conv2d and Linear — training forward, the backward's input and
// parameter gradients, and two inference forwards after a weight update —
// on every bit-accurate backend under five scenarios. The table below was
// recorded from the tree that still cached quantized weight planes per
// layer, so it pins that every eager GEMM keeps its bits however the weight
// operand reaches the backend. A row that moves fails with the row as it now
// reads; a change that means to move bits replaces the row and says which
// and why.
//
// The fp32 backend stays out: its float order is up to the compiler. Every
// digested value is a GEMM output, an exact reorder of one, or a float add
// in a fixed order, so every CI leg reads the same digests.
//
// The second table pins the compiled forward the same way: one digest of
// every output of a CompiledModel::forward_batch wave on the sharded
// backend, per (model, batch) subject and scenario. Those rows were recorded
// from the tree whose compiled convs still built a float im2col panel and
// quantized and packed it in separate passes, so they pin that operands
// packed straight from the activations keep every bit, on every ISA's group
// width.
//
// The third table pins the training step: three SGD steps on the sharded
// backend of resnet20, of the bottleneck model and of a model whose planes
// are large enough for BatchNorm2d, ReLU and the residual adds to split
// across the pool, at engine threads 1 and 0 against one row. Those rows
// were recorded from the tree whose pointwise layers still ran serially on
// the calling thread. BatchNorm's statistics
// and gradients add in double in a fixed order and take one square root;
// every other op is a float add, multiply or divide, so no libm call enters
// these digests either.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compile/model_compiler.hpp"
#include "engine/compute_context.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/model_zoo.hpp"
#include "nn/resnet.hpp"
#include "rng/xoshiro.hpp"
#include "train/optimizer.hpp"

namespace srmac {
namespace {

/// FNV-1a over the float bit patterns, continuing from `h`.
uint64_t digest(const Tensor& t, uint64_t h = 0xCBF29CE484222325ull) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    uint32_t w;
    std::memcpy(&w, t.data() + i, sizeof(w));
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

/// Fills `t` with ±(1 + m/8) * 2^e, e in [-18, 0]: exact floats (no libm),
/// some below E5M2's smallest normal so the subnormal flag matters.
void fill(Tensor& t, Xoshiro256& rng) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    const uint64_t r = rng.next();
    const float mag = std::ldexp(1.0f + static_cast<float>(r & 7) / 8.0f,
                                 -static_cast<int>((r >> 3) % 19));
    t[i] = (r >> 8) & 1 ? -mag : mag;
  }
}

Tensor filled(const std::vector<int>& shape, Xoshiro256& rng) {
  Tensor t(shape);
  fill(t, rng);
  return t;
}

struct Scenario {
  const char* name;
  QuantPolicy policy;
};

std::vector<Scenario> scenarios() {
  const auto cfg = [](const char* spec) { return *MacConfig::parse(spec); };
  const MacConfig eager = cfg("eager_sr:e5m2/e6m5:r=9:subON");
  return {
      {"eager", QuantPolicy::uniform(eager)},
      {"lazy", QuantPolicy::uniform(cfg("lazy_sr:e5m2/e6m5:r=9:subON"))},
      {"rn", QuantPolicy::uniform(cfg("rn:e5m2/e6m5:r=9:subON"))},
      {"eager_subOFF",
       QuantPolicy::uniform(cfg("eager_sr:e5m2/e6m5:r=9:subOFF"))},
      {"hfp8", QuantPolicy::hfp8(eager)},
  };
}

constexpr const char* kBackends[] = {"sharded", "reference", "systolic"};

/// One recorded row: the digests of a subject's outputs in the order run()
/// produces them.
struct Row {
  const char* subject;
  const char* backend;
  const char* scenario;
  std::vector<uint64_t> digests;
};

// clang-format off
const std::vector<Row> kRecorded = {
    {"conv3x3", "sharded", "eager",
     {0x368FD99235B7B41Cull, 0xD2BA3C59D85A4DE0ull, 0x1747F4F488D93522ull,
      0x5647BE312D7F7A0Eull, 0xB16E45879164B594ull}},
    {"conv3x3", "sharded", "lazy",
     {0xF89392F300412F00ull, 0x6CBFAA4ECA15E2F9ull, 0x2758AA2E3354DC84ull,
      0x25C5F27F935A357Full, 0x279BDC1E1D30F1FAull}},
    {"conv3x3", "sharded", "rn",
     {0xC665F82D08C7CA63ull, 0x8796F0E5109CC1E5ull, 0xEFB6854A2F0A72B5ull,
      0x4E760CDD2A71802Dull, 0x454CACC21309D333ull}},
    {"conv3x3", "sharded", "eager_subOFF",
     {0xC1B67A6DA3FFC440ull, 0x0FCD479C59D76D1Cull, 0x805AE2425D9F919Eull,
      0x846F25F8024218F2ull, 0x2F7021EF03CE33C8ull}},
    {"conv3x3", "sharded", "hfp8",
     {0x54F3301899A1A677ull, 0xD2BA3C59D85A4DE0ull, 0x1747F4F488D93522ull,
      0xE38C8EC549A83B47ull, 0x89E1C5465F93E90Bull}},
    {"conv3x3", "reference", "eager",
     {0x368FD99235B7B41Cull, 0xD2BA3C59D85A4DE0ull, 0x1747F4F488D93522ull,
      0x5647BE312D7F7A0Eull, 0xB16E45879164B594ull}},
    {"conv3x3", "reference", "lazy",
     {0xF89392F300412F00ull, 0x6CBFAA4ECA15E2F9ull, 0x2758AA2E3354DC84ull,
      0x25C5F27F935A357Full, 0x279BDC1E1D30F1FAull}},
    {"conv3x3", "reference", "rn",
     {0xC665F82D08C7CA63ull, 0x8796F0E5109CC1E5ull, 0xEFB6854A2F0A72B5ull,
      0x4E760CDD2A71802Dull, 0x454CACC21309D333ull}},
    {"conv3x3", "reference", "eager_subOFF",
     {0xC1B67A6DA3FFC440ull, 0x0FCD479C59D76D1Cull, 0x805AE2425D9F919Eull,
      0x846F25F8024218F2ull, 0x2F7021EF03CE33C8ull}},
    {"conv3x3", "reference", "hfp8",
     {0x54F3301899A1A677ull, 0xD2BA3C59D85A4DE0ull, 0x1747F4F488D93522ull,
      0xE38C8EC549A83B47ull, 0x89E1C5465F93E90Bull}},
    {"conv3x3", "systolic", "eager",
     {0x6AEFA19C1F2D073Bull, 0x2152EF973002FB2Cull, 0x89CB7BACDE0FBC87ull,
      0x31B73FEA16065A05ull, 0xF8684F17A1EE99E5ull}},
    {"conv3x3", "systolic", "lazy",
     {0x5AD99021DE4E4A22ull, 0x8EE11A8AC1751232ull, 0xE2E77E487580B270ull,
      0x894A967FC4E23FAFull, 0x42F2FEB4475F25FCull}},
    {"conv3x3", "systolic", "rn",
     {0xC665F82D08C7CA63ull, 0x8796F0E5109CC1E5ull, 0xEFB6854A2F0A72B5ull,
      0x4E760CDD2A71802Dull, 0x454CACC21309D333ull}},
    {"conv3x3", "systolic", "eager_subOFF",
     {0x36CDF872FE2500BBull, 0x4D9A922FB6F464A7ull, 0x0BD635711B24CB48ull,
      0x0761F766EDC03125ull, 0xD582E087E3C0B5B9ull}},
    {"conv3x3", "systolic", "hfp8",
     {0xA98E81CE549138FEull, 0x2152EF973002FB2Cull, 0x89CB7BACDE0FBC87ull,
      0x28492E8CC1B3C009ull, 0x345BB46F924DCC3Cull}},
    {"conv3x3s2", "sharded", "eager",
     {0x581B74AFCF6F6DD1ull, 0xABBF90A812D3670Eull, 0xAE63AB752A99D12Full,
      0x9C0B65A34F993DEDull, 0x9E70F6591DC9E4FAull}},
    {"conv3x3s2", "sharded", "lazy",
     {0xC6C1DE9C23ABB91Dull, 0xD8AC10B0F1180BE2ull, 0xA48A45D4E1EF1780ull,
      0x5F2DFDC37054C135ull, 0x07210B63859415C2ull}},
    {"conv3x3s2", "sharded", "rn",
     {0x132DE43041C32BB1ull, 0xB2FED39C9F66EFEFull, 0xD533F055374013E7ull,
      0x3C6581FAC3C216F9ull, 0xC30B697D2589B9FAull}},
    {"conv3x3s2", "sharded", "eager_subOFF",
     {0x2BFC2B2B53906DEDull, 0x2D7ABFB9143343F6ull, 0x8C49D9089D530683ull,
      0xA9AA1E53AF476359ull, 0x43E87232660649FEull}},
    {"conv3x3s2", "sharded", "hfp8",
     {0x195D1132F123642Cull, 0xABBF90A812D3670Eull, 0xAE63AB752A99D12Full,
      0x71D326324DD6382Bull, 0x182022F89612BB39ull}},
    {"conv3x3s2", "reference", "eager",
     {0x581B74AFCF6F6DD1ull, 0xABBF90A812D3670Eull, 0xAE63AB752A99D12Full,
      0x9C0B65A34F993DEDull, 0x9E70F6591DC9E4FAull}},
    {"conv3x3s2", "reference", "lazy",
     {0xC6C1DE9C23ABB91Dull, 0xD8AC10B0F1180BE2ull, 0xA48A45D4E1EF1780ull,
      0x5F2DFDC37054C135ull, 0x07210B63859415C2ull}},
    {"conv3x3s2", "reference", "rn",
     {0x132DE43041C32BB1ull, 0xB2FED39C9F66EFEFull, 0xD533F055374013E7ull,
      0x3C6581FAC3C216F9ull, 0xC30B697D2589B9FAull}},
    {"conv3x3s2", "reference", "eager_subOFF",
     {0x2BFC2B2B53906DEDull, 0x2D7ABFB9143343F6ull, 0x8C49D9089D530683ull,
      0xA9AA1E53AF476359ull, 0x43E87232660649FEull}},
    {"conv3x3s2", "reference", "hfp8",
     {0x195D1132F123642Cull, 0xABBF90A812D3670Eull, 0xAE63AB752A99D12Full,
      0x71D326324DD6382Bull, 0x182022F89612BB39ull}},
    {"conv3x3s2", "systolic", "eager",
     {0x5BF3A8217397617Dull, 0xDC17AA123D4AA572ull, 0xBF2F82DE8C67F7D7ull,
      0xFB6BA96812787771ull, 0xF69A76361949114Full}},
    {"conv3x3s2", "systolic", "lazy",
     {0x688D861855A18D3Dull, 0x2047A5D9CD55C66Bull, 0xA211CFBD0649D628ull,
      0xE159875D35DF574Dull, 0x3F91BEE6DD1910D6ull}},
    {"conv3x3s2", "systolic", "rn",
     {0x132DE43041C32BB1ull, 0xB2FED39C9F66EFEFull, 0xD533F055374013E7ull,
      0x3C6581FAC3C216F9ull, 0xC30B697D2589B9FAull}},
    {"conv3x3s2", "systolic", "eager_subOFF",
     {0x493DCC0442535D41ull, 0x1B7955BFCC1027D6ull, 0x1DB3C61C9932D94Full,
      0x9FFE9CA0F01C1FC5ull, 0x05371C53DD9885FBull}},
    {"conv3x3s2", "systolic", "hfp8",
     {0xA9CA615A5B49E0DCull, 0xDC17AA123D4AA572ull, 0xBF2F82DE8C67F7D7ull,
      0x0626326EDB9B172Eull, 0x4DF49D62BF2DAF39ull}},
    {"conv1x1", "sharded", "eager",
     {0x4567DD9F4987AF45ull, 0xD4203AFCA9C79A60ull, 0x7A15C64406F1FB68ull,
      0x77E5BE53725DDFDBull, 0x7AFD23E6993EFDE0ull}},
    {"conv1x1", "sharded", "lazy",
     {0xD7FF9A7A2AB94339ull, 0xD80FAEF816E039F8ull, 0x1E6555D129B3B924ull,
      0x6E94C98C94EBB643ull, 0x4D9F4B2AE1516BECull}},
    {"conv1x1", "sharded", "rn",
     {0x01B5D17C3C519EC9ull, 0xCF52CB98E4ED408Cull, 0x28C287BC990D8548ull,
      0x76538D95DC98AA97ull, 0x3CDAB42B42153D04ull}},
    {"conv1x1", "sharded", "eager_subOFF",
     {0xB772691BBF6023D0ull, 0x1E4667540DF92EE7ull, 0x7A15C64406F1FB68ull,
      0xBE91049530B1A6D9ull, 0xCA82BBA382E1F66Full}},
    {"conv1x1", "sharded", "hfp8",
     {0xCE56DA7F992BD41Cull, 0xD4203AFCA9C79A60ull, 0x7A15C64406F1FB68ull,
      0x1A459385377385A7ull, 0x27278808C13B648Bull}},
    {"conv1x1", "reference", "eager",
     {0x4567DD9F4987AF45ull, 0xD4203AFCA9C79A60ull, 0x7A15C64406F1FB68ull,
      0x77E5BE53725DDFDBull, 0x7AFD23E6993EFDE0ull}},
    {"conv1x1", "reference", "lazy",
     {0xD7FF9A7A2AB94339ull, 0xD80FAEF816E039F8ull, 0x1E6555D129B3B924ull,
      0x6E94C98C94EBB643ull, 0x4D9F4B2AE1516BECull}},
    {"conv1x1", "reference", "rn",
     {0x01B5D17C3C519EC9ull, 0xCF52CB98E4ED408Cull, 0x28C287BC990D8548ull,
      0x76538D95DC98AA97ull, 0x3CDAB42B42153D04ull}},
    {"conv1x1", "reference", "eager_subOFF",
     {0xB772691BBF6023D0ull, 0x1E4667540DF92EE7ull, 0x7A15C64406F1FB68ull,
      0xBE91049530B1A6D9ull, 0xCA82BBA382E1F66Full}},
    {"conv1x1", "reference", "hfp8",
     {0xCE56DA7F992BD41Cull, 0xD4203AFCA9C79A60ull, 0x7A15C64406F1FB68ull,
      0x1A459385377385A7ull, 0x27278808C13B648Bull}},
    {"conv1x1", "systolic", "eager",
     {0xC3F5FC3D7E6BFD3Dull, 0x24CF261FA93EE200ull, 0x4294918E71F2C841ull,
      0x8282F35534D69863ull, 0xEAADC16F03846180ull}},
    {"conv1x1", "systolic", "lazy",
     {0x9F742089CEFA2891ull, 0x7A87199EC5B43900ull, 0x1ECFB9BC44FDB778ull,
      0x0FAEB5E06A2B99A7ull, 0x3203C1E04F295B2Cull}},
    {"conv1x1", "systolic", "rn",
     {0x01B5D17C3C519EC9ull, 0xCF52CB98E4ED408Cull, 0x28C287BC990D8548ull,
      0x76538D95DC98AA97ull, 0x3CDAB42B42153D04ull}},
    {"conv1x1", "systolic", "eager_subOFF",
     {0x0E9131B59EAE0E5Cull, 0xFB7B95B3BB7EC0DFull, 0x2AAEF4672DF5D3A5ull,
      0x9030046F988BA261ull, 0x711ED00478B6AC53ull}},
    {"conv1x1", "systolic", "hfp8",
     {0x5D2BABE52C2CB054ull, 0x24CF261FA93EE200ull, 0x4294918E71F2C841ull,
      0x7DF00E0D7FCE5143ull, 0x3F6AF590A596036Eull}},
    {"linear", "sharded", "eager",
     {0xDEF2A01690E74579ull, 0x82E415508DD986A3ull, 0xABFB4C9A4BD1C5DCull,
      0x883A14BE5DE8627Dull, 0xC8F32F8C555EAB34ull, 0x561390E9BF5AEBB3ull}},
    {"linear", "sharded", "lazy",
     {0x4C85D23CE524C599ull, 0x37410696A6B7F88Bull, 0x5A5518BF246A0B80ull,
      0x883A14BE5DE8627Dull, 0x137E626575432659ull, 0x0105270FFE8810E4ull}},
    {"linear", "sharded", "rn",
     {0xB413761D1E648B9Dull, 0x0186ED6802E4C85Full, 0xCF244BF2F5691A7Dull,
      0x883A14BE5DE8627Dull, 0x0B5FC7D3CC1E6C35ull, 0xBFE69D7949B274F4ull}},
    {"linear", "sharded", "eager_subOFF",
     {0xF6292459E8E63D31ull, 0xBC37516304DF2A5Aull, 0x6A9CAC3FD22FD685ull,
      0x883A14BE5DE8627Dull, 0x5AF49E6D5F25EE13ull, 0x39BF0366D11516F0ull}},
    {"linear", "sharded", "hfp8",
     {0x8E6B8AB9A73F2690ull, 0x82E415508DD986A3ull, 0xABFB4C9A4BD1C5DCull,
      0x883A14BE5DE8627Dull, 0xB068C66DACE42F40ull, 0x3BD8ED0F4D6023C3ull}},
    {"linear", "reference", "eager",
     {0xDEF2A01690E74579ull, 0x82E415508DD986A3ull, 0xABFB4C9A4BD1C5DCull,
      0x883A14BE5DE8627Dull, 0xC8F32F8C555EAB34ull, 0x561390E9BF5AEBB3ull}},
    {"linear", "reference", "lazy",
     {0x4C85D23CE524C599ull, 0x37410696A6B7F88Bull, 0x5A5518BF246A0B80ull,
      0x883A14BE5DE8627Dull, 0x137E626575432659ull, 0x0105270FFE8810E4ull}},
    {"linear", "reference", "rn",
     {0xB413761D1E648B9Dull, 0x0186ED6802E4C85Full, 0xCF244BF2F5691A7Dull,
      0x883A14BE5DE8627Dull, 0x0B5FC7D3CC1E6C35ull, 0xBFE69D7949B274F4ull}},
    {"linear", "reference", "eager_subOFF",
     {0xF6292459E8E63D31ull, 0xBC37516304DF2A5Aull, 0x6A9CAC3FD22FD685ull,
      0x883A14BE5DE8627Dull, 0x5AF49E6D5F25EE13ull, 0x39BF0366D11516F0ull}},
    {"linear", "reference", "hfp8",
     {0x8E6B8AB9A73F2690ull, 0x82E415508DD986A3ull, 0xABFB4C9A4BD1C5DCull,
      0x883A14BE5DE8627Dull, 0xB068C66DACE42F40ull, 0x3BD8ED0F4D6023C3ull}},
    {"linear", "systolic", "eager",
     {0xBE26CC5143E503CCull, 0xDB306E201330E233ull, 0xB1ACBA65D9290A84ull,
      0x883A14BE5DE8627Dull, 0xC1383BD0A8D6BB9Aull, 0x50D544F4905CBF38ull}},
    {"linear", "systolic", "lazy",
     {0x230D0DE624339AEEull, 0x1BEE78254BF0BB97ull, 0xBD4142EF44606A24ull,
      0x883A14BE5DE8627Dull, 0x59D544A28720915Bull, 0x7A56AB6683EE22D7ull}},
    {"linear", "systolic", "rn",
     {0xB413761D1E648B9Dull, 0x0186ED6802E4C85Full, 0xCF244BF2F5691A7Dull,
      0x883A14BE5DE8627Dull, 0x0B5FC7D3CC1E6C35ull, 0xBFE69D7949B274F4ull}},
    {"linear", "systolic", "eager_subOFF",
     {0xB67DC8570CEFD914ull, 0x2B44CD4CE2A91D92ull, 0x35B84EB63FB2B125ull,
      0x883A14BE5DE8627Dull, 0x2AD0EAD762CA906Aull, 0x03BB5406AF4C1599ull}},
    {"linear", "systolic", "hfp8",
     {0x961640827B18BBA9ull, 0xDB306E201330E233ull, 0xB1ACBA65D9290A84ull,
      0x883A14BE5DE8627Dull, 0xADB0240A6C4816AAull, 0xDB8CF3D2D8EEA9E0ull}},
};
// clang-format on

/// A layer under test plus its input shape.
struct Subject {
  const char* name;
  Layer* (*make)();
  std::vector<int> input;
};

/// Runs the subject's sequence under (backend, scenario) and digests each
/// output: training forward, input gradient, every parameter gradient,
/// then a weight update and two inference forwards — the second with the
/// weights unchanged since the first.
std::vector<uint64_t> run(const Subject& s, const char* backend,
                          const QuantPolicy& policy) {
  std::unique_ptr<Layer> layer(s.make());
  std::vector<Param*> params;
  layer->collect_params(params);
  Xoshiro256 rng(0x5EED);
  for (Param* p : params) fill(p->value, rng);
  const Tensor x = filled(s.input, rng);
  const ComputeContext ctx =
      ComputeContext::with_backend(backend, policy, /*seed=*/17);

  std::vector<uint64_t> out;
  const Tensor y = layer->forward(ctx, x, /*training=*/true);
  out.push_back(digest(y));
  const Tensor gout = filled(y.shape(), rng);
  out.push_back(digest(layer->backward(ctx.backward(), gout)));
  for (Param* p : params) out.push_back(digest(p->grad));

  for (Param* p : params) {
    for (int64_t i = 0; i < p->value.numel(); ++i) p->value[i] *= 0.75f;
    p->bump();
  }
  out.push_back(digest(layer->forward(ctx, filled(s.input, rng), false)));
  out.push_back(digest(layer->forward(ctx, filled(s.input, rng), false)));
  return out;
}

/// A recorded row as the tables spell it: the quoted `fields`, then the
/// digests three to a line.
std::string format_row(const std::vector<std::string>& fields,
                       const std::vector<uint64_t>& d) {
  std::string line = "    {";
  for (const std::string& f : fields) line += "\"" + f + "\", ";
  line.pop_back();
  line += "\n     {";
  for (size_t i = 0; i < d.size(); ++i) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llXull",
                  static_cast<unsigned long long>(d[i]));
    line += (i ? (i % 3 == 0 ? ",\n      " : ", ") : "") + std::string(hex);
  }
  return line + "}},";
}

void check(const Subject& s) {
  for (const char* backend : kBackends) {
    for (const Scenario& sc : scenarios()) {
      const std::vector<uint64_t> got = run(s, backend, sc.policy);
      const Row* rec = nullptr;
      for (const Row& r : kRecorded)
        if (std::string(r.subject) == s.name &&
            std::string(r.backend) == backend &&
            std::string(r.scenario) == sc.name)
          rec = &r;
      if (!rec || rec->digests != got)
        ADD_FAILURE() << (rec ? "row moved" : "row missing") << ": " << s.name
                      << " / " << backend << " / " << sc.name
                      << "; it now reads\n"
                      << format_row({s.name, backend, sc.name}, got);
    }
  }
}

TEST(LayerBits, Conv3x3Stride1Pad1) {
  check({"conv3x3", []() -> Layer* { return new Conv2d(3, 4, 3, 1, 1); },
         {2, 3, 6, 6}});
}

TEST(LayerBits, Conv3x3Stride2OddInput) {
  check({"conv3x3s2", []() -> Layer* { return new Conv2d(2, 3, 3, 2, 0); },
         {2, 2, 7, 7}});
}

TEST(LayerBits, Conv1x1) {
  check({"conv1x1", []() -> Layer* { return new Conv2d(4, 5, 1, 2, 0); },
         {2, 4, 6, 6}});
}

TEST(LayerBits, Linear) {
  check({"linear", []() -> Layer* { return new Linear(10, 7); }, {5, 10}});
}

// ---- the compiled forward ----

/// One recorded compiled row: the digest of every output of one wave, the
/// samples in order.
struct CompiledRow {
  const char* subject;
  const char* scenario;
  uint64_t digest;
};

// clang-format off
const std::vector<CompiledRow> kCompiledRecorded = {
    {"resnet20 b1", "eager", 0x9BE86378A4CA3235ull},
    {"resnet20 b1", "lazy", 0x47765C57FF58FD7Dull},
    {"resnet20 b1", "rn", 0xCE41CA3676C82249ull},
    {"resnet20 b1", "eager_subOFF", 0x9BE86378A4CA3235ull},
    {"resnet20 b16", "eager", 0xE33C7A7227280626ull},
    {"resnet20 b16", "lazy", 0x42CE8E8BCA28CE4Full},
    {"resnet20 b16", "rn", 0x5B49944E180ED72Dull},
    {"resnet20 b16", "eager_subOFF", 0xE33C7A7227280626ull},
    {"resnet20:11 b4", "eager", 0xE86E03F5E6A3BB25ull},
    {"resnet20:11 b4", "lazy", 0x02B7C0F538799251ull},
    {"resnet20:11 b4", "rn", 0x43E4338A7582772Cull},
    {"resnet20:11 b4", "eager_subOFF", 0x1872CA6DC6BF5465ull},
    {"vgg_mini:4,6,8 b4", "eager", 0xB4180B23C8F1F54Dull},
    {"vgg_mini:4,6,8 b4", "lazy", 0x1E8B0B9727F304BDull},
    {"vgg_mini:4,6,8 b4", "rn", 0xF43F93592F4E0B0Full},
    {"vgg_mini:4,6,8 b4", "eager_subOFF", 0xB4180B23C8F1F54Dull},
    {"bottleneck b4", "eager", 0xFAA6C4BB7C0EC7BAull},
    {"bottleneck b4", "lazy", 0xE6FA50A4F1AA6123ull},
    {"bottleneck b4", "rn", 0x51CDC9B9E8DDBCD3ull},
    {"bottleneck b4", "eager_subOFF", 0xFAA6C4BB7C0EC7BAull},
};
// clang-format on

/// A compiled model under test: how to build it, its per-sample input
/// shape and sample stream, and the wave size it is compiled and run at.
struct CompiledSubject {
  const char* name;
  std::function<std::unique_ptr<Sequential>()> build;
  std::vector<int> input;
  std::function<Tensor(int)> sample;
  int batch;
};

CompiledSubject zoo_subject(const char* name, const char* spec_str,
                            int batch) {
  const ModelSpec spec = ModelSpec::parse_or_die(spec_str);
  return {name, [spec] { return spec.build(); }, spec.input_shape(),
          [spec](int i) { return spec.sample(i); }, batch};
}

/// Stem conv + two BottleneckBlocks (projection and identity shortcuts):
/// the 1x1 convs the zoo grammar does not name.
CompiledSubject bottleneck_subject() {
  auto build = [] {
    auto net = std::make_unique<Sequential>();
    net->add(std::make_unique<Conv2d>(3, 8, 3));
    net->add(std::make_unique<BatchNorm2d>(8));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<BottleneckBlock>(8, 4, 16, 2));
    net->add(std::make_unique<BottleneckBlock>(16, 4, 16, 1));
    net->add(std::make_unique<GlobalAvgPool>());
    net->add(std::make_unique<Linear>(16, 5));
    he_init(*net, 0xB077);
    return net;
  };
  auto sample = [](int i) {
    Xoshiro256 rng(900 + static_cast<uint64_t>(i));
    return filled({1, 3, 8, 8}, rng);
  };
  return {"bottleneck b4", build, {3, 8, 8}, sample, 4};
}

void check_compiled(const CompiledSubject& s) {
  for (const Scenario& sc : scenarios()) {
    if (std::string(sc.name) == "hfp8") continue;
    auto model = s.build();
    const EmuEngine engine =
        EmuEngine::Builder().backend("sharded").policy(sc.policy).build();
    ModelCompiler::Options opts;
    opts.input_shape = s.input;
    opts.max_batch = s.batch;
    auto cm = ModelCompiler(engine).compile(*model, opts);
    std::vector<Tensor> xs;
    for (int i = 0; i < s.batch; ++i) xs.push_back(s.sample(i));
    cm->forward_batch(xs, 0, cm->stages());
    uint64_t h = 0xCBF29CE484222325ull;
    for (const Tensor& y : xs) h = digest(y, h);

    const CompiledRow* rec = nullptr;
    for (const CompiledRow& r : kCompiledRecorded)
      if (std::string(r.subject) == s.name &&
          std::string(r.scenario) == sc.name)
        rec = &r;
    if (!rec || rec->digest != h) {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llXull",
                    static_cast<unsigned long long>(h));
      ADD_FAILURE() << (rec ? "row moved" : "row missing") << ": " << s.name
                    << " / " << sc.name << "; it now reads\n    {\""
                    << s.name << "\", \"" << sc.name << "\", " << hex
                    << "},";
    }
  }
}

TEST(CompiledBits, Resnet20ServeShapeBatch1) {
  check_compiled(zoo_subject("resnet20 b1", "resnet20", 1));
}

TEST(CompiledBits, Resnet20ServeShapeBatch16) {
  check_compiled(zoo_subject("resnet20 b16", "resnet20", 16));
}

TEST(CompiledBits, Resnet20OddSizeBatch4) {
  check_compiled(zoo_subject("resnet20:11 b4", "resnet20:11", 4));
}

TEST(CompiledBits, VggMini) {
  check_compiled(zoo_subject("vgg_mini:4,6,8 b4", "vgg_mini:4,6,8", 4));
}

TEST(CompiledBits, Bottleneck) { check_compiled(bottleneck_subject()); }

// ---- the training step ----

/// One recorded training row: each step's logits, every parameter after
/// the last step (one digest over all of them), then the inference output.
struct TrainRow {
  const char* subject;
  const char* scenario;
  std::vector<uint64_t> digests;
};

// clang-format off
const std::vector<TrainRow> kTrainRecorded = {
    {"resnet20:16 b4", "eager",
     {0xED12ADAAB735A0F2ull, 0x40A847ED77BAB1BDull, 0x266C9D5D8B9CF4A5ull,
      0x7AF02B52C5AC7956ull, 0x93FF58DEFC9E7AAFull}},
    {"resnet20:16 b4", "lazy",
     {0x4C8D4E568222ED03ull, 0x80E54B3C8A1E7235ull, 0x7DF2CE0AD7AEAC32ull,
      0xA12AC1989F5AB2A7ull, 0xEB37EC8052E4F6B5ull}},
    {"resnet20:16 b4", "rn",
     {0x2DE5D690FA9A4831ull, 0x198C6881C0BDE5FEull, 0x6A890332032F91D8ull,
      0x49FBFA7E1BC25FD8ull, 0xD7760F97C2DACB85ull}},
    {"resnet20:16 b4", "eager_subOFF",
     {0x9B841CA5B6F4DBA0ull, 0x2C315265E78E2F7Full, 0x1C0709F054C50B02ull,
      0x5D688891C586EC64ull, 0xE2E38E1B1A7CF487ull}},
    {"resnet20:16 b4", "hfp8",
     {0x65488FD0919BDEEFull, 0x71B318F266AD2027ull, 0x977698E7D243F7BAull,
      0x18263779A0EBD992ull, 0xD78BB447D055977Eull}},
    {"bottleneck b4", "eager",
     {0x2943E85FC019AC41ull, 0x4CD42A078C17444Cull, 0xCA3F12F359E90556ull,
      0x18D9BDD485483E03ull, 0x2CE0AA86CD6201A5ull}},
    {"bottleneck b4", "lazy",
     {0xA549DD3105FA248Dull, 0x9E7865D8986412F4ull, 0x1C18A6470A90D8CBull,
      0x3B79079842BE23ECull, 0x42C6D688BA913110ull}},
    {"bottleneck b4", "rn",
     {0xE2B1A0EDEBEC322Aull, 0x70128710E655D1FAull, 0xBF2B7954917CB149ull,
      0x21B4787683F4F814ull, 0x0F89F74F0E8B02A4ull}},
    {"bottleneck b4", "eager_subOFF",
     {0x2943E85FC019AC41ull, 0x9C436D41F05A022Eull, 0xE1615D91B6E8DD88ull,
      0x3853941D8BEE2D2Cull, 0x475C9144EFDE2D4Cull}},
    {"bottleneck b4", "hfp8",
     {0xA4250D81E5C666F5ull, 0xDDF18D35711C2A96ull, 0x5E2106F109A0427Eull,
      0x82D39B5E8DFC5407ull, 0xDC13F21FFF21D71Dull}},
    {"wide planes b2", "eager",
     {0x6B606D0B3604FFC1ull, 0xDFE5AAB838977EA6ull, 0xAFC2AEE3BF1B3ABDull,
      0x2527A47E55D70EE6ull, 0x37BF20A621F4F95Dull}},
    {"wide planes b2", "lazy",
     {0x6B606D0B3604FFC1ull, 0x92085DF781847DC1ull, 0xC5616DD454003D31ull,
      0x136A8421745B1BA6ull, 0xC1F3FB8678711F6Full}},
    {"wide planes b2", "rn",
     {0xE0675F4E17ABCFC5ull, 0xE87E7BA0A3E20A6Dull, 0xE2C9F8B6C2B09165ull,
      0xE9ABE1CB0CF7FC68ull, 0xF9548981012455ADull}},
    {"wide planes b2", "eager_subOFF",
     {0x6B606D0B3604FFC1ull, 0xDFE5AAB838977EA6ull, 0x0FF048EBFFAFB5C5ull,
      0x077D69DD221AE226ull, 0x13F77CC0D910EDB7ull}},
    {"wide planes b2", "hfp8",
     {0x908D058502BB5E09ull, 0xB8BD7A5D448F3FADull, 0x0DD6A986E68F43E1ull,
      0x44576396BD558BA1ull, 0x60D0EE36B9664B59ull}},
};
// clang-format on

/// A model trained from `input` (batch included), built fresh per run.
struct TrainSubject {
  const char* name;
  std::function<std::unique_ptr<Sequential>()> build;
  std::vector<int> input;
};

/// Three SGD steps of the subject on sharded under (policy, threads): each
/// a training forward, a backward from a fill()ed output gradient (no
/// softmax, so no libm call) and an SgdMomentum step. Then one inference
/// forward, which reads the running statistics.
std::vector<uint64_t> run_train(const TrainSubject& s,
                                const QuantPolicy& policy, int threads) {
  std::unique_ptr<Sequential> model = s.build();
  std::vector<Param*> params;
  model->collect_params(params);
  SgdMomentum optim(params, 0.05f);
  optim.zero_grad();
  Xoshiro256 rng(0x7EA1);
  const Tensor x = filled(s.input, rng);
  const ComputeContext base =
      ComputeContext::with_backend("sharded", policy, /*seed=*/17, threads);

  std::vector<uint64_t> out;
  for (int step = 0; step < 3; ++step) {
    const ComputeContext ctx = base.fork(0xE0000 + step);
    const Tensor logits = model->forward(ctx, x, /*training=*/true);
    out.push_back(digest(logits));
    model->backward(ctx.backward(), filled(logits.shape(), rng));
    optim.step(/*loss_scale=*/1.0f);
    optim.zero_grad();
  }
  uint64_t h = 0xCBF29CE484222325ull;
  for (const Param* p : params) h = digest(p->value, h);
  out.push_back(h);
  out.push_back(digest(model->forward(base, x, /*training=*/false)));
  return out;
}

void check_train(const TrainSubject& s) {
  for (const Scenario& sc : scenarios()) {
    const TrainRow* rec = nullptr;
    for (const TrainRow& r : kTrainRecorded)
      if (std::string(r.subject) == s.name &&
          std::string(r.scenario) == sc.name)
        rec = &r;
    for (const int threads : {1, 0}) {
      const std::vector<uint64_t> got = run_train(s, sc.policy, threads);
      if (rec && rec->digests == got) continue;
      ADD_FAILURE() << (rec ? "row moved" : "row missing") << ": " << s.name
                    << " / " << sc.name << " at threads " << threads
                    << "; it now reads\n"
                    << format_row({s.name, sc.name}, got);
    }
  }
}

TEST(TrainBits, Resnet20) {
  check_train({"resnet20:16 b4",
               [] { return ModelSpec::parse_or_die("resnet20:16").build(); },
               {4, 3, 16, 16}});
}

TEST(TrainBits, Bottleneck) {
  check_train({"bottleneck b4", bottleneck_subject().build, {4, 3, 8, 8}});
}

// A 1x1 stem, a BasicBlock and a BottleneckBlock, both with identity
// shortcuts, on 64x64 planes: at batch 2 the stem's and the BasicBlock's
// BatchNorms, every ReLU and both residual adds span 32,768 elements, large
// enough to split across pool threads, while the GEMMs stay small.
TEST(TrainBits, WidePlanes) {
  auto build = [] {
    auto net = std::make_unique<Sequential>();
    net->add(std::make_unique<Conv2d>(3, 4, 1, 1, 0));
    net->add(std::make_unique<BatchNorm2d>(4));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<BasicBlock>(4, 4, 1));
    net->add(std::make_unique<BottleneckBlock>(4, 2, 4, 1));
    net->add(std::make_unique<GlobalAvgPool>());
    net->add(std::make_unique<Linear>(4, 5));
    he_init(*net, 0x91DE);
    return net;
  };
  check_train({"wide planes b2", build, {2, 3, 64, 64}});
}

}  // namespace
}  // namespace srmac
