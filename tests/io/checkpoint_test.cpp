// The persistence trust boundary (src/io/checkpoint): a checkpoint must
// restore a model's serving behavior bit for bit under every adder kind,
// and every malformed input — truncation, bit flips, wrong magic/version/
// endianness, a mismatched model — must surface as a CheckpointError with
// the right kind, never a crash or a silent partial load.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "engine/emu_engine.hpp"
#include "io/checkpoint.hpp"
#include "nn/model_zoo.hpp"
#include "util/crc32.hpp"

namespace srmac {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

CheckpointErrorKind kind_of(const std::vector<char>& bytes,
                            const std::vector<Param*>& params) {
  try {
    deserialize_params(bytes, params);
  } catch (const CheckpointError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "malformed checkpoint deserialized without error";
  return CheckpointErrorKind::kIo;
}

// --------------------------------------------------------------------------
// Bitwise round trip, per adder kind
// --------------------------------------------------------------------------

TEST(CheckpointRoundTrip, BitwiseForwardForEveryAdderKind) {
  const char* scenarios[] = {
      "rn:e5m2/e6m5:r=0:subON",        // round-nearest
      "lazy_sr:e5m2/e6m5:r=9:subON",   // lazy stochastic rounding
      "eager_sr:e5m2/e6m5:r=13:subOFF" // eager stochastic rounding
  };
  const ModelSpec spec = ModelSpec::parse_or_die("mlp:24,2");
  const std::string path = ::testing::TempDir() + "/srmac_io_roundtrip.bin";
  for (const char* scenario : scenarios) {
    EmuEngine engine = EmuEngine::Builder().scenario(scenario).build();
    auto trained = spec.build(/*init_seed=*/0xBE7C);
    const Tensor ref =
        trained->forward(engine.context(), spec.sample(0), false);

    save_checkpoint(path, *trained, scenario, spec.name);

    // A freshly built model with different weights must reproduce the
    // reference exactly once the checkpoint lands, under the checkpoint's
    // own pinned scenario.
    auto restored = spec.build(/*init_seed=*/0x1234);
    const Tensor before =
        restored->forward(engine.context(), spec.sample(0), false);
    ASSERT_FALSE(bitwise_equal(before, ref)) << scenario;

    const CheckpointMeta meta = load_checkpoint(path, *restored);
    EXPECT_EQ(meta.scenario, scenario);
    EXPECT_EQ(meta.model, spec.name);
    EXPECT_EQ(meta.format_version, kCheckpointVersion);
    const Tensor after =
        restored->forward(engine.context(), spec.sample(0), false);
    EXPECT_TRUE(bitwise_equal(after, ref)) << scenario;
  }
  std::remove(path.c_str());
}

TEST(CheckpointRoundTrip, LoadBumpsParamVersions) {
  const ModelSpec spec = ModelSpec::parse_or_die("mlp:8,1");
  auto model = spec.build();
  std::vector<Param*> params;
  model->collect_params(params);
  const std::vector<char> bytes = serialize_params(params);
  std::vector<uint64_t> versions;
  for (const Param* p : params) versions.push_back(p->version);
  deserialize_params(bytes, params);
  for (size_t i = 0; i < params.size(); ++i)
    EXPECT_GT(params[i]->version, versions[i])
        << "compiled planes keyed on Param::version would serve stale weights";
}

TEST(CheckpointRoundTrip, MetaProbeReadsHeaderOnly) {
  const ModelSpec spec = ModelSpec::parse_or_die("mlp:8,1");
  auto model = spec.build();
  const std::string path = ::testing::TempDir() + "/srmac_io_meta.bin";
  save_checkpoint(path, *model, "eager_sr:e5m2/e6m5:r=9:subON", spec.name);
  const CheckpointMeta meta = read_checkpoint_meta(path);
  EXPECT_EQ(meta.scenario, "eager_sr:e5m2/e6m5:r=9:subON");
  EXPECT_EQ(meta.model, "mlp:8,1");
  std::vector<Param*> params;
  model->collect_params(params);
  EXPECT_EQ(meta.tensor_count, params.size());
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Typed rejection of malformed files
// --------------------------------------------------------------------------

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = ModelSpec::parse_or_die("mlp:8,1").build();
    model_->collect_params(params_);
    bytes_ = serialize_params(params_, "fp32", "mlp:8,1");
  }

  std::unique_ptr<Sequential> model_;
  std::vector<Param*> params_;
  std::vector<char> bytes_;
};

TEST_F(CheckpointCorruption, BadMagic) {
  std::vector<char> b = bytes_;
  b[0] ^= 0x5A;
  EXPECT_EQ(kind_of(b, params_), CheckpointErrorKind::kBadMagic);
}

TEST_F(CheckpointCorruption, CrossEndianFile) {
  // Byte-swap the endianness marker (offset 8): what the header of a file
  // produced on an opposite-endian host looks like. Must be detected as
  // endianness, not as a garbled version number.
  std::vector<char> b = bytes_;
  std::swap(b[8], b[11]);
  std::swap(b[9], b[10]);
  EXPECT_EQ(kind_of(b, params_), CheckpointErrorKind::kBadEndianness);
}

TEST_F(CheckpointCorruption, UnsupportedVersion) {
  std::vector<char> b = bytes_;
  uint32_t future = kCheckpointVersion + 7;
  std::memcpy(b.data() + 12, &future, 4);
  EXPECT_EQ(kind_of(b, params_), CheckpointErrorKind::kBadVersion);
}

TEST_F(CheckpointCorruption, HeaderCrcGuardsIdentityStrings) {
  // Flip a byte inside the scenario string: header CRC must catch it.
  std::vector<char> b = bytes_;
  b[20] ^= 0x01;  // first byte of the scenario payload ("fp32")
  EXPECT_EQ(kind_of(b, params_), CheckpointErrorKind::kCorrupt);
}

TEST_F(CheckpointCorruption, TruncationAnywhereIsTyped) {
  // Cutting the file at any prefix length must yield kTruncated (the CRC
  // field guards content, the cursor guards length) — never a crash, hang,
  // or silent success. Exhaustive over every prefix: the file is small.
  for (size_t len = 0; len < bytes_.size(); ++len) {
    std::vector<char> b(bytes_.begin(), bytes_.begin() + len);
    EXPECT_EQ(kind_of(b, params_), CheckpointErrorKind::kTruncated)
        << "prefix length " << len;
  }
}

TEST_F(CheckpointCorruption, PayloadBitFlip) {
  // Flip one bit in the last tensor's payload (the file tail) — the
  // per-tensor CRC must catch it even though every header field is intact.
  std::vector<char> b = bytes_;
  b[b.size() - 1] ^= 0x80;
  EXPECT_EQ(kind_of(b, params_), CheckpointErrorKind::kCorrupt);
}

TEST_F(CheckpointCorruption, TrailingGarbage) {
  std::vector<char> b = bytes_;
  b.push_back('x');
  EXPECT_EQ(kind_of(b, params_), CheckpointErrorKind::kCorrupt);
}

TEST_F(CheckpointCorruption, MismatchedArchitecture) {
  auto other = ModelSpec::parse_or_die("mlp:9,1").build();  // wider hidden
  std::vector<Param*> other_params;
  other->collect_params(other_params);
  EXPECT_EQ(kind_of(bytes_, other_params), CheckpointErrorKind::kMismatch);

  // Same shapes, different parameter count.
  std::vector<Param*> fewer(params_.begin(), params_.end() - 1);
  EXPECT_EQ(kind_of(bytes_, fewer), CheckpointErrorKind::kMismatch);
}

TEST_F(CheckpointCorruption, LyingLengthFieldsNeverDriveAllocations) {
  // Rewrite the first tensor's rank to 8 with huge dims: the parser must
  // reject on its sanity bounds (kCorrupt/kTruncated), not try to allocate
  // or read petabytes. Locate the first record: it starts right after the
  // header (magic 8 + endian 4 + version 4 + 2 strings + count 4 + crc 4).
  size_t off = 8 + 4 + 4;
  auto u32_at = [&](size_t o) {
    uint32_t v;
    std::memcpy(&v, bytes_.data() + o, 4);
    return v;
  };
  off += 4 + u32_at(off);  // scenario
  off += 4 + u32_at(off);  // model tag
  off += 4 + 4;            // tensor count + header CRC
  const size_t name_len = u32_at(off);
  std::vector<char> b = bytes_;
  size_t p = off + 4 + name_len + 1;  // past name + dtype, at ndim
  b[p] = 8;
  const uint32_t huge = 0x40000000u;
  for (int d = 0; d < 8 && p + 1 + 4 * (d + 1) <= b.size(); ++d)
    std::memcpy(b.data() + p + 1 + 4 * d, &huge, 4);
  const CheckpointErrorKind k = kind_of(b, params_);
  EXPECT_TRUE(k == CheckpointErrorKind::kCorrupt ||
              k == CheckpointErrorKind::kTruncated)
      << checkpoint_error_kind_name(k);
}

TEST_F(CheckpointCorruption, KindNamesAreStable) {
  EXPECT_STREQ(checkpoint_error_kind_name(CheckpointErrorKind::kBadMagic),
               "bad_magic");
  EXPECT_STREQ(checkpoint_error_kind_name(CheckpointErrorKind::kTruncated),
               "truncated");
  EXPECT_STREQ(checkpoint_error_kind_name(CheckpointErrorKind::kMismatch),
               "mismatch");
}

// --------------------------------------------------------------------------
// Streaming reader
// --------------------------------------------------------------------------

TEST(CheckpointReaderTest, WalksAndSkipsRecords) {
  auto model = ModelSpec::parse_or_die("mlp:8,1").build();
  std::vector<Param*> params;
  model->collect_params(params);
  const std::vector<char> bytes = serialize_params(params, "fp32", "mlp:8,1");
  std::istringstream in(std::string(bytes.begin(), bytes.end()),
                        std::ios::binary);
  CheckpointReader reader(in);
  EXPECT_EQ(reader.meta().tensor_count, params.size());
  size_t seen = 0;
  while (auto info = reader.next()) {
    EXPECT_EQ(info->name, params[seen]->name);
    EXPECT_EQ(info->byte_len,
              static_cast<uint64_t>(params[seen]->value.numel()) *
                  sizeof(float));
    reader.skip_payload();  // CRC-verified even when skipped
    ++seen;
  }
  EXPECT_EQ(seen, params.size());
}

TEST(Crc32Test, MatchesKnownVectorAndComposesIncrementally) {
  // The IEEE check value: CRC32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
  // Incremental computation over a split buffer matches the one-shot CRC.
  const uint32_t part = crc32(s, 4);
  EXPECT_EQ(crc32(s + 4, 5, part), 0xCBF43926u);
  EXPECT_EQ(crc32(s, 0), 0u);
}

}  // namespace
}  // namespace srmac
