#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace srmac {

/// Versioned binary model checkpoints (docs/PERSISTENCE.md).
///
/// A checkpoint pins everything needed to reproduce a model's serving
/// behavior bit for bit: the FP32 master weights in the exact order
/// `Sequential::collect_params` walks them (the same child order as
/// `forward`), plus the engine scenario string the model was trained /
/// meant to be served under — so loading a checkpoint restores not just
/// weights but the quantization configuration their accuracy was measured
/// with. Every tensor record carries a CRC32; the parser is streaming and
/// rejects truncated or corrupted files with typed errors instead of
/// crashing or silently loading garbage.
///
/// File layout (all integers little-endian on the producing host; the
/// header's endianness marker rejects cross-endian files):
///
///   offset  size  field
///   ------  ----  -----
///        0     8  magic "SRMACKPT"
///        8     4  endianness marker 0x01020304 (as written by the producer)
///       12     4  format version (kCheckpointVersion)
///       16   4+n  scenario string (u32 length + bytes)
///        -   4+n  model tag string (u32 length + bytes, e.g. "mlp:64,3")
///        -     4  tensor count
///        -     4  CRC32 of every header byte above
///
/// followed by `tensor count` records:
///
///   field            size
///   -----            ----
///   name             4+n  (u32 length + bytes, e.g. "conv_w")
///   dtype            1    (0 = f32; the only dtype today)
///   ndim             1    (1..8)
///   dims[ndim]       4*ndim
///   byte length      8    (must equal product(dims) * sizeof(dtype))
///   payload CRC32    4
///   payload          byte length

inline constexpr uint32_t kCheckpointVersion = 1;
inline constexpr char kCheckpointMagic[8] = {'S', 'R', 'M', 'A',
                                             'C', 'K', 'P', 'T'};
inline constexpr uint32_t kCheckpointEndianMarker = 0x01020304u;

/// What went wrong, machine-readably — the serving/persistence trust
/// boundary never reports corruption as a crash or a bare string.
enum class CheckpointErrorKind {
  kIo,             ///< open/read/write failed at the OS level
  kBadMagic,       ///< not a checkpoint file
  kBadEndianness,  ///< produced on a host with different byte order
  kBadVersion,     ///< format version this build does not understand
  kTruncated,      ///< file ends mid-header or mid-record
  kCorrupt,        ///< a CRC mismatch or an internally inconsistent record
  kMismatch,       ///< tensor name/shape/dtype does not match the model
};

const char* checkpoint_error_kind_name(CheckpointErrorKind k);

/// Thrown by every parse/load failure: std::runtime_error (so generic
/// catch sites keep working) plus the typed kind above.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  CheckpointErrorKind kind() const { return kind_; }

 private:
  CheckpointErrorKind kind_;
};

/// The header's identity fields, returned by every load so callers can
/// adopt the checkpoint's pinned scenario and rebuild its architecture
/// (model tag parses with ModelSpec::parse, nn/model_zoo.hpp).
struct CheckpointMeta {
  uint32_t format_version = 0;
  std::string scenario;  ///< engine scenario the checkpoint pins ("" = unset)
  std::string model;     ///< model-zoo spec tag ("" = unset)
  uint32_t tensor_count = 0;
};

/// Streaming checkpoint parser: validates the header on construction, then
/// hands out one tensor record at a time — next() reads a record's
/// metadata, read_payload()/skip_payload() consume its bytes (read_payload
/// verifies the CRC). Never loads the whole file into memory, and throws
/// CheckpointError on every malformed input. The istream must outlive the
/// reader.
class CheckpointReader {
 public:
  struct TensorInfo {
    std::string name;
    uint8_t dtype = 0;  ///< 0 = f32
    std::vector<int> shape;
    uint64_t byte_len = 0;
    uint32_t crc = 0;
  };

  /// Parses and validates the header; throws CheckpointError (kBadMagic,
  /// kBadEndianness, kBadVersion, kTruncated, kCorrupt, kIo).
  explicit CheckpointReader(std::istream& in);

  const CheckpointMeta& meta() const { return meta_; }

  /// Metadata of the next tensor record, or nullopt after the last one
  /// (which also verifies the file ends exactly there). The previous
  /// record's payload must have been consumed first.
  std::optional<TensorInfo> next();

  /// Reads the pending record's payload into `dst` (info.byte_len bytes)
  /// and verifies its CRC32; throws kTruncated / kCorrupt / kIo.
  void read_payload(void* dst);

  /// Consumes the pending record's payload without keeping it (still
  /// CRC-verified — a skipped-over corrupt tensor should not pass silently).
  void skip_payload();

 private:
  std::istream& in_;
  CheckpointMeta meta_;
  uint32_t records_read_ = 0;
  std::optional<TensorInfo> pending_;  ///< record whose payload is unread
  std::vector<char> scratch_;          ///< skip_payload bounce buffer
};

/// Serializes `params` in order. `scenario`/`model` are the identity
/// strings embedded in the header (pass the engine's scenario so the
/// checkpoint pins its quantization config; pass the ModelSpec tag so
/// loaders can rebuild the architecture). Throws CheckpointError(kIo) on
/// write failure.
void write_checkpoint(std::ostream& out, const std::vector<Param*>& params,
                      const std::string& scenario = "",
                      const std::string& model = "");

/// Streaming load into `params`: every record must match the corresponding
/// parameter's name, rank and shape (kMismatch otherwise), payload CRCs
/// must hold (kCorrupt), and the file must contain exactly params.size()
/// tensors. The load is atomic: every record (CRCs included) is staged and
/// validated before any parameter is touched, so on any throw the model is
/// exactly as it was — a live compiled serving session keeps serving its
/// old weights/planes after a failed load. On success each restored
/// parameter's version is bumped so compiled weight planes
/// (CompiledModel::refresh) rebuild.
CheckpointMeta read_checkpoint(std::istream& in,
                               const std::vector<Param*>& params);

/// File-level convenience wrappers over the stream API. The Sequential
/// overloads walk the model's parameters in forward order
/// (collect_params) — the canonical save/load path for examples, the
/// serve daemon, and the C API.
void save_checkpoint(const std::string& path, Sequential& model,
                     const std::string& scenario = "",
                     const std::string& model_tag = "");
CheckpointMeta load_checkpoint(const std::string& path, Sequential& model);
void save_checkpoint(const std::string& path,
                     const std::vector<Param*>& params,
                     const std::string& scenario = "",
                     const std::string& model_tag = "");
CheckpointMeta load_checkpoint(const std::string& path,
                               const std::vector<Param*>& params);

/// Header-only probe: opens `path`, parses and validates the header, and
/// returns its identity fields without touching tensor data — how the
/// serve daemon decides which architecture/scenario to build before
/// loading weights.
CheckpointMeta read_checkpoint_meta(const std::string& path);

/// In-memory round trip (tests, the trainer's best-epoch tracking): the
/// same format as the file functions, in a byte buffer.
std::vector<char> serialize_params(const std::vector<Param*>& params,
                                   const std::string& scenario = "",
                                   const std::string& model = "");
CheckpointMeta deserialize_params(const std::vector<char>& bytes,
                                  const std::vector<Param*>& params);

}  // namespace srmac
