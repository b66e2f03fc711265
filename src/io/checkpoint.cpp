#include "io/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/crc32.hpp"

namespace srmac {

namespace {

// Sanity bounds the parser enforces before trusting any length field from
// the file — a corrupt length must fail typed, never drive an allocation.
constexpr uint32_t kMaxStringLen = 1u << 16;    // names / scenario / tag
constexpr uint32_t kMaxTensorCount = 1u << 20;  // parameters per model
constexpr int kMaxNdim = 8;
constexpr uint64_t kMaxTensorBytes = 1ull << 34;  // 16 GiB per tensor

[[noreturn]] void throw_error(CheckpointErrorKind kind,
                              const std::string& what) {
  throw CheckpointError(kind, "checkpoint: " + what);
}

// ---- writer helpers (append to a std::string, little-endian native) ----

void put_u32(std::string& out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

void put_u64(std::string& out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

// ---- reader: a thin cursor over std::istream that turns short reads and
// stream failures into typed errors and feeds a running CRC ----

struct StreamCursor {
  std::istream& in;
  uint32_t running_crc = 0;

  void read_exact(void* dst, size_t n, const char* what) {
    in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (static_cast<size_t>(in.gcount()) != n) {
      if (in.bad()) throw_error(CheckpointErrorKind::kIo,
                                std::string("read failed in ") + what);
      throw_error(CheckpointErrorKind::kTruncated,
                  std::string("file ends inside ") + what);
    }
    running_crc = crc32(dst, n, running_crc);
  }

  uint8_t get_u8(const char* what) {
    uint8_t v;
    read_exact(&v, 1, what);
    return v;
  }

  uint32_t get_u32(const char* what) {
    uint32_t v;
    read_exact(&v, 4, what);
    return v;
  }

  uint64_t get_u64(const char* what) {
    uint64_t v;
    read_exact(&v, 8, what);
    return v;
  }

  std::string get_string(const char* what) {
    const uint32_t len = get_u32(what);
    if (len > kMaxStringLen)
      throw_error(CheckpointErrorKind::kCorrupt,
                  std::string("implausible string length in ") + what);
    std::string s(len, '\0');
    if (len) read_exact(s.data(), len, what);
    return s;
  }
};

}  // namespace

const char* checkpoint_error_kind_name(CheckpointErrorKind k) {
  switch (k) {
    case CheckpointErrorKind::kIo: return "io";
    case CheckpointErrorKind::kBadMagic: return "bad_magic";
    case CheckpointErrorKind::kBadEndianness: return "bad_endianness";
    case CheckpointErrorKind::kBadVersion: return "bad_version";
    case CheckpointErrorKind::kTruncated: return "truncated";
    case CheckpointErrorKind::kCorrupt: return "corrupt";
    case CheckpointErrorKind::kMismatch: return "mismatch";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void write_checkpoint(std::ostream& out, const std::vector<Param*>& params,
                      const std::string& scenario, const std::string& model) {
  // Header is built in memory first: its trailing CRC covers every byte
  // before it, which a streaming write could not know in advance.
  std::string header;
  header.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  put_u32(header, kCheckpointEndianMarker);
  put_u32(header, kCheckpointVersion);
  put_string(header, scenario);
  put_string(header, model);
  put_u32(header, static_cast<uint32_t>(params.size()));
  put_u32(header, crc32(header.data(), header.size()));
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  for (const Param* p : params) {
    std::string rec;
    put_string(rec, p->name);
    rec.push_back('\0');  // dtype 0 = f32
    rec.push_back(static_cast<char>(p->value.ndim()));
    for (int d = 0; d < p->value.ndim(); ++d)
      put_u32(rec, static_cast<uint32_t>(p->value.dim(d)));
    const uint64_t bytes =
        static_cast<uint64_t>(p->value.numel()) * sizeof(float);
    put_u64(rec, bytes);
    put_u32(rec, crc32(p->value.data(), static_cast<size_t>(bytes)));
    out.write(rec.data(), static_cast<std::streamsize>(rec.size()));
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(bytes));
  }
  if (!out) throw_error(CheckpointErrorKind::kIo, "write failed");
}

// ---------------------------------------------------------------------------
// Streaming reader
// ---------------------------------------------------------------------------

CheckpointReader::CheckpointReader(std::istream& in) : in_(in) {
  StreamCursor cur{in_};
  char magic[sizeof(kCheckpointMagic)];
  cur.read_exact(magic, sizeof(magic), "header magic");
  if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0)
    throw_error(CheckpointErrorKind::kBadMagic, "not a checkpoint file");
  // Endianness before version: on a cross-endian file every later integer
  // reads byte-swapped, so this is the last field that parses reliably.
  const uint32_t endian = cur.get_u32("endianness marker");
  if (endian != kCheckpointEndianMarker)
    throw_error(CheckpointErrorKind::kBadEndianness,
                "produced on a host with different byte order");
  meta_.format_version = cur.get_u32("format version");
  if (meta_.format_version != kCheckpointVersion)
    throw_error(CheckpointErrorKind::kBadVersion,
                "unsupported format version " +
                    std::to_string(meta_.format_version));
  meta_.scenario = cur.get_string("scenario string");
  meta_.model = cur.get_string("model tag");
  meta_.tensor_count = cur.get_u32("tensor count");
  if (meta_.tensor_count > kMaxTensorCount)
    throw_error(CheckpointErrorKind::kCorrupt, "implausible tensor count");
  const uint32_t computed = cur.running_crc;
  const uint32_t stored = cur.get_u32("header CRC");
  if (stored != computed)
    throw_error(CheckpointErrorKind::kCorrupt, "header CRC mismatch");
}

std::optional<CheckpointReader::TensorInfo> CheckpointReader::next() {
  if (pending_)
    throw_error(CheckpointErrorKind::kIo,
                "next() called with an unread payload pending");
  if (records_read_ >= meta_.tensor_count) {
    // The trailing check: a well-formed file ends exactly after the last
    // record — trailing garbage means the producer and this parser
    // disagree about the layout, which must not pass silently.
    char extra;
    in_.read(&extra, 1);
    if (in_.gcount() != 0)
      throw_error(CheckpointErrorKind::kCorrupt,
                  "trailing bytes after the last tensor record");
    return std::nullopt;
  }
  StreamCursor cur{in_};
  TensorInfo info;
  info.name = cur.get_string("tensor name");
  info.dtype = cur.get_u8("tensor dtype");
  if (info.dtype != 0)
    throw_error(CheckpointErrorKind::kCorrupt,
                "unknown dtype " + std::to_string(info.dtype) + " for '" +
                    info.name + "'");
  const uint8_t ndim = cur.get_u8("tensor rank");
  if (ndim < 1 || ndim > kMaxNdim)
    throw_error(CheckpointErrorKind::kCorrupt,
                "implausible rank for '" + info.name + "'");
  uint64_t numel = 1;
  for (uint8_t d = 0; d < ndim; ++d) {
    const uint32_t dim = cur.get_u32("tensor shape");
    if (dim == 0 || dim > static_cast<uint32_t>(
                              std::numeric_limits<int>::max()))
      throw_error(CheckpointErrorKind::kCorrupt,
                  "implausible dimension for '" + info.name + "'");
    info.shape.push_back(static_cast<int>(dim));
    numel *= dim;
    if (numel * sizeof(float) > kMaxTensorBytes)
      throw_error(CheckpointErrorKind::kCorrupt,
                  "implausible tensor size for '" + info.name + "'");
  }
  info.byte_len = cur.get_u64("tensor byte length");
  if (info.byte_len != numel * sizeof(float))
    throw_error(CheckpointErrorKind::kCorrupt,
                "byte length disagrees with shape for '" + info.name + "'");
  info.crc = cur.get_u32("tensor CRC");
  ++records_read_;
  pending_ = info;
  return info;
}

void CheckpointReader::read_payload(void* dst) {
  if (!pending_)
    throw_error(CheckpointErrorKind::kIo, "no pending tensor payload");
  StreamCursor cur{in_};
  cur.read_exact(dst, static_cast<size_t>(pending_->byte_len),
                 "tensor payload");
  if (cur.running_crc != pending_->crc)
    throw_error(CheckpointErrorKind::kCorrupt,
                "payload CRC mismatch for '" + pending_->name + "'");
  pending_.reset();
}

void CheckpointReader::skip_payload() {
  if (!pending_)
    throw_error(CheckpointErrorKind::kIo, "no pending tensor payload");
  // Bounce through a bounded buffer so skipping a huge (or lying) record
  // never allocates its full size; the CRC is still verified.
  scratch_.resize(static_cast<size_t>(
      std::min<uint64_t>(pending_->byte_len, 1u << 20)));
  StreamCursor cur{in_};
  uint64_t left = pending_->byte_len;
  while (left) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(left, scratch_.size()));
    cur.read_exact(scratch_.data(), chunk, "tensor payload");
    left -= chunk;
  }
  if (cur.running_crc != pending_->crc)
    throw_error(CheckpointErrorKind::kCorrupt,
                "payload CRC mismatch for '" + pending_->name + "'");
  pending_.reset();
}

// ---------------------------------------------------------------------------
// Model-level load
// ---------------------------------------------------------------------------

CheckpointMeta read_checkpoint(std::istream& in,
                               const std::vector<Param*>& params) {
  CheckpointReader reader(in);
  if (reader.meta().tensor_count != params.size())
    throw_error(CheckpointErrorKind::kMismatch,
                "file has " + std::to_string(reader.meta().tensor_count) +
                    " tensors, model has " + std::to_string(params.size()) +
                    " parameters");
  // Stage every payload first: nothing in the model is touched until the
  // whole file (trailing bytes included) has validated, so a corrupt or
  // truncated checkpoint leaves the model — and any compiled planes built
  // from it — exactly as they were.
  std::vector<std::vector<float>> staged(params.size());
  for (size_t p = 0; p < params.size(); ++p) {
    Param* param = params[p];
    const auto info = reader.next();  // count checked above; always present
    if (info->name != param->name)
      throw_error(CheckpointErrorKind::kMismatch,
                  "expected parameter '" + param->name + "', found '" +
                      info->name + "'");
    bool shape_ok =
        static_cast<int>(info->shape.size()) == param->value.ndim();
    for (size_t d = 0; shape_ok && d < info->shape.size(); ++d)
      shape_ok = info->shape[d] == param->value.dim(static_cast<int>(d));
    if (!shape_ok)
      throw_error(CheckpointErrorKind::kMismatch,
                  "shape mismatch for '" + param->name + "'");
    staged[p].resize(static_cast<size_t>(param->value.numel()));
    reader.read_payload(staged[p].data());
  }
  reader.next();  // trailing-bytes check
  for (size_t p = 0; p < params.size(); ++p) {
    std::memcpy(params[p]->value.data(), staged[p].data(),
                staged[p].size() * sizeof(float));
    params[p]->bump();  // invalidate compiled weight planes
  }
  return reader.meta();
}

void save_checkpoint(const std::string& path,
                     const std::vector<Param*>& params,
                     const std::string& scenario,
                     const std::string& model_tag) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw_error(CheckpointErrorKind::kIo, "cannot open " + path);
  write_checkpoint(f, params, scenario, model_tag);
  f.flush();
  if (!f) throw_error(CheckpointErrorKind::kIo, "write failed for " + path);
}

CheckpointMeta load_checkpoint(const std::string& path,
                               const std::vector<Param*>& params) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw_error(CheckpointErrorKind::kIo, "cannot open " + path);
  return read_checkpoint(f, params);
}

void save_checkpoint(const std::string& path, Sequential& model,
                     const std::string& scenario,
                     const std::string& model_tag) {
  std::vector<Param*> params;
  model.collect_params(params);
  save_checkpoint(path, params, scenario, model_tag);
}

CheckpointMeta load_checkpoint(const std::string& path, Sequential& model) {
  std::vector<Param*> params;
  model.collect_params(params);
  return load_checkpoint(path, params);
}

CheckpointMeta read_checkpoint_meta(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw_error(CheckpointErrorKind::kIo, "cannot open " + path);
  return CheckpointReader(f).meta();
}

std::vector<char> serialize_params(const std::vector<Param*>& params,
                                   const std::string& scenario,
                                   const std::string& model) {
  std::ostringstream out(std::ios::binary);
  write_checkpoint(out, params, scenario, model);
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

CheckpointMeta deserialize_params(const std::vector<char>& bytes,
                                  const std::vector<Param*>& params) {
  std::istringstream in(std::string(bytes.begin(), bytes.end()),
                        std::ios::binary);
  return read_checkpoint(in, params);
}

}  // namespace srmac
