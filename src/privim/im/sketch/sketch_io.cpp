// Persistence for SketchIndex: the checkpoint frame (ckpt::Frame: magic,
// version, payload size, payload CRC-32) with its own magic so a sketch
// index and a training snapshot can never be confused for one another, over
// common/atomic_file so a crash mid-save leaves no torn index.

#include <string>
#include <string_view>

#include "privim/ckpt/io.h"
#include "privim/common/atomic_file.h"
#include "privim/im/sketch/sketch_index.h"

namespace privim {
namespace {

constexpr std::string_view kSketchMagic = "PRIVIMSX";

}  // namespace

/// Friend of SketchIndex: encodes/decodes the private CSR fields.
struct SketchIndexCodec {
  static std::string EncodePayload(const SketchIndex& index) {
    ckpt::ByteWriter payload;
    payload.WriteU64(index.graph_fingerprint_);
    payload.WriteI64(index.num_nodes_);
    payload.WriteI64(index.num_sketches_);
    payload.WriteI64(index.max_steps_);
    payload.WriteU64(index.seed_);
    payload.WriteU8(index.exhaustive_ ? 1 : 0);
    payload.WriteI64Vector(index.offsets_);
    payload.WriteU64(index.sketch_ids_.size());
    for (const int32_t id : index.sketch_ids_) {
      payload.WriteU32(static_cast<uint32_t>(id));
    }
    return payload.TakeBytes();
  }

  static Result<std::unique_ptr<SketchIndex>> DecodePayload(
      std::string_view body) {
    std::unique_ptr<SketchIndex> index(new SketchIndex());
    ckpt::ByteReader reader(body);
    PRIVIM_RETURN_NOT_OK(reader.ReadU64(&index->graph_fingerprint_));
    PRIVIM_RETURN_NOT_OK(reader.ReadI64(&index->num_nodes_));
    PRIVIM_RETURN_NOT_OK(reader.ReadI64(&index->num_sketches_));
    PRIVIM_RETURN_NOT_OK(reader.ReadI64(&index->max_steps_));
    PRIVIM_RETURN_NOT_OK(reader.ReadU64(&index->seed_));
    uint8_t exhaustive = 0;
    PRIVIM_RETURN_NOT_OK(reader.ReadU8(&exhaustive));
    index->exhaustive_ = exhaustive != 0;
    PRIVIM_RETURN_NOT_OK(reader.ReadI64Vector(&index->offsets_));
    uint64_t entry_count = 0;
    PRIVIM_RETURN_NOT_OK(reader.ReadU64(&entry_count));
    // Each remaining entry is 4 bytes; bounds-check before the resize so a
    // corrupt count cannot drive a huge allocation.
    if (entry_count * 4 != reader.remaining()) {
      return Status::IOError(
          "corrupt sketch index: entry count disagrees with payload size");
    }
    index->sketch_ids_.resize(static_cast<size_t>(entry_count));
    for (int32_t& id : index->sketch_ids_) {
      uint32_t raw = 0;
      PRIVIM_RETURN_NOT_OK(reader.ReadU32(&raw));
      id = static_cast<int32_t>(raw);
    }

    // Structural sanity: the CSR must be internally consistent, or TopK
    // would index out of bounds.
    if (index->num_nodes_ < 1 || index->num_sketches_ < 1 ||
        index->max_steps_ < -1) {
      return Status::IOError("corrupt sketch index: implausible dimensions");
    }
    if (index->offsets_.size() !=
        static_cast<size_t>(index->num_nodes_) + 1) {
      return Status::IOError(
          "corrupt sketch index: offsets length disagrees with num_nodes");
    }
    if (index->offsets_.front() != 0 ||
        index->offsets_.back() !=
            static_cast<int64_t>(index->sketch_ids_.size())) {
      return Status::IOError("corrupt sketch index: CSR offsets out of range");
    }
    for (size_t v = 0; v + 1 < index->offsets_.size(); ++v) {
      if (index->offsets_[v] > index->offsets_[v + 1]) {
        return Status::IOError(
            "corrupt sketch index: CSR offsets not monotone");
      }
    }
    for (const int32_t id : index->sketch_ids_) {
      if (id < 0 || id >= index->num_sketches_) {
        return Status::IOError(
            "corrupt sketch index: sketch id out of range");
      }
    }
    return index;
  }
};

std::string SketchIndex::Encode() const {
  return ckpt::Frame(kSketchMagic, kSketchIndexFormatVersion,
                     SketchIndexCodec::EncodePayload(*this));
}

Result<std::unique_ptr<SketchIndex>> SketchIndex::Decode(
    std::string_view bytes) {
  Result<std::string_view> body = ckpt::Unframe(
      bytes, kSketchMagic, kSketchIndexFormatVersion, "sketch index");
  if (!body.ok()) return body.status();
  return SketchIndexCodec::DecodePayload(body.value());
}

Status SketchIndex::Save(const std::string& path) const {
  return AtomicWriteFile(path, Encode());
}

Result<std::unique_ptr<SketchIndex>> SketchIndex::Load(
    const std::string& path) {
  std::string bytes;
  PRIVIM_RETURN_NOT_OK(ReadFileToString(path, &bytes));
  Result<std::unique_ptr<SketchIndex>> index = Decode(bytes);
  if (!index.ok()) {
    return Status::IOError(index.status().message() + " (" + path + ")");
  }
  return index;
}

}  // namespace privim
