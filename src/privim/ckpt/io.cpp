#include "privim/ckpt/io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "privim/common/thread_pool.h"
#include "privim/graph/partitioned.h"

namespace privim {
namespace ckpt {
namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

// Sanity limit for length prefixes: a single vector/blob larger than this
// inside a snapshot means the length bytes are corrupt, not that someone
// checkpointed a 64 GiB tensor.
constexpr uint64_t kMaxElementCount = 1ull << 33;

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (const char c : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<uint8_t>(c)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string Frame(std::string_view magic, uint32_t version,
                  std::string_view payload) {
  ByteWriter header;
  header.WriteU32(version);
  header.WriteU64(payload.size());
  header.WriteU32(Crc32(payload));
  std::string bytes(magic);
  bytes += header.bytes();
  bytes += payload;
  return bytes;
}

Result<std::string_view> Unframe(std::string_view bytes,
                                 std::string_view magic, uint32_t version,
                                 const std::string& what) {
  const size_t header_size = magic.size() + 4 + 8 + 4;
  if (bytes.size() < header_size) {
    return Status::IOError("truncated " + what + ": shorter than its header");
  }
  if (bytes.compare(0, magic.size(), magic) != 0) {
    return Status::IOError("not a PrivIM " + what + " (bad magic)");
  }
  ByteReader header(
      bytes.substr(magic.size(), header_size - magic.size()));
  uint32_t found_version = 0;
  uint64_t payload_size = 0;
  uint32_t expected_crc = 0;
  PRIVIM_RETURN_NOT_OK(header.ReadU32(&found_version));
  PRIVIM_RETURN_NOT_OK(header.ReadU64(&payload_size));
  PRIVIM_RETURN_NOT_OK(header.ReadU32(&expected_crc));
  if (found_version != version) {
    return Status::IOError("unsupported " + what + " format version " +
                           std::to_string(found_version) + " (expected " +
                           std::to_string(version) + ")");
  }
  const std::string_view payload = bytes.substr(header_size);
  if (payload.size() != payload_size) {
    return Status::IOError("truncated " + what + ": payload has " +
                           std::to_string(payload.size()) +
                           " bytes, header promises " +
                           std::to_string(payload_size));
  }
  if (Crc32(payload) != expected_crc) {
    return Status::IOError("corrupt " + what + ": CRC mismatch");
  }
  return payload;
}

uint64_t Fnv1a64(std::string_view data, uint64_t seed) {
  uint64_t hash = seed;
  for (const char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t FingerprintGraph(const Graph& graph, int64_t num_shards) {
  ByteWriter header;
  header.WriteI64(graph.num_nodes());
  header.WriteI64(graph.num_arcs());
  header.WriteU8(graph.undirected() ? 1 : 0);
  uint64_t hash = Fnv1a64(header.bytes());
  if (graph.num_nodes() == 0) return hash;

  // Per-shard record blobs, hashed in bounded parallel waves and folded in
  // shard order. The concatenation of the blobs is exactly the serialized
  // stream a single writer would produce, and Fnv1a64(B, Fnv1a64(A, s)) ==
  // Fnv1a64(A + B, s), so the result is independent of both the wave width
  // and the shard count — only memory and wall-clock change.
  const ShardLayout layout =
      ShardLayout::WithShards(graph.num_nodes(), num_shards);
  constexpr int64_t kWave = 64;
  std::vector<std::string> blobs(
      static_cast<size_t>(std::min(layout.num_shards, kWave)));
  for (int64_t wave = 0; wave < layout.num_shards; wave += kWave) {
    const int64_t wave_size = std::min(kWave, layout.num_shards - wave);
    GlobalThreadPool().ParallelFor(
        static_cast<size_t>(wave_size), [&](size_t i) {
          const int64_t shard = wave + static_cast<int64_t>(i);
          ByteWriter writer;
          for (int64_t v = layout.ShardBegin(shard);
               v < layout.ShardEnd(shard); ++v) {
            const NodeId node = static_cast<NodeId>(v);
            writer.WriteI64(graph.OutDegree(node));
            for (const NodeId u : graph.OutNeighbors(node)) writer.WriteU32(u);
            for (const float w : graph.OutWeights(node)) writer.WriteF32(w);
          }
          blobs[i] = writer.TakeBytes();
        });
    for (int64_t i = 0; i < wave_size; ++i) {
      hash = Fnv1a64(blobs[static_cast<size_t>(i)], hash);
    }
  }
  return hash;
}

uint64_t FingerprintGraph(const Graph& graph) {
  return FingerprintGraph(graph,
                          ShardLayout::For(graph.num_nodes()).num_shards);
}

void ByteWriter::WriteU8(uint8_t value) {
  bytes_.push_back(static_cast<char>(value));
}

void ByteWriter::WriteU32(uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
  }
}

void ByteWriter::WriteU64(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
  }
}

void ByteWriter::WriteI64(int64_t value) {
  WriteU64(static_cast<uint64_t>(value));
}

void ByteWriter::WriteF32(float value) {
  WriteU32(std::bit_cast<uint32_t>(value));
}

void ByteWriter::WriteF64(double value) {
  WriteU64(std::bit_cast<uint64_t>(value));
}

void ByteWriter::WriteBytes(std::string_view data) {
  WriteU64(data.size());
  bytes_.append(data);
}

void ByteWriter::WriteI64Vector(const std::vector<int64_t>& values) {
  WriteU64(values.size());
  for (const int64_t v : values) WriteI64(v);
}

void ByteWriter::WriteF64Vector(const std::vector<double>& values) {
  WriteU64(values.size());
  for (const double v : values) WriteF64(v);
}

void ByteWriter::WriteF32Vector(const std::vector<float>& values) {
  WriteU64(values.size());
  for (const float v : values) WriteF32(v);
}

Status ByteReader::Take(size_t count, const char** out) {
  if (data_.size() - offset_ < count) {
    return Status::IOError("truncated snapshot: wanted " +
                           std::to_string(count) + " bytes, " +
                           std::to_string(data_.size() - offset_) + " left");
  }
  *out = data_.data() + offset_;
  offset_ += count;
  return Status::OK();
}

Status ByteReader::ReadU8(uint8_t* value) {
  const char* p = nullptr;
  PRIVIM_RETURN_NOT_OK(Take(1, &p));
  *value = static_cast<uint8_t>(*p);
  return Status::OK();
}

Status ByteReader::ReadU32(uint32_t* value) {
  const char* p = nullptr;
  PRIVIM_RETURN_NOT_OK(Take(4, &p));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *value = v;
  return Status::OK();
}

Status ByteReader::ReadU64(uint64_t* value) {
  const char* p = nullptr;
  PRIVIM_RETURN_NOT_OK(Take(8, &p));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *value = v;
  return Status::OK();
}

Status ByteReader::ReadI64(int64_t* value) {
  uint64_t raw = 0;
  PRIVIM_RETURN_NOT_OK(ReadU64(&raw));
  *value = static_cast<int64_t>(raw);
  return Status::OK();
}

Status ByteReader::ReadF32(float* value) {
  uint32_t raw = 0;
  PRIVIM_RETURN_NOT_OK(ReadU32(&raw));
  *value = std::bit_cast<float>(raw);
  return Status::OK();
}

Status ByteReader::ReadF64(double* value) {
  uint64_t raw = 0;
  PRIVIM_RETURN_NOT_OK(ReadU64(&raw));
  *value = std::bit_cast<double>(raw);
  return Status::OK();
}

Status ByteReader::ReadBytes(std::string* data) {
  uint64_t size = 0;
  PRIVIM_RETURN_NOT_OK(ReadU64(&size));
  if (size > remaining()) {
    return Status::IOError("truncated snapshot: blob of " +
                           std::to_string(size) + " bytes, " +
                           std::to_string(remaining()) + " left");
  }
  const char* p = nullptr;
  PRIVIM_RETURN_NOT_OK(Take(static_cast<size_t>(size), &p));
  data->assign(p, static_cast<size_t>(size));
  return Status::OK();
}

namespace {

template <typename T, typename ReadOne>
Status ReadVector(ByteReader* reader, std::vector<T>* values,
                  ReadOne read_one) {
  uint64_t count = 0;
  PRIVIM_RETURN_NOT_OK(reader->ReadU64(&count));
  if (count > kMaxElementCount || count * sizeof(T) / 2 > reader->remaining()) {
    return Status::IOError("corrupt snapshot: implausible element count " +
                           std::to_string(count));
  }
  values->clear();
  values->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    T value{};
    PRIVIM_RETURN_NOT_OK(read_one(&value));
    values->push_back(value);
  }
  return Status::OK();
}

}  // namespace

Status ByteReader::ReadI64Vector(std::vector<int64_t>* values) {
  return ReadVector<int64_t>(
      this, values, [this](int64_t* v) { return ReadI64(v); });
}

Status ByteReader::ReadF64Vector(std::vector<double>* values) {
  return ReadVector<double>(
      this, values, [this](double* v) { return ReadF64(v); });
}

Status ByteReader::ReadF32Vector(std::vector<float>* values) {
  return ReadVector<float>(
      this, values, [this](float* v) { return ReadF32(v); });
}

}  // namespace ckpt
}  // namespace privim
