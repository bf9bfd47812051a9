// Binary encoding primitives for the checkpoint subsystem: a little-endian
// append-only writer, a bounds-checked reader, CRC-32 integrity checksums
// and FNV-1a fingerprints (used to bind a snapshot to the exact run
// configuration and input graph it was taken from).
//
// Everything is byte-order explicit, so snapshots are portable across
// hosts; floats and doubles travel as their IEEE-754 bit patterns and
// therefore round-trip bit-exactly.

#ifndef PRIVIM_CKPT_IO_H_
#define PRIVIM_CKPT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "privim/common/status.h"
#include "privim/graph/graph.h"

namespace privim {
namespace ckpt {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.
uint32_t Crc32(std::string_view data);

/// FNV-1a 64-bit hash, resumable: pass a previous hash as `seed` to chain.
uint64_t Fnv1a64(std::string_view data,
                 uint64_t seed = 0xcbf29ce484222325ULL);

/// Order-sensitive structural fingerprint of a graph: node count, arc
/// count, CSR layout and weight bits. Two graphs with equal fingerprints
/// are (with overwhelming probability) identical inputs.
///
/// Computed over the shard layout in parallel waves: per-shard byte blobs
/// are hashed on the ThreadPool and FNV-folded serially in shard order.
/// FNV-1a is a left fold over bytes, so the value is byte-identical to
/// hashing the single serialized stream — the fingerprint never depends on
/// the shard count or the thread count, only on the graph.
uint64_t FingerprintGraph(const Graph& graph);

/// FingerprintGraph over an explicit shard count (>= 1); returns the same
/// value for every choice (tests/ckpt/io_test.cpp pins this invariance).
uint64_t FingerprintGraph(const Graph& graph, int64_t num_shards);

/// The file frame that checkpoints and sketch indexes share: `magic`, the
/// u32 format `version`, the u64 payload size, the payload's CRC-32, then
/// the payload.
std::string Frame(std::string_view magic, uint32_t version,
                  std::string_view payload);

/// Checks a Frame and returns its payload (a view into `bytes`). In order:
/// a header shorter than its fixed size ("truncated"), another magic ("bad
/// magic"), another version ("format version"), a payload of another size
/// ("truncated") and a CRC mismatch each fail with an IOError naming `what`,
/// the file kind.
Result<std::string_view> Unframe(std::string_view bytes,
                                 std::string_view magic, uint32_t version,
                                 const std::string& what);

/// Appends little-endian primitives to a byte string.
class ByteWriter {
 public:
  void WriteU8(uint8_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI64(int64_t value);
  void WriteF32(float value);    ///< IEEE-754 bit pattern
  void WriteF64(double value);   ///< IEEE-754 bit pattern
  /// Length-prefixed byte string.
  void WriteBytes(std::string_view data);
  void WriteI64Vector(const std::vector<int64_t>& values);
  void WriteF64Vector(const std::vector<double>& values);
  void WriteF32Vector(const std::vector<float>& values);

  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked little-endian reader over a byte string. Every Read
/// fails with IOError instead of running past the end, so truncated or
/// corrupt snapshots surface as clean errors.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* value);
  Status ReadU32(uint32_t* value);
  Status ReadU64(uint64_t* value);
  Status ReadI64(int64_t* value);
  Status ReadF32(float* value);
  Status ReadF64(double* value);
  Status ReadBytes(std::string* data);
  Status ReadI64Vector(std::vector<int64_t>* values);
  Status ReadF64Vector(std::vector<double>* values);
  Status ReadF32Vector(std::vector<float>* values);

  bool AtEnd() const { return offset_ == data_.size(); }
  size_t remaining() const { return data_.size() - offset_; }

 private:
  Status Take(size_t count, const char** out);

  std::string_view data_;
  size_t offset_ = 0;
};

}  // namespace ckpt
}  // namespace privim

#endif  // PRIVIM_CKPT_IO_H_
