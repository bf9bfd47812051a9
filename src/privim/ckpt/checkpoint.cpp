#include "privim/ckpt/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <system_error>

#include "privim/ckpt/io.h"
#include "privim/common/atomic_file.h"
#include "privim/common/fault_injection.h"
#include "privim/common/logging.h"
#include "privim/gnn/serialization.h"

namespace privim {
namespace ckpt {
namespace {

constexpr std::string_view kMagic = "PRIVIMCK";
constexpr char kSnapshotSuffix[] = ".privim";

void EncodeRng(const RngState& state, ByteWriter* writer) {
  for (int i = 0; i < 4; ++i) writer->WriteU64(state.s[i]);
  writer->WriteU8(state.has_cached_gaussian ? 1 : 0);
  writer->WriteF64(state.cached_gaussian);
}

Status DecodeRng(ByteReader* reader, RngState* state) {
  for (int i = 0; i < 4; ++i) PRIVIM_RETURN_NOT_OK(reader->ReadU64(&state->s[i]));
  uint8_t cached = 0;
  PRIVIM_RETURN_NOT_OK(reader->ReadU8(&cached));
  state->has_cached_gaussian = cached != 0;
  return reader->ReadF64(&state->cached_gaussian);
}

void EncodeSubgraph(const Subgraph& subgraph, ByteWriter* writer) {
  writer->WriteI64(subgraph.local.num_nodes());
  writer->WriteU64(subgraph.global_ids.size());
  for (const NodeId v : subgraph.global_ids) {
    writer->WriteU32(static_cast<uint32_t>(v));
  }
  writer->WriteU64(static_cast<uint64_t>(subgraph.local.num_arcs()));
  subgraph.local.ForEachArc([writer](NodeId src, NodeId dst, float weight) {
    writer->WriteU32(static_cast<uint32_t>(src));
    writer->WriteU32(static_cast<uint32_t>(dst));
    writer->WriteF32(weight);
  });
}

Status DecodeSubgraph(ByteReader* reader, Subgraph* subgraph) {
  int64_t num_nodes = 0;
  PRIVIM_RETURN_NOT_OK(reader->ReadI64(&num_nodes));
  if (num_nodes < 0) {
    return Status::IOError("corrupt snapshot: negative subgraph size");
  }
  uint64_t id_count = 0;
  PRIVIM_RETURN_NOT_OK(reader->ReadU64(&id_count));
  if (id_count != static_cast<uint64_t>(num_nodes)) {
    return Status::IOError("corrupt snapshot: global id count mismatch");
  }
  subgraph->global_ids.clear();
  subgraph->global_ids.reserve(static_cast<size_t>(id_count));
  for (uint64_t i = 0; i < id_count; ++i) {
    uint32_t id = 0;
    PRIVIM_RETURN_NOT_OK(reader->ReadU32(&id));
    subgraph->global_ids.push_back(static_cast<NodeId>(id));
  }
  uint64_t arc_count = 0;
  PRIVIM_RETURN_NOT_OK(reader->ReadU64(&arc_count));
  // Subgraph local graphs are always built directed (InducedSubgraph), and
  // GraphBuilder's sort+dedup is deterministic, so rebuilding from the edge
  // list reproduces the original CSR bit-for-bit.
  GraphBuilder builder(num_nodes, /*undirected=*/false);
  builder.Reserve(static_cast<int64_t>(arc_count));
  for (uint64_t i = 0; i < arc_count; ++i) {
    uint32_t src = 0, dst = 0;
    float weight = 0.0f;
    PRIVIM_RETURN_NOT_OK(reader->ReadU32(&src));
    PRIVIM_RETURN_NOT_OK(reader->ReadU32(&dst));
    PRIVIM_RETURN_NOT_OK(reader->ReadF32(&weight));
    PRIVIM_RETURN_NOT_OK(builder.AddEdge(static_cast<NodeId>(src),
                                         static_cast<NodeId>(dst), weight));
  }
  Result<Graph> graph = builder.Build();
  if (!graph.ok()) return graph.status();
  subgraph->local = std::move(graph).value();
  return Status::OK();
}

}  // namespace

Status CheckpointConfig::Validate() const {
  if (directory.empty()) {
    return Status::InvalidArgument("checkpoint directory must not be empty");
  }
  if (every < 1) {
    return Status::InvalidArgument("checkpoint interval must be >= 1");
  }
  if (keep < 1) {
    return Status::InvalidArgument("checkpoint retention must be >= 1");
  }
  return Status::OK();
}

Result<std::string> EncodeSnapshot(const SnapshotRefs& refs) {
  if (refs.model == nullptr || refs.optimizer == nullptr ||
      refs.accounting == nullptr || refs.sampler == nullptr ||
      refs.container == nullptr) {
    return Status::InvalidArgument("snapshot refs are incomplete");
  }

  ByteWriter payload;
  payload.WriteU64(refs.config_fingerprint);
  payload.WriteI64(refs.next_iteration);
  payload.WriteI64(refs.total_iterations);
  payload.WriteF64(refs.mean_loss_first);
  payload.WriteF64(refs.mean_loss_last);
  EncodeRng(refs.rng, &payload);

  // Model weights reuse the gnn/serialization encoding (hex floats,
  // bit-exact) as an embedded blob.
  std::ostringstream model_bytes;
  PRIVIM_RETURN_NOT_OK(WriteGnnModel(*refs.model, model_bytes));
  payload.WriteBytes(model_bytes.view());

  const OptimizerState optimizer = refs.optimizer->SaveState();
  payload.WriteI64(optimizer.step_count);
  payload.WriteU64(optimizer.slots.size());
  for (const std::vector<float>& slot : optimizer.slots) {
    payload.WriteF32Vector(slot);
  }

  payload.WriteU8(refs.accounting->is_private ? 1 : 0);
  payload.WriteF64(refs.accounting->noise_multiplier);
  payload.WriteF64(refs.accounting->achieved_epsilon);
  payload.WriteF64(refs.accounting->delta);
  payload.WriteI64(refs.accounting->occurrence_bound);
  payload.WriteF64Vector(refs.accounting->epsilon_trajectory);

  payload.WriteI64Vector(refs.sampler->frequency);
  payload.WriteI64(refs.sampler->empirical_max_occurrence);

  payload.WriteU64(static_cast<uint64_t>(refs.container->size()));
  for (int64_t i = 0; i < refs.container->size(); ++i) {
    EncodeSubgraph(refs.container->at(i), &payload);
  }

  payload.WriteU64(refs.train_iterations_counter);
  payload.WriteU64(refs.grads_clipped_counter);

  return Frame(kMagic, kFormatVersion, payload.bytes());
}

Result<LoadedSnapshot> DecodeSnapshot(std::string_view bytes) {
  Result<std::string_view> body =
      Unframe(bytes, kMagic, kFormatVersion, "checkpoint");
  if (!body.ok()) return body.status();

  LoadedSnapshot snapshot;
  ByteReader reader(body.value());
  PRIVIM_RETURN_NOT_OK(reader.ReadU64(&snapshot.config_fingerprint));
  PRIVIM_RETURN_NOT_OK(reader.ReadI64(&snapshot.next_iteration));
  PRIVIM_RETURN_NOT_OK(reader.ReadI64(&snapshot.total_iterations));
  PRIVIM_RETURN_NOT_OK(reader.ReadF64(&snapshot.mean_loss_first));
  PRIVIM_RETURN_NOT_OK(reader.ReadF64(&snapshot.mean_loss_last));
  PRIVIM_RETURN_NOT_OK(DecodeRng(&reader, &snapshot.rng));

  std::string model_bytes;
  PRIVIM_RETURN_NOT_OK(reader.ReadBytes(&model_bytes));
  std::istringstream model_stream{model_bytes};
  Result<std::unique_ptr<GnnModel>> model = ReadGnnModel(model_stream);
  if (!model.ok()) return model.status();
  snapshot.model = std::move(model).value();

  PRIVIM_RETURN_NOT_OK(reader.ReadI64(&snapshot.optimizer.step_count));
  uint64_t slot_count = 0;
  PRIVIM_RETURN_NOT_OK(reader.ReadU64(&slot_count));
  if (slot_count > 8) {
    return Status::IOError("corrupt snapshot: implausible optimizer slots");
  }
  snapshot.optimizer.slots.resize(static_cast<size_t>(slot_count));
  for (std::vector<float>& slot : snapshot.optimizer.slots) {
    PRIVIM_RETURN_NOT_OK(reader.ReadF32Vector(&slot));
  }

  uint8_t is_private = 0;
  PRIVIM_RETURN_NOT_OK(reader.ReadU8(&is_private));
  snapshot.accounting.is_private = is_private != 0;
  PRIVIM_RETURN_NOT_OK(reader.ReadF64(&snapshot.accounting.noise_multiplier));
  PRIVIM_RETURN_NOT_OK(reader.ReadF64(&snapshot.accounting.achieved_epsilon));
  PRIVIM_RETURN_NOT_OK(reader.ReadF64(&snapshot.accounting.delta));
  PRIVIM_RETURN_NOT_OK(reader.ReadI64(&snapshot.accounting.occurrence_bound));
  PRIVIM_RETURN_NOT_OK(
      reader.ReadF64Vector(&snapshot.accounting.epsilon_trajectory));

  PRIVIM_RETURN_NOT_OK(reader.ReadI64Vector(&snapshot.sampler.frequency));
  PRIVIM_RETURN_NOT_OK(
      reader.ReadI64(&snapshot.sampler.empirical_max_occurrence));

  uint64_t subgraph_count = 0;
  PRIVIM_RETURN_NOT_OK(reader.ReadU64(&subgraph_count));
  for (uint64_t i = 0; i < subgraph_count; ++i) {
    Subgraph subgraph;
    PRIVIM_RETURN_NOT_OK(DecodeSubgraph(&reader, &subgraph));
    snapshot.container.Add(std::move(subgraph));
  }

  PRIVIM_RETURN_NOT_OK(reader.ReadU64(&snapshot.train_iterations_counter));
  PRIVIM_RETURN_NOT_OK(reader.ReadU64(&snapshot.grads_clipped_counter));
  if (!reader.AtEnd()) {
    return Status::IOError("corrupt snapshot: trailing bytes after payload");
  }
  return snapshot;
}

std::string SnapshotFilename(int64_t next_iteration) {
  char name[64];
  std::snprintf(name, sizeof(name), "ckpt-%08lld%s",
                static_cast<long long>(next_iteration), kSnapshotSuffix);
  return name;
}

CheckpointManager::CheckpointManager(CheckpointConfig config)
    : config_(std::move(config)) {}

Status CheckpointManager::Initialize() {
  PRIVIM_RETURN_NOT_OK(config_.Validate());
  std::error_code ec;
  std::filesystem::create_directories(config_.directory, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint directory " +
                           config_.directory + ": " + ec.message());
  }
  return Status::OK();
}

bool CheckpointManager::ShouldCheckpoint(int64_t next_iteration,
                                         int64_t total_iterations) const {
  if (next_iteration <= 0) return false;
  // The final snapshot is always written so a completed run can be
  // re-invoked with --resume as a no-op.
  if (next_iteration == total_iterations) return true;
  return next_iteration % config_.every == 0;
}

Status CheckpointManager::Write(const SnapshotRefs& refs) {
  Result<std::string> bytes = EncodeSnapshot(refs);
  if (!bytes.ok()) return bytes.status();
  const std::string path =
      config_.directory + "/" + SnapshotFilename(refs.next_iteration);
  PRIVIM_RETURN_NOT_OK(AtomicWriteFile(path, bytes.value()));
  PRIVIM_RETURN_NOT_OK(fault::MaybePointFault("ckpt.pre_prune"));

  // Retention: drop the oldest snapshots beyond `keep`. Pruning failures
  // are non-fatal (the snapshot itself is durable); stale files are
  // re-pruned on the next write.
  Result<std::vector<std::string>> existing = ListSnapshots(config_.directory);
  if (existing.ok() &&
      existing.value().size() > static_cast<size_t>(config_.keep)) {
    const size_t excess = existing.value().size() -
                          static_cast<size_t>(config_.keep);
    for (size_t i = 0; i < excess; ++i) {
      std::error_code ec;
      std::filesystem::remove(existing.value()[i], ec);
      if (ec) {
        PRIVIM_LOG(Warning) << "checkpoint prune failed for "
                            << existing.value()[i] << ": " << ec.message();
      }
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> CheckpointManager::ListSnapshots(
    const std::string& directory) {
  std::error_code ec;
  // A directory that does not exist yet simply has no snapshots (a fresh
  // run with --resume is valid); any other failure is a real error.
  if (!std::filesystem::exists(directory, ec)) {
    return std::vector<std::string>();
  }
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) {
    return Status::IOError("cannot list checkpoint directory " + directory +
                           ": " + ec.message());
  }
  std::vector<std::pair<int64_t, std::string>> found;
  for (const std::filesystem::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (IsTempArtifact(name)) continue;  // debris from a killed writer
    if (name.rfind("ckpt-", 0) != 0 || name.size() <= 5) continue;
    if (name.size() < sizeof(kSnapshotSuffix) - 1 ||
        name.compare(name.size() - (sizeof(kSnapshotSuffix) - 1),
                     sizeof(kSnapshotSuffix) - 1, kSnapshotSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(5, name.size() - 5 - (sizeof(kSnapshotSuffix) - 1));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::strtoll(digits.c_str(), nullptr, 10),
                       entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [iteration, path] : found) paths.push_back(std::move(path));
  return paths;
}

Result<std::string> CheckpointManager::LatestSnapshotPath(
    const std::string& directory) {
  Result<std::vector<std::string>> snapshots = ListSnapshots(directory);
  if (!snapshots.ok()) return snapshots.status();
  if (snapshots.value().empty()) {
    return Status::NotFound("no snapshots in " + directory);
  }
  return snapshots.value().back();
}

Result<LoadedSnapshot> CheckpointManager::Load(const std::string& path) {
  std::string bytes;
  PRIVIM_RETURN_NOT_OK(ReadFileToString(path, &bytes));
  Result<LoadedSnapshot> snapshot = DecodeSnapshot(bytes);
  if (!snapshot.ok()) {
    return Status::IOError(snapshot.status().message() + " (" + path + ")");
  }
  return snapshot;
}

}  // namespace ckpt
}  // namespace privim
