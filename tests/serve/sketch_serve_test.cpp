// InfluenceService + SketchIndex integration through the ServingAssets
// snapshot API: build-time guards, hot-swap attachment, the served-answer
// equivalence with CELF, and the counted fallback path.

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "privim/im/sketch/sketch_index.h"
#include "privim/serve/assets.h"
#include "privim/serve/request.h"
#include "privim/serve/service.h"
#include "testing/graph_fixtures.h"

namespace privim {
namespace serve {
namespace {

/// Same shape as service_test's ring-with-chords, built via the shared
/// fixtures so the sketch index sees a non-trivial unit-weight graph.
Graph RingGraph() {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < 8; ++v) {
    edges.push_back({v, static_cast<NodeId>((v + 1) % 8), 1.0f});
  }
  edges.push_back({0, 4, 1.0f});
  edges.push_back({2, 6, 1.0f});
  return privim::testing::MakeGraph(8, edges);
}

std::shared_ptr<const SketchIndex> BuildIndex(const Graph& graph,
                                              int64_t max_steps = 1) {
  SketchIndexOptions options;
  options.max_steps = max_steps;
  Result<std::unique_ptr<SketchIndex>> index =
      SketchIndex::Build(graph, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::shared_ptr<const SketchIndex>(std::move(index).value());
}

std::shared_ptr<const ServingAssets> RingAssets(
    std::shared_ptr<const SketchIndex> sketch) {
  Result<std::shared_ptr<const ServingAssets>> assets =
      ServingAssets::Build(RingGraph(), nullptr, std::move(sketch));
  EXPECT_TRUE(assets.ok()) << assets.status().ToString();
  return std::move(assets).value();
}

std::unique_ptr<InfluenceService> MakeService(
    std::shared_ptr<const SketchIndex> sketch = nullptr) {
  ServeOptions options;
  options.cache_capacity = 0;  // every Execute computes; no cache masking
  Result<std::unique_ptr<InfluenceService>> service =
      InfluenceService::Create(RingAssets(std::move(sketch)), options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

ServeRequest Request(const std::string& json) {
  return ParseServeRequest(json).value();
}

TEST(SketchServeTest, BuildRejectsForeignIndexByFingerprint) {
  // An index built from a different graph is refused at snapshot build
  // time: no snapshot can ever pair an index with a graph it does not
  // describe.
  const Graph other = privim::testing::MakeStar(8);
  Result<std::shared_ptr<const ServingAssets>> mismatch =
      ServingAssets::Build(RingGraph(), nullptr, BuildIndex(other));
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mismatch.status().message().find("different graph"),
            std::string::npos);

  // The matching index builds, and the service reports it active.
  auto service = MakeService(BuildIndex(RingGraph()));
  EXPECT_TRUE(service->sketch_active());
}

TEST(SketchServeTest, SwapAttachesAnIndexWhileRunning) {
  // The redesign's point: the index arrives via a snapshot swap AFTER
  // Start(), with the service live, instead of attach-before-Start.
  auto service = MakeService();
  EXPECT_FALSE(service->sketch_active());
  ASSERT_TRUE(service->Start().ok());

  EXPECT_EQ(service->SwapAssets(nullptr).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(service->SwapAssets(RingAssets(BuildIndex(RingGraph()))).ok());
  EXPECT_TRUE(service->sketch_active());

  Result<std::future<ServeResponse>> pending = service->Submit(
      Request(R"({"id":"s","op":"topk","k":3,"method":"sketch"})"));
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  const ServeResponse response = pending->get();
  service->Stop();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  const ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.sketch_hits, 1u);
  EXPECT_EQ(stats.swaps, 1u);
}

TEST(SketchServeTest, SketchAnswersMatchCelfAndFallbackByteForByte) {
  auto indexed = MakeService(BuildIndex(RingGraph()));
  auto bare = MakeService();  // no index: method=sketch falls back to CELF

  for (const int64_t k : {int64_t{1}, int64_t{3}, int64_t{8}}) {
    const std::string base =
        R"({"id":"q","op":"topk","k":)" + std::to_string(k);
    const ServeResponse sketch =
        indexed->Execute(Request(base + R"(,"method":"sketch"})"));
    const ServeResponse fallback =
        bare->Execute(Request(base + R"(,"method":"sketch"})"));
    const ServeResponse celf =
        indexed->Execute(Request(base + R"(,"method":"celf"})"));
    ASSERT_TRUE(sketch.status.ok()) << sketch.status.ToString();
    ASSERT_TRUE(fallback.status.ok()) << fallback.status.ToString();
    ASSERT_TRUE(celf.status.ok()) << celf.status.ToString();
    // Unit weights: the sketch answer equals CELF's exactly...
    EXPECT_EQ(sketch.payload.GetIntArray("seeds").value(),
              celf.payload.GetIntArray("seeds").value());
    EXPECT_EQ(sketch.payload.GetDouble("spread", -1).value(),
              celf.payload.GetDouble("spread", -2).value());
    // ...and the response bytes are identical whether the index answered
    // or the engine quietly fell back to CELF.
    EXPECT_EQ(sketch.ToJsonLine(), fallback.ToJsonLine());
  }

  const ServiceStats stats = indexed->GetStats();
  EXPECT_EQ(stats.sketch_hits, 3u);
  EXPECT_EQ(stats.sketch_fallbacks, 0u);
  EXPECT_TRUE(stats.sketch_active);
  EXPECT_EQ(bare->GetStats().sketch_fallbacks, 3u);
}

TEST(SketchServeTest, MissingIndexFallsBackToCelfAndCounts) {
  auto service = MakeService();
  const ServeResponse response = service->Execute(
      Request(R"({"id":"f","op":"topk","k":3,"method":"sketch"})"));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.payload.GetIntArray("seeds").value().empty());

  const ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.sketch_hits, 0u);
  EXPECT_EQ(stats.sketch_fallbacks, 1u);
  EXPECT_FALSE(stats.sketch_active);
}

TEST(SketchServeTest, StepsMismatchFallsBackToCelf) {
  auto service = MakeService(BuildIndex(RingGraph(), /*max_steps=*/1));

  // The index answers steps=1 only; steps=2 must take the CELF path, and
  // the fallback answer still matches a direct CELF request byte-for-byte
  // (modulo the echoed method).
  const ServeResponse fallback = service->Execute(Request(
      R"({"id":"q","op":"topk","k":3,"steps":2,"method":"sketch"})"));
  const ServeResponse celf = service->Execute(Request(
      R"({"id":"q","op":"topk","k":3,"steps":2,"method":"celf"})"));
  ASSERT_TRUE(fallback.status.ok()) << fallback.status.ToString();
  ASSERT_TRUE(celf.status.ok());
  EXPECT_EQ(fallback.payload.GetIntArray("seeds").value(),
            celf.payload.GetIntArray("seeds").value());

  const ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.sketch_hits, 0u);
  EXPECT_EQ(stats.sketch_fallbacks, 1u);
  EXPECT_TRUE(stats.sketch_active);
}

TEST(SketchServeTest, BatchedPathServesFromTheIndexToo) {
  auto service = MakeService(BuildIndex(RingGraph()));
  ASSERT_TRUE(service->Start().ok());
  Result<std::future<ServeResponse>> pending = service->Submit(
      Request(R"({"id":"b","op":"topk","k":3,"method":"sketch"})"));
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  const ServeResponse response = pending->get();
  service->Stop();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(service->GetStats().sketch_hits, 1u);
}

}  // namespace
}  // namespace serve
}  // namespace privim
