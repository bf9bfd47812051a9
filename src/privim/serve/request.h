// Serving wire format: requests and responses exchanged as JSON-lines.
//
// A request is one flat JSON object per line:
//
//   {"id":"r1","op":"influence","nodes":[1,2,3]}
//   {"id":"r6","op":"influence","subgraph":[4,7,9]}
//   {"id":"r2","op":"topk","k":10,"method":"model"}
//   {"id":"r3","op":"topk","k":10,"method":"celf","steps":1}
//   {"id":"r4","op":"topk","k":10,"method":"ris","rr_sets":2000,"seed":7}
//   {"id":"r5","op":"spread","seeds":[0,5],"steps":2,"simulations":500,
//    "seed":13}
//   {"id":"r7","op":"info"}
//   {"id":"r8","op":"admin","action":"swap","model":"released.model"}
//
// Responses echo the id and carry op-specific payload fields plus "ok"
// and (on failure) "error"/"code". Responses are a pure function
// of (assets, request) — never of batch composition, thread count or
// cache state — so a fixed request seed yields a bit-identical response
// line at 1, 4 or 8 threads (pinned by tests/serve/service_test.cpp).
//
// Versioning: every request may carry an optional integer "v" naming the
// protocol version it speaks (default kProtocolVersion, currently the
// only one). A request with any other "v" is refused with the distinct
// UnsupportedVersion error code, emitted byte-identically by every front
// end. {"op":"info"} is the capability handshake: it returns the protocol
// version, the supported ops and top-k methods, and the fingerprints of
// the currently served asset snapshot, so clients can negotiate before
// issuing real traffic.
//
// {"op":"admin","action":"swap",...} atomically repoints the served asset
// snapshot (model / sketch index / graph, loaded from the named files)
// without dropping a connection; TCP front ends only accept it from
// loopback peers. Admin responses are never cached.

#ifndef PRIVIM_SERVE_REQUEST_H_
#define PRIVIM_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "privim/common/status.h"
#include "privim/graph/graph.h"
#include "privim/serve/json.h"

namespace privim {
namespace serve {

/// The protocol version this build speaks; requests carrying a different
/// "v" get UnsupportedVersionError from every front end.
inline constexpr int64_t kProtocolVersion = 1;

enum class RequestOp { kInfluence, kTopK, kSpread, kInfo, kAdmin };
/// kSketch answers from the precomputed RIS sketch index when the service
/// has one attached whose step bound matches the request; otherwise it
/// falls back to CELF (counted in im.sketch.fallbacks) — the response
/// payload is identical either way on unit-weight graphs.
enum class TopKMethod { kModel, kCelf, kRis, kSketch };

const char* RequestOpToString(RequestOp op);
const char* TopKMethodToString(TopKMethod method);

/// One influence query. Defaults match the evaluation setting of the paper
/// (j = 1 diffusion steps, MC estimation for weighted graphs).
struct ServeRequest {
  std::string id;                          ///< echoed verbatim
  RequestOp op = RequestOp::kInfluence;

  // --- influence ---
  /// Nodes to report scores for; empty means every node.
  std::vector<NodeId> nodes;
  /// When non-empty, scores are computed by one forward over the subgraph
  /// induced by these (global) node ids instead of the whole graph.
  /// Mutually exclusive with "nodes"; the response reports the
  /// deduplicated ids in first-occurrence order.
  std::vector<NodeId> subgraph;

  // --- topk ---
  int64_t k = 10;
  TopKMethod method = TopKMethod::kModel;
  int64_t rr_sets = 2000;  ///< RIS pool size

  // --- spread ---
  std::vector<NodeId> seeds;
  int64_t simulations = 200;  ///< 0 selects the deterministic unit-weight path

  // --- admin ---
  /// Admin verb; only "swap" is defined. A swap builds a complete new
  /// asset snapshot: absent/empty paths mean "none" in the new snapshot
  /// (except "graph", where absent keeps the currently served graph).
  std::string action;
  std::string swap_model;   ///< model file for the new snapshot; "" = none
  std::string swap_sketch;  ///< sketch index file; "" = none
  std::string swap_graph;   ///< edge-list file; "" = keep current graph

  // --- shared ---
  int64_t version = kProtocolVersion;  ///< wire protocol version ("v")
  int64_t steps = 1;   ///< diffusion steps j
  uint64_t seed = 42;  ///< per-request RNG stream root

  /// Range checks that do not need the graph (graph-dependent checks —
  /// node ids in range — happen at execution).
  Status Validate() const;
};

/// Parses one JSON-lines record. Unknown "op"/"method" strings, wrongly
/// typed fields and out-of-range values are InvalidArgument.
Result<ServeRequest> ParseServeRequest(const std::string& json_line);

/// Order-sensitive FNV-1a digest over every semantic field. Two requests
/// with equal digests are the same query; together with the model/graph
/// fingerprint this keys the response cache.
uint64_t RequestDigest(const ServeRequest& request);

/// Outcome of one request. `payload` holds the op-specific members that
/// are merged into the response object.
struct ServeResponse {
  std::string id;
  Status status;
  JsonValue payload = JsonValue::Object();
  /// True when the payload came from the response cache. Deliberately NOT
  /// serialized: the wire response must be bit-identical whether or not a
  /// cache sat in front of the computation.
  bool cached = false;

  /// {"id":...,"ok":true,...payload...} — or, on error,
  /// {"id":...,"ok":false,"code":"InvalidArgument","error":"..."}.
  std::string ToJsonLine() const;
};

/// Builds the error response for an input line that failed to parse as a
/// request, recovering "id" when the line is at least well-formed JSON so
/// the client can correlate the failure. Shared by the stdin and TCP front
/// ends so both emit byte-identical error lines for the same bad input.
ServeResponse ResponseForBadLine(const std::string& line, Status status);

// --- Load-shedding vocabulary shared by every front end ------------------
//
// The admission queue reports "full" exactly one way, and both front ends
// (stdin pipeline and TCP listener) derive their wire error from the same
// helpers, so the shed line cannot drift between them
// (tests/serve/request_test.cpp pins the bytes).

/// The canonical load-shedding signal a full admission queue produces.
Status OverloadedStatus();

/// True when `status` is the load-shedding signal (and nothing else — no
/// other serving path produces Unavailable).
bool IsOverloaded(const Status& status);

/// The error response a front end emits for a shed request.
ServeResponse OverloadedResponse(const std::string& id);

/// The historical full-queue error of the future-based Submit/TrySubmit
/// API (it predates load shedding; its callers pin this code + message).
/// Kept in one place so the translation cannot fork again.
Status QueueFullError(int64_t queue_capacity);

// --- Version vocabulary (same contract as the overload vocabulary) ------

/// The canonical refusal for a request whose "v" is not kProtocolVersion.
/// Every front end derives its wire error from this one helper, so the
/// refusal line cannot drift between them (request_test.cpp pins the
/// bytes).
Status UnsupportedVersionError(int64_t requested);

/// True when `status` is the version refusal (and nothing else — no other
/// serving path produces UnsupportedVersion).
bool IsUnsupportedVersion(const Status& status);

/// True when responses to `request` may be cached and served from cache.
/// Admin requests mutate the service, so they are neither: a swap must
/// execute every time.
bool IsCacheable(const ServeRequest& request);

}  // namespace serve
}  // namespace privim

#endif  // PRIVIM_SERVE_REQUEST_H_
