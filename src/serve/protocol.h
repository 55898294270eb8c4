/**
 * @file
 * Wire protocol of the graph query server (DESIGN.md §17.1).
 *
 * Transport framing is length-prefixed binary: every message is a
 * 4-byte little-endian payload length followed by that many payload
 * bytes. Inside a frame, requests are
 *
 *   [u32 id][u8 opcode][op-specific fields, little-endian]
 *
 * and responses are self-describing regardless of opcode:
 *
 *   [u32 id][u8 status][u64 epoch]
 *   [u32 n_values][n x u64][u32 n_vertices][n x u32][u32 n_text][bytes]
 *
 * so a client can always skip a response it does not understand, and
 * the codec has exactly one response decoder to fuzz. Floating-point
 * results (PageRank scores) travel as IEEE-754 bit patterns inside
 * the u64 value array; the kStats payload is a crono.serve.v1 JSON
 * document in the text field (the protocol's "JSON half").
 *
 * Every response carries the epoch its request was served against,
 * which is what makes snapshot isolation testable over the wire: two
 * responses with equal epochs came from the same immutable graph.
 *
 * Robustness contract (enforced by tests/serve_protocol_test.cpp's
 * fuzz loop): a decoder never reads past the frame, rejects truncated
 * fields, count fields larger than the remaining payload, unknown
 * opcodes and trailing garbage, and a FrameSplitter fed an oversized
 * or negative-looking length prefix poisons the stream instead of
 * allocating the attacker's number.
 */

#ifndef CRONO_SERVE_PROTOCOL_H_
#define CRONO_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/graph.h"

namespace crono::serve {

/** Hard ceiling on one frame's payload bytes. */
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/** Ceiling on batch-lookup targets in one request. */
inline constexpr std::uint32_t kMaxBatchTargets = 1u << 14;

/** Ceiling on edges in one ingest request. */
inline constexpr std::uint32_t kMaxIngestEdges = 1u << 16;

/** Ceiling on k for the top-k queries. */
inline constexpr std::uint32_t kMaxTopK = 4096;

/** Request opcodes. */
enum class Op : std::uint8_t {
    kPing = 0,      ///< liveness probe; epoch echo only
    kBfsDist,       ///< hop count source -> target (BFS level)
    kSsspDist,      ///< weighted distance source -> target
    kSsspBatch,     ///< weighted distances source -> many targets
    kComponent,     ///< canonical component label of a vertex
    kRankScore,     ///< PageRank score of a vertex
    kTopDegree,     ///< k highest-degree vertices (degree centrality)
    kTopRank,       ///< k highest-PageRank vertices
    kIngest,        ///< append an edge-update batch (new epoch)
    kCompact,       ///< force a compaction (new epoch)
    kStats,         ///< server statistics as crono.serve.v1 JSON
};

/** Number of opcodes (for per-class metric arrays). */
inline constexpr int kNumOps = 11;

/** Printable request-class name, e.g. "sssp_batch". */
const char* opName(Op op);

/** Response status. */
enum class Status : std::uint8_t {
    kOk = 0,
    kMalformed,    ///< payload did not parse (truncated / trailing)
    kUnknownOp,    ///< opcode outside the table
    kBadVertex,    ///< vertex id outside [0, numVertices)
    kTooLarge,     ///< count field over its ceiling, or frame too big
    kRejected,     ///< semantically invalid (e.g. empty ingest)
};

/** Printable status name, e.g. "bad-vertex". */
const char* statusName(Status s);

/** Sentinel value meaning unreachable / not defined. */
inline constexpr std::uint64_t kNoValue = ~std::uint64_t{0};

/** One decoded request (fields beyond the opcode's are ignored). */
struct Request {
    std::uint32_t id = 0;
    Op op = Op::kPing;
    graph::VertexId source = 0;  ///< kBfsDist..kRankScore
    graph::VertexId target = 0;  ///< kBfsDist / kSsspDist
    std::uint32_t k = 0;         ///< kTopDegree / kTopRank
    std::vector<graph::VertexId> targets; ///< kSsspBatch
    std::vector<graph::Edge> edges;       ///< kIngest
};

/** One response (uniform shape; see file header for the wire form). */
struct Response {
    std::uint32_t id = 0;
    Status status = Status::kOk;
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> values;    ///< dists/levels/labels/bits
    std::vector<graph::VertexId> vertices; ///< top-k ids
    std::string text;                     ///< kStats JSON document
};

/** Shorthand: an error response echoing @p id. */
Response errorResponse(std::uint32_t id, Status status,
                       std::uint64_t epoch = 0);

// --------------------------------------------------------------- codec

/** Append one whole frame (length prefix + payload) for @p r. */
void encodeRequest(const Request& r, std::vector<std::uint8_t>* out);

/** Append one whole frame for @p r. */
void encodeResponse(const Response& r, std::vector<std::uint8_t>* out);

/**
 * Decode a request frame *payload* (no length prefix). On any error
 * the returned status is not kOk and @p out is default-initialized
 * except for the id when at least the id parsed (so the error can be
 * attributed).
 */
Status decodeRequest(std::span<const std::uint8_t> payload, Request* out);

/** Decode a response frame payload (same contract as decodeRequest). */
Status decodeResponse(std::span<const std::uint8_t> payload,
                      Response* out);

// ------------------------------------------------------------- framing

/**
 * Incremental length-prefix splitter. Feed arbitrary byte chunks;
 * next() hands back complete payloads one at a time. A length prefix
 * over kMaxFrameBytes poisons the splitter (poisoned() stays true and
 * next() never yields again) — the session layer turns that into a
 * kTooLarge response and a close, never an allocation of the claimed
 * size.
 */
class FrameSplitter {
  public:
    /** Append raw transport bytes. No-op when poisoned. */
    void feed(std::span<const std::uint8_t> data);

    /** The next complete frame payload, if one is buffered. */
    std::optional<std::vector<std::uint8_t>> next();

    /** True once an oversized length prefix was seen. */
    bool poisoned() const { return poisoned_; }

    /** Bytes buffered but not yet returned (for tests). */
    std::size_t pending() const { return buf_.size() - pos_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    bool poisoned_ = false;
};

} // namespace crono::serve

#endif // CRONO_SERVE_PROTOCOL_H_
