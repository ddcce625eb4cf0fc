// Wire protocol of `pcube serve` (DESIGN.md §14): a length-prefixed binary
// framing over TCP. Every frame is a fixed 12-byte little-endian header —
// magic, version, frame type, payload length — followed by the payload.
// A client sends one kQuery frame per request; the server answers with a
// kResultHeader frame, zero or more kResultChunk frames (the result stream,
// so a million-tuple answer never materialises as one allocation on the
// wire), and a terminating kDone — or a single kError frame carrying a
// status code and message.
//
// The decoder trusts NOTHING from the wire: every length is bounds-checked
// against both the payload and a hard cap (frame size, predicate and
// dimension counts, tenant and message lengths, k), every float must be
// finite, and ranking parameters are validated against the constructor
// contracts of ranking.h (which PCUBE_CHECK-abort on violation — a remote
// peer must never be able to reach those checks). Malformed input yields
// Status::Corruption / Status::InvalidArgument, never UB; the fuzz tests in
// tests/server_protocol_test.cc run the decoder under ASan/UBSan over
// truncations, bit flips and garbage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/request.h"
#include "query/write_batch.h"

namespace pcube::wire {

/// First four payload bytes of every frame, "PCUB" read little-endian.
inline constexpr uint32_t kMagic = 0x42554350u;
/// Bumped on every frame-layout change; a peer speaking another version is
/// rejected at the header.
inline constexpr uint8_t kVersion = 2;
inline constexpr size_t kHeaderBytes = 12;

/// Hard caps the parser enforces on anything the peer controls.
inline constexpr uint32_t kMaxPayload = 1u << 20;  // 1 MiB per frame
inline constexpr size_t kMaxPredicates = 64;
inline constexpr size_t kMaxDims = 64;
inline constexpr uint16_t kMaxDimIndex = 4095;
inline constexpr size_t kMaxTenantBytes = 64;
inline constexpr size_t kMaxErrorBytes = 512;
inline constexpr uint64_t kMaxK = 1'000'000;
inline constexpr uint64_t kMaxSkybandK = 1'000'000;
inline constexpr uint64_t kMaxDeadlineMs = 3'600'000;  // one hour
/// Tuples per kResultChunk frame (chunk payloads stay far below kMaxPayload).
inline constexpr size_t kChunkTuples = 4096;
/// Client-side cap on the total result stream (defends the CLIENT against a
/// malicious or broken server announcing an absurd result count).
inline constexpr uint64_t kMaxResultTuples = 1ull << 26;

enum class FrameType : uint8_t {
  kQuery = 1,        ///< client -> server: one serialized QueryRequest
  kResultHeader = 2, ///< server -> client: result metadata, starts a stream
  kResultChunk = 3,  ///< server -> client: a slice of tids (+ scores)
  kDone = 4,         ///< server -> client: end of the result stream
  kError = 5,        ///< either direction: status code + message, ends req
  kWrite = 6,        ///< client -> server: one serialized WriteBatch
  kWriteAck = 7,     ///< server -> client: the WriteResult of a kWrite
};

struct FrameHeader {
  uint8_t version = kVersion;
  FrameType type = FrameType::kError;
  uint32_t payload_len = 0;
};

/// StatusCode <-> wire byte. The wire values are part of the protocol and
/// may not be renumbered; unknown bytes decode to kInternal (a frame from a
/// newer peer must not crash an older one).
uint8_t StatusCodeToWire(StatusCode code);
StatusCode StatusCodeFromWire(uint8_t wire);

/// Everything a kQuery frame carries besides the QueryRequest itself.
struct QueryEnvelope {
  std::string tenant;  ///< validated [A-Za-z0-9_.-]{0,64}; "" = "default"
  QueryRequest request;
};

/// Everything a kWrite frame carries besides the WriteBatch itself.
struct WriteEnvelope {
  std::string tenant;  ///< same validation as QueryEnvelope::tenant
  WriteBatch batch;
};

/// Result metadata sent ahead of the chunk stream.
struct ResultHeader {
  uint64_t trace_id = 0;
  uint64_t result_count = 0;
  bool has_scores = false;
  uint8_t plan = 0;   ///< PlanChoice as its enum value
  uint8_t cache = 0;  ///< CacheOutcome as its enum value
  bool degraded = false;
  double seconds = 0;             ///< execution wall time on the server
  double queue_wait_seconds = 0;  ///< time between admission and execution
  uint64_t io_reads = 0;
  EngineCounters counters;
};

// ---- Frame building (always valid by construction) ----------------------

/// Appends a complete frame (header + payload) to `out`.
void AppendFrame(FrameType type, const std::string& payload, std::string* out);

/// Serializes a query (validating it against the wire caps first — a local
/// request that cannot be represented is InvalidArgument, not silent
/// truncation). Returns the payload for a kQuery frame.
Result<std::string> EncodeQuery(const QueryEnvelope& envelope);

std::string EncodeResultHeader(const ResultHeader& header);

/// Serializes a write batch for a kWrite frame. Batches that do not fit in
/// one frame (kMaxPayload) are InvalidArgument — chunk them client-side
/// (PCubeClient::Write does).
Result<std::string> EncodeWrite(const WriteEnvelope& envelope);

/// Payload of a kWriteAck frame.
std::string EncodeWriteAck(const WriteResult& result);

/// Encodes tuples [first, first + count) of the result vectors.
std::string EncodeResultChunk(const std::vector<TupleId>& tids,
                              const std::vector<double>& scores,
                              size_t first, size_t count);

/// Encodes an error payload; the message is truncated to kMaxErrorBytes.
std::string EncodeError(const Status& status);

// ---- Frame parsing (trusts nothing) --------------------------------------

/// Parses and validates a 12-byte header. `data` must hold kHeaderBytes.
Status ParseFrameHeader(const uint8_t* data, FrameHeader* out);

Status DecodeQuery(const uint8_t* data, size_t size, QueryEnvelope* out);
/// Batch contents are re-validated structurally by DecodeWriteBatch (caps,
/// finite floats, exact length); schema validation happens at Apply().
Status DecodeWrite(const uint8_t* data, size_t size, WriteEnvelope* out);
Status DecodeWriteAck(const uint8_t* data, size_t size, WriteResult* out);
Status DecodeResultHeader(const uint8_t* data, size_t size, ResultHeader* out);
/// Appends the chunk's tuples to `tids`/`scores`; `has_scores` must match
/// the stream's ResultHeader announcement.
Status DecodeResultChunk(const uint8_t* data, size_t size, bool has_scores,
                         std::vector<TupleId>* tids,
                         std::vector<double>* scores);
/// Reconstructs the Status an error frame carries.
Status DecodeError(const uint8_t* data, size_t size);

// ---- Blocking socket I/O -------------------------------------------------

/// Reads exactly `n` bytes (retrying short reads / EINTR). A clean close
/// mid-read is IoError("peer closed").
Status ReadExact(int fd, void* buf, size_t n);

/// Writes all `n` bytes with MSG_NOSIGNAL (a dead peer yields IoError, not
/// SIGPIPE).
Status WriteAll(int fd, const void* buf, size_t n);

/// Reads one frame: header (validated) then payload. Header-level damage
/// (bad magic/version/type, oversized payload) desynchronizes the byte
/// stream, so callers must close the connection after a non-OK return with
/// code kCorruption.
Status ReadFrame(int fd, FrameHeader* header, std::string* payload);

/// Writes one frame.
Status WriteFrame(int fd, FrameType type, const std::string& payload);

}  // namespace pcube::wire
