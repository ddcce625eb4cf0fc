// Blocking client for the `pcube serve` wire protocol: connects over TCP,
// sends one kQuery frame per Run() and reassembles the streamed response
// (result header + chunks + done) into a QueryResponse. The decoder is the
// same defensive codec the server uses — a malicious or broken SERVER
// cannot make the client allocate unboundedly or read out of bounds.
//
// Server-side errors come back as the Status the server produced
// (ResourceExhausted for shed load, Timeout for expired budgets, ...), so
// callers branch on status codes exactly as they would against a local
// Workbench.
//
// Thread-safety: none — one PCubeClient is one socket with one in-flight
// request. Concurrent load uses one client per thread (see
// tests/server_overload_test.cc and bench/bench_serve.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "query/request.h"
#include "query/write_batch.h"

namespace pcube {

class PCubeClient {
 public:
  /// Connects to `host:port` (numeric IPv4 or a resolvable name).
  static Result<std::unique_ptr<PCubeClient>> Connect(const std::string& host,
                                                      uint16_t port);
  ~PCubeClient();
  PCubeClient(const PCubeClient&) = delete;
  PCubeClient& operator=(const PCubeClient&) = delete;

  /// Server-side stats the wire carries that a QueryResponse cannot hold.
  struct ServerStats {
    uint64_t trace_id = 0;          ///< the SERVER's trace id for this query
    double queue_wait_seconds = 0;  ///< admission-to-execution wait
    uint64_t io_reads = 0;          ///< physical reads on the server
  };

  /// Sends `request` under `tenant` and blocks for the full result stream.
  /// The returned response carries tids/scores/counters/plan/cache exactly
  /// as the server executed them; `stats` (optional) receives the
  /// server-only extras. After a transport-level failure (IoError /
  /// Corruption) the stream is desynchronized and the client is dead —
  /// reconnect. Server-reported errors (shed, timeout) leave the
  /// connection usable.
  Result<QueryResponse> Run(const QueryRequest& request,
                            const std::string& tenant,
                            ServerStats* stats = nullptr);

  /// Sends `batch` under `tenant` and blocks for the server's ack. Batches
  /// whose encoding exceeds the frame cap are split transparently: inserts
  /// first, then deletes (the order a single Apply uses), each slice sized
  /// to fit one kWrite frame and acked individually at the batch's Ack
  /// level. The returned WriteResult is the merge: `lsn`/`epoch` from the
  /// last slice, `first_tid` from the first slice carrying inserts,
  /// `commit_seconds` (each slice's stage → acknowledgement time, which
  /// for kApplied includes maintenance) summed, `durable` only if every
  /// slice was. NOT atomic across slices — a failure mid-split leaves
  /// earlier slices applied (the returned error says how many rows landed).
  Result<WriteResult> Write(const WriteBatch& batch, const std::string& tenant);

 private:
  explicit PCubeClient(int fd) : fd_(fd) {}

  int fd_;
};

}  // namespace pcube
