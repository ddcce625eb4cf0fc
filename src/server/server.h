// The `pcube serve` network server (DESIGN.md §14): a TCP front door over
// one Workbench, speaking the framed binary protocol of protocol.h. One
// accept thread, one thread per connection (bounded by max_connections),
// and a shared worker ThreadPool that actually executes queries via
// Workbench::RunShared. Every request passes through the
// AdmissionController before it may queue; overload is answered with an
// early kError(ResourceExhausted) frame instead of unbounded queueing.
//
// Per-request lifecycle and its trace spans:
//   accept     — blocking read of the query frame off the socket
//   parse      — defensive decode (protocol.h caps; damage never crashes)
//   queue_wait — admission to worker pickup (charged against the deadline)
//   execute    — Workbench::RunShared with the SHRUNK remaining budget
//   respond    — result header + chunk stream + done back onto the socket
// The spans are recorded into the response's Trace, so the JSONL query log
// (which gains a `tenant:` field) shows where server time went per query.
//
// Error handling at the connection level: header-level damage (bad magic /
// version / oversized frame) desynchronizes the byte stream — the server
// sends one kError frame best-effort and closes. Payload-level damage in a
// well-framed query gets a kError answer and the connection KEEPS serving:
// one malformed query must not tear down a client's session.
//
// The listener binds 127.0.0.1 only: the protocol carries no
// authentication, so the server deliberately refuses non-local peers.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "server/admission.h"
#include "workbench/workbench.h"

namespace pcube {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back with
  /// port() after Start — the tests and benchmarks do this).
  uint16_t port = 0;
  /// Query-executor threads; 0 = hardware_concurrency.
  size_t workers = 0;
  /// Concurrent connections; the acceptor answers the excess with a
  /// kError(ResourceExhausted) frame and closes.
  size_t max_connections = 64;
  /// Admission gates (AdmissionOptions::workers is overwritten with the
  /// resolved worker count so the projected-wait model matches reality).
  AdmissionOptions admission;
};

/// TCP server over a Workbench. Not copyable/movable; Stop() (or the
/// destructor) joins every thread before returning.
class PCubeServer {
 public:
  /// `wb` and `query_log` (optional) must outlive the server.
  PCubeServer(Workbench* wb, ServerOptions options,
              QueryLog* query_log = nullptr);
  ~PCubeServer();
  PCubeServer(const PCubeServer&) = delete;
  PCubeServer& operator=(const PCubeServer&) = delete;

  /// Binds, listens and spawns the accept thread. InvalidArgument /
  /// IoError on socket failures (port in use, ...).
  Status Start();

  /// Idempotent shutdown: stops accepting, shuts down every live
  /// connection socket (unblocking their reads), waits for in-flight
  /// queries to finish and joins all threads.
  void Stop();

  /// The bound port (resolves option port 0 to the kernel's choice).
  uint16_t port() const { return port_; }

  const AdmissionController& admission() const { return admission_; }

  /// Requests fully answered (result stream completed) since Start.
  uint64_t requests_served() const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Parses + admits + executes + responds to one query frame
  /// (`accept_seconds` = time spent reading it off the socket, recorded as
  /// the `accept` span). Returns false when the connection must close
  /// (socket error); protocol-level failures answer with a kError frame
  /// and return true.
  bool HandleQuery(int fd, const std::string& payload, double accept_seconds);
  /// Parses + applies one kWrite frame and answers with a kWriteAck. Write
  /// frames run on the CONNECTION thread, not the worker pool: Apply blocks
  /// on its own group commit (an fsync wait), and parking that wait on a
  /// query worker would let a slow disk starve read traffic. Concurrent
  /// writers on separate connections still form commit groups inside the
  /// WAL. Same return contract as HandleQuery.
  bool HandleWrite(int fd, const std::string& payload);

  Workbench* const wb_;
  const ServerOptions options_;
  QueryLog* const query_log_;
  // pcube-lint: begin-lock-free(fixed by the constructor and Start() before
  // the accept thread or any connection thread exists; admission_ and the
  // metric objects are internally synchronized, the rest are read-only once
  // the server is running)
  AdmissionController admission_;
  std::unique_ptr<ThreadPool> pool_;
  Counter* requests_total_;
  Counter* responses_total_;
  Counter* write_frames_total_;
  Counter* write_acks_total_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  // pcube-lint: end-lock-free

  // Connection threads detach themselves; Stop() waits for active_conns_
  // to reach zero (signalled under mu_, so the CondVar cannot outlive a
  // waiter mid-notify) after shutting down every fd in open_fds_.
  mutable Mutex mu_;
  CondVar conns_done_;
  std::vector<int> open_fds_ GUARDED_BY(mu_);
  size_t active_conns_ GUARDED_BY(mu_) = 0;
  bool started_ GUARDED_BY(mu_) = false;
};

}  // namespace pcube
