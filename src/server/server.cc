#include "server/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "server/protocol.h"

namespace pcube {

namespace {
/// What one worker-pool execution hands back to the connection thread.
struct ExecOutcome {
  Status status;
  QueryResponse response;
  double queue_wait_seconds = 0;
  double exec_seconds = 0;
};
}  // namespace

PCubeServer::PCubeServer(Workbench* wb, ServerOptions options,
                         QueryLog* query_log)
    : wb_(wb),
      options_([&options] {
        if (options.workers == 0) {
          options.workers = std::max(1u, std::thread::hardware_concurrency());
        }
        options.admission.workers = options.workers;
        return options;
      }()),
      query_log_(query_log),
      admission_(options_.admission, &MetricsRegistry::Default()) {
  requests_total_ =
      MetricsRegistry::Default().GetCounter("pcube_server_query_frames_total");
  responses_total_ =
      MetricsRegistry::Default().GetCounter("pcube_server_responses_total");
  write_frames_total_ =
      MetricsRegistry::Default().GetCounter("pcube_server_write_frames_total");
  write_acks_total_ =
      MetricsRegistry::Default().GetCounter("pcube_server_write_acks_total");
}

PCubeServer::~PCubeServer() { Stop(); }

Status PCubeServer::Start() {
  {
    MutexLock lock(&mu_);
    if (started_) return Status::InvalidArgument("server already started");
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // unauthenticated protocol
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status s =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void PCubeServer::Stop() {
  if (stopping_.exchange(true)) {
    // A second caller still waits for the first shutdown to finish.
    if (accept_thread_.joinable()) accept_thread_.join();
    MutexLock lock(&mu_);
    conns_done_.Wait(&mu_, [this]() REQUIRES(mu_) {
      return active_conns_ == 0;
    });
    return;
  }
  if (listen_fd_ >= 0) {
    // shutdown() unblocks a blocked accept(); close alone may not.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    MutexLock lock(&mu_);
    // Unblock every connection thread stuck in a socket read; the threads
    // own their fds and close them on exit.
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
    conns_done_.Wait(&mu_, [this]() REQUIRES(mu_) {
      return active_conns_ == 0;
    });
  }
  pool_.reset();  // drains in-flight tasks (all futures already collected)
}

uint64_t PCubeServer::requests_served() const {
  return responses_total_->Value();
}

void PCubeServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or unrecoverable) — stop accepting
    }
    // A response is several small sends (header, chunks, done); with Nagle
    // on, each one can stall ~40 ms behind the peer's delayed ACK.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    bool admitted = false;
    {
      MutexLock lock(&mu_);
      if (!stopping_.load(std::memory_order_relaxed) &&
          active_conns_ < options_.max_connections) {
        open_fds_.push_back(fd);
        ++active_conns_;
        admitted = true;
      }
    }
    if (!admitted) {
      // Courtesy reject before closing; the close is the real answer.
      wire::WriteFrame(fd, wire::FrameType::kError,
                       wire::EncodeError(Status::ResourceExhausted(
                           "server connection limit reached")))
          .IgnoreError();
      ::close(fd);
      continue;
    }
    std::thread([this, fd] { ServeConnection(fd); }).detach();
  }
}

void PCubeServer::ServeConnection(int fd) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    wire::FrameHeader header;
    std::string payload;
    Timer accept_timer;
    Status s = wire::ReadFrame(fd, &header, &payload);
    const double accept_seconds = accept_timer.ElapsedSeconds();
    if (!s.ok()) {
      // Header-level damage desynchronizes the stream: answer (the peer
      // may still be reading) and close. Clean closes / resets just close.
      if (s.IsCorruption()) {
        // Best-effort: the peer may already be gone; we close either way.
        wire::WriteFrame(fd, wire::FrameType::kError, wire::EncodeError(s))
            .IgnoreError();
      }
      break;
    }
    if (header.type == wire::FrameType::kWrite) {
      if (!HandleWrite(fd, payload)) break;
      continue;
    }
    if (header.type != wire::FrameType::kQuery) {
      // Best-effort courtesy error; the break below drops the connection.
      wire::WriteFrame(fd, wire::FrameType::kError,
                       wire::EncodeError(Status::InvalidArgument(
                           "expected a query or write frame")))
          .IgnoreError();
      break;  // a confused peer is unlikely to be framed correctly ahead
    }
    if (!HandleQuery(fd, payload, accept_seconds)) break;
  }
  ::close(fd);
  {
    MutexLock lock(&mu_);
    open_fds_.erase(std::remove(open_fds_.begin(), open_fds_.end(), fd),
                    open_fds_.end());
    --active_conns_;
    // Signalled under mu_ so Stop() cannot destroy the CondVar while a
    // notify is in progress.
    conns_done_.SignalAll();
  }
}

bool PCubeServer::HandleQuery(int fd, const std::string& payload,
                              double accept_seconds) {
  requests_total_->Increment();
  auto answer_error = [fd](const Status& s) {
    return wire::WriteFrame(fd, wire::FrameType::kError, wire::EncodeError(s))
        .ok();
  };

  Timer parse_timer;
  wire::QueryEnvelope envelope;
  Status parse_status = wire::DecodeQuery(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size(),
      &envelope);
  const double parse_seconds = parse_timer.ElapsedSeconds();
  if (!parse_status.ok()) {
    // Payload-level damage in a well-framed request: the stream is still
    // synchronized, so answer and keep the connection.
    return answer_error(parse_status);
  }
  if (envelope.tenant.empty()) envelope.tenant = "default";
  const QueryRequest& request = envelope.request;

  AdmissionController::Ticket ticket;
  Status admit = admission_.Admit(envelope.tenant, request.deadline_ms,
                                  &ticket);
  if (!admit.ok()) {
    return answer_error(admit);  // the early shed: nothing was queued
  }

  // The connection thread blocks on its own query (one in flight per
  // connection); concurrency comes from many connections sharing the pool.
  std::future<ExecOutcome> future = pool_->Submit([&, ticket] {
    ExecOutcome out;
    uint64_t remaining_ms = 0;
    Status start = admission_.StartExecution(
        ticket, request.deadline_ms, &remaining_ms, &out.queue_wait_seconds);
    if (!start.ok()) {
      out.status = std::move(start);  // budget died in the queue: Timeout
      return out;
    }
    QueryRequest run = request;
    run.deadline_ms = remaining_ms;
    Timer exec_timer;
    Result<QueryResponse> result = wb_->RunShared(run);
    out.exec_seconds = exec_timer.ElapsedSeconds();
    admission_.Finish(/*executed=*/true, out.exec_seconds);
    if (result.ok()) {
      out.response = std::move(result).value();
    } else {
      out.status = result.status();
    }
    return out;
  });
  ExecOutcome out = future.get();
  if (!out.status.ok()) return answer_error(out.status);

  QueryResponse& resp = out.response;
  wire::ResultHeader rh;
  rh.trace_id = resp.trace_id();
  rh.result_count = resp.tids.size();
  rh.has_scores = !resp.scores.empty();
  rh.plan = static_cast<uint8_t>(resp.estimate.choice);
  rh.cache = static_cast<uint8_t>(resp.cache);
  rh.degraded = resp.degraded;
  rh.seconds = resp.seconds;
  rh.queue_wait_seconds = out.queue_wait_seconds;
  rh.io_reads = resp.io.TotalReads();
  rh.counters = resp.counters;

  Timer respond_timer;
  bool wrote = wire::WriteFrame(fd, wire::FrameType::kResultHeader,
                                wire::EncodeResultHeader(rh))
                   .ok();
  for (size_t first = 0; wrote && first < resp.tids.size();
       first += wire::kChunkTuples) {
    const size_t count =
        std::min(wire::kChunkTuples, resp.tids.size() - first);
    wrote = wire::WriteFrame(
                fd, wire::FrameType::kResultChunk,
                wire::EncodeResultChunk(resp.tids, resp.scores, first, count))
                .ok();
  }
  if (wrote) {
    wrote = wire::WriteFrame(fd, wire::FrameType::kDone, std::string()).ok();
  }
  const double respond_seconds = respond_timer.ElapsedSeconds();

  resp.trace.Record("accept", accept_seconds);
  resp.trace.Record("parse", parse_seconds);
  resp.trace.Record("queue_wait", out.queue_wait_seconds);
  resp.trace.Record("execute", out.exec_seconds);
  resp.trace.Record("respond", respond_seconds);
  if (query_log_ != nullptr) {
    query_log_->Append(QueryLogRecord(request, resp, envelope.tenant));
  }
  if (wrote) responses_total_->Increment();
  return wrote;
}

bool PCubeServer::HandleWrite(int fd, const std::string& payload) {
  write_frames_total_->Increment();
  auto answer_error = [fd](const Status& s) {
    return wire::WriteFrame(fd, wire::FrameType::kError, wire::EncodeError(s))
        .ok();
  };

  wire::WriteEnvelope envelope;
  Status parse_status = wire::DecodeWrite(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size(),
      &envelope);
  if (!parse_status.ok()) {
    // Payload-level damage in a well-framed write: stream still in sync.
    return answer_error(parse_status);
  }
  if (envelope.tenant.empty()) envelope.tenant = "default";

  // No admission ticket: writes don't queue on the worker pool, and the
  // WAL's group commit is itself the write-side backpressure (a writer
  // blocks until its group's fsync lands). The tenant is still recorded
  // so the per-tenant frame counters stay honest.
  Result<WriteResult> result = wb_->Apply(envelope.batch);
  if (!result.ok()) return answer_error(result.status());
  const bool wrote = wire::WriteFrame(fd, wire::FrameType::kWriteAck,
                                      wire::EncodeWriteAck(result.value()))
                         .ok();
  if (wrote) write_acks_total_->Increment();
  return wrote;
}

}  // namespace pcube
