#include "server/client.h"

#include <cerrno>
#include <cstring>
#include <netdb.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <utility>

#include "server/protocol.h"

namespace pcube {

Result<std::unique_ptr<PCubeClient>> PCubeClient::Connect(
    const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0) {
    return Status::IoError(std::string("resolve ") + host + ": " +
                           gai_strerror(rc));
  }
  Status last = Status::IoError("no addresses for " + host);
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    // The query frame is one small send; don't let Nagle hold it hostage
    // to the previous response's ACK.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(res);
      return std::unique_ptr<PCubeClient>(new PCubeClient(fd));
    }
    last = Status::IoError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

PCubeClient::~PCubeClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<QueryResponse> PCubeClient::Run(const QueryRequest& request,
                                       const std::string& tenant,
                                       ServerStats* stats) {
  wire::QueryEnvelope envelope;
  envelope.tenant = tenant;
  envelope.request = request;
  Result<std::string> payload = wire::EncodeQuery(envelope);
  if (!payload.ok()) return payload.status();
  PCUBE_RETURN_NOT_OK(
      wire::WriteFrame(fd_, wire::FrameType::kQuery, payload.value()));

  // The stream: kResultHeader, kResultChunk*, kDone — or kError anywhere.
  wire::FrameHeader header;
  std::string body;
  PCUBE_RETURN_NOT_OK(wire::ReadFrame(fd_, &header, &body));
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(body.data());
  if (header.type == wire::FrameType::kError) {
    return wire::DecodeError(bytes, body.size());
  }
  if (header.type != wire::FrameType::kResultHeader) {
    return Status::Corruption("expected a result header frame");
  }
  wire::ResultHeader rh;
  PCUBE_RETURN_NOT_OK(wire::DecodeResultHeader(bytes, body.size(), &rh));

  QueryResponse resp;
  resp.tids.reserve(rh.result_count);
  if (rh.has_scores) resp.scores.reserve(rh.result_count);
  while (true) {
    PCUBE_RETURN_NOT_OK(wire::ReadFrame(fd_, &header, &body));
    bytes = reinterpret_cast<const uint8_t*>(body.data());
    if (header.type == wire::FrameType::kError) {
      return wire::DecodeError(bytes, body.size());
    }
    if (header.type == wire::FrameType::kDone) break;
    if (header.type != wire::FrameType::kResultChunk) {
      return Status::Corruption("expected a result chunk frame");
    }
    PCUBE_RETURN_NOT_OK(wire::DecodeResultChunk(
        bytes, body.size(), rh.has_scores, &resp.tids, &resp.scores));
    if (resp.tids.size() > rh.result_count) {
      return Status::Corruption("result stream longer than announced");
    }
  }
  if (resp.tids.size() != rh.result_count) {
    return Status::Corruption("result stream shorter than announced");
  }

  resp.counters = rh.counters;
  resp.estimate.choice =
      rh.plan == 0 ? PlanChoice::kSignature : PlanChoice::kBooleanFirst;
  resp.cache = static_cast<CacheOutcome>(rh.cache);
  resp.degraded = rh.degraded;
  resp.seconds = rh.seconds;
  if (stats != nullptr) {
    stats->trace_id = rh.trace_id;
    stats->queue_wait_seconds = rh.queue_wait_seconds;
    stats->io_reads = rh.io_reads;
  }
  return resp;
}

namespace {

/// One kWrite round trip: frame out, ack (or error) back.
Result<WriteResult> SendWrite(int fd, const std::string& tenant,
                              const WriteBatch& batch) {
  wire::WriteEnvelope envelope;
  envelope.tenant = tenant;
  envelope.batch = batch;
  Result<std::string> payload = wire::EncodeWrite(envelope);
  if (!payload.ok()) return payload.status();
  PCUBE_RETURN_NOT_OK(
      wire::WriteFrame(fd, wire::FrameType::kWrite, payload.value()));
  wire::FrameHeader header;
  std::string body;
  PCUBE_RETURN_NOT_OK(wire::ReadFrame(fd, &header, &body));
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(body.data());
  if (header.type == wire::FrameType::kError) {
    return wire::DecodeError(bytes, body.size());
  }
  if (header.type != wire::FrameType::kWriteAck) {
    return Status::Corruption("expected a write ack frame");
  }
  WriteResult result;
  PCUBE_RETURN_NOT_OK(wire::DecodeWriteAck(bytes, body.size(), &result));
  return result;
}

}  // namespace

Result<WriteResult> PCubeClient::Write(const WriteBatch& batch,
                                       const std::string& tenant) {
  // Fast path: the whole batch fits one frame (EncodeWrite enforces the
  // cap), so it commits atomically on the server.
  {
    wire::WriteEnvelope probe;
    probe.tenant = tenant;
    probe.batch = batch;
    Result<std::string> encoded = wire::EncodeWrite(probe);
    if (encoded.ok()) {
      PCUBE_RETURN_NOT_OK(
          wire::WriteFrame(fd_, wire::FrameType::kWrite, encoded.value()));
      wire::FrameHeader header;
      std::string body;
      PCUBE_RETURN_NOT_OK(wire::ReadFrame(fd_, &header, &body));
      const uint8_t* bytes = reinterpret_cast<const uint8_t*>(body.data());
      if (header.type == wire::FrameType::kError) {
        return wire::DecodeError(bytes, body.size());
      }
      if (header.type != wire::FrameType::kWriteAck) {
        return Status::Corruption("expected a write ack frame");
      }
      WriteResult result;
      PCUBE_RETURN_NOT_OK(wire::DecodeWriteAck(bytes, body.size(), &result));
      return result;
    }
    if (!encoded.status().IsInvalidArgument()) return encoded.status();
    // Oversized for one frame: fall through to the slicing path.
  }

  // Slice inserts first, then deletes — the order a single Apply applies
  // them in — shrinking the slice until it encodes under the frame cap.
  WriteResult merged;
  bool merged_any = false;
  bool merged_first_tid = false;
  size_t rows_landed = 0;
  auto apply_slice = [&](WriteBatch&& slice,
                         bool carries_inserts) -> Result<size_t> {
    size_t rows = slice.num_rows();
    while (true) {
      wire::WriteEnvelope probe;
      probe.tenant = tenant;
      probe.batch = slice;
      if (wire::EncodeWrite(probe).ok()) break;
      if (rows <= 1) {
        return Status::InvalidArgument(
            "write batch row too large for one frame");
      }
      rows = (rows + 1) / 2;
      if (carries_inserts) {
        slice.inserts.resize(rows);
      } else {
        slice.deletes.resize(rows);
      }
    }
    Result<WriteResult> ack = SendWrite(fd_, tenant, slice);
    if (!ack.ok()) {
      return Status(ack.status().code(),
                    ack.status().message() + " (partial write: " +
                        std::to_string(rows_landed) + " rows already applied)");
    }
    merged.lsn = ack.value().lsn;
    merged.epoch = ack.value().epoch;
    merged.commit_seconds += ack.value().commit_seconds;
    merged.group_size = std::max(merged.group_size, ack.value().group_size);
    merged.durable = merged_any ? (merged.durable && ack.value().durable)
                                : ack.value().durable;
    if (carries_inserts && !merged_first_tid) {
      merged.first_tid = ack.value().first_tid;
      merged_first_tid = true;
    }
    merged_any = true;
    rows_landed += rows;
    return rows;
  };

  size_t next_insert = 0;
  while (next_insert < batch.inserts.size()) {
    WriteBatch slice;
    slice.ack = batch.ack;
    slice.inserts.assign(batch.inserts.begin() + next_insert,
                         batch.inserts.end());
    Result<size_t> sent = apply_slice(std::move(slice), /*carries_inserts=*/true);
    if (!sent.ok()) return sent.status();
    next_insert += sent.value();
  }
  size_t next_delete = 0;
  while (next_delete < batch.deletes.size()) {
    WriteBatch slice;
    slice.ack = batch.ack;
    slice.deletes.assign(batch.deletes.begin() + next_delete,
                         batch.deletes.end());
    Result<size_t> sent =
        apply_slice(std::move(slice), /*carries_inserts=*/false);
    if (!sent.ok()) return sent.status();
    next_delete += sent.value();
  }
  if (!merged_any) {
    // An empty batch never reaches the slicing path (it encodes tiny), but
    // keep the contract total.
    return Status::InvalidArgument("empty write batch");
  }
  return merged;
}

}  // namespace pcube
