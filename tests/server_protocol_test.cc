// The wire codec under hostile input (DESIGN.md §14.1): round-trips for
// every frame kind, then the defensive half — truncations at every byte
// boundary, deterministic bit flips, pure garbage, cap violations, and a
// live server fed raw malformed bytes over a socket. Decoders must return
// a non-OK Status for damage and NEVER crash, read out of bounds, or reach
// the PCUBE_CHECK aborts inside ranking.h. Runs under ASan and UBSan via
// scripts/ci.sh (labels `asan;ubsan`).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

using wire::FrameHeader;
using wire::FrameType;
using wire::QueryEnvelope;

QueryEnvelope SkylineEnvelope() {
  QueryEnvelope e;
  e.tenant = "team-a.prod_1";
  SkylineQueryOptions options;
  options.pref_dims = {0, 2};
  options.origin = {0.25f, -1.5f, 3.0f};
  options.skyband_k = 4;
  e.request = QueryRequest::Skyline(PredicateSet{{0, 3}, {2, 7}}, options);
  e.request.deadline_ms = 1500;
  return e;
}

std::vector<QueryEnvelope> AllEnvelopes() {
  std::vector<QueryEnvelope> all;
  all.push_back(SkylineEnvelope());

  QueryEnvelope linear;
  linear.tenant = "";
  linear.request = QueryRequest::TopK(
      PredicateSet{{1, 9}},
      std::make_shared<LinearRanking>(std::vector<double>{1.0, -2.5}), 10);
  all.push_back(std::move(linear));

  QueryEnvelope wl2;
  wl2.tenant = "w";
  wl2.request = QueryRequest::TopK(
      PredicateSet{},
      std::make_shared<WeightedL2Ranking>(std::vector<double>{15000, 30000},
                                          std::vector<double>{1.0, 0.5}),
      3);
  wl2.request.deadline_ms = 1;
  all.push_back(std::move(wl2));

  QueryEnvelope mink;
  mink.tenant = "minkowski-tenant";
  mink.request = QueryRequest::TopK(
      PredicateSet{{0, 1}, {1, 2}, {2, 3}},
      std::make_shared<MinkowskiRanking>(std::vector<double>{0.5},
                                         std::vector<double>{2.0}, 3.0),
      1000);
  all.push_back(std::move(mink));
  return all;
}

std::string MustEncode(const QueryEnvelope& e) {
  Result<std::string> payload = wire::EncodeQuery(e);
  EXPECT_TRUE(payload.ok()) << payload.status().ToString();
  return payload.ok() ? payload.value() : std::string();
}

TEST(ServerProtocolTest, QueryRoundTripsExactly) {
  for (const QueryEnvelope& e : AllEnvelopes()) {
    const std::string payload = MustEncode(e);
    QueryEnvelope decoded;
    Status s = wire::DecodeQuery(
        reinterpret_cast<const uint8_t*>(payload.data()), payload.size(),
        &decoded);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(decoded.tenant, e.tenant);
    EXPECT_EQ(decoded.request.kind, e.request.kind);
    EXPECT_EQ(decoded.request.deadline_ms, e.request.deadline_ms);
    EXPECT_EQ(decoded.request.preds, e.request.preds);
    // Canonical() covers skyline options / ranking / k bit-exactly.
    EXPECT_EQ(decoded.request.Canonical(), e.request.Canonical());
    EXPECT_EQ(decoded.request.skyline.pref_dims, e.request.skyline.pref_dims);
  }
}

TEST(ServerProtocolTest, FrameHeaderRoundTripAndDamage) {
  std::string frame;
  wire::AppendFrame(FrameType::kQuery, std::string(17, 'x'), &frame);
  ASSERT_EQ(frame.size(), wire::kHeaderBytes + 17);
  FrameHeader h;
  ASSERT_TRUE(wire::ParseFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()), &h)
                  .ok());
  EXPECT_EQ(h.type, FrameType::kQuery);
  EXPECT_EQ(h.payload_len, 17u);

  // Each kind of header damage must be rejected.
  auto damaged = [&frame](size_t at, uint8_t value) {
    std::string copy = frame;
    copy[at] = static_cast<char>(value);
    FrameHeader out;
    return wire::ParseFrameHeader(
        reinterpret_cast<const uint8_t*>(copy.data()), &out);
  };
  EXPECT_FALSE(damaged(0, 0xFF).ok());  // magic
  EXPECT_FALSE(damaged(4, 99).ok());    // version
  EXPECT_FALSE(damaged(5, 0).ok());     // frame type below range
  EXPECT_FALSE(damaged(5, 200).ok());   // frame type above range
  EXPECT_FALSE(damaged(6, 1).ok());     // reserved bytes
  EXPECT_FALSE(damaged(11, 0xFF).ok()); // payload_len > 1 MiB
}

TEST(ServerProtocolTest, ResultFramesRoundTrip) {
  wire::ResultHeader rh;
  rh.trace_id = 77;
  rh.result_count = 5;
  rh.has_scores = true;
  rh.plan = 1;
  rh.cache = 3;
  rh.degraded = true;
  rh.seconds = 0.125;
  rh.queue_wait_seconds = 0.5;
  rh.io_reads = 42;
  rh.counters.heap_peak = 9;
  rh.counters.sig_seconds = 0.25;
  const std::string payload = wire::EncodeResultHeader(rh);
  wire::ResultHeader out;
  ASSERT_TRUE(wire::DecodeResultHeader(
                  reinterpret_cast<const uint8_t*>(payload.data()),
                  payload.size(), &out)
                  .ok());
  EXPECT_EQ(out.trace_id, 77u);
  EXPECT_EQ(out.result_count, 5u);
  EXPECT_TRUE(out.has_scores);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.io_reads, 42u);
  EXPECT_EQ(out.counters.heap_peak, 9u);
  EXPECT_DOUBLE_EQ(out.counters.sig_seconds, 0.25);

  const std::vector<TupleId> tids = {1, 5, 9, 200, 4096};
  const std::vector<double> scores = {0.1, 0.2, 0.3, 0.4, 0.5};
  const std::string chunk = wire::EncodeResultChunk(tids, scores, 1, 3);
  std::vector<TupleId> got_tids;
  std::vector<double> got_scores;
  ASSERT_TRUE(wire::DecodeResultChunk(
                  reinterpret_cast<const uint8_t*>(chunk.data()), chunk.size(),
                  /*has_scores=*/true, &got_tids, &got_scores)
                  .ok());
  EXPECT_EQ(got_tids, (std::vector<TupleId>{5, 9, 200}));
  EXPECT_EQ(got_scores, (std::vector<double>{0.2, 0.3, 0.4}));

  // A chunk whose score flag contradicts the stream header is corruption.
  EXPECT_FALSE(wire::DecodeResultChunk(
                   reinterpret_cast<const uint8_t*>(chunk.data()),
                   chunk.size(), /*has_scores=*/false, &got_tids, &got_scores)
                   .ok());
}

TEST(ServerProtocolTest, ErrorFrameCarriesStatus) {
  const Status in = Status::ResourceExhausted("queue full");
  const std::string payload = wire::EncodeError(in);
  Status out = wire::DecodeError(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  EXPECT_TRUE(out.IsResourceExhausted());
  EXPECT_EQ(out.message(), "queue full");

  // Oversized messages are truncated to the wire cap, not rejected.
  Status big = Status::Timeout(std::string(5000, 'm'));
  const std::string truncated = wire::EncodeError(big);
  Status back = wire::DecodeError(
      reinterpret_cast<const uint8_t*>(truncated.data()), truncated.size());
  EXPECT_TRUE(back.IsTimeout());
  EXPECT_EQ(back.message().size(), wire::kMaxErrorBytes);
}

TEST(ServerProtocolTest, CapViolationsAreRejected) {
  {
    QueryEnvelope e = SkylineEnvelope();
    e.tenant = std::string(wire::kMaxTenantBytes + 1, 'a');
    EXPECT_FALSE(wire::EncodeQuery(e).ok());
    e.tenant = "bad tenant!";  // charset
    EXPECT_FALSE(wire::EncodeQuery(e).ok());
  }
  {
    QueryEnvelope e = SkylineEnvelope();
    for (int d = 0; d < 70; ++d) {
      e.request.preds.Add({d, 1u});
    }
    EXPECT_FALSE(wire::EncodeQuery(e).ok());
  }
  {
    QueryEnvelope e = SkylineEnvelope();
    e.request.skyline.skyband_k = 0;
    EXPECT_FALSE(wire::EncodeQuery(e).ok());
    e.request.skyline.skyband_k = wire::kMaxSkybandK + 1;
    EXPECT_FALSE(wire::EncodeQuery(e).ok());
  }
  {
    QueryEnvelope e;
    e.request = QueryRequest::TopK(
        PredicateSet{},
        std::make_shared<LinearRanking>(std::vector<double>{1.0}), 0);
    EXPECT_FALSE(wire::EncodeQuery(e).ok());
    e.request.k = wire::kMaxK + 1;
    EXPECT_FALSE(wire::EncodeQuery(e).ok());
  }
}

// Builds a payload byte-by-byte so hostile values the encoder refuses to
// produce (negative wl2 weights, NaN, sub-1 minkowski p) still reach the
// decoder — those checks guard the ranking.h constructor aborts.
std::string HostileTopK(uint8_t rank_kind, double first_param) {
  std::string p;
  auto u8 = [&p](uint8_t v) { p.push_back(static_cast<char>(v)); };
  auto le = [&p](auto v) {
    char buf[sizeof(v)];
    std::memcpy(buf, &v, sizeof(v));
    p.append(buf, sizeof(v));
  };
  u8(0);               // tenant len
  u8(1);               // kind = topk
  le(uint64_t{0});     // deadline
  le(uint16_t{0});     // npreds
  le(uint64_t{5});     // k
  u8(rank_kind);
  le(uint16_t{1});     // ndims
  if (rank_kind == 3) le(first_param);  // minkowski p
  le(double{1.0});     // target (wl2/mink) or weights (linear)
  if (rank_kind != 1) le(first_param == first_param ? -1.0 : first_param);
  return p;
}

TEST(ServerProtocolTest, HostileRankingParametersNeverReachConstructors) {
  // Negative wl2 weight (would PCUBE_CHECK-abort in WeightedL2Ranking).
  std::string negative = HostileTopK(2, 1.0);
  QueryEnvelope out;
  EXPECT_FALSE(wire::DecodeQuery(
                   reinterpret_cast<const uint8_t*>(negative.data()),
                   negative.size(), &out)
                   .ok());
  // Minkowski p < 1 (would PCUBE_CHECK-abort in MinkowskiRanking).
  std::string small_p = HostileTopK(3, 0.25);
  EXPECT_FALSE(wire::DecodeQuery(
                   reinterpret_cast<const uint8_t*>(small_p.data()),
                   small_p.size(), &out)
                   .ok());
  // NaN parameter anywhere is rejected before any construction.
  std::string nan_p = HostileTopK(3, std::nan(""));
  EXPECT_FALSE(wire::DecodeQuery(
                   reinterpret_cast<const uint8_t*>(nan_p.data()),
                   nan_p.size(), &out)
                   .ok());
}

TEST(ServerProtocolTest, TruncationsNeverCrash) {
  for (const QueryEnvelope& e : AllEnvelopes()) {
    const std::string payload = MustEncode(e);
    for (size_t len = 0; len < payload.size(); ++len) {
      QueryEnvelope out;
      Status s = wire::DecodeQuery(
          reinterpret_cast<const uint8_t*>(payload.data()), len, &out);
      EXPECT_FALSE(s.ok()) << "truncation to " << len << " decoded";
    }
  }
  wire::ResultHeader rh;
  rh.result_count = 2;
  const std::string header = wire::EncodeResultHeader(rh);
  for (size_t len = 0; len < header.size(); ++len) {
    wire::ResultHeader out;
    EXPECT_FALSE(wire::DecodeResultHeader(
                     reinterpret_cast<const uint8_t*>(header.data()), len,
                     &out)
                     .ok());
  }
}

TEST(ServerProtocolTest, BitFlipsAndGarbageNeverCrash) {
  std::mt19937_64 rng(20260808);
  for (const QueryEnvelope& e : AllEnvelopes()) {
    const std::string payload = MustEncode(e);
    // Single-bit flips at every position: decode may succeed (a flipped
    // value bit can stay in range) but must never crash or abort.
    for (size_t byte = 0; byte < payload.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string copy = payload;
        copy[byte] = static_cast<char>(copy[byte] ^ (1 << bit));
        QueryEnvelope out;
        // Fuzzing for crashes, not outcomes: any Status is acceptable.
        wire::DecodeQuery(reinterpret_cast<const uint8_t*>(copy.data()),
                          copy.size(), &out)
            .IgnoreError();
      }
    }
  }
  // Pure garbage payloads of random lengths against every decoder.
  for (int round = 0; round < 2000; ++round) {
    std::string garbage(rng() % 200, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(garbage.data());
    // Each decoder just has to survive the garbage; the (expected)
    // error Statuses carry no information worth asserting on.
    QueryEnvelope q;
    wire::DecodeQuery(bytes, garbage.size(), &q).IgnoreError();  // fuzz only
    wire::ResultHeader rh;
    // fuzz only: outcome irrelevant
    wire::DecodeResultHeader(bytes, garbage.size(), &rh).IgnoreError();
    std::vector<TupleId> tids;
    std::vector<double> scores;
    // fuzz only: outcome irrelevant
    wire::DecodeResultChunk(bytes, garbage.size(), true, &tids, &scores)
        .IgnoreError();
    wire::DecodeError(bytes, garbage.size()).IgnoreError();  // fuzz only
    if (garbage.size() >= wire::kHeaderBytes) {
      FrameHeader h;
      // fuzz only: outcome irrelevant
      wire::ParseFrameHeader(bytes, &h).IgnoreError();
    }
  }
}

// ---- Socket-level: a live server fed malformed bytes ---------------------

class ServerSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.num_tuples = 400;
    config.num_bool = 2;
    config.num_pref = 2;
    config.bool_cardinality = 4;
    config.seed = 11;
    auto built = Workbench::Build(GenerateSynthetic(config), {});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    wb_ = std::move(*built);
    ServerOptions options;
    options.workers = 2;
    server_ = std::make_unique<PCubeServer>(wb_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_.reset();
    wb_.reset();
  }

  Result<QueryResponse> RunOne() {
    auto client = PCubeClient::Connect("127.0.0.1", server_->port());
    if (!client.ok()) return client.status();
    return (*client)->Run(QueryRequest::Skyline(PredicateSet{{0, 1}}),
                          "test");
  }

  std::unique_ptr<Workbench> wb_;
  std::unique_ptr<PCubeServer> server_;
};

/// Connects a raw TCP socket to 127.0.0.1:port (no protocol layer).
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(ServerSocketTest, GarbageHeaderGetsErrorFrameAndServerSurvives) {
  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  std::string garbage(64, '\0');
  std::mt19937_64 rng(7);
  for (char& c : garbage) c = static_cast<char>(rng());
  garbage[0] = 'X';  // guarantee the magic check fails
  ASSERT_TRUE(wire::WriteAll(fd, garbage.data(), garbage.size()).ok());
  // The server answers one corruption error frame and closes.
  wire::FrameHeader h;
  std::string payload;
  Status s = wire::ReadFrame(fd, &h, &payload);
  if (s.ok()) {
    EXPECT_EQ(h.type, FrameType::kError);
    Status reported = wire::DecodeError(
        reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
    EXPECT_TRUE(reported.IsCorruption()) << reported.ToString();
  }
  ::close(fd);

  // The live server must still answer clean queries afterwards.
  auto after = RunOne();
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST_F(ServerSocketTest, OversizedFrameIsRejectedBeforeAllocation) {
  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  // Valid magic/version/type but a payload length far beyond the cap; the
  // server must reject from the 12 header bytes without ever allocating or
  // reading the announced 256 MiB.
  std::string header;
  wire::AppendFrame(FrameType::kQuery, std::string(), &header);
  const uint32_t huge = 256u << 20;
  std::memcpy(header.data() + 8, &huge, sizeof(huge));
  ASSERT_TRUE(wire::WriteAll(fd, header.data(), header.size()).ok());
  wire::FrameHeader h;
  std::string payload;
  Status s = wire::ReadFrame(fd, &h, &payload);
  if (s.ok()) {
    EXPECT_EQ(h.type, FrameType::kError);
  }
  ::close(fd);
  auto after = RunOne();
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST_F(ServerSocketTest, MalformedPayloadKeepsConnectionServing) {
  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  // A correctly framed query whose payload is garbage: the stream stays
  // synchronized, so the server answers an error frame and the SAME
  // connection must then serve a valid query.
  std::string bad_payload(40, '\x5A');
  ASSERT_TRUE(wire::WriteFrame(fd, FrameType::kQuery, bad_payload).ok());
  wire::FrameHeader h;
  std::string payload;
  ASSERT_TRUE(wire::ReadFrame(fd, &h, &payload).ok());
  ASSERT_EQ(h.type, FrameType::kError);

  wire::QueryEnvelope good;
  good.tenant = "t";
  good.request = QueryRequest::Skyline(PredicateSet{{0, 1}});
  Result<std::string> encoded = wire::EncodeQuery(good);
  ASSERT_TRUE(encoded.ok());
  ASSERT_TRUE(wire::WriteFrame(fd, FrameType::kQuery, encoded.value()).ok());
  ASSERT_TRUE(wire::ReadFrame(fd, &h, &payload).ok());
  EXPECT_EQ(h.type, FrameType::kResultHeader);
  // Drain the stream so the close is clean.
  while (h.type != FrameType::kDone && h.type != FrameType::kError) {
    ASSERT_TRUE(wire::ReadFrame(fd, &h, &payload).ok());
  }
  ::close(fd);
}

TEST_F(ServerSocketTest, ClientAndServerAnswerMatchesDirectRun) {
  QueryRequest q = QueryRequest::Skyline(PredicateSet{{0, 2}});
  auto direct = wb_->RunShared(q);
  ASSERT_TRUE(direct.ok());
  auto client = PCubeClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  PCubeClient::ServerStats stats;
  auto remote = (*client)->Run(q, "tenant-x", &stats);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->tids, direct->tids);
  EXPECT_EQ(remote->scores, direct->scores);
  EXPECT_GT(stats.trace_id, 0u);
}

}  // namespace
}  // namespace pcube
