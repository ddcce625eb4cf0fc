// The admission controller and the live server under sustained overload
// (DESIGN.md §14.2-14.3). Unit tests pin each admission gate — tenant
// token bucket, queue capacity, projected wait — and the queue-time
// deadline shrink; the soak test then drives a real server over loopback
// with more closed-loop clients than workers (offered load ~2x what the
// executor can sustain) and asserts the robustness contract:
//   * the admitted backlog stays bounded by queue_cap at every instant,
//   * load IS shed (nonzero ResourceExhausted answers),
//   * every admitted answer is byte-identical to a direct RunShared,
//   * no crashes, no stuck threads, clean shutdown.
// Runs under TSan via scripts/ci.sh (label `tsan`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "server/admission.h"
#include "server/client.h"
#include "server/server.h"
#include "workbench/workbench.h"

namespace pcube {
namespace {

// ---- AdmissionController unit tests --------------------------------------

TEST(AdmissionControllerTest, QueueCapacityGate) {
  MetricsRegistry registry;
  AdmissionOptions options;
  options.queue_cap = 3;
  AdmissionController ac(options, &registry);
  AdmissionController::Ticket t;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ac.Admit("a", 0, &t).ok());
  }
  Status shed = ac.Admit("a", 0, &t);
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  EXPECT_EQ(ac.in_flight(), 3u);
  ac.Finish(/*executed=*/true, 0.01);
  EXPECT_TRUE(ac.Admit("a", 0, &t).ok());
  EXPECT_EQ(ac.in_flight_peak(), 3u);
  EXPECT_EQ(
      registry.GetCounter("pcube_server_shed_total{reason=\"queue_full\"}")
          ->Value(),
      1u);
}

TEST(AdmissionControllerTest, TenantTokenBucket) {
  MetricsRegistry registry;
  AdmissionOptions options;
  options.queue_cap = 1000;
  options.tenant_rate = 1;  // 1 request/second...
  options.tenant_burst = 3; // ...after a burst of 3
  AdmissionController ac(options, &registry);
  AdmissionController::Ticket t;
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (ac.Admit("spammer", 0, &t).ok()) ++admitted;
  }
  // The burst drains and then refill is ~0 within this loop's microseconds.
  EXPECT_EQ(admitted, 3);
  // An unrelated tenant has its own full bucket.
  EXPECT_TRUE(ac.Admit("quiet", 0, &t).ok());
  EXPECT_GE(
      registry.GetCounter("pcube_server_shed_total{reason=\"quota\"}")->Value(),
      7u);
  // Per-tenant request accounting counted every attempt.
  EXPECT_EQ(
      registry.GetCounter("pcube_server_requests_total{tenant=\"spammer\"}")
          ->Value(),
      10u);
}

TEST(AdmissionControllerTest, ProjectedWaitShedsPredictableMisses) {
  MetricsRegistry registry;
  AdmissionOptions options;
  options.queue_cap = 1000;
  options.workers = 1;
  AdmissionController ac(options, &registry);
  AdmissionController::Ticket t;

  // Seed the EWMA: one completed 50 ms execution.
  ASSERT_TRUE(ac.Admit("a", 0, &t).ok());
  uint64_t remaining = 0;
  double wait = 0;
  ASSERT_TRUE(ac.StartExecution(t, 0, &remaining, &wait).ok());
  ac.Finish(/*executed=*/true, 0.05);
  EXPECT_NEAR(ac.ewma_exec_seconds(), 0.05, 1e-9);

  // Build a backlog of 10 admitted requests (deadline-less, never shed).
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ac.Admit("a", 0, &t).ok());
  }
  // 10 ahead x 50 ms each / 1 worker = 500 ms projected wait: a 100 ms
  // deadline is a predictable miss and must be shed NOW...
  Status shed = ac.Admit("a", 100, &t);
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  // ...while a 2 s deadline clears the projection and is admitted.
  EXPECT_TRUE(ac.Admit("a", 2000, &t).ok());
  EXPECT_EQ(
      registry
          .GetCounter("pcube_server_shed_total{reason=\"projected_wait\"}")
          ->Value(),
      1u);
}

TEST(AdmissionControllerTest, QueueWaitShrinksTheDeadlineBudget) {
  MetricsRegistry registry;
  AdmissionController ac({}, &registry);
  AdmissionController::Ticket t;
  ASSERT_TRUE(ac.Admit("a", 500, &t).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  uint64_t remaining = 0;
  double wait = 0;
  ASSERT_TRUE(ac.StartExecution(t, 500, &remaining, &wait).ok());
  // ~30 ms queued: the execution budget must have shrunk by the wait.
  EXPECT_LT(remaining, 500u);
  EXPECT_GE(remaining, 300u);  // generous slack for slow CI
  EXPECT_GT(wait, 0.02);
  ac.Finish(/*executed=*/true, 0.001);

  // A budget consumed entirely in the queue is a Timeout, not a shed: the
  // work was admitted, started, and its clock ran out (DESIGN.md §14.3).
  ASSERT_TRUE(ac.Admit("a", 10, &t).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  Status timed_out = ac.StartExecution(t, 10, &remaining, &wait);
  EXPECT_TRUE(timed_out.IsTimeout()) << timed_out.ToString();
  EXPECT_EQ(ac.in_flight(), 0u);  // the slot was released
}

TEST(AdmissionControllerTest, ZeroDeadlineIsNeverShedByProjection) {
  MetricsRegistry registry;
  AdmissionOptions options;
  options.queue_cap = 50;
  options.workers = 1;
  AdmissionController ac(options, &registry);
  AdmissionController::Ticket t;
  ASSERT_TRUE(ac.Admit("a", 0, &t).ok());
  uint64_t remaining = 99;
  double wait = 0;
  ASSERT_TRUE(ac.StartExecution(t, 0, &remaining, &wait).ok());
  EXPECT_EQ(remaining, 0u);  // 0 stays 0 = unlimited
  ac.Finish(/*executed=*/true, 10.0);  // huge EWMA
  for (int i = 0; i < 49; ++i) {
    ASSERT_TRUE(ac.Admit("a", 0, &t).ok()) << i;  // projection never fires
  }
}

// ---- Live-server soak at ~2x sustainable load ----------------------------

class ServerOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    // Millisecond-scale queries: with microsecond execution the closed-loop
    // clients below would rarely overlap inside the admission window and
    // the queue would never actually fill.
    config.num_tuples = 60000;
    config.num_bool = 3;
    config.num_pref = 2;
    config.bool_cardinality = 6;
    config.seed = 99;
    WorkbenchOptions wo;
    wo.result_cache_mb = 0;  // every request executes: real, steady load
    auto built = Workbench::Build(GenerateSynthetic(config), wo);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    wb_ = std::move(*built);
  }

  std::vector<QueryRequest> Workload() {
    auto linear =
        std::make_shared<LinearRanking>(std::vector<double>{1.0, 0.5});
    std::vector<QueryRequest> queries;
    for (uint32_t v = 0; v < 6; ++v) {
      queries.push_back(QueryRequest::Skyline(PredicateSet{{0, v}}));
      queries.push_back(QueryRequest::TopK(PredicateSet{{1, v}}, linear, 8));
    }
    return queries;
  }

  std::unique_ptr<Workbench> wb_;
};

TEST_F(ServerOverloadTest, ShedsUnderOverloadAdmittedAnswersStayExact) {
  ServerOptions options;
  options.workers = 2;
  options.admission.queue_cap = 4;
  PCubeServer server(wb_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<QueryRequest> queries = Workload();
  std::vector<QueryResponse> expected;
  for (const QueryRequest& q : queries) {
    auto resp = wb_->RunShared(q);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    expected.push_back(std::move(*resp));
  }

  // 10 closed-loop clients against 2 workers and a queue of 4: offered
  // concurrency is 2.5x the cap, so admissions MUST be shed while the
  // backlog stays inside the cap at every instant.
  constexpr int kClients = 10;
  constexpr int kItersPerClient = 40;
  std::atomic<int> ok_count{0}, shed_count{0}, timeout_count{0};
  std::atomic<int> mismatches{0}, hard_failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = PCubeClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        hard_failures.fetch_add(1);
        return;
      }
      const std::string tenant = c % 2 == 0 ? "even" : "odd";
      for (int i = 0; i < kItersPerClient; ++i) {
        const size_t q = (c * 7 + i) % queries.size();
        auto resp = (*client)->Run(queries[q], tenant);
        if (resp.ok()) {
          ok_count.fetch_add(1);
          if (resp->tids != expected[q].tids ||
              resp->scores != expected[q].scores) {
            mismatches.fetch_add(1);
          }
        } else if (resp.status().IsResourceExhausted()) {
          shed_count.fetch_add(1);
        } else if (resp.status().IsTimeout()) {
          timeout_count.fetch_add(1);
        } else {
          hard_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_GT(shed_count.load(), 0) << "overload never shed: admission inert?";
  // The bounded queue is the whole point: the backlog never exceeded cap.
  EXPECT_LE(server.admission().in_flight_peak(), options.admission.queue_cap);
  server.Stop();
  EXPECT_EQ(server.admission().in_flight(), 0u);
}

TEST_F(ServerOverloadTest, TenantQuotaIsolatesTheNoisyNeighbor) {
  ServerOptions options;
  options.workers = 2;
  options.admission.queue_cap = 64;
  options.admission.tenant_rate = 2;
  options.admission.tenant_burst = 2;
  PCubeServer server(wb_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  const QueryRequest q = QueryRequest::Skyline(PredicateSet{{0, 1}});
  auto spammer = PCubeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(spammer.ok());
  int spammer_ok = 0, spammer_shed = 0;
  for (int i = 0; i < 10; ++i) {
    auto resp = (*spammer)->Run(q, "noisy");
    if (resp.ok()) {
      ++spammer_ok;
    } else if (resp.status().IsResourceExhausted()) {
      ++spammer_shed;
    }
  }
  EXPECT_GT(spammer_shed, 0) << "quota never engaged";
  EXPECT_GT(spammer_ok, 0) << "burst should admit the first requests";

  // The well-behaved tenant is untouched by the neighbor's quota state.
  auto quiet = PCubeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(quiet.ok());
  auto resp = (*quiet)->Run(q, "quiet");
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  server.Stop();
}

TEST(ServerDeadlineTest, QueueTimeCountsAgainstTheDeadline) {
  // A millisecond-scale dataset (so execution, and thus queue wait, is
  // comfortably larger than the tight deadline below), one worker, and four
  // closed-loop hog connections keeping a multi-millisecond backlog in
  // front of it. A client whose whole budget is 1 ms must then see its
  // budget die before or during execution: Timeout (admitted but the queue
  // ate the clock) or ResourceExhausted (projected-wait shed once the EWMA
  // is seeded) — never a full-budget execution.
  SyntheticConfig config;
  config.num_tuples = 120000;
  config.num_bool = 3;
  config.num_pref = 2;
  config.bool_cardinality = 6;
  config.seed = 99;
  WorkbenchOptions wo;
  wo.result_cache_mb = 0;
  auto built = Workbench::Build(GenerateSynthetic(config), wo);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<Workbench> wb = std::move(*built);

  ServerOptions options;
  options.workers = 1;
  options.admission.queue_cap = 16;
  PCubeServer server(wb.get(), options);
  ASSERT_TRUE(server.Start().ok());

  const QueryRequest slow = QueryRequest::Skyline(PredicateSet{{0, 1}});
  std::atomic<int> hard_failures{0};
  std::atomic<int> deadline_outcomes{0};  // Timeout or ResourceExhausted
  std::atomic<bool> stop{false};
  std::vector<std::thread> hogs;
  for (int h = 0; h < 4; ++h) {
    hogs.emplace_back([&] {
      auto client = PCubeClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        hard_failures.fetch_add(1);
        return;
      }
      while (!stop.load(std::memory_order_relaxed)) {
        auto resp = (*client)->Run(slow, "hog");
        if (!resp.ok() && !resp.status().IsResourceExhausted() &&
            !resp.status().IsTimeout()) {
          hard_failures.fetch_add(1);
          return;
        }
      }
    });
  }
  std::thread hurried([&] {
    auto client = PCubeClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      hard_failures.fetch_add(1);
      stop.store(true);
      return;
    }
    for (int i = 0; i < 200 && !stop.load(); ++i) {
      QueryRequest q = slow;
      q.deadline_ms = 1;  // far below the backlog in front of the worker
      auto resp = (*client)->Run(q, "hurried");
      if (!resp.ok()) {
        if (resp.status().IsTimeout() ||
            resp.status().IsResourceExhausted()) {
          deadline_outcomes.fetch_add(1);
          break;  // contract observed; wind the soak down
        }
        hard_failures.fetch_add(1);
        break;
      }
    }
    stop.store(true);
  });
  hurried.join();
  for (std::thread& t : hogs) t.join();
  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_GT(deadline_outcomes.load(), 0)
      << "queue wait never charged against the deadline";
  server.Stop();
}

}  // namespace
}  // namespace pcube
