// Loopback end-to-end acceptance: real TCP, real concurrency.
//
// A TcpServer fronts a MonitorService over a 2-shard TMA engine. Four
// client threads run against it over loopback:
//   * 2 producers stream tuples through batched wire ingest;
//   * 2 subscribers each hold a session with registered queries and
//     long-poll their delta streams — and one of them disconnects
//     mid-run and reconnects with resume, adopting its session by label.
// Every session's delta stream must be sequence-contiguous (gap-free,
// across the reconnect), and replaying the exact cycles the service
// driver applied into a BruteForceEngine must reproduce the identical
// per-query delta streams cycle-for-cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/tma_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "tests/net/net_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;

constexpr int kDim = 2;
constexpr std::size_t kWindow = 500;
constexpr int kProducers = 2;
constexpr int kRecordsPerProducer = 600;
constexpr std::size_t kBatch = 25;

std::vector<double> ApplyDelta(std::map<RecordId, double>& view,
                               const ResultDelta& delta) {
  for (const ResultEntry& e : delta.removed) view.erase(e.id);
  for (const ResultEntry& e : delta.added) view.emplace(e.id, e.score);
  std::vector<double> scores;
  scores.reserve(view.size());
  for (const auto& [id, score] : view) scores.push_back(score);
  std::sort(scores.begin(), scores.end());
  return scores;
}

TEST(NetEndToEndTest, TcpClientsSeeGapFreeDeltasMatchingBruteForce) {
  ServiceOptions opt;
  opt.ingest.slack = 4;
  opt.drain_wait = std::chrono::milliseconds(2);
  opt.hub.buffer_capacity = 1 << 16;  // no overflow drops in this test
  GridEngineOptions grid;
  grid.dim = kDim;
  grid.window = WindowSpec::Count(kWindow);
  grid.cell_budget = 256;
  MonitorService service(std::make_unique<TmaEngine>(grid), opt);

  // Journal of the exact (cycle, batch) sequence the driver applied.
  std::mutex journal_mu;
  std::vector<std::pair<Timestamp, std::vector<Record>>> journal;
  service.SetCycleObserver(
      [&journal_mu, &journal](Timestamp ts, RecordSpan b) {
        std::lock_guard<std::mutex> lock(journal_mu);
        journal.emplace_back(ts,
                             std::vector<Record>(b.begin(), b.end()));
      });

  TcpServer server(service, testing::TestServerOptions());
  TOPKMON_ASSERT_OK(server.Start());
  const std::uint16_t port = server.port();

  // Two subscriber sessions, three queries each, registered over the
  // wire before the stream starts.
  const char* labels[2] = {"sub-a", "sub-b"};
  const auto specs = MakeRandomQueries(kDim, 6, 5, 99);
  std::vector<QuerySpec> registered;  // specs with service-assigned ids
  std::vector<std::unique_ptr<MonitorClient>> subscribers;
  for (int s = 0; s < 2; ++s) {
    auto client =
        MonitorClient::Connect("127.0.0.1", port, labels[s],
                               /*resume=*/false);
    ASSERT_TRUE(client.ok()) << client.status();
    EXPECT_FALSE((*client)->resumed());
    for (int q = 0; q < 3; ++q) {
      const QuerySpec& spec = specs[static_cast<std::size_t>(s * 3 + q)];
      const auto id = (*client)->Register(spec);
      ASSERT_TRUE(id.ok()) << id.status();
      QuerySpec with_id = spec;
      with_id.id = *id;
      registered.push_back(std::move(with_id));
    }
    subscribers.push_back(std::move(*client));
  }

  // Subscriber threads long-poll their delta streams. Subscriber 1
  // additionally drops its connection mid-run and resumes by label, at
  // the point the test picks: after the first half of the stream has
  // been applied, with the producers held until the resume completes.
  std::atomic<bool> done{false};
  std::atomic<bool> reconnect_now{false};
  std::atomic<bool> reconnect_done{false};
  std::vector<std::vector<DeltaEvent>> received(2);
  bool resumed_ok = false;
  std::vector<std::thread> threads;
  for (int s = 0; s < 2; ++s) {
    threads.emplace_back([&, s] {
      std::unique_ptr<MonitorClient> client = std::move(subscribers[s]);
      const bool reconnects = s == 1;  // only sub-b reconnects
      testing::RaiseOnExit release(reconnects ? &reconnect_done : nullptr);
      bool reconnected = false;
      while (true) {
        auto events =
            client->PollDeltas(512, std::chrono::milliseconds(20));
        ASSERT_TRUE(events.ok()) << events.status();
        received[s].insert(received[s].end(), events->begin(),
                           events->end());
        if (reconnects && !reconnected && reconnect_now.load()) {
          // Mid-run reconnect: drop the socket (session survives), come
          // back with resume, keep polling the same stream.
          client.reset();
          auto again = MonitorClient::Connect("127.0.0.1", port, labels[s],
                                              /*resume=*/true);
          ASSERT_TRUE(again.ok()) << again.status();
          resumed_ok = (*again)->resumed();
          client = std::move(*again);
          reconnected = true;
          reconnect_done.store(true);
        }
        if (events->empty() && done.load()) break;
      }
      TOPKMON_ASSERT_OK(client->Close(/*close_session=*/false));
    });
  }

  // Producers ingest concurrently over their own connections, in two
  // halves with the reconnect between them; a shared atomic clock keeps
  // timestamps globally unique.
  std::vector<std::unique_ptr<MonitorClient>> producer_clients;
  std::vector<std::unique_ptr<StreamGenerator>> gens;
  for (int p = 0; p < kProducers; ++p) {
    auto client = MonitorClient::Connect(
        "127.0.0.1", port, "prod-" + std::to_string(p), /*resume=*/false);
    ASSERT_TRUE(client.ok()) << client.status();
    producer_clients.push_back(std::move(*client));
    gens.push_back(MakeGenerator(Distribution::kIndependent, kDim,
                                 1000 + static_cast<std::uint64_t>(p)));
  }
  std::atomic<Timestamp> clock{1};
  const auto produce = [&](int records) {
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        int sent = 0;
        while (sent < records) {
          std::vector<Record> batch;
          for (std::size_t i = 0; i < kBatch && sent < records;
               ++i, ++sent) {
            batch.emplace_back(0, gens[p]->NextPoint(), clock.fetch_add(1));
          }
          const auto ack = producer_clients[p]->Ingest(std::move(batch));
          ASSERT_TRUE(ack.ok()) << ack.status();
          ASSERT_EQ(ack->rejected, 0u) << ack->first_error;
        }
      });
    }
    for (std::thread& t : producers) t.join();
  };
  const int first_half = kRecordsPerProducer / 2;
  produce(first_half);
  TOPKMON_ASSERT_OK(service.Flush());
  reconnect_now.store(true);
  testing::AwaitFlag(reconnect_done);
  produce(kRecordsPerProducer - first_half);
  for (auto& client : producer_clients) {
    TOPKMON_ASSERT_OK(client->Close(/*close_session=*/false));
  }
  TOPKMON_ASSERT_OK(service.Flush());
  done.store(true);
  for (std::thread& t : threads) t.join();
  server.Stop();
  service.Shutdown();

  EXPECT_TRUE(resumed_ok) << "reconnect did not adopt the session by label";
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.records_applied,
            static_cast<std::uint64_t>(kProducers * kRecordsPerProducer));
  EXPECT_EQ(stats.failed_cycles, 0u);
  EXPECT_EQ(stats.deltas_dropped, 0u);

  // Gap-free: every session's sequence numbers are exactly 1..n, with
  // the reconnect invisible in the stream.
  std::map<QueryId, std::vector<ResultDelta>> got;
  for (int s = 0; s < 2; ++s) {
    ASSERT_FALSE(received[s].empty()) << labels[s];
    std::uint64_t expected_seq = 1;
    for (const DeltaEvent& e : received[s]) {
      EXPECT_EQ(e.seq, expected_seq++)
          << labels[s] << " has a sequence gap";
      got[e.delta.query].push_back(e.delta);
    }
  }

  // Ground truth: replay the exact driver cycles into a brute-force
  // engine holding the same queries, and compare per-query delta
  // streams cycle-for-cycle.
  std::map<QueryId, std::vector<ResultDelta>> truth;
  BruteForceEngine brute(kDim, WindowSpec::Count(kWindow));
  brute.SetDeltaCallback(
      [&truth](const ResultDelta& d) { truth[d.query].push_back(d); });
  for (const QuerySpec& spec : registered) {
    TOPKMON_ASSERT_OK(brute.RegisterQuery(spec));
  }
  {
    std::lock_guard<std::mutex> lock(journal_mu);
    ASSERT_FALSE(journal.empty());
    for (const auto& [ts, batch] : journal) {
      TOPKMON_ASSERT_OK(brute.ProcessCycle(ts, batch));
    }
  }
  for (const QuerySpec& spec : registered) {
    const auto& got_deltas = got[spec.id];
    const auto& want_deltas = truth[spec.id];
    ASSERT_EQ(got_deltas.size(), want_deltas.size())
        << "query " << spec.id;
    std::map<RecordId, double> got_view;
    std::map<RecordId, double> want_view;
    for (std::size_t i = 0; i < got_deltas.size(); ++i) {
      EXPECT_EQ(got_deltas[i].when, want_deltas[i].when)
          << "query " << spec.id << " event " << i;
      EXPECT_EQ(ApplyDelta(got_view, got_deltas[i]),
                ApplyDelta(want_view, want_deltas[i]))
          << "query " << spec.id << " diverges at event " << i;
    }
  }
}

// A stale connection with a parked long-poll must not survive a resume:
// its poll would silently consume the session's delta events into a
// socket buffer nobody reads. Connections sharing the session without
// an outstanding poll (the producer in this test) are left alone.
TEST(NetEndToEndTest, ResumeEvictsAStaleParkedPollButNotProducers) {
  ServiceOptions opt;
  opt.ingest.slack = 0;
  opt.drain_wait = std::chrono::milliseconds(1);
  MonitorService service(
      std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(100)),
      opt);
  TcpServer server(service, testing::TestServerOptions());
  TOPKMON_ASSERT_OK(server.Start());

  auto stale = MonitorClient::Connect("127.0.0.1", server.port(), "dash",
                                      /*resume=*/false);
  ASSERT_TRUE(stale.ok()) << stale.status();
  QuerySpec spec;
  spec.k = 2;
  spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0}, 0.0);
  const auto query = (*stale)->Register(spec);
  ASSERT_TRUE(query.ok()) << query.status();
  // A producer sharing the session, with no poll outstanding.
  auto producer = MonitorClient::Connect("127.0.0.1", server.port(),
                                         "dash", /*resume=*/true);
  ASSERT_TRUE(producer.ok()) << producer.status();
  EXPECT_TRUE((*producer)->resumed());

  // Park a long-poll on the stale connection, then resume the session
  // from a fresh connection while it waits.
  Status stale_outcome;
  std::thread parked([&] {
    const auto events =
        (*stale)->PollDeltas(16, std::chrono::milliseconds(5000));
    stale_outcome = events.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto fresh = MonitorClient::Connect("127.0.0.1", server.port(), "dash",
                                      /*resume=*/true);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE((*fresh)->resumed());
  parked.join();
  EXPECT_EQ(stale_outcome.code(), StatusCode::kFailedPrecondition)
      << stale_outcome;

  // The producer connection was NOT evicted and the fresh connection —
  // not the stale one — receives the deltas its ingest triggers.
  std::vector<Record> batch;
  batch.emplace_back(0, Point{0.9, 0.9}, 1);
  const auto ack = (*producer)->Ingest(std::move(batch));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, 1u);
  TOPKMON_ASSERT_OK(service.Flush());
  const auto events =
      (*fresh)->PollDeltas(16, std::chrono::milliseconds(2000));
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_FALSE(events->empty());
  EXPECT_EQ(events->front().delta.query, *query);
  server.Stop();
  service.Shutdown();
}

// The v4 truncated flag must be server-reported truth, not a client
// guess: when the server's own max_poll_events clamp — which the client
// cannot see — is the binding cap, a cut answer still says so, and the
// flag clears once the buffer drains.
TEST(NetEndToEndTest, TruncatedPollsReportTheServerSideFlag) {
  ServiceOptions opt;
  opt.ingest.slack = 0;
  opt.drain_wait = std::chrono::milliseconds(1);
  MonitorService service(
      std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(100)),
      opt);
  NetServerOptions server_opt = testing::TestServerOptions();
  server_opt.max_poll_events = 1;  // the server clamp, invisible on the wire
  TcpServer server(service, server_opt);
  TOPKMON_ASSERT_OK(server.Start());

  auto client = MonitorClient::Connect("127.0.0.1", server.port(), "sub",
                                       /*resume=*/false);
  ASSERT_TRUE(client.ok()) << client.status();
  QuerySpec spec;
  spec.k = 2;
  spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0}, 0.0);
  const auto query = (*client)->Register(spec);
  ASSERT_TRUE(query.ok()) << query.status();

  // Four single-record cycles, each shifting the top-2: four buffered
  // delta events for the session.
  for (Timestamp ts = 1; ts <= 4; ++ts) {
    std::vector<Record> batch;
    const double coord = 0.2 * static_cast<double>(ts);
    batch.emplace_back(0, Point{coord, coord}, ts);
    const auto ack = (*client)->Ingest(std::move(batch));
    ASSERT_TRUE(ack.ok()) << ack.status();
    TOPKMON_ASSERT_OK(service.Flush());
  }

  // The client asks for 512; the server clamps at 1 and must confess
  // the cut. Draining polls stay truncated until the buffer empties.
  std::size_t total = 0;
  bool saw_truncated = false;
  for (int i = 0; i < 16; ++i) {
    const auto events =
        (*client)->PollDeltas(512, std::chrono::milliseconds(0));
    ASSERT_TRUE(events.ok()) << events.status();
    if (events->empty()) break;
    EXPECT_LE(events->size(), 1u);
    total += events->size();
    if ((*client)->deltas_truncated()) saw_truncated = true;
  }
  EXPECT_GE(total, 2u);
  EXPECT_TRUE(saw_truncated)
      << "a poll cut at the server's clamp never reported truncation";
  // The final (empty) answer proved the stream drained.
  EXPECT_FALSE((*client)->deltas_truncated());
  server.Stop();
  service.Shutdown();
}

TEST(NetEndToEndTest, CloseSessionReleasesQueriesAndForgetsTheLabel) {
  MonitorService service(
      std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(100)),
      ServiceOptions{});
  TcpServer server(service, testing::TestServerOptions());
  TOPKMON_ASSERT_OK(server.Start());

  auto client = MonitorClient::Connect("127.0.0.1", server.port(),
                                       "ephemeral", /*resume=*/true);
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_FALSE((*client)->resumed());
  QuerySpec spec;
  spec.k = 1;
  spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0}, 0.0);
  const auto id = (*client)->Register(spec);
  ASSERT_TRUE(id.ok());
  TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/true));

  // The session is gone: a resume under the same label opens fresh, and
  // the query was unregistered with it.
  auto again = MonitorClient::Connect("127.0.0.1", server.port(),
                                      "ephemeral", /*resume=*/true);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE((*again)->resumed());
  EXPECT_EQ((*again)->CurrentResult(*id).status().code(),
            StatusCode::kNotFound);
  server.Stop();
  service.Shutdown();
}

}  // namespace
}  // namespace topkmon
