#include "service/monitor_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/sharded_engine.h"
#include "core/tma_engine.h"
#include "stream/generators.h"
#include "stream/record_arena.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;

constexpr int kDim = 2;
constexpr std::size_t kWindow = 500;

std::unique_ptr<MonitorEngine> MakeBrute() {
  return std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(kWindow));
}

std::unique_ptr<MonitorEngine> MakeShardedTma(int shards) {
  return std::make_unique<ShardedEngine>(shards, [] {
    GridEngineOptions opt;
    opt.dim = kDim;
    opt.window = WindowSpec::Count(kWindow);
    opt.cell_budget = 256;
    return std::unique_ptr<MonitorEngine>(new TmaEngine(opt));
  });
}

std::unique_ptr<MonitorEngine> MakeTma() {
  GridEngineOptions opt;
  opt.dim = kDim;
  opt.window = WindowSpec::Count(kWindow);
  opt.cell_budget = 256;
  return std::make_unique<TmaEngine>(opt);
}

ServiceOptions FastOptions() {
  ServiceOptions opt;
  opt.ingest.slack = 4;
  opt.drain_wait = std::chrono::milliseconds(2);
  return opt;
}

TEST(MonitorServiceTest, ClosingASessionUnregistersItsQueries) {
  MonitorService service(MakeBrute(), FastOptions());
  const auto session = service.OpenSession("client-a");
  ASSERT_TRUE(session.ok());
  const auto queries = MakeRandomQueries(kDim, 3, 5, 42);
  std::vector<QueryId> ids;
  for (const QuerySpec& q : queries) {
    const auto id = service.Register(*session, q);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  EXPECT_EQ(service.stats().active_queries, 3u);
  for (QueryId id : ids) {
    EXPECT_TRUE(service.CurrentResult(id).ok());
  }
  TOPKMON_ASSERT_OK(service.CloseSession(*session));
  for (QueryId id : ids) {
    EXPECT_EQ(service.CurrentResult(id).status().code(),
              StatusCode::kNotFound);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.active_queries, 0u);
  EXPECT_EQ(stats.open_sessions, 0u);
}

TEST(MonitorServiceTest, QuotasRejectGreedyClients) {
  ServiceOptions opt = FastOptions();
  opt.session.max_queries_per_session = 2;
  opt.session.max_k = 8;
  MonitorService service(MakeBrute(), opt);
  const SessionId session = *service.OpenSession("greedy");
  const auto queries = MakeRandomQueries(kDim, 3, 5, 7);
  ASSERT_TRUE(service.Register(session, queries[0]).ok());
  ASSERT_TRUE(service.Register(session, queries[1]).ok());
  EXPECT_EQ(service.Register(session, queries[2]).status().code(),
            StatusCode::kFailedPrecondition);
  QuerySpec big = queries[2];
  big.k = 9;
  EXPECT_EQ(service.Register(session, big).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MonitorServiceTest, OnlyTheOwningSessionMayUnregister) {
  MonitorService service(MakeBrute(), FastOptions());
  const SessionId a = *service.OpenSession("a");
  const SessionId b = *service.OpenSession("b");
  const auto queries = MakeRandomQueries(kDim, 1, 5, 11);
  const QueryId id = *service.Register(a, queries[0]);
  EXPECT_EQ(service.Unregister(b, id).code(),
            StatusCode::kFailedPrecondition);
  TOPKMON_ASSERT_OK(service.Unregister(a, id));
  EXPECT_EQ(service.Unregister(a, id).code(), StatusCode::kNotFound);
}

TEST(MonitorServiceTest, IngestValidatesTuplesAtAdmission) {
  MonitorService service(MakeBrute(), FastOptions());
  EXPECT_EQ(service.Ingest(Point{2.0, 0.5}, 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(service.TryIngest(Point{0.5}, 1).code(),
            StatusCode::kInvalidArgument);
  TOPKMON_ASSERT_OK(service.Ingest(Point{0.5, 0.5}, 1));
  TOPKMON_ASSERT_OK(service.Flush());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.records_ingested, 1u);
  EXPECT_EQ(stats.records_applied, 1u);
  EXPECT_EQ(stats.failed_cycles, 0u);
}

TEST(MonitorServiceTest, ShutdownDrainsAndIsIdempotent) {
  MonitorService service(MakeBrute(), FastOptions());
  for (Timestamp ts = 1; ts <= 100; ++ts) {
    TOPKMON_ASSERT_OK(service.Ingest(Point{0.3, 0.3}, ts));
  }
  service.Shutdown();
  service.Shutdown();  // idempotent
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.records_applied, 100u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(service.Ingest(Point{0.3, 0.3}, 101).code(),
            StatusCode::kFailedPrecondition);
}

/// Applies a delta to a materialized result and returns the sorted score
/// multiset after it — the client-side view reconstruction.
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

// The acceptance scenario: 4 producer threads ingest concurrently while 2
// sessions hold queries over a sharded TMA engine. Every session's delta
// stream must be sequence-gap-free, and replaying the exact batches the
// driver formed into a BruteForceEngine must yield the identical sequence
// of per-query result changes, cycle for cycle.
TEST(MonitorServiceTest, EndToEndDeltasMatchBruteForceGroundTruth) {
  ServiceOptions opt = FastOptions();
  opt.hub.buffer_capacity = 1 << 16;  // no overflow drops in this test
  MonitorService service(MakeShardedTma(2), opt);

  // Journal of the exact (cycle, batch) sequence the driver applied.
  std::mutex journal_mu;
  std::vector<std::pair<Timestamp, std::vector<Record>>> journal;
  service.SetCycleObserver(
      [&journal_mu, &journal](Timestamp ts, RecordSpan b) {
        std::lock_guard<std::mutex> lock(journal_mu);
        journal.emplace_back(ts,
                             std::vector<Record>(b.begin(), b.end()));
      });

  // Two sessions, three queries each, registered before the stream runs.
  const SessionId sessions[2] = {*service.OpenSession("alice"),
                                 *service.OpenSession("bob")};
  const auto specs = MakeRandomQueries(kDim, 6, 5, 99);
  std::vector<QueryId> ids;
  std::vector<QuerySpec> registered;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SessionId owner = sessions[i % 2];
    const auto id = service.Register(owner, specs[i]);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
    QuerySpec spec = specs[i];
    spec.id = *id;
    registered.push_back(std::move(spec));
  }

  // Four producers hammer the ingest queue concurrently.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 600;
  std::atomic<Timestamp> clock{1};
  Rng seed_rng(7);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    const std::uint64_t seed = seed_rng.NextUint64();
    producers.emplace_back([&service, &clock, seed] {
      auto gen = MakeGenerator(Distribution::kIndependent, kDim, seed);
      for (int i = 0; i < kPerProducer; ++i) {
        const Timestamp ts = clock.fetch_add(1);
        ASSERT_TRUE(service.Ingest(gen->NextPoint(), ts).ok());
      }
    });
  }
  for (std::thread& t : producers) t.join();
  TOPKMON_ASSERT_OK(service.Flush());
  service.Shutdown();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.records_ingested,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.records_applied, stats.records_ingested);
  EXPECT_EQ(stats.failed_cycles, 0u);
  EXPECT_GT(stats.cycles, 0u);

  // Collect every session's delta stream; sequences must be gap-free.
  std::map<QueryId, std::vector<ResultDelta>> received;
  for (const SessionId session : sessions) {
    EXPECT_EQ(service.DroppedDeltas(session), 0u);
    std::vector<DeltaEvent> events;
    service.PollDeltas(session, std::size_t(-1), &events);
    std::uint64_t expected_seq = 1;
    for (const DeltaEvent& e : events) {
      EXPECT_EQ(e.seq, expected_seq++) << "sequence gap without drops";
      received[e.delta.query].push_back(e.delta);
    }
  }

  // Ground truth: replay the journal into a brute-force engine with the
  // same queries and record its delta stream per query.
  std::map<QueryId, std::vector<ResultDelta>> truth;
  BruteForceEngine brute(kDim, WindowSpec::Count(kWindow));
  brute.SetDeltaCallback([&truth](const ResultDelta& d) {
    truth[d.query].push_back(d);
  });
  for (const QuerySpec& spec : registered) {
    TOPKMON_ASSERT_OK(brute.RegisterQuery(spec));
  }
  {
    std::lock_guard<std::mutex> lock(journal_mu);
    for (const auto& [ts, batch] : journal) {
      TOPKMON_ASSERT_OK(brute.ProcessCycle(ts, batch));
    }
  }

  // Per query: the service delivered the same number of change events,
  // at the same cycle timestamps, reconstructing the same results.
  for (QueryId id : ids) {
    const auto& got = received[id];
    const auto& want = truth[id];
    ASSERT_EQ(got.size(), want.size()) << "query " << id;
    std::map<RecordId, double> got_view;
    std::map<RecordId, double> want_view;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].when, want[i].when)
          << "query " << id << " event " << i;
      EXPECT_EQ(ApplyDelta(got_view, got[i]), ApplyDelta(want_view, want[i]))
          << "query " << id << " diverges at event " << i;
    }
    // The fully-reconstructed subscription view equals the final snapshot.
    const auto snapshot = service.CurrentResult(id);
    ASSERT_TRUE(snapshot.ok());
    std::vector<double> snapshot_scores = testing::Scores(*snapshot);
    std::sort(snapshot_scores.begin(), snapshot_scores.end());
    std::vector<double> view_scores;
    for (const auto& [rid, score] : got_view) view_scores.push_back(score);
    std::sort(view_scores.begin(), view_scores.end());
    EXPECT_EQ(view_scores, snapshot_scores);
  }
}

TEST(MonitorServiceTest, SlowSubscriberLosesHistoryNotFreshness) {
  ServiceOptions opt = FastOptions();
  opt.hub.buffer_capacity = 4;  // tiny buffer: drops are expected
  MonitorService service(MakeBrute(), opt);
  const SessionId session = *service.OpenSession("slow");
  const auto specs = MakeRandomQueries(kDim, 1, 3, 5);
  const QueryId id = *service.Register(session, specs[0]);
  auto gen = MakeGenerator(Distribution::kIndependent, kDim, 17);
  for (Timestamp ts = 1; ts <= 400; ++ts) {
    TOPKMON_ASSERT_OK(service.Ingest(gen->NextPoint(), ts));
    if (ts % 50 == 0) TOPKMON_ASSERT_OK(service.Flush());
  }
  TOPKMON_ASSERT_OK(service.Flush());
  service.Shutdown();
  std::vector<DeltaEvent> events;
  service.PollDeltas(session, std::size_t(-1), &events);
  ASSERT_LE(events.size(), 4u);
  ASSERT_FALSE(events.empty());
  const std::uint64_t dropped = service.DroppedDeltas(session);
  EXPECT_GT(dropped, 0u);
  // Sequence accounting is airtight: last seq = delivered + dropped.
  EXPECT_EQ(events.back().seq, events.size() + dropped);
  // The freshest event survived.
  EXPECT_EQ(events.back().delta.query, id);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deltas_dropped, dropped);
}

// Admits `n` fresh records stamped `ts` as one whole batch, the way the
// TCP server admits an ingest frame: they form exactly one cycle.
void IngestOneCycle(MonitorService& service, SessionId session,
                    std::size_t n, Timestamp ts, std::uint64_t seed) {
  auto gen = MakeGenerator(Distribution::kIndependent, kDim, seed);
  RecordArena& arena = service.ingest_arena();
  Record* records = arena.Allocate(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].position = gen->NextPoint();
    records[i].arrival = ts;
  }
  Status error;
  ASSERT_EQ(service.TryIngestBatch(session, records, n, &error), n)
      << error.ToString();
}

// A cycle's deltas enter the hub together: a subscriber blocked in
// WaitDeltas before the cycle wakes once and gets all of them, in
// sequence order.
TEST(MonitorServiceTest, OneWaitDeltasReturnsAWholeCycle) {
  ServiceOptions opt = FastOptions();
  opt.ingest.slack = 0;
  MonitorService service(MakeTma(), opt);
  const SessionId session = *service.OpenSession("subscriber");
  // Registered on an empty window: no initial-result deltas.
  for (const QuerySpec& q : MakeRandomQueries(kDim, 8, 3, 21)) {
    ASSERT_TRUE(service.Register(session, q).ok());
  }
  std::atomic<int> cycles{0};
  service.SetCycleObserver([&cycles](Timestamp, RecordSpan) { ++cycles; });
  std::vector<DeltaEvent> events;
  std::size_t got = 0;
  std::thread waiter([&] {
    got = service.WaitDeltas(session, 1024, std::chrono::seconds(10),
                             &events);
  });
  IngestOneCycle(service, session, 50, 1, 5);
  waiter.join();
  TOPKMON_ASSERT_OK(service.Flush());
  service.SetCycleObserver(nullptr);
  EXPECT_EQ(cycles.load(), 1);
  // 50 records into an empty window change every query's result.
  ASSERT_EQ(got, 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    EXPECT_EQ(events[i].delta.when, 1);
  }
  std::vector<DeltaEvent> rest;
  EXPECT_EQ(service.PollDeltas(session, 1024, &rest), 0u);
}

// Outside a cycle a delta is published at once: a registration's initial
// result is pollable as soon as Register returns, with no cycle between.
TEST(MonitorServiceTest, RegistrationDeltaArrivesWithoutACycle) {
  ServiceOptions opt = FastOptions();
  opt.ingest.slack = 0;
  MonitorService service(MakeTma(), opt);
  const SessionId session = *service.OpenSession("subscriber");
  IngestOneCycle(service, session, 50, 1, 9);
  TOPKMON_ASSERT_OK(service.Flush());
  const std::uint64_t cycles = service.stats().cycles;
  const auto id =
      service.Register(session, MakeRandomQueries(kDim, 1, 4, 3)[0]);
  ASSERT_TRUE(id.ok()) << id.status();
  std::vector<DeltaEvent> events;
  ASSERT_EQ(service.PollDeltas(session, 16, &events), 1u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].delta.query, *id);
  EXPECT_EQ(events[0].delta.added.size(), 4u);
  EXPECT_TRUE(events[0].delta.removed.empty());
  EXPECT_EQ(service.stats().cycles, cycles);
}

}  // namespace
}  // namespace topkmon
