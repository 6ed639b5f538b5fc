// Cluster end-to-end acceptance: 3 TCP partitions, 2 routed producers,
// 2 routed subscribers, one mid-run reconnect — and the merged per-query
// delta streams plus the final top-k must match an uninterrupted
// single-node BruteForce replay cycle-for-cycle.
//
// Determinism strategy: the workload is phase-structured. Every phase
// has ONE shared arrival timestamp, a fixed object-id set that covers
// every partition (so each partition runs a cycle at every timestamp and
// processes its expirations on schedule), and a FlushAll barrier before
// the next phase — so each partition applies exactly the phase's records
// at the phase's timestamp, and the single-node ground truth is the
// captured per-partition cycles grouped by timestamp. Time-based windows
// are required: a count-based window of the union stream cannot be
// partitioned exactly, a time-based one partitions trivially (expiry
// depends only on arrival time).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/local_cluster.h"
#include "cluster/router.h"
#include "core/brute_force_engine.h"
#include "stream/generators.h"
#include "tests/net/net_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::Scores;

constexpr int kDim = 2;
constexpr std::size_t kPartitions = 3;
constexpr Timestamp kSpan = 8;  // time-based window: plenty of expiry churn
constexpr Timestamp kPhases = 24;
constexpr int kSubscribers = 2;
constexpr int kQueriesPerSubscriber = 3;

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

/// Object ids that (a) cover every partition and (b) split between the
/// two producers so both route to all partitions every phase.
std::vector<std::vector<RecordId>> CoveringProducerIds(
    const PartitionMap& map) {
  std::vector<std::vector<RecordId>> per_producer(2);
  for (std::size_t producer = 0; producer < 2; ++producer) {
    std::vector<bool> covered(map.partitions(), false);
    std::size_t covered_count = 0;
    for (RecordId id = producer;
         (covered_count < map.partitions() ||
          per_producer[producer].size() < 6) &&
         id < 100000;
         id += 2) {
      const std::size_t owner = map.OwnerOf(id);
      if (per_producer[producer].size() >= 6 && covered[owner]) continue;
      per_producer[producer].push_back(id);
      if (!covered[owner]) {
        covered[owner] = true;
        ++covered_count;
      }
    }
  }
  return per_producer;
}

TEST(ClusterE2ETest, ScatterGatherMatchesSingleNodeBruteForce) {
  LocalClusterOptions options;
  options.partitions = kPartitions;
  options.engine_factory = [] {
    return std::unique_ptr<MonitorEngine>(
        new BruteForceEngine(kDim, WindowSpec::Time(kSpan)));
  };
  options.service.ingest.slack = 0;
  options.service.drain_wait = std::chrono::milliseconds(2);
  options.service.hub.buffer_capacity = 1 << 16;
  options.net = testing::TestServerOptions();
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  // Capture every partition's applied (cycle, batch) sequence — the raw
  // material of the single-node ground truth.
  std::mutex capture_mu;
  std::vector<std::vector<std::pair<Timestamp, std::vector<Record>>>>
      captured(kPartitions);
  for (std::size_t p = 0; p < kPartitions; ++p) {
    (*cluster)->service(p)->SetCycleObserver(
        [&capture_mu, &captured, p](Timestamp ts, RecordSpan batch) {
          std::lock_guard<std::mutex> lock(capture_mu);
          captured[p].emplace_back(
              ts, std::vector<Record>(batch.begin(), batch.end()));
        });
  }

  // Two subscriber routers register three queries each (scattered to all
  // partitions) before any data flows.
  const auto specs =
      MakeRandomQueries(kDim, kSubscribers * kQueriesPerSubscriber, 5, 77);
  std::vector<std::unique_ptr<ClusterRouter>> subs;
  std::vector<std::vector<QueryId>> sub_qids(kSubscribers);
  for (int s = 0; s < kSubscribers; ++s) {
    auto router =
        ClusterRouter::Connect((*cluster)->map(),
                               "sub-" + std::to_string(s), /*resume=*/false);
    ASSERT_TRUE(router.ok()) << router.status();
    for (int q = 0; q < kQueriesPerSubscriber; ++q) {
      const auto gid = (*router)->Register(
          specs[static_cast<std::size_t>(s * kQueriesPerSubscriber + q)]);
      ASSERT_TRUE(gid.ok()) << gid.status();
      sub_qids[s].push_back(*gid);
    }
    subs.push_back(std::move(*router));
  }

  // Subscriber threads long-poll the merged stream; subscriber 1 drops
  // and resumes its partition-1 connection mid-run, at the point the
  // test picks: after half of the phases, with ingest held until the
  // resume completes.
  std::atomic<bool> done{false};
  std::atomic<bool> reconnect_now{false};
  std::atomic<bool> reconnect_done{false};
  std::vector<std::vector<DeltaEvent>> received(kSubscribers);
  std::atomic<bool> reconnect_resumed{false};
  std::vector<std::thread> sub_threads;
  for (int s = 0; s < kSubscribers; ++s) {
    sub_threads.emplace_back([&, s] {
      ClusterRouter& router = *subs[static_cast<std::size_t>(s)];
      const bool reconnects = s == 1;  // only subscriber 1 reconnects
      testing::RaiseOnExit release(reconnects ? &reconnect_done : nullptr);
      bool reconnected = false;
      while (!done.load()) {
        auto events =
            router.PollDeltas(1024, std::chrono::milliseconds(20));
        ASSERT_TRUE(events.ok()) << events.status();
        auto& sink = received[static_cast<std::size_t>(s)];
        sink.insert(sink.end(), events->begin(), events->end());
        if (reconnects && !reconnected && reconnect_now.load()) {
          TOPKMON_ASSERT_OK(router.Reconnect(1));
          reconnect_resumed.store(router.resumed(1));
          reconnected = true;
          reconnect_done.store(true);
        }
      }
      // Input has stopped (final FlushAll done): pull the remaining
      // partition events and the final frontier, then flush the merge.
      for (int i = 0; i < 3; ++i) {
        auto events =
            router.PollDeltas(1024, std::chrono::milliseconds(20));
        ASSERT_TRUE(events.ok()) << events.status();
        auto& sink = received[static_cast<std::size_t>(s)];
        sink.insert(sink.end(), events->begin(), events->end());
      }
      EXPECT_EQ(router.deltas_as_of(), kPhases);
      const auto final_events = router.FinalizeDeltas();
      auto& sink = received[static_cast<std::size_t>(s)];
      sink.insert(sink.end(), final_events.begin(), final_events.end());
    });
  }

  // Two producer routers ingest in lockstep phases: one shared arrival
  // timestamp per phase, every partition fed, FlushAll between phases.
  std::vector<std::unique_ptr<ClusterRouter>> producers;
  for (int p = 0; p < 2; ++p) {
    auto router = ClusterRouter::Connect(
        (*cluster)->map(), "prod-" + std::to_string(p), /*resume=*/false);
    ASSERT_TRUE(router.ok()) << router.status();
    producers.push_back(std::move(*router));
  }
  const auto producer_ids = CoveringProducerIds((*cluster)->map());
  for (std::size_t p = 0; p < 2; ++p) {
    std::vector<bool> covered(kPartitions, false);
    for (RecordId id : producer_ids[p]) {
      covered[(*cluster)->map().OwnerOf(id)] = true;
    }
    for (std::size_t part = 0; part < kPartitions; ++part) {
      ASSERT_TRUE(covered[part])
          << "producer " << p << " does not reach partition " << part;
    }
  }
  std::vector<std::unique_ptr<StreamGenerator>> gens;
  gens.push_back(MakeGenerator(Distribution::kIndependent, kDim, 501));
  gens.push_back(MakeGenerator(Distribution::kIndependent, kDim, 502));
  for (Timestamp phase = 1; phase <= kPhases; ++phase) {
    std::vector<std::thread> phase_threads;
    for (std::size_t p = 0; p < 2; ++p) {
      phase_threads.emplace_back([&, p] {
        std::vector<Record> batch;
        for (RecordId id : producer_ids[p]) {
          batch.emplace_back(id, gens[p]->NextPoint(), phase);
        }
        const auto report = producers[p]->Ingest(batch);
        ASSERT_TRUE(report.ok()) << report.status();
        ASSERT_EQ(report->rejected, 0u) << report->first_error;
        ASSERT_EQ(report->accepted, producer_ids[p].size());
      });
    }
    for (std::thread& t : phase_threads) t.join();
    TOPKMON_ASSERT_OK((*cluster)->FlushAll());
    if (phase == kPhases / 2) {
      reconnect_now.store(true);
      testing::AwaitFlag(reconnect_done);
    }
  }
  done.store(true);
  for (std::thread& t : sub_threads) t.join();

  EXPECT_TRUE(reconnect_resumed.load())
      << "mid-run Reconnect did not adopt the partition session by label";

  // Ground truth: group the captured per-partition cycles by timestamp,
  // concatenate partition-major, re-identify densely, and replay into
  // one uninterrupted BruteForce engine per subscriber's query set.
  std::vector<std::pair<Timestamp, std::vector<Record>>> merged_cycles;
  {
    std::lock_guard<std::mutex> lock(capture_mu);
    RecordId next_id = 0;
    for (Timestamp ts = 1; ts <= kPhases; ++ts) {
      std::vector<Record> batch;
      for (std::size_t p = 0; p < kPartitions; ++p) {
        for (const auto& [cts, cbatch] : captured[p]) {
          if (cts != ts) continue;
          for (const Record& r : cbatch) {
            batch.emplace_back(next_id++, r.position, r.arrival);
          }
        }
      }
      ASSERT_FALSE(batch.empty()) << "no partition cycled at ts " << ts;
      merged_cycles.emplace_back(ts, std::move(batch));
    }
  }

  for (int s = 0; s < kSubscribers; ++s) {
    std::map<QueryId, std::vector<ResultDelta>> truth;
    BruteForceEngine brute(kDim, WindowSpec::Time(kSpan));
    brute.SetDeltaCallback(
        [&truth](const ResultDelta& d) { truth[d.query].push_back(d); });
    for (int q = 0; q < kQueriesPerSubscriber; ++q) {
      QuerySpec spec =
          specs[static_cast<std::size_t>(s * kQueriesPerSubscriber + q)];
      spec.id = sub_qids[s][static_cast<std::size_t>(q)];
      TOPKMON_ASSERT_OK(brute.RegisterQuery(spec));
    }
    for (const auto& [ts, batch] : merged_cycles) {
      TOPKMON_ASSERT_OK(brute.ProcessCycle(ts, batch));
    }

    // The merged stream is gap-free with router-assigned sequence.
    std::map<QueryId, std::vector<ResultDelta>> got;
    std::uint64_t expected_seq = 1;
    ASSERT_FALSE(received[s].empty());
    for (const DeltaEvent& e : received[s]) {
      EXPECT_EQ(e.seq, expected_seq++) << "subscriber " << s;
      got[e.delta.query].push_back(e.delta);
    }

    // Cycle-for-cycle: same event count, same timestamps, same evolving
    // score vectors (ids are namespaced on one side, dense on the other,
    // so comparison is score-based — ties are measure-zero with random
    // continuous scores).
    for (int q = 0; q < kQueriesPerSubscriber; ++q) {
      const QueryId qid = sub_qids[s][static_cast<std::size_t>(q)];
      const auto& got_deltas = got[qid];
      const auto& want_deltas = truth[qid];
      ASSERT_EQ(got_deltas.size(), want_deltas.size())
          << "subscriber " << s << " query " << qid;
      std::map<RecordId, double> got_view;
      std::map<RecordId, double> want_view;
      for (std::size_t i = 0; i < got_deltas.size(); ++i) {
        EXPECT_EQ(got_deltas[i].when, want_deltas[i].when)
            << "subscriber " << s << " query " << qid << " event " << i;
        EXPECT_EQ(ApplyDelta(got_view, got_deltas[i]),
                  ApplyDelta(want_view, want_deltas[i]))
            << "subscriber " << s << " query " << qid
            << " diverges at event " << i;
      }

      // Final state, three ways: the delta-built view, the router's
      // scatter-gather snapshot, and the truth engine agree.
      const auto snapshot = subs[static_cast<std::size_t>(s)]
                                ->CurrentResult(qid);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status();
      EXPECT_EQ(subs[static_cast<std::size_t>(s)]->snapshot_as_of(),
                kPhases);
      const auto want_final = brute.CurrentResult(qid);
      ASSERT_TRUE(want_final.ok()) << want_final.status();
      EXPECT_EQ(Scores(*snapshot), Scores(*want_final))
          << "subscriber " << s << " query " << qid;
      std::vector<double> view_scores;
      for (const auto& [id, score] : got_view) {
        view_scores.push_back(score);
      }
      std::sort(view_scores.begin(), view_scores.end());
      auto final_scores = Scores(*want_final);
      std::sort(final_scores.begin(), final_scores.end());
      EXPECT_EQ(view_scores, final_scores)
          << "subscriber " << s << " query " << qid
          << ": delta stream and final snapshot disagree";
    }
  }

  for (auto& sub : subs) TOPKMON_EXPECT_OK(sub->Close());
  for (auto& prod : producers) TOPKMON_EXPECT_OK(prod->Close());
  (*cluster)->Stop();
}

}  // namespace
}  // namespace topkmon
