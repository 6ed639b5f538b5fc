#include "service/subscription_hub.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace topkmon {
namespace {

ResultDelta MakeDelta(QueryId query, Timestamp when, RecordId added_id) {
  ResultDelta d;
  d.query = query;
  d.when = when;
  d.added.push_back(ResultEntry{added_id, 0.5});
  return d;
}

TEST(SubscriptionHubTest, SequenceNumbersAreContiguousPerSession) {
  SubscriptionHub hub(HubOptions{});
  hub.Attach(1);
  hub.Attach(2);
  TOPKMON_ASSERT_OK(hub.Bind(10, 1));
  TOPKMON_ASSERT_OK(hub.Bind(20, 2));
  for (Timestamp t = 1; t <= 5; ++t) hub.Publish(MakeDelta(10, t, t));
  for (Timestamp t = 1; t <= 3; ++t) hub.Publish(MakeDelta(20, t, t));

  std::vector<DeltaEvent> events;
  EXPECT_EQ(hub.Poll(1, 100, &events), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);  // gap-free, starts at 1
    EXPECT_EQ(events[i].delta.query, 10u);
  }
  events.clear();
  EXPECT_EQ(hub.Poll(2, 100, &events), 3u);
  EXPECT_EQ(events.back().seq, 3u);
}

TEST(SubscriptionHubTest, OverflowDropsOldestAndAccountsForIt) {
  HubOptions opt;
  opt.buffer_capacity = 3;
  SubscriptionHub hub(opt);
  hub.Attach(1);
  TOPKMON_ASSERT_OK(hub.Bind(10, 1));
  for (Timestamp t = 1; t <= 5; ++t) hub.Publish(MakeDelta(10, t, t));

  EXPECT_EQ(hub.Dropped(1), 2u);
  EXPECT_EQ(hub.stats().dropped, 2u);
  std::vector<DeltaEvent> events;
  ASSERT_EQ(hub.Poll(1, 100, &events), 3u);
  // The two oldest were dropped: the survivors are seq 3..5, so the
  // consumer sees the gap (first seq != 1) and the drop counter agrees.
  EXPECT_EQ(events[0].seq, 3u);
  EXPECT_EQ(events[1].seq, 4u);
  EXPECT_EQ(events[2].seq, 5u);
  EXPECT_EQ(events[0].delta.when, 3);  // freshness kept, history lost
}

TEST(SubscriptionHubTest, UnboundQueriesAreCountedNotDelivered) {
  SubscriptionHub hub(HubOptions{});
  hub.Attach(1);
  hub.Publish(MakeDelta(10, 1, 1));  // never bound
  EXPECT_EQ(hub.stats().unrouted, 1u);
  EXPECT_EQ(hub.Depth(1), 0u);
  TOPKMON_ASSERT_OK(hub.Bind(10, 1));
  hub.Publish(MakeDelta(10, 2, 2));
  hub.Unbind(10);
  hub.Publish(MakeDelta(10, 3, 3));
  EXPECT_EQ(hub.Depth(1), 1u);  // only the delta published while bound
  EXPECT_EQ(hub.stats().unrouted, 2u);
}

TEST(SubscriptionHubTest, BindRequiresAttachedSessionAndUniqueQuery) {
  SubscriptionHub hub(HubOptions{});
  EXPECT_EQ(hub.Bind(10, 1).code(), StatusCode::kNotFound);
  hub.Attach(1);
  hub.Attach(2);
  TOPKMON_ASSERT_OK(hub.Bind(10, 1));
  EXPECT_EQ(hub.Bind(10, 2).code(), StatusCode::kAlreadyExists);
}

TEST(SubscriptionHubTest, DetachDiscardsBufferAndRoutes) {
  SubscriptionHub hub(HubOptions{});
  hub.Attach(1);
  TOPKMON_ASSERT_OK(hub.Bind(10, 1));
  hub.Publish(MakeDelta(10, 1, 1));
  hub.Detach(1);
  EXPECT_EQ(hub.Depth(1), 0u);
  hub.Publish(MakeDelta(10, 2, 2));  // route died with the session
  EXPECT_EQ(hub.stats().unrouted, 1u);
  std::vector<DeltaEvent> events;
  EXPECT_EQ(hub.Poll(1, 100, &events), 0u);
}

TEST(SubscriptionHubTest, WaitPollWakesOnPublish) {
  SubscriptionHub hub(HubOptions{});
  hub.Attach(1);
  TOPKMON_ASSERT_OK(hub.Bind(10, 1));
  std::vector<DeltaEvent> events;
  std::thread publisher([&hub] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    hub.Publish(MakeDelta(10, 1, 1));
  });
  const std::size_t n =
      hub.WaitPoll(1, 10, std::chrono::milliseconds(2000), &events);
  publisher.join();
  EXPECT_EQ(n, 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].delta.query, 10u);
}

// A cycle's deltas enter together: a poller blocked before the cycle
// wakes once and finds the whole cycle, in sequence order, with one
// publish instant for all of it.
TEST(SubscriptionHubTest, PublishCycleDeliversTheWholeCycleToOneWait) {
  SubscriptionHub hub(HubOptions{});
  hub.Attach(1);
  hub.Attach(2);
  TOPKMON_ASSERT_OK(hub.Bind(10, 1));
  TOPKMON_ASSERT_OK(hub.Bind(11, 1));
  TOPKMON_ASSERT_OK(hub.Bind(20, 2));
  std::vector<ResultDelta> cycle;
  for (RecordId r = 1; r <= 3; ++r) {
    cycle.push_back(MakeDelta(10, 5, r));
    cycle.push_back(MakeDelta(11, 5, r));
    cycle.push_back(MakeDelta(20, 5, r));
  }
  cycle.push_back(MakeDelta(99, 5, 1));  // unbound: counted, not buffered
  std::vector<DeltaEvent> events;
  std::size_t n = 0;
  std::thread waiter([&] {
    n = hub.WaitPoll(1, 100, std::chrono::milliseconds(5000), &events);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  hub.PublishCycle(&cycle);
  waiter.join();
  EXPECT_TRUE(cycle.empty());
  ASSERT_EQ(n, 6u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    EXPECT_EQ(events[i].delta.query, i % 2 == 0 ? 10u : 11u);
    EXPECT_EQ(events[i].delta.added[0].id, i / 2 + 1);
  }
  events.clear();
  EXPECT_EQ(hub.Poll(2, 100, &events), 3u);
  const HubStats stats = hub.stats();
  EXPECT_EQ(stats.published, 10u);
  EXPECT_EQ(stats.unrouted, 1u);
}

// One lock acquisition per cycle: a poller racing the publisher sees
// whole cycles or nothing, never part of one.
TEST(SubscriptionHubTest, PollersNeverSeePartOfACycle) {
  constexpr std::size_t kCycles = 400;
  constexpr std::size_t kPerCycle = 256;
  HubOptions options;
  options.buffer_capacity = kCycles * kPerCycle;
  SubscriptionHub hub(options);
  hub.Attach(1);
  TOPKMON_ASSERT_OK(hub.Bind(10, 1));
  std::atomic<bool> published{false};
  std::size_t polled = 0;
  std::thread poller([&] {
    std::vector<DeltaEvent> events;
    bool last = false;
    while (!last) {
      last = published.load();
      events.clear();
      const std::size_t n = hub.Poll(1, kCycles * kPerCycle, &events);
      EXPECT_EQ(n % kPerCycle, 0u) << "a poll split a cycle";
      polled += n;
    }
  });
  for (std::size_t c = 0; c < kCycles; ++c) {
    std::vector<ResultDelta> cycle;
    for (std::size_t i = 0; i < kPerCycle; ++i) {
      cycle.push_back(MakeDelta(10, static_cast<Timestamp>(c), i));
    }
    hub.PublishCycle(&cycle);
  }
  published.store(true);
  poller.join();
  EXPECT_EQ(polled, kCycles * kPerCycle);
}

TEST(SubscriptionHubTest, WaitPollTimesOutEmpty) {
  SubscriptionHub hub(HubOptions{});
  hub.Attach(1);
  std::vector<DeltaEvent> events;
  EXPECT_EQ(hub.WaitPoll(1, 10, std::chrono::milliseconds(10), &events),
            0u);
  EXPECT_TRUE(events.empty());
}

}  // namespace
}  // namespace topkmon
