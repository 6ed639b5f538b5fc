#include "tsl/tsl_engine.h"

#include <gtest/gtest.h>

#include "core/brute_force_engine.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;

TslOptions SmallOptions(int dim, std::size_t n) {
  TslOptions opt;
  opt.dim = dim;
  opt.window = WindowSpec::Count(n);
  return opt;
}

QuerySpec LinearQuery(QueryId id, int k, std::vector<double> w) {
  QuerySpec spec;
  spec.id = id;
  spec.k = k;
  spec.function = std::make_shared<LinearFunction>(std::move(w));
  return spec;
}

TEST(TslEngineTest, ConstrainedQueriesMatchBruteForce) {
  // Constraint support landed with the piecewise decomposition (PR 7):
  // probes skip out-of-region records and the TA refill filters at
  // resolve time. Pin against BruteForce on a churning stream.
  const WindowSpec window = WindowSpec::Count(120);
  TslEngine engine(SmallOptions(2, 120));
  BruteForceEngine brute(2, window);
  QuerySpec q = LinearQuery(1, 4, {1.0, 1.0});
  q.constraint = Rect(Point({0.2, 0.3}), Point({0.7, 0.9}));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  TOPKMON_ASSERT_OK(brute.RegisterQuery(q));
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 17));
  for (Timestamp now = 1; now <= 8; ++now) {
    const std::vector<Record> batch = source.NextBatch(40, now);
    TOPKMON_ASSERT_OK(engine.ProcessCycle(now, batch));
    TOPKMON_ASSERT_OK(brute.ProcessCycle(now, batch));
    const auto got = engine.CurrentResult(1);
    const auto want = brute.CurrentResult(1);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(testing::Scores(*got), testing::Scores(*want)) << now;
  }
}

TEST(TslEngineTest, InitialComputationUsesTa) {
  TslEngine engine(SmallOptions(2, 100));
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(100, 1)));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 5, {1.0, 2.0})));
  EXPECT_GT(engine.total_sorted_accesses(), 0u);
  EXPECT_GT(engine.total_random_accesses(), 0u);
  const auto result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 5u);
}

TEST(TslEngineTest, MatchesBruteForceOnRandomStream) {
  const int dim = 2;
  TslOptions opt = SmallOptions(dim, 400);
  TslEngine tsl(opt);
  BruteForceEngine brute(dim, opt.window);
  const auto queries = MakeRandomQueries(dim, 6, 5, 42);
  testing::RunLockstepAgreement({&brute, &tsl}, queries,
                                Distribution::kIndependent, dim, 40, 12, 30,
                                7);
}

TEST(TslEngineTest, MatchesBruteForceWithTinyKmaxSlack) {
  // kmax == k forces a refill on nearly every expiry of a result record —
  // the worst case for TSL but a strong correctness probe.
  const int dim = 2;
  TslOptions opt = SmallOptions(dim, 200);
  opt.kmax_override = 3;
  TslEngine tsl(opt);
  BruteForceEngine brute(dim, opt.window);
  const auto queries = MakeRandomQueries(dim, 5, 3, 19);
  testing::RunLockstepAgreement({&brute, &tsl}, queries,
                                Distribution::kIndependent, dim, 25, 10, 30,
                                3);
  EXPECT_GT(tsl.stats().view_refills, 0u);
}

TEST(TslEngineTest, TimeBasedWindowMatchesBruteForce) {
  const int dim = 3;
  TslOptions opt;
  opt.dim = dim;
  opt.window = WindowSpec::Time(6);
  TslEngine tsl(opt);
  BruteForceEngine brute(dim, opt.window);
  const auto queries = MakeRandomQueries(dim, 4, 4, 29);
  testing::RunLockstepAgreement({&brute, &tsl}, queries,
                                Distribution::kIndependent, dim, 30, 8, 20,
                                31);
}

TEST(TslEngineTest, AverageViewSizeWithinBounds) {
  TslOptions opt = SmallOptions(2, 300);
  TslEngine engine(opt);
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 5));
  Timestamp now = 1;
  TOPKMON_ASSERT_OK(engine.ProcessCycle(now, source.NextBatch(300, now)));
  const int k = 10;
  for (const QuerySpec& q : MakeRandomQueries(2, 4, k, 31)) {
    TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  }
  for (int c = 0; c < 15; ++c) {
    ++now;
    TOPKMON_ASSERT_OK(engine.ProcessCycle(now, source.NextBatch(30, now)));
  }
  EXPECT_GE(engine.AverageViewSize(), static_cast<double>(k));
  EXPECT_LE(engine.AverageViewSize(), static_cast<double>(DefaultKmax(k)));
}

TEST(TslEngineTest, MemoryIncludesSortedLists) {
  TslOptions opt = SmallOptions(2, 100);
  TslEngine engine(opt);
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(100, 1)));
  const MemoryBreakdown mb = engine.Memory();
  EXPECT_GT(mb.Bytes("sorted_lists"), 0u);
  EXPECT_GT(mb.Bytes("window"), 0u);
}

TEST(TslEngineTest, StatsScoreEveryArrivalPerQuery) {
  TslOptions opt = SmallOptions(2, 1000);
  TslEngine engine(opt);
  for (const QuerySpec& q : MakeRandomQueries(2, 5, 2, 31)) {
    TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  }
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(100, 1)));
  // TSL has no influence regions: every arrival is scored for all 5
  // queries (expirations: none yet).
  EXPECT_GE(engine.stats().points_scored, 500u);
}

}  // namespace
}  // namespace topkmon
