#include "core/sma_engine.h"

#include <gtest/gtest.h>

#include "core/brute_force_engine.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;

GridEngineOptions SmallOptions(int dim, std::size_t n) {
  GridEngineOptions opt;
  opt.dim = dim;
  opt.window = WindowSpec::Count(n);
  opt.cell_budget = 256;
  return opt;
}

QuerySpec LinearQuery(QueryId id, int k, std::vector<double> w) {
  QuerySpec spec;
  spec.id = id;
  spec.k = k;
  spec.function = std::make_shared<LinearFunction>(std::move(w));
  return spec;
}

TEST(SmaEngineTest, NameAndDim) {
  SmaEngine engine(SmallOptions(4, 100));
  EXPECT_EQ(engine.name(), "SMA");
  EXPECT_EQ(engine.dim(), 4);
}

TEST(SmaEngineTest, SkybandAvoidsRecomputationOnExpiry) {
  // SMA's signature behavior (Figure 8(b) discussion): when the top record
  // expires, the next result is already in the skyband — no from-scratch
  // computation.
  GridEngineOptions opt = SmallOptions(2, 2);
  opt.cells_per_axis = 7;
  opt.cell_budget = 0;
  SmaEngine engine(opt);
  const std::vector<Record> batch1 = {
      Record(0, Point{0.65, 0.85}, 1),
      Record(1, Point{0.15, 0.90}, 1)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, batch1));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 1, {1.0, 2.0})));
  // Arrivals above the threshold enter the skyband even though they do not
  // (yet) win.
  const std::vector<Record> batch2 = {
      Record(2, Point{0.75, 0.85}, 2),
      Record(3, Point{0.90, 0.74}, 2)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(2, batch2));
  // Window now holds {2, 3}: top is p2 (2.45); p3 (2.38) waits in the
  // skyband. p2 expires next cycle; SMA must answer p3 without recompute.
  auto result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0].id, 2u);
  const std::vector<Record> batch3 = {Record(4, Point{0.05, 0.05}, 3)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(3, batch3));
  result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 3u);
  EXPECT_EQ(engine.stats().recomputations, 0u);
  EXPECT_GT(engine.stats().skyband_insertions, 0u);
}

TEST(SmaEngineTest, MatchesBruteForceOnRandomStream) {
  const int dim = 2;
  GridEngineOptions opt = SmallOptions(dim, 500);
  SmaEngine sma(opt);
  BruteForceEngine brute(dim, opt.window);
  const auto queries = MakeRandomQueries(dim, 8, 5, 42);
  testing::RunLockstepAgreement({&brute, &sma}, queries,
                                Distribution::kIndependent, dim, 50, 12, 30,
                                7);
}

TEST(SmaEngineTest, MatchesBruteForceOnAntiCorrelatedStream) {
  const int dim = 3;
  GridEngineOptions opt = SmallOptions(dim, 400);
  opt.cell_budget = 512;
  SmaEngine sma(opt);
  BruteForceEngine brute(dim, opt.window);
  const auto queries = MakeRandomQueries(dim, 6, 10, 13);
  testing::RunLockstepAgreement({&brute, &sma}, queries,
                                Distribution::kAntiCorrelated, dim, 40, 12,
                                25, 19);
}

TEST(SmaEngineTest, ConstrainedQueryMatchesBruteForce) {
  const int dim = 2;
  GridEngineOptions opt = SmallOptions(dim, 400);
  SmaEngine sma(opt);
  BruteForceEngine brute(dim, opt.window);
  QuerySpec q = LinearQuery(1, 4, {1.0, 2.0});
  q.constraint = Rect(Point{0.2, 0.1}, Point{0.7, 0.8});
  testing::RunLockstepAgreement({&brute, &sma}, {q},
                                Distribution::kIndependent, dim, 40, 12, 25,
                                11);
}

TEST(SmaEngineTest, TimeBasedWindowMatchesBruteForce) {
  const int dim = 2;
  GridEngineOptions opt = SmallOptions(dim, 0);
  opt.window = WindowSpec::Time(8);
  SmaEngine sma(opt);
  BruteForceEngine brute(dim, opt.window);
  const auto queries = MakeRandomQueries(dim, 5, 3, 21);
  testing::RunLockstepAgreement({&brute, &sma}, queries,
                                Distribution::kIndependent, dim, 30, 10, 25,
                                23);
}

TEST(SmaEngineTest, UnregisterClearsInfluence) {
  GridEngineOptions opt = SmallOptions(2, 200);
  SmaEngine engine(opt);
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(200, 1)));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 5, {1.0, 0.5})));
  EXPECT_GT(engine.grid().TotalInfluenceEntries(), 0u);
  TOPKMON_ASSERT_OK(engine.UnregisterQuery(1));
  EXPECT_EQ(engine.grid().TotalInfluenceEntries(), 0u);
}

TEST(SmaEngineTest, AverageSkybandSizeAtLeastK) {
  GridEngineOptions opt = SmallOptions(2, 300);
  SmaEngine engine(opt);
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 5));
  Timestamp now = 1;
  TOPKMON_ASSERT_OK(engine.ProcessCycle(now, source.NextBatch(300, now)));
  const int k = 5;
  for (const QuerySpec& q : MakeRandomQueries(2, 4, k, 31)) {
    TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  }
  for (int c = 0; c < 20; ++c) {
    ++now;
    TOPKMON_ASSERT_OK(engine.ProcessCycle(now, source.NextBatch(30, now)));
  }
  // Section 6 / Table 2: the skyband holds the k results plus few extras.
  EXPECT_GE(engine.AverageSkybandSize(), static_cast<double>(k));
  EXPECT_LT(engine.AverageSkybandSize(), 3.0 * k);
}

TEST(SmaEngineTest, MemoryExceedsNothingButIsTracked) {
  GridEngineOptions opt = SmallOptions(2, 100);
  SmaEngine engine(opt);
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 5, {1.0, 0.5})));
  EXPECT_GT(engine.Memory().TotalBytes(), 0u);
}

}  // namespace
}  // namespace topkmon
