// Pins the engine-internal piecewise decomposition: TMA, SMA and TSL
// must answer piecewise-monotone queries cycle-for-cycle identically to
// BruteForce, including records landing exactly on piece boundaries and
// timestamps landing exactly on the window's expiry edge. All coordinates, weights and biases in the
// pinned cases are dyadic so the per-piece linear scores are bitwise
// equal across engines (the merge dedup relies on that).
//
// The PiecewiseGrid prefix is load-bearing: CI's TSan matrix includes
// PiecewiseGrid* in its gtest filter.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/piecewise.h"
#include "core/piecewise_router.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "tests/test_util.h"
#include "tsl/tsl_engine.h"

namespace topkmon {
namespace {

GridEngineOptions GridOptions(std::size_t window) {
  GridEngineOptions opt;
  opt.dim = 2;
  opt.window = WindowSpec::Count(window);
  opt.cell_budget = 256;
  return opt;
}

/// Every engine under test plus the BruteForce oracle (index 0).
struct EngineSet {
  std::vector<std::unique_ptr<MonitorEngine>> owned;
  std::vector<MonitorEngine*> all;  ///< [0] is BruteForce
};

EngineSet MakeEngines(const WindowSpec& window, std::size_t count_window) {
  EngineSet set;
  set.owned.push_back(std::make_unique<BruteForceEngine>(2, window));
  GridEngineOptions grid = GridOptions(count_window);
  grid.window = window;
  set.owned.push_back(std::make_unique<TmaEngine>(grid));
  set.owned.push_back(std::make_unique<SmaEngine>(grid));
  TslOptions tsl;
  tsl.dim = 2;
  tsl.window = window;
  set.owned.push_back(std::make_unique<TslEngine>(tsl));
  for (auto& e : set.owned) set.all.push_back(e.get());
  return set;
}

/// The ridge f(p) = x2 - |x1 - 0.5| as two monotone pieces. All dyadic.
std::shared_ptr<const ScoringFunction> RidgeFunction() {
  std::vector<MonotonePiece> pieces;
  pieces.push_back(MonotonePiece{
      Rect(Point{0.0, 0.0}, Point{0.5, 1.0}),
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0},
                                       -0.5)});
  pieces.push_back(MonotonePiece{
      Rect(Point{0.5, 0.0}, Point{1.0, 1.0}),
      std::make_shared<LinearFunction>(std::vector<double>{-1.0, 1.0},
                                       0.5)});
  auto fn = PiecewiseFunction::Create(std::move(pieces));
  EXPECT_TRUE(fn.ok());
  return *fn;
}

/// A partial cover: only the center box [0.25, 0.75]^2 is ranked;
/// records outside it are unrankable and must never be reported.
std::shared_ptr<const ScoringFunction> CenterOnlyFunction() {
  std::vector<MonotonePiece> pieces;
  pieces.push_back(MonotonePiece{
      Rect(Point{0.25, 0.25}, Point{0.75, 0.75}),
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0})});
  auto fn = PiecewiseFunction::Create(std::move(pieces));
  EXPECT_TRUE(fn.ok());
  return *fn;
}

QuerySpec PiecewiseSpec(QueryId id, int k,
                        std::shared_ptr<const ScoringFunction> fn) {
  QuerySpec spec;
  spec.id = id;
  spec.k = k;
  spec.function = std::move(fn);
  return spec;
}

void ExpectAllAgree(const EngineSet& set, QueryId id, Timestamp now) {
  const auto want = set.all[0]->CurrentResult(id);
  ASSERT_TRUE(want.ok());
  for (std::size_t i = 1; i < set.all.size(); ++i) {
    const auto got = set.all[i]->CurrentResult(id);
    ASSERT_TRUE(got.ok()) << set.all[i]->name();
    EXPECT_EQ(testing::Scores(*got), testing::Scores(*want))
        << set.all[i]->name() << " vs BruteForce, query " << id << " t="
        << now;
  }
}

TEST(PiecewiseGridTest, AllEnginesMatchBruteForceOnRandomStream) {
  EngineSet set = MakeEngines(WindowSpec::Count(200), 200);
  const QuerySpec ridge = PiecewiseSpec(1, 5, RidgeFunction());
  const QuerySpec center = PiecewiseSpec(2, 4, CenterOnlyFunction());
  for (MonitorEngine* e : set.all) {
    TOPKMON_ASSERT_OK(e->RegisterQuery(ridge));
    TOPKMON_ASSERT_OK(e->RegisterQuery(center));
  }
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 91));
  for (Timestamp now = 1; now <= 25; ++now) {
    const std::vector<Record> batch = source.NextBatch(30, now);
    for (MonitorEngine* e : set.all) {
      TOPKMON_ASSERT_OK(e->ProcessCycle(now, batch));
    }
    ExpectAllAgree(set, 1, now);
    ExpectAllAgree(set, 2, now);
  }
}

TEST(PiecewiseGridTest, PieceBoundaryRecordsPinnedBitwise) {
  // Records exactly on the ridge x1 = 0.5 belong to both pieces; the
  // merge must report each once with the exact dyadic score.
  EngineSet set = MakeEngines(WindowSpec::Count(100), 100);
  const QuerySpec spec = PiecewiseSpec(7, 4, RidgeFunction());
  for (MonitorEngine* e : set.all) {
    TOPKMON_ASSERT_OK(e->RegisterQuery(spec));
  }
  const std::vector<Record> batch = {
      Record(1, Point{0.5, 0.875}, 1),   // on the ridge: score 0.875
      Record(2, Point{0.5, 0.75}, 1),    // on the ridge: score 0.75
      Record(3, Point{0.25, 0.875}, 1),  // left piece: score 0.625
      Record(4, Point{0.75, 0.5}, 1),    // right piece: score 0.25
      Record(5, Point{0.0, 0.125}, 1),   // left edge: score -0.375
  };
  for (MonitorEngine* e : set.all) {
    TOPKMON_ASSERT_OK(e->ProcessCycle(1, batch));
    const auto result = e->CurrentResult(7);
    ASSERT_TRUE(result.ok()) << e->name();
    ASSERT_EQ(result->size(), 4u) << e->name();
    EXPECT_EQ((*result)[0].id, 1u) << e->name();
    EXPECT_EQ((*result)[1].id, 2u) << e->name();
    EXPECT_EQ((*result)[2].id, 3u) << e->name();
    EXPECT_EQ((*result)[3].id, 4u) << e->name();
    // Dyadic inputs: the scores are exact, not just near.
    EXPECT_EQ((*result)[0].score, 0.875) << e->name();
    EXPECT_EQ((*result)[1].score, 0.75) << e->name();
    EXPECT_EQ((*result)[2].score, 0.625) << e->name();
    EXPECT_EQ((*result)[3].score, 0.25) << e->name();
  }
}

TEST(PiecewiseGridTest, ExpiryEdgeTimestampsStayExact) {
  // Time-based window: a boundary record arriving at t expires exactly
  // at the window edge. Drive cycles across that edge and require
  // cycle-for-cycle agreement while ridge records drop out.
  const WindowSpec window = WindowSpec::Time(4);
  EngineSet set = MakeEngines(window, 64);
  const QuerySpec spec = PiecewiseSpec(3, 3, RidgeFunction());
  for (MonitorEngine* e : set.all) {
    TOPKMON_ASSERT_OK(e->RegisterQuery(spec));
  }
  RecordId next_id = 1;
  for (Timestamp now = 1; now <= 12; ++now) {
    std::vector<Record> batch;
    // One ridge record and one per-piece record each cycle, on dyadic
    // lattice points that drift with the cycle.
    const double y = static_cast<double>(now % 8) / 8.0;
    batch.push_back(Record(next_id++, Point{0.5, y}, now));
    batch.push_back(Record(next_id++, Point{0.25, 1.0 - y}, now));
    batch.push_back(Record(next_id++, Point{0.75, y}, now));
    for (MonitorEngine* e : set.all) {
      TOPKMON_ASSERT_OK(e->ProcessCycle(now, batch));
    }
    ExpectAllAgree(set, 3, now);
  }
}

TEST(PiecewiseGridTest, TinyKmaxSlackForcesRefillsAndStaysExact) {
  // kmax == k is TSL's worst case: every expiry of a result record in
  // any piece forces a view refill through the constrained TA.
  TslOptions opt;
  opt.dim = 2;
  opt.window = WindowSpec::Count(80);
  opt.kmax_override = 3;
  TslEngine tsl(opt);
  BruteForceEngine brute(2, opt.window);
  const QuerySpec spec = PiecewiseSpec(1, 3, RidgeFunction());
  TOPKMON_ASSERT_OK(tsl.RegisterQuery(spec));
  TOPKMON_ASSERT_OK(brute.RegisterQuery(spec));
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 5));
  for (Timestamp now = 1; now <= 20; ++now) {
    const std::vector<Record> batch = source.NextBatch(20, now);
    TOPKMON_ASSERT_OK(tsl.ProcessCycle(now, batch));
    TOPKMON_ASSERT_OK(brute.ProcessCycle(now, batch));
    const auto want = brute.CurrentResult(1);
    const auto got = tsl.CurrentResult(1);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(testing::Scores(*got), testing::Scores(*want)) << now;
  }
  EXPECT_GT(tsl.stats().view_refills, 0u);
}

TEST(PiecewiseGridTest, MidStreamRegisterAndUnregisterLeaveNoResidue) {
  EngineSet set = MakeEngines(WindowSpec::Count(150), 150);
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 13));
  Timestamp now = 0;
  auto cycle = [&] {
    ++now;
    const std::vector<Record> batch = source.NextBatch(25, now);
    for (MonitorEngine* e : set.all) {
      TOPKMON_ASSERT_OK(e->ProcessCycle(now, batch));
    }
  };
  for (int c = 0; c < 6; ++c) cycle();
  const QuerySpec spec = PiecewiseSpec(9, 4, RidgeFunction());
  for (MonitorEngine* e : set.all) {
    TOPKMON_ASSERT_OK(e->RegisterQuery(spec));
  }
  ExpectAllAgree(set, 9, now);  // initial computation over the window
  for (int c = 0; c < 6; ++c) {
    cycle();
    ExpectAllAgree(set, 9, now);
  }
  for (MonitorEngine* e : set.all) {
    TOPKMON_ASSERT_OK(e->UnregisterQuery(9));
    EXPECT_EQ(e->CurrentResult(9).status().code(), StatusCode::kNotFound)
        << e->name();
    // The internal sub-queries are invisible: the reserved range reads
    // as NotFound, before and after the parent existed.
    EXPECT_EQ(e->CurrentResult(kInternalQueryIdBase).status().code(),
              StatusCode::kNotFound)
        << e->name();
    // Re-registration under the same id works (full cleanup happened).
    TOPKMON_ASSERT_OK(e->RegisterQuery(spec));
    TOPKMON_ASSERT_OK(e->UnregisterQuery(9));
  }
}

TEST(PiecewiseGridTest, ReservedIdRangeRefusedEverywhere) {
  EngineSet set = MakeEngines(WindowSpec::Count(50), 50);
  QuerySpec spec = PiecewiseSpec(kInternalQueryIdBase, 3, RidgeFunction());
  for (MonitorEngine* e : set.all) {
    EXPECT_EQ(e->RegisterQuery(spec).code(), StatusCode::kInvalidArgument)
        << e->name();
  }
}

TEST(PiecewiseGridTest, DeltasReportParentIdsOnly) {
  for (int kind = 0; kind < 3; ++kind) {
    std::unique_ptr<MonitorEngine> engine;
    if (kind == 0) {
      engine = std::make_unique<TmaEngine>(GridOptions(120));
    } else if (kind == 1) {
      engine = std::make_unique<SmaEngine>(GridOptions(120));
    } else {
      TslOptions opt;
      opt.dim = 2;
      opt.window = WindowSpec::Count(120);
      engine = std::make_unique<TslEngine>(opt);
    }
    std::set<QueryId> reported;
    engine->SetDeltaCallback(
        [&reported](const ResultDelta& d) { reported.insert(d.query); });
    TOPKMON_ASSERT_OK(
        engine->RegisterQuery(PiecewiseSpec(5, 3, RidgeFunction())));
    RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 29));
    for (Timestamp now = 1; now <= 8; ++now) {
      TOPKMON_ASSERT_OK(engine->ProcessCycle(now, source.NextBatch(30, now)));
    }
    EXPECT_EQ(reported.size(), 1u) << engine->name();
    EXPECT_TRUE(reported.count(5)) << engine->name();
  }
}

}  // namespace
}  // namespace topkmon
