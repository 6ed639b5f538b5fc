// Delta streams against the oracle.
//
// TMA, SMA and TSL report only the queries a cycle marked as changed;
// BruteForce recomputes and diffs every query every cycle. A change an
// engine fails to mark (or a parent it fails to report when one of its
// piecewise sub-queries changed) shows here as a per-query delta stream
// that differs from BruteForce's: every cycle's added and removed record
// ids must match, over every named workload, with plain, constrained and
// piecewise queries side by side.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/piecewise.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "tests/test_util.h"
#include "tsl/tsl_engine.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace topkmon {
namespace {

constexpr int kDim = 3;
constexpr std::size_t kWindow = 300;
constexpr QueryId kExtraIdBase = 1000000;

/// One reported change, by record id.
struct Change {
  Timestamp when = 0;
  std::set<RecordId> added;
  std::set<RecordId> removed;

  friend bool operator==(const Change& a, const Change& b) {
    return a.when == b.when && a.added == b.added && a.removed == b.removed;
  }
};

/// Each query's deltas in the order they were reported.
using DeltaLog = std::map<QueryId, std::vector<Change>>;

DeltaCallback RecordInto(DeltaLog* log) {
  return [log](ResultDelta d) {
    Change change;
    change.when = d.when;
    for (const ResultEntry& e : d.added) change.added.insert(e.id);
    for (const ResultEntry& e : d.removed) change.removed.insert(e.id);
    (*log)[d.query].push_back(std::move(change));
  };
}

/// The unit space cut into slabs along one axis, each slab with its own
/// monotone linear function. Random cut points keep stream records off
/// the piece boundaries.
std::shared_ptr<const ScoringFunction> RandomPiecewise(Rng& rng) {
  const int axis = static_cast<int>(rng.UniformInt(kDim));
  std::vector<double> cuts = {0.0, rng.Uniform(), rng.Uniform(), 1.0};
  std::sort(cuts.begin(), cuts.end());
  std::vector<MonotonePiece> pieces;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    Point lo(kDim);
    Point hi(kDim);
    for (int d = 0; d < kDim; ++d) {
      lo[d] = d == axis ? cuts[i] : 0.0;
      hi[d] = d == axis ? cuts[i + 1] : 1.0;
    }
    pieces.push_back(MonotonePiece{
        Rect(lo, hi), MakeRandomFunction(FunctionFamily::kLinear, kDim,
                                         [&rng] { return rng.Uniform(); })});
  }
  auto fn = PiecewiseFunction::Create(std::move(pieces));
  EXPECT_TRUE(fn.ok()) << fn.status().ToString();
  return *fn;
}

/// Queries beside the workload's own: plain linear, constrained (a random
/// box covering about a third of each axis) and piecewise ones.
std::vector<QuerySpec> ExtraQueries(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QuerySpec> specs;
  for (QueryId i = 0; i < 24; ++i) {
    QuerySpec spec;
    spec.id = kExtraIdBase + i;
    spec.k = 1 + static_cast<int>(rng.UniformInt(8));
    if (i % 3 == 2) {
      spec.function = RandomPiecewise(rng);
    } else {
      spec.function = MakeRandomFunction(FunctionFamily::kLinear, kDim,
                                         [&rng] { return rng.Uniform(); });
    }
    if (i % 3 == 1) {
      Point lo(kDim);
      Point hi(kDim);
      for (int d = 0; d < kDim; ++d) {
        lo[d] = rng.Uniform(0.0, 0.65);
        hi[d] = lo[d] + 0.35;
      }
      spec.constraint = Rect(lo, hi);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

void CompareWorkloadDeltaStreams(const std::string& name) {
  WorkloadOptions wopt;
  wopt.dim = kDim;
  wopt.seed = 14;
  wopt.k = 6;
  wopt.mean_batch = 20;
  wopt.num_queries = 16;
  auto workload = MakeWorkload(name, wopt);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  BruteForceEngine brute(kDim, WindowSpec::Count(kWindow));
  GridEngineOptions grid;
  grid.dim = kDim;
  grid.window = WindowSpec::Count(kWindow);
  grid.cell_budget = 216;
  TmaEngine tma(grid);
  SmaEngine sma(grid);
  TslOptions tsl_opt;
  tsl_opt.dim = kDim;
  tsl_opt.window = WindowSpec::Count(kWindow);
  TslEngine tsl(tsl_opt);
  std::vector<MonitorEngine*> engines = {&brute, &tma, &sma, &tsl};
  std::vector<DeltaLog> logs(engines.size());
  for (std::size_t e = 0; e < engines.size(); ++e) {
    engines[e]->SetDeltaCallback(RecordInto(&logs[e]));
  }

  const auto register_all = [&](const QuerySpec& spec) {
    for (MonitorEngine* e : engines) {
      TOPKMON_ASSERT_OK(e->RegisterQuery(spec));
    }
  };
  const std::vector<QuerySpec> extras = ExtraQueries(wopt.seed);
  for (std::size_t s = 0; s < 150; ++s) {
    const WorkloadStep step = (*workload)->NextStep();
    for (const QueryEvent& ev : step.query_events) {
      if (ev.kind == QueryEvent::kRegister) {
        register_all(ev.spec);
      } else {
        for (MonitorEngine* e : engines) {
          TOPKMON_ASSERT_OK(e->UnregisterQuery(ev.id));
        }
      }
    }
    // The extra queries join once the window holds records, so their
    // initial results are non-empty.
    if (s == 10) {
      for (const QuerySpec& spec : extras) register_all(spec);
    }
    for (MonitorEngine* e : engines) {
      TOPKMON_ASSERT_OK(e->ProcessCycle(step.now, step.arrivals));
    }
  }

  const DeltaLog& want = logs[0];
  ASSERT_FALSE(want.empty());
  // Skewed workloads may leave a constraint box empty; every other
  // extra query sees a result.
  for (const QuerySpec& spec : extras) {
    if (spec.constraint.has_value()) continue;
    ASSERT_GT(want.count(spec.id), 0u) << "query " << spec.id;
  }
  for (std::size_t e = 1; e < engines.size(); ++e) {
    const DeltaLog& got = logs[e];
    for (const auto& [query, changes] : want) {
      const auto it = got.find(query);
      ASSERT_NE(it, got.end())
          << engines[e]->name() << " never reported query " << query;
      ASSERT_EQ(it->second.size(), changes.size())
          << engines[e]->name() << " query " << query;
      for (std::size_t i = 0; i < changes.size(); ++i) {
        ASSERT_TRUE(it->second[i] == changes[i])
            << engines[e]->name() << " query " << query << " delta " << i
            << " (cycle " << changes[i].when << ")";
      }
    }
    EXPECT_EQ(got.size(), want.size()) << engines[e]->name();
  }
}

TEST(DeltaStreamTest, NamedWorkloadsMatchBruteForceCycleForCycle) {
  for (const WorkloadInfo& info : ListWorkloads()) {
    SCOPED_TRACE(info.name);
    CompareWorkloadDeltaStreams(info.name);
  }
}

// A callback installed after the queries registered knows none of their
// results: the next cycle must report every query's full current result,
// even though the cycle itself changes nothing.
TEST(DeltaStreamTest, LateCallbackGetsEveryFullResultOnTheNextCycle) {
  GridEngineOptions grid;
  grid.dim = kDim;
  grid.window = WindowSpec::Count(kWindow);
  grid.cell_budget = 216;
  TmaEngine tma(grid);
  SmaEngine sma(grid);
  TslOptions tsl_opt;
  tsl_opt.dim = kDim;
  tsl_opt.window = WindowSpec::Count(kWindow);
  TslEngine tsl(tsl_opt);
  BruteForceEngine brute(kDim, WindowSpec::Count(kWindow));
  const std::vector<QuerySpec> specs = ExtraQueries(7);
  for (MonitorEngine* e :
       std::vector<MonitorEngine*>{&tma, &sma, &tsl, &brute}) {
    SCOPED_TRACE(e->name());
    RecordSource source(MakeGenerator(Distribution::kIndependent, kDim, 3));
    TOPKMON_ASSERT_OK(e->ProcessCycle(1, source.NextBatch(200, 1)));
    for (const QuerySpec& spec : specs) {
      TOPKMON_ASSERT_OK(e->RegisterQuery(spec));
    }
    TOPKMON_ASSERT_OK(e->ProcessCycle(2, source.NextBatch(50, 2)));

    std::map<QueryId, ResultDelta> reported;
    e->SetDeltaCallback([&reported](ResultDelta d) {
      EXPECT_TRUE(reported.emplace(d.query, d).second)
          << "query " << d.query << " reported twice";
    });
    TOPKMON_ASSERT_OK(e->ProcessCycle(3, std::vector<Record>{}));
    ASSERT_EQ(reported.size(), specs.size());
    for (const QuerySpec& spec : specs) {
      const ResultDelta& d = reported.at(spec.id);
      EXPECT_EQ(d.when, 3);
      EXPECT_TRUE(d.removed.empty());
      const auto current = e->CurrentResult(spec.id);
      ASSERT_TRUE(current.ok());
      ASSERT_FALSE(current->empty());
      std::vector<ResultEntry> added = d.added;
      std::sort(added.begin(), added.end(), ResultOrder);
      ASSERT_EQ(added.size(), current->size()) << "query " << spec.id;
      for (std::size_t i = 0; i < added.size(); ++i) {
        EXPECT_EQ(added[i].id, (*current)[i].id);
      }
    }
    // The cycle after that reports only real changes: none here.
    reported.clear();
    TOPKMON_ASSERT_OK(e->ProcessCycle(4, std::vector<Record>{}));
    EXPECT_TRUE(reported.empty());
  }
}

}  // namespace
}  // namespace topkmon
