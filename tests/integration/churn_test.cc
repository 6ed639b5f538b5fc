// Chaos test: random interleaving of query registration, termination,
// re-registration of a just-terminated id (with and without a cycle in
// between), empty cycles, bursty cycles, constrained queries and
// piecewise-monotone parents across all engines, over a count-based and
// a time-based window, checked against the brute-force oracle after
// every operation.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>

#include "core/brute_force_engine.h"
#include "core/piecewise.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "tests/test_util.h"
#include "tsl/tsl_engine.h"
#include "util/rng.h"

namespace topkmon {
namespace {

constexpr int kDim = 3;

class Churn {
 public:
  Churn(std::uint64_t seed, const WindowSpec& window)
      : brute_(kDim, window),
        tma_(GridOptions(window)),
        sma_(GridOptions(window)),
        tsl_(TslOptions{kDim, window, 0}),
        engines_{&brute_, &tma_, &sma_, &tsl_},  // [0] is the oracle
        rng_(seed),
        source_(MakeGenerator(Distribution::kIndependent, kDim, seed)) {}

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const int action = static_cast<int>(rng_.UniformInt(12));
      if (action < 5) {
        Cycle();
      } else if (action < 8) {
        // Unconstrained, constrained or piecewise.
        Register(next_query_++, action - 5);
      } else if (live_.empty()) {
        Cycle();
      } else {
        const QueryId id = RandomLive();
        Unregister(id);
        if (action == 9) {
          Register(id, static_cast<int>(rng_.UniformInt(3)));
        } else if (action == 10) {
          Cycle();
          Register(id, static_cast<int>(rng_.UniformInt(3)));
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Influence lists must be fully reclaimed after terminating everything.
    while (!live_.empty() && !::testing::Test::HasFatalFailure()) {
      Unregister(*live_.begin());
    }
    EXPECT_EQ(tma_.grid().TotalInfluenceEntries(), 0u);
    EXPECT_EQ(sma_.grid().TotalInfluenceEntries(), 0u);
  }

 private:
  static GridEngineOptions GridOptions(const WindowSpec& window) {
    GridEngineOptions opt;
    opt.dim = kDim;
    opt.window = window;
    opt.cell_budget = 343;
    return opt;
  }

  /// A normal cycle with a random burst size (possibly 0: a pure expiry
  /// step).
  void Cycle() {
    ++now_;
    const std::vector<Record> batch =
        source_.NextBatch(rng_.UniformInt(60), now_);
    for (MonitorEngine* e : engines_) {
      TOPKMON_ASSERT_OK(e->ProcessCycle(now_, batch));
    }
    CheckAll();
  }

  /// Registers `id` on every engine: kind 0 is an unconstrained linear
  /// query, 1 a constrained one, 2 a piecewise parent (constrained half
  /// the time).
  void Register(QueryId id, int kind) {
    const QuerySpec q = MakeQuery(id, kind);
    for (MonitorEngine* e : engines_) {
      TOPKMON_ASSERT_OK(e->RegisterQuery(q));
    }
    live_.insert(id);
    CheckAll();
  }

  void Unregister(QueryId id) {
    for (MonitorEngine* e : engines_) {
      TOPKMON_ASSERT_OK(e->UnregisterQuery(id));
      EXPECT_EQ(e->CurrentResult(id).status().code(), StatusCode::kNotFound)
          << e->name();
    }
    live_.erase(id);
    CheckAll();
  }

  QueryId RandomLive() {
    return *std::next(live_.begin(),
                      static_cast<long>(rng_.UniformInt(live_.size())));
  }

  std::vector<double> RandomWeights() {
    std::vector<double> w(kDim);
    for (double& x : w) x = rng_.Uniform();
    return w;
  }

  Rect RandomRect() {
    Point lo(kDim);
    Point hi(kDim);
    for (int i = 0; i < kDim; ++i) {
      const double a = rng_.Uniform();
      const double b = rng_.Uniform();
      lo[i] = std::min(a, b);
      hi[i] = std::max(a, b);
    }
    return Rect(lo, hi);
  }

  /// f(p) = w.p - s * |p[axis] - cut| as two monotone pieces split at
  /// `cut`; they agree on the shared boundary, as the merge requires.
  std::shared_ptr<const ScoringFunction> RandomPiecewise() {
    const std::vector<double> w = RandomWeights();
    const int axis = static_cast<int>(rng_.UniformInt(kDim));
    const double cut = 0.2 + 0.6 * rng_.Uniform();
    const double s = 0.5 + rng_.Uniform();
    std::vector<double> below = w;
    std::vector<double> above = w;
    below[axis] += s;
    above[axis] -= s;
    Point lo(kDim);
    Point hi(kDim);
    for (int i = 0; i < kDim; ++i) hi[i] = 1.0;
    Point mid_lo = lo;
    Point mid_hi = hi;
    mid_lo[axis] = cut;
    mid_hi[axis] = cut;
    std::vector<MonotonePiece> pieces;
    pieces.push_back(MonotonePiece{
        Rect(lo, mid_hi), std::make_shared<LinearFunction>(below, -s * cut)});
    pieces.push_back(MonotonePiece{
        Rect(mid_lo, hi), std::make_shared<LinearFunction>(above, s * cut)});
    auto fn = PiecewiseFunction::Create(std::move(pieces));
    EXPECT_TRUE(fn.ok());
    return *fn;
  }

  QuerySpec MakeQuery(QueryId id, int kind) {
    QuerySpec q;
    q.id = id;
    q.k = 1 + static_cast<int>(rng_.UniformInt(10));
    if (kind == 2) {
      q.function = RandomPiecewise();
      if (rng_.UniformInt(2) == 0) q.constraint = RandomRect();
    } else {
      q.function = std::make_shared<LinearFunction>(RandomWeights());
      if (kind == 1) q.constraint = RandomRect();
    }
    return q;
  }

  void CheckAll() {
    for (QueryId id : live_) {
      const auto want = brute_.CurrentResult(id);
      ASSERT_TRUE(want.ok());
      for (std::size_t i = 1; i < engines_.size(); ++i) {
        MonitorEngine* e = engines_[i];
        const auto got = e->CurrentResult(id);
        ASSERT_TRUE(got.ok()) << e->name();
        ASSERT_EQ(testing::Scores(*got), testing::Scores(*want))
            << e->name() << " query " << id << " t=" << now_;
      }
    }
  }

  BruteForceEngine brute_;
  TmaEngine tma_;
  SmaEngine sma_;
  TslEngine tsl_;
  std::vector<MonitorEngine*> engines_;
  Rng rng_;
  RecordSource source_;
  Timestamp now_ = 0;
  QueryId next_query_ = 1;
  std::set<QueryId> live_;
};

class ChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnTest, EnginesStayExactUnderRandomOperations) {
  Churn(GetParam(), WindowSpec::Count(300)).Run(160);
}

TEST_P(ChurnTest, TimeWindowEnginesStayExactUnderRandomOperations) {
  Churn(GetParam(), WindowSpec::Time(6)).Run(160);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace topkmon
