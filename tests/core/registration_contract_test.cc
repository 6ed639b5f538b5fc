// The registration contract of MonitorEngine, checked once for every
// engine: BruteForce, TMA, SMA and TSL refuse duplicate ids, the reserved
// internal id range, unknown ids and unsupported scoring functions with
// the same status codes.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
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

constexpr int kDim = 2;
constexpr std::size_t kWindow = 100;

/// f(p) = -|x1 - 0.5| + x2: not monotone in x1, and not a
/// PiecewiseFunction either, so no engine can decompose it.
class RidgeFunction final : public ScoringFunction {
 public:
  int dim() const override { return kDim; }
  double Score(const Point& p) const override {
    return p[1] - std::abs(p[0] - 0.5);
  }
  Monotonicity direction(int) const override {
    return Monotonicity::kIncreasing;
  }
  bool IsMonotone() const override { return false; }
  std::unique_ptr<ScoringFunction> Clone() const override {
    return std::make_unique<RidgeFunction>();
  }
  std::string ToString() const override { return "ridge"; }
};

QuerySpec Spec(QueryId id, std::shared_ptr<const ScoringFunction> fn) {
  QuerySpec spec;
  spec.id = id;
  spec.k = 2;
  spec.function = std::move(fn);
  return spec;
}

QuerySpec LinearSpec(QueryId id) {
  return Spec(id, std::make_shared<LinearFunction>(
                      std::vector<double>{1.0, 1.0}));
}

/// The ridge above as two monotone pieces.
QuerySpec PiecewiseSpec(QueryId id) {
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
  return Spec(id, *fn);
}

struct EngineCase {
  std::string name;
  /// Whether the engine refuses a non-monotone, non-piecewise function
  /// (every engine but BruteForce, which scores any function directly).
  bool refuses_non_monotone;
  std::function<std::unique_ptr<MonitorEngine>()> make;
};

/// Prints a case as its engine's name (also CTest's name suffix).
void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.name; }

std::vector<EngineCase> AllEngines() {
  GridEngineOptions grid;
  grid.dim = kDim;
  grid.window = WindowSpec::Count(kWindow);
  grid.cell_budget = 256;
  TslOptions tsl;
  tsl.dim = kDim;
  tsl.window = grid.window;
  return {
      {"BRUTE", false,
       [] {
         return std::make_unique<BruteForceEngine>(
             kDim, WindowSpec::Count(kWindow));
       }},
      {"TMA", true, [grid] { return std::make_unique<TmaEngine>(grid); }},
      {"SMA", true, [grid] { return std::make_unique<SmaEngine>(grid); }},
      {"TSL", true, [tsl] { return std::make_unique<TslEngine>(tsl); }},
  };
}

class RegistrationContractTest
    : public ::testing::TestWithParam<EngineCase> {
 protected:
  std::unique_ptr<MonitorEngine> engine_ = GetParam().make();
};

TEST_P(RegistrationContractTest, NameAndDim) {
  EXPECT_EQ(engine_->name(), GetParam().name);
  EXPECT_EQ(engine_->dim(), kDim);
}

TEST_P(RegistrationContractTest, DuplicateIdIsAlreadyExists) {
  TOPKMON_ASSERT_OK(engine_->RegisterQuery(LinearSpec(1)));
  TOPKMON_ASSERT_OK(engine_->RegisterQuery(PiecewiseSpec(2)));
  EXPECT_EQ(engine_->RegisterQuery(LinearSpec(1)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_->RegisterQuery(PiecewiseSpec(1)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_->RegisterQuery(LinearSpec(2)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_->RegisterQuery(PiecewiseSpec(2)).code(),
            StatusCode::kAlreadyExists);
}

TEST_P(RegistrationContractTest, ReservedIdIsInvalidArgument) {
  EXPECT_EQ(engine_->RegisterQuery(LinearSpec(kInternalQueryIdBase)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      engine_->RegisterQuery(PiecewiseSpec(kInternalQueryIdBase + 1)).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_->CurrentResult(kInternalQueryIdBase).status().code(),
            StatusCode::kNotFound);
}

/// Registers a piecewise parent (3), which occupies internal ids on the
/// decomposing engines, and a plain query (1); then unregisters both.
/// Returns the ids a caller must now find unknown.
std::vector<QueryId> RegisterAndUnregister(MonitorEngine* engine) {
  EXPECT_TRUE(engine->RegisterQuery(PiecewiseSpec(3)).ok());
  EXPECT_TRUE(engine->RegisterQuery(LinearSpec(1)).ok());
  EXPECT_TRUE(engine->UnregisterQuery(1).ok());
  EXPECT_TRUE(engine->UnregisterQuery(3).ok());
  return {1, 3};
}

TEST_P(RegistrationContractTest, UnregisterOfUnknownIdIsNotFound) {
  EXPECT_EQ(engine_->UnregisterQuery(9).code(), StatusCode::kNotFound);
  // The internal ids a piecewise parent occupies stay invisible to
  // callers.
  TOPKMON_ASSERT_OK(engine_->RegisterQuery(PiecewiseSpec(5)));
  for (QueryId internal : {kInternalQueryIdBase, kInternalQueryIdBase + 1}) {
    EXPECT_EQ(engine_->UnregisterQuery(internal).code(),
              StatusCode::kNotFound);
  }
  // An id that was registered reads as unknown once unregistered.
  for (QueryId gone : RegisterAndUnregister(engine_.get())) {
    EXPECT_EQ(engine_->UnregisterQuery(gone).code(), StatusCode::kNotFound);
  }
}

TEST_P(RegistrationContractTest, CurrentResultOfUnknownIdIsNotFound) {
  EXPECT_EQ(engine_->CurrentResult(5).status().code(),
            StatusCode::kNotFound);
  TOPKMON_ASSERT_OK(engine_->RegisterQuery(PiecewiseSpec(5)));
  for (QueryId internal : {kInternalQueryIdBase, kInternalQueryIdBase + 1}) {
    EXPECT_EQ(engine_->CurrentResult(internal).status().code(),
              StatusCode::kNotFound);
  }
  TOPKMON_ASSERT_OK(engine_->CurrentResult(5).status());
  for (QueryId gone : RegisterAndUnregister(engine_.get())) {
    EXPECT_EQ(engine_->CurrentResult(gone).status().code(),
              StatusCode::kNotFound);
  }
}

TEST_P(RegistrationContractTest, NonMonotoneFunctionIsUnimplemented) {
  const Status st =
      engine_->RegisterQuery(Spec(4, std::make_shared<RidgeFunction>()));
  if (GetParam().refuses_non_monotone) {
    EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << st.ToString();
    EXPECT_EQ(engine_->CurrentResult(4).status().code(),
              StatusCode::kNotFound);
  } else {
    TOPKMON_EXPECT_OK(st);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, RegistrationContractTest,
                         ::testing::ValuesIn(AllEngines()));

}  // namespace
}  // namespace topkmon
