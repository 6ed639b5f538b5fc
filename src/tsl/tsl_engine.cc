#include "tsl/tsl_engine.h"

#include <algorithm>

namespace topkmon {

TslEngine::TslEngine(const TslOptions& options)
    : QueryTableEngine(options.window),
      dim_(options.dim),
      kmax_override_(options.kmax_override),
      lists_(options.dim) {}

TopKView TslEngine::InitialState(QueryId, const QuerySpec& spec) {
  const int kmax = kmax_override_ > 0 ? std::max(kmax_override_, spec.k)
                                      : DefaultKmax(spec.k);
  TopKView view(spec.k, kmax);
  Refill(spec, view);
  return view;
}

Status TslEngine::ProcessCycle(Timestamp now, RecordSpan arrivals) {
  Stopwatch watch;
  ++stats_.cycles;
  // Arrivals: update the d sorted lists, then probe every view — TSL has
  // no influence regions, so each arrival costs one score evaluation per
  // registered query (Figure 3).
  for (const Record& p : arrivals) {
    TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim_));
    TOPKMON_RETURN_IF_ERROR(window_.Append(p));
    lists_.Insert(p);
    ++stats_.arrivals;
    for (auto& [qid, entry] : queries_) {
      if (entry.spec.constraint.has_value() &&
          !entry.spec.constraint->Contains(p.position)) {
        continue;  // constrained query: arrival outside R (Section 7)
      }
      ++stats_.points_scored;
      const double score = entry.spec.function->Score(p.position);
      if (entry.state.OnArrival(p.id, score)) {
        ++stats_.result_changes;
        delta_.MarkChanged(entry.reported_as);
      }
    }
  }
  // Expirations: remove from the sorted lists and from any view that
  // contains the record; refills are deferred to the end of the cycle so
  // a burst of expirations triggers at most one TA run per query.
  for (const Record& p : window_.EvictExpired(now)) {
    TOPKMON_RETURN_IF_ERROR(lists_.Erase(p));
    ++stats_.expirations;
    for (auto& [qid, entry] : queries_) {
      if (entry.spec.constraint.has_value() &&
          !entry.spec.constraint->Contains(p.position)) {
        continue;  // never entered this view
      }
      ++stats_.points_scored;
      const double score = entry.spec.function->Score(p.position);
      if (entry.state.OnExpiry(p.id, score)) {
        ++stats_.result_changes;
        delta_.MarkChanged(entry.reported_as);
      }
    }
  }
  for (auto& [qid, entry] : queries_) {
    // Refill once per cycle when the view dropped below k and the window
    // actually holds records the view is missing.
    if (entry.state.NeedsRefill() && window_.size() > entry.state.size()) {
      ++stats_.view_refills;
      ++stats_.recomputations;
      Refill(entry.spec, entry.state);
      delta_.MarkChanged(entry.reported_as);
    }
  }
  EndCycle(now, watch);
  return Status::Ok();
}

void TslEngine::Refill(const QuerySpec& spec, TopKView& view) {
  const Rect* constraint =
      spec.constraint.has_value() ? &*spec.constraint : nullptr;
  const TaResult ta = RunThresholdAlgorithm(
      lists_, *spec.function, view.kmax(),
      [this](RecordId id) -> const Record& { return window_.Get(id); },
      constraint);
  sorted_accesses_ += ta.sorted_accesses;
  random_accesses_ += ta.random_accesses;
  stats_.points_scored += ta.random_accesses;
  view.Refill(ta.result);
}

MemoryBreakdown TslEngine::Memory() const {
  MemoryBreakdown mb;
  mb.Add("window", window_.MemoryBytes());
  mb.Add("sorted_lists", lists_.MemoryBytes());
  mb.Add("views", TableBytes([](const TopKView& view) {
           return view.MemoryBytes();
         }));
  return mb;
}

double TslEngine::AverageViewSize() const {
  if (queries_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [qid, entry] : queries_) {
    total += static_cast<double>(entry.state.size());
  }
  return total / static_cast<double>(queries_.size());
}

}  // namespace topkmon
