// The query table shared by TMA, SMA and TSL.
//
// In the paper, TMA (Section 4) and SMA (Section 5) share the grid, the
// influence lists and the query table; they differ only in what each
// query keeps (a top-k list or a k-skyband) and in when it is
// recomputed. The TSL baseline keeps a materialized view instead.
// QueryTableEngine owns everything but that difference, once: id
// validation and refusals, piecewise decomposition into internal
// constrained sub-queries (core/piecewise_router.h), unregistration,
// result lookup and merge, delta bookkeeping, the window and the
// counters. An engine derives from it with its per-query structure as
// `State`, supplies the three hooks below, and implements its
// maintenance rules in ProcessCycle, reading `queries_` directly.

#ifndef TOPKMON_CORE_QUERY_TABLE_H_
#define TOPKMON_CORE_QUERY_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/piecewise.h"
#include "core/piecewise_router.h"
#include "stream/sliding_window.h"

namespace topkmon {

/// A MonitorEngine whose queries live in one table of `State`s.
template <typename State>
class QueryTableEngine : public MonitorEngine {
 public:
  Status RegisterQuery(const QuerySpec& spec) final;
  Status UnregisterQuery(QueryId id) final;
  Result<std::vector<ResultEntry>> CurrentResult(QueryId id) const final;
  void SetDeltaCallback(DeltaCallback callback) final {
    delta_.SetCallback(std::move(callback));
  }
  std::size_t WindowSize() const final { return window_.size(); }
  Result<EngineSnapshot> SnapshotState() const final {
    return EngineSnapshot{
        last_cycle_, std::vector<Record>(window_.begin(), window_.end())};
  }
  const EngineStats& stats() const final { return stats_; }

 protected:
  /// One monotone query: an external one, or an internal sub-query of a
  /// piecewise parent.
  struct Entry {
    QuerySpec spec;
    /// The query whose reported result this entry feeds: its own id, or
    /// its piecewise parent's (only the parent's merged result is
    /// visible).
    QueryId reported_as;
    State state;
  };

  explicit QueryTableEngine(const WindowSpec& window)
      : window_(SlidingWindow::FromSpec(window)) {}

  /// Builds a new entry's per-query structure holding its initial result
  /// over the current window.
  virtual State InitialState(QueryId id, const QuerySpec& spec) = 0;
  /// Releases what the engine keeps for an entry outside the table
  /// (influence-list entries); called just before the entry is erased.
  virtual void Release(QueryId id, const Entry& entry) = 0;
  /// The entry's current top-k in ResultOrder.
  virtual std::vector<ResultEntry> TopK(const State& state) const = 0;

  /// Ends a cycle begun at `watch`: reports the queries marked changed.
  void EndCycle(Timestamp now, const Stopwatch& watch) {
    last_cycle_ = now;
    delta_.ReportChanged(
        now, [this](QueryId id) { return CurrentResult(id).value(); });
    stats_.maintenance_seconds += watch.ElapsedSeconds();
  }

  /// Query-table bytes: per entry, the entry itself, the scoring
  /// function's O(d) parameters and `structure_bytes(state)`.
  template <typename StructureBytes>
  std::size_t TableBytes(StructureBytes structure_bytes) const {
    std::size_t bytes = 0;
    for (const auto& [qid, entry] : queries_) {
      bytes += sizeof(Entry) + structure_bytes(entry.state) +
               static_cast<std::size_t>(dim()) * sizeof(double);
    }
    return bytes;
  }

  SlidingWindow window_;
  std::unordered_map<QueryId, Entry> queries_;
  EngineStats stats_;
  DeltaTracker delta_;
  Timestamp last_cycle_ = 0;

 private:
  static Status NotRegistered(QueryId id) {
    return Status::NotFound("query id " + std::to_string(id) +
                            " not registered");
  }
  Entry& AddEntry(const QuerySpec& spec, QueryId reported_as) {
    ++stats_.initial_computations;
    return queries_
        .emplace(spec.id, Entry{spec, reported_as,
                                InitialState(spec.id, spec)})
        .first->second;
  }
  void RemoveEntry(typename std::unordered_map<QueryId, Entry>::iterator it) {
    Release(it->first, it->second);
    queries_.erase(it);
  }
  std::vector<ResultEntry> MergedPiecewise(const PiecewiseBook& book) const;

  /// Piecewise parents by external id.
  std::unordered_map<QueryId, PiecewiseBook> piecewise_;
  QueryId next_internal_id_ = kInternalQueryIdBase;
};

template <typename State>
Status QueryTableEngine<State>::RegisterQuery(const QuerySpec& spec) {
  TOPKMON_RETURN_IF_ERROR(spec.Validate(dim()));
  if (IsInternalQueryId(spec.id)) {
    return Status::InvalidArgument(
        "query id " + std::to_string(spec.id) +
        " is in the range reserved for engine-internal sub-queries");
  }
  if (queries_.count(spec.id) > 0 || piecewise_.count(spec.id) > 0) {
    return Status::AlreadyExists("query id " + std::to_string(spec.id) +
                                 " already registered");
  }
  if (spec.function->IsMonotone()) {
    const Entry& entry = AddEntry(spec, spec.id);
    delta_.Track(spec.id, last_cycle_, TopK(entry.state));
    return Status::Ok();
  }
  const auto* fn = dynamic_cast<const PiecewiseFunction*>(spec.function.get());
  if (fn == nullptr) {
    return Status::Unimplemented(
        name() + " requires a per-dimension monotone or piecewise-monotone "
        "scoring function; got '" + spec.function->ToString() + "'");
  }
  // Every sub-spec is valid once the decomposition succeeds (the pieces
  // share the parent's dimensionality and are clipped to its validated
  // region), so adding them cannot fail part-way and needs no rollback.
  Result<std::vector<QuerySpec>> subs =
      DecomposePiecewise(spec, *fn, &next_internal_id_);
  if (!subs.ok()) return subs.status();
  PiecewiseBook& book = piecewise_[spec.id];
  book.k = spec.k;
  for (const QuerySpec& sub : *subs) {
    AddEntry(sub, spec.id);
    book.subs.push_back(sub.id);
  }
  delta_.Track(spec.id, last_cycle_, MergedPiecewise(book));
  return Status::Ok();
}

template <typename State>
Status QueryTableEngine<State>::UnregisterQuery(QueryId id) {
  auto pit = piecewise_.find(id);
  if (pit != piecewise_.end()) {
    for (QueryId sid : pit->second.subs) RemoveEntry(queries_.find(sid));
    piecewise_.erase(pit);
  } else {
    auto it = queries_.find(id);
    // Internal sub-queries are invisible to callers.
    if (it == queries_.end() || IsInternalQueryId(id)) {
      return NotRegistered(id);
    }
    RemoveEntry(it);
  }
  delta_.Forget(id);
  return Status::Ok();
}

template <typename State>
Result<std::vector<ResultEntry>> QueryTableEngine<State>::CurrentResult(
    QueryId id) const {
  auto pit = piecewise_.find(id);
  if (pit != piecewise_.end()) return MergedPiecewise(pit->second);
  auto it = queries_.find(id);
  if (it == queries_.end() || IsInternalQueryId(id)) return NotRegistered(id);
  return TopK(it->second.state);
}

template <typename State>
std::vector<ResultEntry> QueryTableEngine<State>::MergedPiecewise(
    const PiecewiseBook& book) const {
  std::vector<ResultEntry> merged;
  for (QueryId sid : book.subs) {
    const std::vector<ResultEntry> entries = TopK(queries_.at(sid).state);
    merged.insert(merged.end(), entries.begin(), entries.end());
  }
  return MergePiecewiseTopK(book.k, std::move(merged));
}

}  // namespace topkmon

#endif  // TOPKMON_CORE_QUERY_TABLE_H_
