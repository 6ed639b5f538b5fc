#include "core/sma_engine.h"

#include "core/influence.h"

namespace topkmon {

SmaEngine::SmaEngine(const GridEngineOptions& options)
    : QueryTableEngine(options.window),
      grid_(options.dim, options.ResolvedCellsPerAxis()) {}

SmaQueryState SmaEngine::InitialState(QueryId id, const QuerySpec& spec) {
  SmaQueryState state(spec.k);
  RecomputeFromScratch(id, spec, state);
  return state;
}

void SmaEngine::Release(QueryId id, const Entry& entry) {
  const QuerySpec& spec = entry.spec;
  const Rect* constraint =
      spec.constraint.has_value() ? &*spec.constraint : nullptr;
  RemoveAllInfluence(grid_, *spec.function, id, &scratch_, constraint);
}

Status SmaEngine::ProcessCycle(Timestamp now, RecordSpan arrivals) {
  Stopwatch watch;
  ++stats_.cycles;
  // -- Pins (Figure 11, lines 4-11) ----------------------------------------
  for (const Record& p : arrivals) {
    TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim()));
    TOPKMON_RETURN_IF_ERROR(window_.Append(p));
    const CellIndex cell = grid_.LocateCell(p.position);
    grid_.InsertPoint(cell, p.id, p.position);
    ++stats_.arrivals;
    for (QueryId qid : grid_.InfluenceList(cell)) {
      Entry& entry = queries_.at(qid);
      if (entry.spec.constraint.has_value() &&
          !entry.spec.constraint->Contains(p.position)) {
        continue;
      }
      ++stats_.points_scored;
      const double score = entry.spec.function->Score(p.position);
      SmaQueryState& state = entry.state;
      if (score >= state.top_score) {
        stats_.skyband_evictions += state.skyband.Insert(p.id, score);
        ++stats_.skyband_insertions;
        state.changed = true;
      }
    }
  }
  // -- Pdel (lines 12-16) ----------------------------------------------------
  for (const Record& p : window_.EvictExpired(now)) {
    const CellIndex cell = grid_.LocateCell(p.position);
    grid_.ErasePointFifo(cell, p.id);
    ++stats_.expirations;
    for (QueryId qid : grid_.InfluenceList(cell)) {
      SmaQueryState& state = queries_.at(qid).state;
      // An expiring record found in the skyband is necessarily its
      // earliest-arrival entry and a member of the current top-k
      // (Section 5, footnote 5); its removal affects no dominance counter.
      if (state.skyband.Remove(p.id)) state.changed = true;
    }
  }
  // -- Report / refill (lines 17-22) ----------------------------------------
  for (auto& [qid, entry] : queries_) {
    SmaQueryState& state = entry.state;
    if (!state.changed) continue;
    state.changed = false;
    ++stats_.result_changes;
    delta_.MarkChanged(entry.reported_as);
    if (state.skyband.size() < static_cast<std::size_t>(entry.spec.k) &&
        window_.size() > 0) {
      ++stats_.recomputations;
      RecomputeFromScratch(qid, entry.spec, state);
    }
  }
  EndCycle(now, watch);
  return Status::Ok();
}

void SmaEngine::RecomputeFromScratch(QueryId id, const QuerySpec& spec,
                                     SmaQueryState& state) {
  const Rect* constraint =
      spec.constraint.has_value() ? &*spec.constraint : nullptr;
  const TopKComputation computation =
      ComputeTopK(grid_, *spec.function, spec.k, &scratch_, constraint);
  stats_.cells_visited += computation.processed_cells.size();
  stats_.points_scored += computation.points_scored;
  state.skyband.Rebuild(computation.result);
  state.top_score = computation.KthScore(spec.k);
  AddInfluenceEntries(grid_, computation.processed_cells, id);
  CleanupStaleInfluence(grid_, *spec.function, computation.frontier_cells,
                        id, &scratch_);
}

MemoryBreakdown SmaEngine::Memory() const {
  MemoryBreakdown mb = grid_.Memory();
  mb.Add("window", window_.MemoryBytes());
  // O(d + 3k): function parameters plus <id, score, DC> per skyband
  // entry (Section 6).
  mb.Add("query_table", TableBytes([](const SmaQueryState& state) {
           return state.skyband.MemoryBytes();
         }));
  mb.Add("scratch", scratch_.MemoryBytes());
  return mb;
}

double SmaEngine::AverageSkybandSize() const {
  if (queries_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [qid, entry] : queries_) {
    total += static_cast<double>(entry.state.skyband.size());
  }
  return total / static_cast<double>(queries_.size());
}

}  // namespace topkmon
