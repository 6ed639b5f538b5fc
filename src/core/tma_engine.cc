#include "core/tma_engine.h"

#include "core/influence.h"

namespace topkmon {

int GridEngineOptions::ResolvedCellsPerAxis() const {
  if (cells_per_axis > 0) return cells_per_axis;
  return Grid::CellsPerAxisForBudget(dim, cell_budget);
}

TmaEngine::TmaEngine(const GridEngineOptions& options)
    : QueryTableEngine(options.window),
      arrivals_first_(options.arrivals_before_expirations),
      grid_(options.dim, options.ResolvedCellsPerAxis()) {}

TmaQueryState TmaEngine::InitialState(QueryId id, const QuerySpec& spec) {
  TmaQueryState state(spec.k);
  RecomputeFromScratch(id, spec, state.top_list);
  return state;
}

void TmaEngine::Release(QueryId id, const Entry& entry) {
  const QuerySpec& spec = entry.spec;
  const Rect* constraint =
      spec.constraint.has_value() ? &*spec.constraint : nullptr;
  RemoveAllInfluence(grid_, *spec.function, id, &scratch_, constraint);
}

Status TmaEngine::ProcessCycle(Timestamp now, RecordSpan arrivals) {
  Stopwatch watch;
  ++stats_.cycles;
  // Admit arrivals into the window first so that both batches (Pins and
  // Pdel) are known; their *processing* order is configurable.
  for (const Record& p : arrivals) {
    TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim()));
    TOPKMON_RETURN_IF_ERROR(window_.Append(p));
  }
  const std::vector<Record> expired = window_.EvictExpired(now);
  if (arrivals_first_) {
    // Pins before Pdel (Figure 9): an arrival that beats the expiring kth
    // record replaces it before the expiration is seen, avoiding a
    // needless recomputation (Section 4.3).
    for (const Record& p : arrivals) HandleArrival(p);
    for (const Record& p : expired) HandleExpiry(p);
  } else {
    // Ablation order: expirations first mark queries affected even when an
    // arrival in the same cycle would have covered them.
    for (const Record& p : expired) HandleExpiry(p);
    for (const Record& p : arrivals) HandleArrival(p);
  }
  // -- Recompute affected queries from scratch (lines 12-21) ---------------
  for (auto& [qid, entry] : queries_) {
    if (!entry.state.affected) continue;
    entry.state.affected = false;
    ++stats_.recomputations;
    ++stats_.result_changes;
    RecomputeFromScratch(qid, entry.spec, entry.state.top_list);
    delta_.MarkChanged(entry.reported_as);
  }
  // -- Report changes: only the queries marked above ----------------------
  EndCycle(now, watch);
  return Status::Ok();
}

void TmaEngine::HandleArrival(const Record& p) {
  const CellIndex cell = grid_.LocateCell(p.position);
  grid_.InsertPoint(cell, p.id, p.position);
  ++stats_.arrivals;
  for (QueryId qid : grid_.InfluenceList(cell)) {
    Entry& entry = queries_.at(qid);
    if (entry.spec.constraint.has_value() &&
        !entry.spec.constraint->Contains(p.position)) {
      continue;  // constrained query: update outside R (Section 7)
    }
    ++stats_.points_scored;
    const double score = entry.spec.function->Score(p.position);
    TopKList& top_list = entry.state.top_list;
    if (score >= top_list.KthScore()) {
      if (top_list.Consider(p.id, score)) {
        ++stats_.result_changes;
        delta_.MarkChanged(entry.reported_as);
      }
    }
  }
}

void TmaEngine::HandleExpiry(const Record& p) {
  const CellIndex cell = grid_.LocateCell(p.position);
  grid_.ErasePointFifo(cell, p.id);
  ++stats_.expirations;
  for (QueryId qid : grid_.InfluenceList(cell)) {
    TmaQueryState& state = queries_.at(qid).state;
    if (state.top_list.Contains(p.id)) state.affected = true;
  }
}

void TmaEngine::RecomputeFromScratch(QueryId id, const QuerySpec& spec,
                                     TopKList& top_list) {
  const Rect* constraint =
      spec.constraint.has_value() ? &*spec.constraint : nullptr;
  const TopKComputation computation =
      ComputeTopK(grid_, *spec.function, spec.k, &scratch_, constraint);
  stats_.cells_visited += computation.processed_cells.size();
  stats_.points_scored += computation.points_scored;
  top_list.Clear();
  for (const ResultEntry& e : computation.result) {
    top_list.Consider(e.id, e.score);
  }
  AddInfluenceEntries(grid_, computation.processed_cells, id);
  CleanupStaleInfluence(grid_, *spec.function, computation.frontier_cells,
                        id, &scratch_);
}

MemoryBreakdown TmaEngine::Memory() const {
  MemoryBreakdown mb = grid_.Memory();
  mb.Add("window", window_.MemoryBytes());
  // Scoring function parameters (O(d)) + the result list (O(2k): id and
  // score per entry) — the paper's O(d + 2k) query-table entry.
  mb.Add("query_table", TableBytes([](const TmaQueryState& state) {
           return state.top_list.MemoryBytes();
         }));
  mb.Add("scratch", scratch_.MemoryBytes());
  return mb;
}

}  // namespace topkmon
