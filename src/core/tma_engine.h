// TMA — the Top-k Monitoring Algorithm (Section 4, Figure 9).
//
// TMA maintains each query's exact top-k list incrementally:
//   * arrivals inside a query's influence region that score at least
//     q.top_score enter the top-k list directly (possibly evicting the
//     current kth entry);
//   * expirations of current result records mark the query as affected;
//     after the cycle's updates, affected queries are recomputed from
//     scratch by the top-k computation module, followed by the lazy
//     influence-list reconciliation walk.
// Arrivals are processed before expirations so that a replacement arriving
// in the same cycle avoids a needless recomputation (Section 4.3).

#ifndef TOPKMON_CORE_TMA_ENGINE_H_
#define TOPKMON_CORE_TMA_ENGINE_H_

#include <string>
#include <vector>

#include "core/query_table.h"
#include "core/topk_compute.h"
#include "grid/cell_traversal.h"
#include "grid/grid.h"
#include "stream/sliding_window.h"

namespace topkmon {

/// Configuration shared by the grid-based engines.
struct GridEngineOptions {
  int dim = 2;
  WindowSpec window = WindowSpec::Count(1000);
  /// Total cell budget; per-axis resolution is budget^(1/dim) as in the
  /// paper's granularity experiment (Figure 14; 12^4 is the tuned value).
  std::size_t cell_budget = 20736;
  /// Overrides cell_budget with an explicit per-axis resolution when > 0.
  int cells_per_axis = 0;
  /// Process Pins before Pdel (Section 4.3's ordering, the default).
  /// Setting this to false processes expirations first — correct but
  /// wasteful, because an arrival that would have replaced an expiring
  /// result record no longer pre-empts the recomputation. Exists for the
  /// ordering ablation benchmark.
  bool arrivals_before_expirations = true;

  int ResolvedCellsPerAxis() const;
};

/// TMA's per-query structure: the top-k list q.top_list.
struct TmaQueryState {
  explicit TmaQueryState(int k) : top_list(k) {}
  TopKList top_list;
  bool affected = false;  ///< a result record expired this cycle
};

/// The Top-k Monitoring Algorithm.
class TmaEngine final : public QueryTableEngine<TmaQueryState> {
 public:
  explicit TmaEngine(const GridEngineOptions& options);

  std::string name() const override { return "TMA"; }
  int dim() const override { return grid_.dim(); }
  Status ProcessCycle(Timestamp now, RecordSpan arrivals) override;
  MemoryBreakdown Memory() const override;

  /// Grid resolution actually in use (for the granularity experiment).
  const Grid& grid() const { return grid_; }

 private:
  TmaQueryState InitialState(QueryId id, const QuerySpec& spec) override;
  void Release(QueryId id, const Entry& entry) override;
  std::vector<ResultEntry> TopK(const TmaQueryState& state) const override {
    return state.top_list.entries();
  }

  /// Runs the computation module for query `id`, refreshes its top-k list
  /// and reconciles influence lists (add processed, clean stale from
  /// frontier).
  void RecomputeFromScratch(QueryId id, const QuerySpec& spec,
                            TopKList& top_list);

  void HandleArrival(const Record& p);
  void HandleExpiry(const Record& p);

  bool arrivals_first_;
  Grid grid_;
  TraversalScratch scratch_;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_TMA_ENGINE_H_
