// SMA — the Skyband Monitoring Algorithm (Section 5, Figure 11).
//
// SMA exploits the reduction of top-k monitoring to k-skyband maintenance
// in score-time space (Section 3.1): it keeps, per query, the k-skyband of
// the records inside the influence region. Arrivals scoring at least
// q.top_score (the kth score at the last from-scratch computation — a
// fixed threshold, unlike TMA's moving one) enter the skyband; expiring
// results are simply removed, and the next result is already present as
// the new first-k prefix. A from-scratch recomputation is needed only when
// the skyband itself drops below k entries, which under steady arrival
// rates essentially never happens — SMA's running-time advantage over TMA.

#ifndef TOPKMON_CORE_SMA_ENGINE_H_
#define TOPKMON_CORE_SMA_ENGINE_H_

#include <string>
#include <vector>

#include "core/query_table.h"
#include "core/skyband.h"
#include "core/tma_engine.h"  // GridEngineOptions
#include "core/topk_compute.h"
#include "grid/cell_traversal.h"
#include "grid/grid.h"
#include "stream/sliding_window.h"

namespace topkmon {

/// SMA's per-query structure: the k-skyband and its fixed threshold.
struct SmaQueryState {
  explicit SmaQueryState(int k) : skyband(k) {}
  Skyband skyband;
  /// kth score at the last from-scratch computation; fixed influence
  /// threshold until the next recomputation (Figure 11, line 7).
  double top_score = 0.0;
  bool changed = false;  ///< skyband mutated this cycle
};

/// The Skyband Monitoring Algorithm.
class SmaEngine final : public QueryTableEngine<SmaQueryState> {
 public:
  explicit SmaEngine(const GridEngineOptions& options);

  std::string name() const override { return "SMA"; }
  int dim() const override { return grid_.dim(); }
  Status ProcessCycle(Timestamp now, RecordSpan arrivals) override;
  MemoryBreakdown Memory() const override;

  const Grid& grid() const { return grid_; }

  /// Average skyband cardinality across registered queries (Table 2).
  double AverageSkybandSize() const;

 private:
  SmaQueryState InitialState(QueryId id, const QuerySpec& spec) override;
  void Release(QueryId id, const Entry& entry) override;
  std::vector<ResultEntry> TopK(const SmaQueryState& state) const override {
    return state.skyband.TopK();
  }

  void RecomputeFromScratch(QueryId id, const QuerySpec& spec,
                            SmaQueryState& state);

  Grid grid_;
  TraversalScratch scratch_;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_SMA_ENGINE_H_
