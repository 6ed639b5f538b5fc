// TSL — the Threshold Sorted List baseline (Section 3.2, Figure 3).
//
// TSL combines the Threshold Algorithm (for from-scratch top-k
// computation over d sorted attribute lists) with the materialized-view
// maintenance of Yi et al. (views of k' in [k, kmax] entries, refilled by
// a fresh TA run when k' drops below k). It is the paper's benchmark
// competitor, assembled from prior work: correct, but it must touch every
// query on every arrival and maintain d sorted lists on every update,
// which is what TMA/SMA's influence regions avoid.

#ifndef TOPKMON_TSL_TSL_ENGINE_H_
#define TOPKMON_TSL_TSL_ENGINE_H_

#include <string>
#include <vector>

#include "core/query_table.h"
#include "stream/sliding_window.h"
#include "tsl/sorted_lists.h"
#include "tsl/threshold_algorithm.h"
#include "tsl/topk_view.h"

namespace topkmon {

/// TSL engine configuration.
struct TslOptions {
  int dim = 2;
  WindowSpec window = WindowSpec::Count(1000);
  /// View slack; 0 selects the paper's fine-tuned DefaultKmax(k).
  int kmax_override = 0;
};

/// The Threshold Sorted List engine. Its per-query structure is the
/// materialized view.
class TslEngine final : public QueryTableEngine<TopKView> {
 public:
  explicit TslEngine(const TslOptions& options);

  std::string name() const override { return "TSL"; }
  int dim() const override { return dim_; }
  Status ProcessCycle(Timestamp now, RecordSpan arrivals) override;
  MemoryBreakdown Memory() const override;

  /// Average view cardinality k' across queries (Table 2).
  double AverageViewSize() const;

  /// Cumulative TA access counts (for analysis benches).
  std::uint64_t total_sorted_accesses() const { return sorted_accesses_; }
  std::uint64_t total_random_accesses() const { return random_accesses_; }

 private:
  TopKView InitialState(QueryId id, const QuerySpec& spec) override;
  void Release(QueryId, const Entry&) override {}
  std::vector<ResultEntry> TopK(const TopKView& view) const override {
    return view.TopK();
  }

  /// Replaces `view` with a fresh top-kmax TA computation for `spec`.
  void Refill(const QuerySpec& spec, TopKView& view);

  int dim_;
  int kmax_override_;
  SortedAttributeLists lists_;
  std::uint64_t sorted_accesses_ = 0;
  std::uint64_t random_accesses_ = 0;
};

}  // namespace topkmon

#endif  // TOPKMON_TSL_TSL_ENGINE_H_
