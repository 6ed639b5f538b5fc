// Result-change reporting ("Report changes to the client", Figures 9/11).
//
// Clients of a monitoring server rarely want the full top-k every cycle;
// they want the delta. DeltaTracker compares a query's current result
// against the last reported one and invokes a client callback with the
// entries that entered and left. Reporting costs what changed: engines
// mark the queries whose results a cycle may have changed, and only
// those are diffed at the end of the cycle. Tracking is off (and free)
// until a callback is installed.

#ifndef TOPKMON_CORE_DELTA_H_
#define TOPKMON_CORE_DELTA_H_

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/query.h"

namespace topkmon {

/// The change in one query's result since the last report.
struct ResultDelta {
  QueryId query = 0;
  Timestamp when = 0;
  std::vector<ResultEntry> added;    ///< entries that entered the top-k
  std::vector<ResultEntry> removed;  ///< entries that left the top-k
};

/// Client callback; invoked once per query per cycle in which its result
/// changed (and once at registration with the initial result as `added`).
/// The delta is handed over by value, so a receiver keeps it without a
/// copy.
using DeltaCallback = std::function<void(ResultDelta)>;

/// Per-engine delta bookkeeping. Engines Track() each externally visible
/// query at registration, MarkChanged() a query whenever a cycle may have
/// changed its result, and call ReportChanged() once at the end of the
/// cycle; the tracker diffs the marked queries by record id and fires the
/// callback only on actual changes.
class DeltaTracker {
 public:
  /// Installs (or clears, with nullptr) the callback. Installing makes
  /// the next ReportChanged() report every tracked query's full current
  /// result as `added`.
  void SetCallback(DeltaCallback callback);

  /// True iff a callback is installed.
  bool enabled() const { return static_cast<bool>(callback_); }

  /// Starts tracking a newly registered query and reports its initial
  /// result (when a callback is installed).
  void Track(QueryId query, Timestamp when,
             std::vector<ResultEntry> initial) {
    last_reported_.try_emplace(query);
    Report(query, when, std::move(initial));
  }

  /// Stops tracking a terminated query (no callback fired).
  void Forget(QueryId query) { last_reported_.erase(query); }

  /// Notes that `query`'s result may have changed this cycle. Marking a
  /// query more than once per cycle is harmless; free while disabled.
  void MarkChanged(QueryId query) {
    if (callback_) changed_.push_back(query);
  }

  /// Ends a cycle: reports every query marked since the last call — or
  /// every tracked query, after SetCallback — in ascending id order.
  /// `result_of(id)` yields the query's current result.
  template <typename ResultOf>
  void ReportChanged(Timestamp when, ResultOf&& result_of) {
    if (!callback_) return;
    if (report_all_) {
      report_all_ = false;
      changed_.clear();
      for (const auto& [query, last] : last_reported_) {
        changed_.push_back(query);
      }
    }
    std::sort(changed_.begin(), changed_.end());
    changed_.erase(std::unique(changed_.begin(), changed_.end()),
                   changed_.end());
    for (QueryId query : changed_) Report(query, when, result_of(query));
    changed_.clear();
  }

  /// Diffs `current` against the last reported result of `query`, fires
  /// the callback when they differ, and remembers `current`.
  void Report(QueryId query, Timestamp when,
              std::vector<ResultEntry> current);

  /// Heap bytes of the stored last-reported results.
  std::size_t MemoryBytes() const;

 private:
  DeltaCallback callback_;
  bool report_all_ = false;
  std::vector<QueryId> changed_;
  std::unordered_map<QueryId, std::vector<ResultEntry>> last_reported_;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_DELTA_H_
