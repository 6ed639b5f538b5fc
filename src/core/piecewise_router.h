// Engine-internal decomposition of piecewise-monotone scoring specs.
//
// TMA, SMA and TSL accept a QuerySpec whose function is a
// PiecewiseFunction by registering one constrained monotone sub-query
// per piece in their shared query table (core/query_table.h), so the
// service tier, the journal replay path and plain callers need no
// special casing.
//
// Sub-queries draw their ids from the reserved upper half of the
// QueryId space ([kInternalQueryIdBase, 2^32)). Every engine refuses
// external registrations in that range, hides the ids from
// CurrentResult/UnregisterQuery, and reports deltas only for the
// parent's merged top-k, so internal routing never leaks to callers.

#ifndef TOPKMON_CORE_PIECEWISE_ROUTER_H_
#define TOPKMON_CORE_PIECEWISE_ROUTER_H_

#include <optional>
#include <vector>

#include "core/piecewise.h"
#include "core/query.h"

namespace topkmon {

/// First id of the engine-internal sub-query range.
inline constexpr QueryId kInternalQueryIdBase = QueryId{1} << 31;

/// True for ids reserved for engine-internal sub-queries.
inline bool IsInternalQueryId(QueryId id) {
  return id >= kInternalQueryIdBase;
}

/// Per-parent bookkeeping: the requested result size and the internal
/// ids of the per-piece sub-queries (possibly empty when every piece
/// misses the parent's constraint region).
struct PiecewiseBook {
  int k = 0;
  std::vector<QueryId> subs;
};

/// The intersection [max(lo), min(hi)] of two rectangles of equal
/// dimensionality, or nullopt when they are disjoint.
std::optional<Rect> IntersectRects(const Rect& a, const Rect& b);

/// Builds the constrained monotone sub-specs for `spec`, whose function
/// must be the PiecewiseFunction `fn`, drawing fresh internal ids from
/// *next_id. Each piece's domain is clipped by the parent's constraint
/// region (so sub-queries stay inside the unit workspace); pieces that
/// miss it entirely yield no sub-query. Fails if any piece's function
/// is itself non-monotone.
Result<std::vector<QuerySpec>> DecomposePiecewise(const QuerySpec& spec,
                                                  const PiecewiseFunction& fn,
                                                  QueryId* next_id);

/// Merges concatenated per-piece result lists into the parent's global
/// top-k: ResultOrder sort, dedup by record id (a boundary record is
/// reported by several pieces with bit-identical scores — the pieces
/// agree on shared boundaries by contract), truncate to k.
std::vector<ResultEntry> MergePiecewiseTopK(int k,
                                            std::vector<ResultEntry> merged);

}  // namespace topkmon

#endif  // TOPKMON_CORE_PIECEWISE_ROUTER_H_
