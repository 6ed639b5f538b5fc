// K-merge of per-partition top-k lists into the global top-k.
//
// Correctness rests on a containment argument: every record lives on
// exactly one partition, so each of the global k best is among its own
// partition's k best — the global top-k is a subset of the union of the
// per-partition top-k lists, and merging those lists loses nothing.
//
// The merge itself is the bound-and-refine loop of TSL's threshold
// algorithm (src/tsl/threshold_algorithm.cc) specialized to presorted
// inputs: each partition list is already in ResultOrder, so the best
// unconsumed head across all lists bounds every unseen entry, and
// popping heads best-first terminates after exactly k pops instead of
// sorting the whole union.
//
// Record-id namespacing: each partition assigns its own dense local
// record ids (the engines' sliding windows require contiguity, so the
// ids cannot be partition-strided at the source). The merged client view
// needs globally unique ids, so every entry is re-identified as
// local_id * partitions + partition — reversible, collision-free, and
// applied consistently by the snapshot gather and the delta multiplexer
// so the two views name records identically.

#ifndef TOPKMON_CLUSTER_TOPK_MERGE_H_
#define TOPKMON_CLUSTER_TOPK_MERGE_H_

#include <cstddef>
#include <vector>

#include "core/query.h"

namespace topkmon {

/// Global id of a partition-local record: local_id * partitions +
/// partition. Requires partition < partitions.
inline RecordId NamespaceRecordId(RecordId local_id, std::size_t partition,
                                  std::size_t partitions) {
  return local_id * static_cast<RecordId>(partitions) +
         static_cast<RecordId>(partition);
}

/// Merges per-partition result lists (each sorted by ResultOrder, as
/// every engine's CurrentResult returns) into the global top-k, with
/// entry ids ALREADY namespaced by the caller. Ties follow ResultOrder
/// (descending score, then descending id), making the merge
/// deterministic for any input.
std::vector<ResultEntry> MergeTopK(
    const std::vector<std::vector<ResultEntry>>& per_partition, int k);

}  // namespace topkmon

#endif  // TOPKMON_CLUSTER_TOPK_MERGE_H_
