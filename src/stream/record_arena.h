// Recyclable region allocator for the zero-copy ingest hot path.
//
// RecordArena grows the slab idea of RecordPool into a region allocator
// for *in-flight* records: a producer (a TCP poll loop decoding an
// ingest frame, or the ingest queue admitting an in-process tuple)
// allocates a contiguous span of Records, fills it in place, and hands
// out RecordSpan views instead of copies. Consumers release the span
// when they are done; storage is reclaimed chunk-at-a-time and recycled
// through a bounded free list, so a warmed-up arena allocates no new
// memory at steady state.
//
// Reclamation is epoch-based and keyed to cycle publish:
//   * every allocation is stamped with the arena's current epoch;
//   * AdvanceEpoch() seals the current epoch — in the service this
//     happens once per published cycle (IngestQueue::CommitDrained), in
//     a poll loop once per decoded ingest frame;
//   * RetireThrough(e) moves the retire frontier — a chunk can only be
//     recycled once its newest allocation epoch is at or below the
//     frontier, every record allocated from it has been released, AND
//     no consumer still pins an epoch at or below the chunk's newest
//     (PinEpoch/UnpinEpoch cover long-held views: a parked long-poll or
//     a journal writer serializing from the span).
//
// Thread safety: all member functions are thread-safe (one internal
// mutex). The intended shape is still single-producer per arena —
// allocation is amortized per *span*, not per record, so the lock is
// not on the per-record path. Record contents are published to other
// threads by whatever queue hands the span over (the ingest queue's
// mutex), not by the arena.

#ifndef TOPKMON_STREAM_RECORD_ARENA_H_
#define TOPKMON_STREAM_RECORD_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/record.h"

namespace topkmon {

struct RecordArenaOptions {
  /// Records per chunk; a span larger than this gets a dedicated chunk.
  std::size_t chunk_records = 4096;
  /// Fully reclaimed chunks kept for reuse; beyond this they are freed
  /// outright, so a hostile burst cannot ratchet resident memory up
  /// forever.
  std::size_t max_free_chunks = 4;
};

/// Observable arena counters (all monotone except the byte gauges).
struct RecordArenaStats {
  std::uint64_t allocated_records = 0;  ///< records ever handed out
  std::uint64_t released_records = 0;   ///< records handed back
  std::uint64_t chunks_created = 0;     ///< fresh slab allocations
  std::uint64_t chunks_recycled = 0;    ///< reclaimed via the free list
  std::uint64_t chunks_freed = 0;       ///< reclaimed past the free cap
  std::size_t resident_bytes = 0;       ///< live + free slab bytes
  std::size_t peak_resident_bytes = 0;  ///< high-water mark
};

/// Epoch-reclaimed region allocator of Record spans.
class RecordArena {
 public:
  explicit RecordArena(const RecordArenaOptions& options = {});
  ~RecordArena();

  RecordArena(const RecordArena&) = delete;
  RecordArena& operator=(const RecordArena&) = delete;

  /// A contiguous, uninitialized span of `n` records stamped with the
  /// current epoch. Never returns nullptr for n > 0; n == 0 returns
  /// nullptr. The span stays valid until all `n` records are Released
  /// AND the reclamation conditions above let its chunk go.
  Record* Allocate(std::size_t n);

  /// Hands back `n` records starting at `p` (an Allocate result or a
  /// prefix/suffix of one — releases may be split, e.g. a rejected
  /// suffix now and the admitted prefix after cycle publish). Chunks
  /// whose records are all released and whose epoch has retired are
  /// recycled here.
  void Release(const Record* p, std::size_t n);

  /// Release for a span no consumer has seen (a decode failure, a record
  /// refused at admission). When the span is the newest allocation of
  /// its chunk its room is handed back at once, without waiting for the
  /// epoch to retire, so a producer bouncing off a full queue while no
  /// cycle publishes reuses one chunk instead of growing the arena.
  /// Otherwise the same as Release.
  void Discard(const Record* p, std::size_t n);

  /// The epoch new allocations are stamped with.
  std::uint64_t current_epoch() const;

  /// Seals the current epoch and opens the next; returns the sealed
  /// epoch. Call once per cycle publish (or per decoded frame).
  std::uint64_t AdvanceEpoch();

  /// Moves the retire frontier forward to `epoch` (monotone; lower
  /// values are ignored). Chunks whose newest allocation epoch is at or
  /// below the frontier become reclaimable once fully released and
  /// unpinned.
  void RetireThrough(std::uint64_t epoch);

  /// Pins `epoch` against reclamation while a view into it is held
  /// beyond its release point (journal writers, parked long-polls).
  /// Pins nest; each PinEpoch needs a matching UnpinEpoch.
  void PinEpoch(std::uint64_t epoch);
  void UnpinEpoch(std::uint64_t epoch);

  /// Slab bytes currently held (live chunks + free list) — the
  /// topkmon_arena_bytes gauge. Zero growth of this at steady state is
  /// what the soak tier asserts.
  std::size_t ResidentBytes() const;

  RecordArenaStats stats() const;

 private:
  struct Chunk {
    Record* slab = nullptr;
    std::size_t capacity = 0;
    std::size_t used = 0;          ///< records handed out of this chunk
    std::size_t released = 0;      ///< records handed back
    std::uint64_t last_epoch = 0;  ///< newest allocation epoch
    bool sealed = false;           ///< no further allocations
  };

  /// Reclaims every chunk that satisfies the three conditions. Caller
  /// holds mu_.
  void ReclaimLocked();
  /// Smallest pinned epoch, or a value above every epoch when none.
  std::uint64_t MinPinnedLocked() const;

  const RecordArenaOptions options_;

  mutable std::mutex mu_;
  std::vector<Chunk> chunks_;        ///< live chunks, oldest first
  std::vector<Chunk> free_chunks_;   ///< fully reclaimed, reusable slabs
  std::uint64_t epoch_ = 1;
  std::uint64_t retired_through_ = 0;
  std::map<std::uint64_t, std::size_t> pins_;
  RecordArenaStats stats_;
};

}  // namespace topkmon

#endif  // TOPKMON_STREAM_RECORD_ARENA_H_
