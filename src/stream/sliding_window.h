// Sliding windows over an append-only stream.
//
// The paper's data model (Section 1): tuples continuously stream into the
// system and are valid only while they belong to a sliding window W.
//   * count-based W: the N most recent records;
//   * time-based W: all records that arrived within the last T time units.
// In both versions eviction is strictly first-in-first-out (Section 4.1),
// so the valid records always form a contiguous range of arrival ids; the
// window stores them in a deque and locates any record by id in O(1).

#ifndef TOPKMON_STREAM_SLIDING_WINDOW_H_
#define TOPKMON_STREAM_SLIDING_WINDOW_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "common/record.h"
#include "common/status.h"

namespace topkmon {

/// Which flavor of sliding window (Section 1).
enum class WindowKind {
  kCountBased,  ///< keep the most recent `capacity` tuples
  kTimeBased,   ///< keep tuples with arrival > now - span
};

/// Window configuration shared by all engines and monitors.
struct WindowSpec {
  WindowKind kind = WindowKind::kCountBased;
  std::size_t capacity = 0;  ///< count-based: N most recent tuples
  Timestamp span = 0;        ///< time-based: tuples younger than `span`

  static WindowSpec Count(std::size_t n) {
    return WindowSpec{WindowKind::kCountBased, n, 0};
  }
  static WindowSpec Time(Timestamp span) {
    return WindowSpec{WindowKind::kTimeBased, 0, span};
  }
};

/// FIFO sliding window storing the valid records of the stream.
///
/// Usage per processing cycle:
///   1. Append() each arriving record (ids must be strictly increasing);
///   2. EvictExpired(now) to obtain (and drop) the expired records.
/// Engines receive both lists and update their indexes accordingly.
class SlidingWindow {
 public:
  /// Window of the `capacity` most recent tuples. Requires capacity > 0.
  static SlidingWindow CountBased(std::size_t capacity);

  /// Window of tuples with arrival timestamp in (now - span, now].
  /// Requires span > 0.
  static SlidingWindow TimeBased(Timestamp span);

  /// The window `spec` describes: CountBased(capacity) or
  /// TimeBased(span).
  static SlidingWindow FromSpec(const WindowSpec& spec);

  WindowKind kind() const { return kind_; }
  std::size_t capacity() const { return capacity_; }
  Timestamp span() const { return span_; }

  /// Admits an arriving record. Ids must be strictly increasing across all
  /// appends (they encode arrival order); violations return
  /// FailedPrecondition. Arrival timestamps must be non-decreasing.
  Status Append(const Record& record);

  /// Removes and returns all records that are no longer valid:
  ///   count-based: the oldest records beyond `capacity`;
  ///   time-based: records with arrival <= now - span.
  /// Records are returned in expiration (arrival) order.
  std::vector<Record> EvictExpired(Timestamp now);

  /// True iff the record with this id is currently valid.
  bool Contains(RecordId id) const {
    return !records_.empty() && id >= front_id_ &&
           id < front_id_ + records_.size();
  }

  /// O(1) access to a valid record. Requires Contains(id).
  const Record& Get(RecordId id) const {
    assert(Contains(id));
    return records_[static_cast<std::size_t>(id - front_id_)];
  }

  /// Number of valid records.
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Oldest (first to expire) valid record. Requires !empty().
  const Record& Oldest() const {
    assert(!empty());
    return records_.front();
  }

  /// Iteration over valid records in arrival order (for reference engines
  /// and tests).
  std::deque<Record>::const_iterator begin() const { return records_.begin(); }
  std::deque<Record>::const_iterator end() const { return records_.end(); }

  /// Approximate heap footprint of the stored records.
  std::size_t MemoryBytes() const { return records_.size() * sizeof(Record); }

 private:
  SlidingWindow(WindowKind kind, std::size_t capacity, Timestamp span)
      : kind_(kind), capacity_(capacity), span_(span) {}

  WindowKind kind_;
  std::size_t capacity_;  ///< meaningful iff kind == kCountBased
  Timestamp span_;        ///< meaningful iff kind == kTimeBased
  std::deque<Record> records_;
  RecordId front_id_ = 0;     ///< id of records_.front()
  RecordId next_id_ = 0;      ///< smallest id not yet seen
  Timestamp last_arrival_ = -1;
};

}  // namespace topkmon

#endif  // TOPKMON_STREAM_SLIDING_WINDOW_H_
