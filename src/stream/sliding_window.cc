#include "stream/sliding_window.h"

namespace topkmon {

SlidingWindow SlidingWindow::CountBased(std::size_t capacity) {
  assert(capacity > 0);
  return SlidingWindow(WindowKind::kCountBased, capacity, 0);
}

SlidingWindow SlidingWindow::TimeBased(Timestamp span) {
  assert(span > 0);
  return SlidingWindow(WindowKind::kTimeBased, 0, span);
}

SlidingWindow SlidingWindow::FromSpec(const WindowSpec& spec) {
  return spec.kind == WindowKind::kCountBased ? CountBased(spec.capacity)
                                              : TimeBased(spec.span);
}

Status SlidingWindow::Append(const Record& record) {
  if (record.id == kInvalidRecordId) {
    return Status::InvalidArgument("record has invalid id");
  }
  if (!records_.empty() && record.id != next_id_) {
    return Status::FailedPrecondition(
        "record ids must be contiguous and increasing: expected " +
        std::to_string(next_id_) + ", got " + std::to_string(record.id));
  }
  if (record.arrival < last_arrival_) {
    return Status::FailedPrecondition(
        "arrival timestamps must be non-decreasing");
  }
  if (records_.empty()) front_id_ = record.id;
  records_.push_back(record);
  next_id_ = record.id + 1;
  last_arrival_ = record.arrival;
  return Status::Ok();
}

std::vector<Record> SlidingWindow::EvictExpired(Timestamp now) {
  std::vector<Record> expired;
  if (kind_ == WindowKind::kCountBased) {
    while (records_.size() > capacity_) {
      expired.push_back(records_.front());
      records_.pop_front();
      ++front_id_;
    }
  } else {
    const Timestamp cutoff = now - span_;
    while (!records_.empty() && records_.front().arrival <= cutoff) {
      expired.push_back(records_.front());
      records_.pop_front();
      ++front_id_;
    }
  }
  return expired;
}

}  // namespace topkmon
