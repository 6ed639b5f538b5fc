#include "core/delta.h"

namespace topkmon {

void DeltaTracker::SetCallback(DeltaCallback callback) {
  callback_ = std::move(callback);
  report_all_ = static_cast<bool>(callback_);
  changed_.clear();
  // Nothing has been reported to the new callback (or there is none).
  for (auto& [query, last] : last_reported_) {
    std::vector<ResultEntry>().swap(last);
  }
}

void DeltaTracker::Report(QueryId query, Timestamp when,
                          std::vector<ResultEntry> current) {
  if (!callback_) return;
  std::vector<ResultEntry>& last = last_reported_[query];
  ResultDelta delta;
  delta.query = query;
  delta.when = when;
  // Results are small (k entries); an id-membership scan beats hashing.
  const auto contains = [](const std::vector<ResultEntry>& haystack,
                           RecordId id) {
    for (const ResultEntry& e : haystack) {
      if (e.id == id) return true;
    }
    return false;
  };
  for (const ResultEntry& e : current) {
    if (!contains(last, e.id)) delta.added.push_back(e);
  }
  for (const ResultEntry& e : last) {
    if (!contains(current, e.id)) delta.removed.push_back(e);
  }
  if (delta.added.empty() && delta.removed.empty()) return;
  last = std::move(current);
  callback_(std::move(delta));
}

std::size_t DeltaTracker::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& [query, entries] : last_reported_) {
    bytes += VectorBytes(entries);
  }
  return bytes;
}

}  // namespace topkmon
