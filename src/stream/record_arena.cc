#include "stream/record_arena.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace topkmon {

RecordArena::RecordArena(const RecordArenaOptions& options)
    : options_(options) {
  assert(options_.chunk_records > 0);
}

RecordArena::~RecordArena() {
  for (Chunk& c : chunks_) delete[] c.slab;
  for (Chunk& c : free_chunks_) delete[] c.slab;
}

Record* RecordArena::Allocate(std::size_t n) {
  if (n == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  Chunk* open = nullptr;
  if (!chunks_.empty() && !chunks_.back().sealed &&
      chunks_.back().capacity - chunks_.back().used >= n) {
    open = &chunks_.back();
  }
  if (open == nullptr) {
    if (!chunks_.empty()) chunks_.back().sealed = true;
    // Prefer a recycled slab big enough for the span; a span larger
    // than every free slab gets a fresh (possibly oversized) chunk.
    auto fit = std::find_if(
        free_chunks_.begin(), free_chunks_.end(),
        [n](const Chunk& c) { return c.capacity >= n; });
    if (fit != free_chunks_.end()) {
      chunks_.push_back(*fit);
      free_chunks_.erase(fit);
      ++stats_.chunks_recycled;
    } else {
      Chunk fresh;
      fresh.capacity = std::max(options_.chunk_records, n);
      fresh.slab = new Record[fresh.capacity];
      chunks_.push_back(fresh);
      ++stats_.chunks_created;
      stats_.resident_bytes += fresh.capacity * sizeof(Record);
      stats_.peak_resident_bytes =
          std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
    }
    open = &chunks_.back();
    open->used = 0;
    open->released = 0;
    open->sealed = false;
  }
  Record* span = open->slab + open->used;
  open->used += n;
  open->last_epoch = epoch_;
  stats_.allocated_records += n;
  return span;
}

void RecordArena::Release(const Record* p, std::size_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (Chunk& c : chunks_) {
    if (p >= c.slab && p < c.slab + c.capacity) {
      assert(p + n <= c.slab + c.used);
      c.released += n;
      assert(c.released <= c.used);
      stats_.released_records += n;
      ReclaimLocked();
      return;
    }
  }
  assert(false && "Release of a span this arena never allocated");
}

void RecordArena::Discard(const Record* p, std::size_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (Chunk& c : chunks_) {
    if (p >= c.slab && p < c.slab + c.capacity) {
      assert(p + n <= c.slab + c.used);
      if (p + n == c.slab + c.used) {
        c.used -= n;
      } else {
        c.released += n;
      }
      assert(c.released <= c.used);
      stats_.released_records += n;
      ReclaimLocked();
      return;
    }
  }
  assert(false && "Discard of a span this arena never allocated");
}

std::uint64_t RecordArena::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

std::uint64_t RecordArena::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t sealed = epoch_++;
  if (!chunks_.empty() && !chunks_.back().sealed) {
    // An untouched open chunk stays open; one that allocated in the
    // sealed epoch is closed so the next span starts a fresh lifetime.
    if (chunks_.back().last_epoch == sealed && chunks_.back().used > 0) {
      chunks_.back().sealed = true;
    }
  }
  return sealed;
}

void RecordArena::RetireThrough(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch <= retired_through_) return;
  retired_through_ = epoch;
  ReclaimLocked();
}

void RecordArena::PinEpoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pins_[epoch];
}

void RecordArena::UnpinEpoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(epoch);
  assert(it != pins_.end());
  if (it == pins_.end()) return;
  if (--it->second == 0) pins_.erase(it);
  ReclaimLocked();
}

std::size_t RecordArena::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.resident_bytes;
}

RecordArenaStats RecordArena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t RecordArena::MinPinnedLocked() const {
  return pins_.empty() ? std::numeric_limits<std::uint64_t>::max()
                       : pins_.begin()->first;
}

void RecordArena::ReclaimLocked() {
  const std::uint64_t min_pinned = MinPinnedLocked();
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    const bool reclaimable = it->sealed && it->released == it->used &&
                             it->last_epoch <= retired_through_ &&
                             it->last_epoch < min_pinned;
    if (!reclaimable) {
      ++it;
      continue;
    }
    if (free_chunks_.size() < options_.max_free_chunks) {
      Chunk recycled = *it;
      recycled.used = 0;
      recycled.released = 0;
      recycled.sealed = false;
      recycled.last_epoch = 0;
      free_chunks_.push_back(recycled);
    } else {
      stats_.resident_bytes -= it->capacity * sizeof(Record);
      delete[] it->slab;
      ++stats_.chunks_freed;
    }
    it = chunks_.erase(it);
  }
}

}  // namespace topkmon
