#include "service/subscription_hub.h"

#include <algorithm>
#include <cassert>

#include "util/memory_tracker.h"

namespace topkmon {

SubscriptionHub::SubscriptionHub(const HubOptions& options)
    : options_(options) {
  assert(options_.buffer_capacity > 0);
}

void SubscriptionHub::Attach(SessionId session) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.try_emplace(session);
}

void SubscriptionHub::Detach(SessionId session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.erase(session);
    for (auto it = routes_.begin(); it != routes_.end();) {
      it = it->second == session ? routes_.erase(it) : std::next(it);
    }
  }
  // Wake long-pollers on the detached session: their buffer is gone and
  // no Publish will ever notify them again.
  event_cv_.notify_all();
}

Status SubscriptionHub::Bind(QueryId query, SessionId session) {
  std::lock_guard<std::mutex> lock(mu_);
  if (buffers_.count(session) == 0) {
    return Status::NotFound("session " + std::to_string(session) +
                            " is not attached to the hub");
  }
  auto [it, inserted] = routes_.emplace(query, session);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("query id " + std::to_string(query) +
                                 " is already bound");
  }
  return Status::Ok();
}

void SubscriptionHub::Unbind(QueryId query) {
  std::lock_guard<std::mutex> lock(mu_);
  routes_.erase(query);
}

bool SubscriptionHub::AppendLocked(
    ResultDelta delta, std::chrono::steady_clock::time_point now) {
  ++stats_.published;
  auto route = routes_.find(delta.query);
  if (route == routes_.end()) {
    ++stats_.unrouted;
    return false;
  }
  auto buffer = buffers_.find(route->second);
  if (buffer == buffers_.end()) {
    ++stats_.unrouted;
    return false;
  }
  Buffer& b = buffer->second;
  if (b.events.size() >= options_.buffer_capacity) {
    b.events.pop_front();
    ++b.dropped;
    ++stats_.dropped;
  }
  b.events.push_back(
      BufferedEvent{DeltaEvent{b.next_seq++, std::move(delta)}, now});
  return true;
}

void SubscriptionHub::Publish(ResultDelta delta) {
  bool buffered;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffered =
        AppendLocked(std::move(delta), std::chrono::steady_clock::now());
  }
  if (buffered) event_cv_.notify_all();
}

void SubscriptionHub::PublishCycle(std::vector<ResultDelta>* deltas) {
  if (deltas->empty()) return;
  bool buffered = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (ResultDelta& delta : *deltas) {
      buffered |= AppendLocked(std::move(delta), now);
    }
  }
  deltas->clear();
  if (buffered) event_cv_.notify_all();
}

std::size_t SubscriptionHub::PollLocked(Buffer& buffer, std::size_t max,
                                        std::vector<DeltaEvent>* out) {
  const std::size_t n = std::min(max, buffer.events.size());
  const auto now =
      n > 0 && delivery_histogram_ != nullptr
          ? std::chrono::steady_clock::now()
          : std::chrono::steady_clock::time_point{};
  for (std::size_t i = 0; i < n; ++i) {
    BufferedEvent& buffered = buffer.events.front();
    if (delivery_histogram_ != nullptr) {
      delivery_histogram_->Record(now - buffered.published_at);
    }
    out->push_back(std::move(buffered.event));
    buffer.events.pop_front();
  }
  stats_.delivered += n;
  return n;
}

std::size_t SubscriptionHub::Poll(SessionId session, std::size_t max,
                                  std::vector<DeltaEvent>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buffers_.find(session);
  if (it == buffers_.end()) return 0;
  return PollLocked(it->second, max, out);
}

std::size_t SubscriptionHub::WaitPoll(SessionId session, std::size_t max,
                                      std::chrono::milliseconds timeout,
                                      std::vector<DeltaEvent>* out) {
  std::unique_lock<std::mutex> lock(mu_);
  auto ready = [this, session] {
    auto it = buffers_.find(session);
    return it == buffers_.end() || !it->second.events.empty();
  };
  event_cv_.wait_for(lock, timeout, ready);
  auto it = buffers_.find(session);
  if (it == buffers_.end()) return 0;
  return PollLocked(it->second, max, out);
}

std::uint64_t SubscriptionHub::Dropped(SessionId session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buffers_.find(session);
  return it == buffers_.end() ? 0 : it->second.dropped;
}

std::size_t SubscriptionHub::Depth(SessionId session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buffers_.find(session);
  return it == buffers_.end() ? 0 : it->second.events.size();
}

HubStats SubscriptionHub::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SubscriptionHub::SetDeliveryHistogram(LatencyHistogram* histogram) {
  std::lock_guard<std::mutex> lock(mu_);
  delivery_histogram_ = histogram;
}

std::size_t SubscriptionHub::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = 0;
  for (const auto& [session, buffer] : buffers_) {
    bytes += sizeof(Buffer);
    for (const BufferedEvent& e : buffer.events) {
      bytes += sizeof(BufferedEvent) + VectorBytes(e.event.delta.added) +
               VectorBytes(e.event.delta.removed);
    }
  }
  return bytes;
}

}  // namespace topkmon
