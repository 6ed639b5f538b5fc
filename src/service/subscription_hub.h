// Delta fan-out to per-session subscription buffers (service layer).
//
// The engines report result changes through a single DeltaCallback; the
// service must route each query's deltas to the session that registered
// it and let every client consume at its own pace. SubscriptionHub does
// that with one bounded buffer per session:
//   * Bind(query, session) routes a query's deltas to a session buffer;
//     binding is established *before* engine registration so the initial
//     result delta is never lost.
//   * PublishCycle() (driver thread, once per cycle) and Publish() (the
//     registration path) append sequence-numbered DeltaEvents to the
//     owning sessions' buffers. A cycle's deltas enter under one lock
//     acquisition with one timestamp and wake waiting pollers once. The
//     sequence is per-session and gap-free, so a consumer that observes
//     seq jump from n to n+2 knows exactly one event was dropped.
//   * A buffer at capacity drops its *oldest* event and counts the drop —
//     a slow subscriber loses history, never freshness, and the loss is
//     visible both in the per-session drop counter and as a sequence gap.
//   * Poll()/WaitPoll() move buffered events out; WaitPoll blocks until
//     something arrives or the timeout expires (long-poll shape).

#ifndef TOPKMON_SERVICE_SUBSCRIPTION_HUB_H_
#define TOPKMON_SERVICE_SUBSCRIPTION_HUB_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/delta.h"
#include "obs/metrics.h"
#include "service/session.h"

namespace topkmon {

/// One fan-out unit: a result delta stamped with its position in the
/// owning session's delivery sequence (starts at 1, increments by 1 per
/// published event; gaps mean overflow drops).
struct DeltaEvent {
  std::uint64_t seq = 0;
  ResultDelta delta;
};

struct HubOptions {
  /// Events buffered per session before the oldest is dropped.
  std::size_t buffer_capacity = 1024;
};

/// Observable hub counters.
struct HubStats {
  std::uint64_t published = 0;  ///< deltas handed to Publish
  std::uint64_t delivered = 0;  ///< events moved out by Poll/WaitPoll
  std::uint64_t dropped = 0;    ///< events evicted from full buffers
  std::uint64_t unrouted = 0;   ///< deltas for queries with no binding
};

/// Thread-safe delta router with bounded per-session buffers.
class SubscriptionHub {
 public:
  explicit SubscriptionHub(const HubOptions& options);

  SubscriptionHub(const SubscriptionHub&) = delete;
  SubscriptionHub& operator=(const SubscriptionHub&) = delete;

  /// Creates the session's (empty) buffer. Idempotent.
  void Attach(SessionId session);

  /// Destroys the session's buffer, discarding pending events and any
  /// query bindings still pointing at it.
  void Detach(SessionId session);

  /// Routes future deltas of `query` to `session`'s buffer. AlreadyExists
  /// if the query is bound elsewhere; NotFound if the session is not
  /// attached.
  Status Bind(QueryId query, SessionId session);

  /// Stops routing `query`; buffered events remain consumable.
  void Unbind(QueryId query);

  /// Appends `delta` to the buffer of the session its query is bound to.
  /// Unbound queries are counted (unrouted) and otherwise ignored — a
  /// query may legitimately produce one last delta mid-termination.
  void Publish(ResultDelta delta);

  /// Publishes one cycle's deltas, in order, like Publish(), but under one
  /// lock acquisition, with one publish instant and at most one wake-up of
  /// waiting pollers. Moves the deltas out and leaves *deltas empty.
  void PublishCycle(std::vector<ResultDelta>* deltas);

  /// Moves up to `max` pending events into *out; returns how many.
  std::size_t Poll(SessionId session, std::size_t max,
                   std::vector<DeltaEvent>* out);

  /// Like Poll, but blocks until at least one event is available or
  /// `timeout` expires.
  std::size_t WaitPoll(SessionId session, std::size_t max,
                       std::chrono::milliseconds timeout,
                       std::vector<DeltaEvent>* out);

  /// Events this session has lost to overflow so far.
  std::uint64_t Dropped(SessionId session) const;

  /// Events currently buffered for this session.
  std::size_t Depth(SessionId session) const;

  HubStats stats() const;

  /// Admin-plane instrumentation: every event moved out by Poll/WaitPoll
  /// records (poll instant − publish instant) into `histogram` — the
  /// cycle-publish→delta-delivery latency the service registers as
  /// topkmon_delta_delivery_latency_seconds. The histogram must outlive
  /// the hub; nullptr (the default) disables timing. Install before the
  /// driver starts publishing (the service constructor does).
  void SetDeliveryHistogram(LatencyHistogram* histogram);

  /// Approximate heap footprint of all buffered events.
  std::size_t MemoryBytes() const;

 private:
  /// A buffered event plus the instant Publish() stamped it — internal
  /// so the public DeltaEvent wire shape carries no clock.
  struct BufferedEvent {
    DeltaEvent event;
    std::chrono::steady_clock::time_point published_at;
  };

  struct Buffer {
    std::deque<BufferedEvent> events;
    std::uint64_t next_seq = 1;
    std::uint64_t dropped = 0;
  };

  /// Routes one delta into its session's buffer; true iff it was
  /// buffered. Caller holds mu_.
  bool AppendLocked(ResultDelta delta,
                    std::chrono::steady_clock::time_point now);
  std::size_t PollLocked(Buffer& buffer, std::size_t max,
                         std::vector<DeltaEvent>* out);

  const HubOptions options_;

  mutable std::mutex mu_;
  std::condition_variable event_cv_;
  std::unordered_map<SessionId, Buffer> buffers_;
  std::unordered_map<QueryId, SessionId> routes_;
  HubStats stats_;
  LatencyHistogram* delivery_histogram_ = nullptr;
};

}  // namespace topkmon

#endif  // TOPKMON_SERVICE_SUBSCRIPTION_HUB_H_
