// Span recording for the traced run, and the CPU accounting of calls the
// load generator makes into the system under test.
//
// Spans live in one preallocated buffer (no allocation while tracing)
// and are written out when the run ends. Each thread keeps a stack of
// its open spans, so a span opened inside another on the same thread
// records it as its parent; a layer's self time is its duration minus
// what its children cover (stats.h SelfTimes).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "stats.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

inline std::int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
inline std::int64_t ProcessCpuNs() {
  return ClockNs(CLOCK_PROCESS_CPUTIME_ID);
}

/// Span names: one per layer boundary the benchmark times.
enum SpanName : std::uint16_t {
  kNetIngestRpc,      ///< MonitorClient::Ingest (producer connection)
  kNetPollRpc,        ///< MonitorClient::PollDeltas
  kNetReadRpc,        ///< MonitorClient::CurrentResult
  kNetRegisterRpc,    ///< MonitorClient::Register
  kServiceIngest,     ///< MonitorService::TryIngestBatch
  kServiceWait,       ///< MonitorService::WaitDeltas
  kServiceRead,       ///< MonitorService::CurrentResult
  kServiceRegister,   ///< MonitorService::Register / Unregister
  kServiceStats,      ///< MonitorService::stats (backlog sampler)
  kServiceApplyWait,  ///< cycle observer -> ProcessCycle entry
  kServicePublish,    ///< the service's delta callback (hub publish)
  kRouterIngest,      ///< ClusterRouter::Ingest
  kRouterPoll,        ///< ClusterRouter::PollDeltas
  kRouterRead,        ///< ClusterRouter::CurrentResult
  kRouterRegister,    ///< ClusterRouter::Register
  kCoreCycle,         ///< MonitorEngine::ProcessCycle
  kCoreRegister,      ///< MonitorEngine::RegisterQuery / UnregisterQuery
  kCoreRead,          ///< MonitorEngine::CurrentResult
  kNumSpanNames
};

const char* SpanNameString(std::uint16_t name);

/// Fixed-capacity span buffer. Begin/End are thread-safe; spans are read
/// only after every recording thread has stopped.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  /// Opens a span on the calling thread; -1 when the buffer is full.
  std::int32_t Begin(std::uint16_t name, std::int64_t id);
  /// Closes a span opened by Begin on the calling thread.
  void End(std::int32_t index);

  std::size_t size() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as CSV (name,thread,parent,id,start,end,cpu).
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// The active tracer; nullptr while tracing is off.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

/// Per-thread tally of the CPU a generator thread spends inside calls
/// into the system under test. Written by its thread, read by the main
/// thread at phase boundaries.
struct SutCallCpu {
  std::atomic<std::int64_t> ns{0};
};

/// Times one call from a generator thread into the system under test:
/// always charges its thread CPU to `cpu`, and records a span when
/// tracing is on.
class SutCall {
 public:
  SutCall(SutCallCpu& cpu, std::uint16_t name, std::int64_t id);
  ~SutCall();
  SutCall(const SutCall&) = delete;
  SutCall& operator=(const SutCall&) = delete;

 private:
  SutCallCpu& cpu_;
  std::int64_t cpu_start_;
  std::int32_t span_ = -1;
};

/// Forwarding engine decorator: the traced run installs it around the
/// engine (a cluster through engine_factory) to time ProcessCycle,
/// registration and snapshot reads, and the service's delta callback,
/// and to learn which threads drive cycles.
class TracedEngine final : public topkmon::MonitorEngine {
 public:
  explicit TracedEngine(std::unique_ptr<topkmon::MonitorEngine> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  int dim() const override { return inner_->dim(); }
  topkmon::Status RegisterQuery(const topkmon::QuerySpec& spec) override;
  topkmon::Status UnregisterQuery(topkmon::QueryId id) override;
  topkmon::Status ProcessCycle(topkmon::Timestamp now,
                               topkmon::RecordSpan arrivals) override;
  topkmon::Result<std::vector<topkmon::ResultEntry>> CurrentResult(
      topkmon::QueryId id) const override;
  void SetDeltaCallback(topkmon::DeltaCallback callback) override;
  std::size_t WindowSize() const override { return inner_->WindowSize(); }
  topkmon::Result<topkmon::EngineSnapshot> SnapshotState() const override {
    return inner_->SnapshotState();
  }
  topkmon::Status RestoreState(
      const topkmon::EngineSnapshot& snapshot) override {
    return inner_->RestoreState(snapshot);
  }
  const topkmon::EngineStats& stats() const override {
    return inner_->stats();
  }
  topkmon::MemoryBreakdown Memory() const override {
    return inner_->Memory();
  }

 private:
  std::unique_ptr<topkmon::MonitorEngine> inner_;
};

/// Kernel ids of the threads that have run TracedEngine::ProcessCycle.
std::set<long> DriverThreadIds();

/// Cycle observer body for the traced run: opens the apply-wait span on
/// the driver thread, which TracedEngine::ProcessCycle closes.
void ObserveCycle(topkmon::Timestamp ts);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
