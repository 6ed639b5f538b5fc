#include "trace.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<std::uint16_t> g_next_thread{0};

std::mutex g_drivers_mu;
std::set<long> g_drivers;

struct ThreadState {
  std::uint16_t number = g_next_thread.fetch_add(1);
  std::vector<std::int32_t> open;  ///< stack of open span indices
  std::int32_t apply_wait = -1;    ///< open observer->ProcessCycle span
  bool driver_noted = false;
};

ThreadState& Self() {
  thread_local ThreadState state;
  return state;
}

/// Opens a span when tracing is on; -1 otherwise.
std::int32_t BeginIfTracing(std::uint16_t name, std::int64_t id) {
  Tracer* t = ActiveTracer();
  return t == nullptr ? -1 : t->Begin(name, id);
}

void EndIfOpen(std::int32_t index) {
  Tracer* t = ActiveTracer();
  if (t != nullptr && index >= 0) t->End(index);
}

}  // namespace

const char* SpanNameString(std::uint16_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "net.ingest_rpc",     "net.poll_rpc",         "net.read_rpc",
      "net.register_rpc",   "service.ingest_call",  "service.wait_call",
      "service.read_call",  "service.register_call", "service.stats_call",
      "service.apply_wait", "service.publish",      "cluster.router_ingest",
      "cluster.router_poll", "cluster.router_read", "cluster.router_register",
      "core.cycle",         "core.register",        "core.read",
  };
  return name < kNumSpanNames ? kNames[name] : "unknown";
}

Tracer::Tracer(std::size_t capacity) : spans_(capacity) {}

std::int32_t Tracer::Begin(std::uint16_t name, std::int64_t id) {
  const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  ThreadState& self = Self();
  Span& s = spans_[idx];
  s.name = name;
  s.thread = self.number;
  s.parent = self.open.empty() ? -1 : self.open.back();
  s.id = id;
  s.cpu_ns = ThreadCpuNs();
  s.start_ns = NowNs();
  const auto index = static_cast<std::int32_t>(idx);
  self.open.push_back(index);
  return index;
}

void Tracer::End(std::int32_t index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = NowNs();
  s.cpu_ns = ThreadCpuNs() - s.cpu_ns;
  ThreadState& self = Self();
  if (!self.open.empty() && self.open.back() == index) self.open.pop_back();
}

std::size_t Tracer::size() const {
  return std::min(next_.load(std::memory_order_relaxed), spans_.size());
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,thread,parent,id,start_ns,end_ns,cpu_ns\n");
  for (std::size_t i = 0; i < size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%u,%d,%lld,%lld,%lld,%lld\n", SpanNameString(s.name),
                 static_cast<unsigned>(s.thread), s.parent,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.cpu_ns));
  }
  return std::fclose(f) == 0;
}

Tracer* ActiveTracer() { return g_tracer.load(std::memory_order_acquire); }
void SetActiveTracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

SutCall::SutCall(SutCallCpu& cpu, std::uint16_t name, std::int64_t id)
    : cpu_(cpu), cpu_start_(ThreadCpuNs()), span_(BeginIfTracing(name, id)) {}

SutCall::~SutCall() {
  EndIfOpen(span_);
  cpu_.ns.fetch_add(ThreadCpuNs() - cpu_start_, std::memory_order_relaxed);
}

topkmon::Status TracedEngine::RegisterQuery(const topkmon::QuerySpec& spec) {
  const std::int32_t span =
      BeginIfTracing(kCoreRegister, static_cast<std::int64_t>(spec.id));
  topkmon::Status st = inner_->RegisterQuery(spec);
  EndIfOpen(span);
  return st;
}

topkmon::Status TracedEngine::UnregisterQuery(topkmon::QueryId id) {
  const std::int32_t span =
      BeginIfTracing(kCoreRegister, static_cast<std::int64_t>(id));
  topkmon::Status st = inner_->UnregisterQuery(id);
  EndIfOpen(span);
  return st;
}

topkmon::Status TracedEngine::ProcessCycle(topkmon::Timestamp now,
                                           topkmon::RecordSpan arrivals) {
  ThreadState& self = Self();
  if (!self.driver_noted) {
    self.driver_noted = true;
    std::lock_guard<std::mutex> lock(g_drivers_mu);
    g_drivers.insert(static_cast<long>(syscall(SYS_gettid)));
  }
  if (self.apply_wait >= 0) {
    // Closed even if tracing was switched off since the observer ran,
    // so the thread's span stack stays balanced.
    Tracer* t = ActiveTracer();
    if (t != nullptr) t->End(self.apply_wait);
    self.apply_wait = -1;
  }
  const std::int32_t span = BeginIfTracing(kCoreCycle, now);
  topkmon::Status st = inner_->ProcessCycle(now, arrivals);
  EndIfOpen(span);
  return st;
}

topkmon::Result<std::vector<topkmon::ResultEntry>> TracedEngine::CurrentResult(
    topkmon::QueryId id) const {
  const std::int32_t span =
      BeginIfTracing(kCoreRead, static_cast<std::int64_t>(id));
  auto result = inner_->CurrentResult(id);
  EndIfOpen(span);
  return result;
}

void TracedEngine::SetDeltaCallback(topkmon::DeltaCallback callback) {
  if (!callback) {
    inner_->SetDeltaCallback(nullptr);
    return;
  }
  inner_->SetDeltaCallback(
      [cb = std::move(callback)](const topkmon::ResultDelta& delta) {
        const std::int32_t span = BeginIfTracing(kServicePublish, delta.when);
        cb(delta);
        EndIfOpen(span);
      });
}

std::set<long> DriverThreadIds() {
  std::lock_guard<std::mutex> lock(g_drivers_mu);
  return g_drivers;
}

void ObserveCycle(topkmon::Timestamp ts) {
  ThreadState& self = Self();
  if (self.apply_wait < 0) {
    self.apply_wait = BeginIfTracing(kServiceApplyWait, ts);
  }
}

}  // namespace perfbench
