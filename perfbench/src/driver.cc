// perfbench_driver — one run of one benchmark workload against the real
// topkmon stack, on a fixed open-loop schedule.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --rate <records/s> --work-dir <dir>
//
// The offered rate is an argument, never derived from a measurement, so
// two commits face the same load. Batches are due at fixed instants; a
// batch sent late is timed from when it was due. A run is a number of
// rounds, each with fresh set-ups, a timed slice and an oracle check.
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the first third of the rounds runs
// untraced, the rest traced, and the per-layer metrics describe the
// traced rounds. Diagnostics and the environment stamp go to standard
// error. A wrong result from the system fails the run with exit code 1.

#include <dirent.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/local_cluster.h"
#include "cluster/router.h"
#include "cluster/topk_merge.h"
#include "core/tma_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "service/monitor_service.h"
#include "stats.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using topkmon::ClusterRouter;
using topkmon::DeltaEvent;
using topkmon::LocalCluster;
using topkmon::MonitorClient;
using topkmon::MonitorEngine;
using topkmon::MonitorService;
using topkmon::QueryId;
using topkmon::QuerySpec;
using topkmon::Record;
using topkmon::RecordId;
using topkmon::ResultEntry;
using topkmon::Status;
using topkmon::TcpServer;
using topkmon::Timestamp;

constexpr std::int64_t kMs = 1000000;
constexpr std::int64_t kSec = 1000000000;

// ------------------------------------------------------------ workloads --

enum class Topology { kInProcess, kWire, kCluster };

/// One benchmark workload. Why each exists is in BENCHMARK.json and
/// perfbench/README.md.
struct WorkloadDef {
  std::string name;
  Topology topology = Topology::kInProcess;
  int dim = 2;
  topkmon::WindowSpec window;  ///< per partition in the cluster
  std::size_t queries = 8;     ///< queries the workload registers
  int k = 10;
  std::size_t batch = 512;     ///< records per batch (one timestamp)
  double read_rate = 200;      ///< snapshot reads per second
  bool journal = false;
  bool churn = false;          ///< query-churn register/unregister schedule
  std::size_t read_queries = 0;  ///< static queries reads target (churn)
  std::size_t partitions = 1;
};

bool GetWorkload(const std::string& name, WorkloadDef* w) {
  w->name = name;
  if (name == "wire-ingest") {
    w->topology = Topology::kWire;
    w->dim = 2;
    w->window = topkmon::WindowSpec::Count(10000);
    w->queries = 8;
    w->k = 10;
    w->batch = 512;
    w->journal = true;
  } else if (name == "engine-dense") {
    w->topology = Topology::kInProcess;
    w->dim = 4;
    w->window = topkmon::WindowSpec::Count(100000);
    w->queries = 500;
    w->k = 20;
    w->batch = 500;
  } else if (name == "churn-read") {
    w->topology = Topology::kInProcess;
    w->dim = 4;
    // 200 batches of 500 records: the same 100k-record window as
    // engine-dense, but expiring by time.
    w->window = topkmon::WindowSpec::Time(200);
    w->queries = 100;
    w->k = 20;
    w->batch = 500;
    w->churn = true;
    w->read_queries = 8;
    w->read_rate = 1000;
  } else if (name == "cluster-fanout") {
    w->topology = Topology::kCluster;
    w->dim = 2;
    w->window = topkmon::WindowSpec::Count(10000);
    w->queries = 8;
    w->k = 10;
    w->batch = 512;
    w->partitions = 3;
  } else {
    return false;
  }
  return true;
}

/// Batches that fill the window before the schedule starts.
std::size_t PrefillBatches(const WorkloadDef& w) {
  if (w.window.kind == topkmon::WindowKind::kTimeBased) {
    return static_cast<std::size_t>(w.window.span);
  }
  const std::size_t records = w.window.capacity * w.partitions;
  return (records + w.batch - 1) / w.batch;
}

topkmon::WorkloadOptions GeneratorOptions(const WorkloadDef& w,
                                          std::uint64_t seed,
                                          std::size_t queries,
                                          std::size_t batch) {
  topkmon::WorkloadOptions o;
  o.dim = w.dim;
  o.seed = seed;
  o.k = w.k;
  o.mean_batch = batch;
  o.num_queries = queries;
  return o;
}

std::unique_ptr<topkmon::Workload> MustMakeWorkload(
    const std::string& name, const topkmon::WorkloadOptions& o) {
  auto w = topkmon::MakeWorkload(name, o);
  if (!w.ok()) {
    std::fprintf(stderr, "workload %s: %s\n", name.c_str(),
                 w.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*w);
}

/// The record stream: the `uniform` generator, one step per batch.
std::unique_ptr<topkmon::Workload> RecordStream(const WorkloadDef& w,
                                                std::uint64_t seed) {
  return MustMakeWorkload("uniform", GeneratorOptions(w, seed, 0, w.batch));
}

// ------------------------------------------------------------- options --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double rate = 0;
  std::string work_dir = ".";
  /// The run is this many rounds. Each sets the system up afresh and
  /// runs one slice of the timed phase, so the set-ups are spread over
  /// the whole run, as the timed slices are. On a shared 4-vCPU VM the
  /// CPU one set-up costs moves by up to 1.7x in phases lasting a few
  /// seconds; set-ups taken together at the start of a run all fall in
  /// one phase, and their median moved by 30-50% from run to run.
  int rounds = 16;
  int setups_per_round = 2;  ///< setup_s is the median of all of them
  double warmup_s = 0.1;     ///< schedule run before each timed slice
};

// ------------------------------------------------------------ schedule --

/// One round's open-loop schedule: batch i (timestamp first_ts + i) is
/// due at t0 + i * period, whatever happened to earlier batches.
struct Schedule {
  std::int64_t t0 = 0;
  std::int64_t period_ns = 0;
  Timestamp first_ts = 1;
  std::int64_t t_start = 0;  ///< timed slice begins
  std::int64_t t_end = 0;    ///< timed slice ends; nothing due after it

  std::int64_t Due(std::uint64_t i) const {
    return t0 + static_cast<std::int64_t>(i) * period_ns;
  }
  std::int64_t DueOfTs(Timestamp ts) const {
    return Due(static_cast<std::uint64_t>(ts - first_ts));
  }
  bool Scheduled(Timestamp ts) const { return ts >= first_ts; }
};

void SleepUntil(std::int64_t t_ns) {
  const std::int64_t now = NowNs();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

/// A sample tagged with the instant it was due, so phases can be cut
/// after the fact.
struct Sample {
  std::int64_t due_ns;
  double value;
};

std::vector<double> InWindow(const std::vector<Sample>& s, std::int64_t lo,
                             std::int64_t hi) {
  std::vector<double> out;
  for (const Sample& x : s) {
    if (x.due_ns >= lo && x.due_ns < hi) out.push_back(x.value);
  }
  return out;
}

// ------------------------------------------------------- thread helpers --

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

long CurrentTid() { return static_cast<long>(syscall(SYS_gettid)); }

/// Marks the calling thread as a load-generator thread: sleeps on the
/// schedule wake with no timer slack (the default 50 us would show up
/// as lateness in every latency timed from a due instant). Returns its
/// kernel thread id.
long BenchThreadStart() {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  return CurrentTid();
}

void PinThread(long tid, unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(static_cast<pid_t>(tid), sizeof(set), &set);
}

std::vector<long> ProcessTids();

/// Keeps the load generator off the system's core: every thread of the
/// system under test runs on CPU 1 and the generator threads share the
/// others. Which core a thread lands on otherwise changes from run to
/// run, and with it the CPU a record costs (cache sharing, cross-core
/// wake-ups) and whether a read queues behind the cycle driver for a
/// CPU as well as for the engine lock. With one CPU nothing is pinned.
void PinThreads(const std::vector<long>& bench_tids, unsigned nproc) {
  if (nproc < 2) return;
  const std::set<long> bench(bench_tids.begin(), bench_tids.end());
  for (long tid : ProcessTids()) {
    if (bench.count(tid) == 0) PinThread(tid, 1);
  }
  std::vector<unsigned> others;
  for (unsigned c = 0; c < nproc; ++c) {
    if (c != 1) others.push_back(c);
  }
  for (std::size_t i = 0; i < bench_tids.size(); ++i) {
    PinThread(bench_tids[i], others[i % others.size()]);
  }
}

std::vector<long> ProcessTids() {
  std::vector<long> tids;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return tids;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') tids.push_back(std::atol(e->d_name));
  }
  closedir(d);
  return tids;
}

/// CPU time of any thread of this process, by kernel thread id (the
/// per-thread CPU clock id encoding glibc's pthread_getcpuclockid uses).
std::int64_t TidCpuNs(long tid) {
  const clockid_t clock =
      static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * kSec + ts.tv_nsec;
}

// ------------------------------------------------------- delta receiver --

/// Consumes one session's (or the router's merged) delta stream: checks
/// sequence numbers are contiguous, replays every event into a per-query
/// result, and samples ingest->delta latency against the schedule.
struct DeltaSink {
  std::uint64_t last_seq = 0;
  std::uint64_t events = 0;
  std::string error;
  std::unordered_map<QueryId, std::map<RecordId, double>> replay;
  std::unordered_set<QueryId> seen;
  std::vector<Sample> latency_ms;

  void Consume(const std::vector<DeltaEvent>& batch, std::int64_t receipt_ns,
               const Schedule& sched) {
    for (const DeltaEvent& ev : batch) {
      if (events > 0 && ev.seq != last_seq + 1 && error.empty()) {
        error = "delta sequence gap: " + std::to_string(last_seq) + " -> " +
                std::to_string(ev.seq);
      }
      last_seq = ev.seq;
      ++events;
      const QueryId q = ev.delta.query;
      auto& set = replay[q];
      for (const ResultEntry& e : ev.delta.removed) set.erase(e.id);
      for (const ResultEntry& e : ev.delta.added) set[e.id] = e.score;
      // A query's first event is its initial result, not a cycle's.
      if (!seen.insert(q).second && sched.Scheduled(ev.delta.when)) {
        const std::int64_t due = sched.DueOfTs(ev.delta.when);
        latency_ms.push_back(
            {due, static_cast<double>(receipt_ns - due) / kMs});
      }
    }
  }
};

// -------------------------------------------------------- the system --

/// One generator thread's CPU accounting.
struct GenThread {
  SutCallCpu sut;
  std::thread thread;
  std::atomic<long> tid{0};
  /// Final thread CPU, recorded by the thread itself before it exits.
  std::atomic<std::int64_t> final_cpu_ns{-1};

  GeneratorCpu Read() const {
    GeneratorCpu g;
    const std::int64_t fin = final_cpu_ns.load();
    if (fin >= 0) {
      g.thread_ns = fin;
    } else if (tid.load() != 0) {
      g.thread_ns = TidCpuNs(tid.load());
    }
    g.in_sut_calls_ns = sut.ns.load();
    return g;
  }
};

/// Counters of the system at a phase boundary.
struct Counters {
  std::int64_t process_cpu_ns = 0;
  std::vector<GeneratorCpu> gen;
  std::uint64_t applied = 0;
  std::uint64_t cycles = 0;
  std::uint64_t deltas_published = 0;
  std::uint64_t deltas_dropped = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_snapshots = 0;
  topkmon::EngineStats engine;
  double net_bytes = 0;
  double net_frames = 0;
  std::uint64_t arena_chunks = 0;
  std::size_t arena_peak_bytes = 0;
  std::int64_t driver_cpu_ns = 0;
  std::int64_t server_cpu_ns = 0;
  std::size_t sut_threads = 0;
};

/// What changed in a round between two snapshots. Gauges (arena peak,
/// thread count) keep the later value.
Counters Minus(const Counters& end, const Counters& start) {
  Counters d = end;
  d.process_cpu_ns -= start.process_cpu_ns;
  for (std::size_t i = 0; i < d.gen.size() && i < start.gen.size(); ++i) {
    d.gen[i].thread_ns -= start.gen[i].thread_ns;
    d.gen[i].in_sut_calls_ns -= start.gen[i].in_sut_calls_ns;
  }
  d.applied -= start.applied;
  d.cycles -= start.cycles;
  d.deltas_published -= start.deltas_published;
  d.deltas_dropped -= start.deltas_dropped;
  d.journal_bytes -= start.journal_bytes;
  d.journal_snapshots -= start.journal_snapshots;
  d.engine = topkmon::Subtract(end.engine, start.engine);
  d.net_bytes -= start.net_bytes;
  d.net_frames -= start.net_frames;
  d.arena_chunks -= start.arena_chunks;
  d.driver_cpu_ns -= start.driver_cpu_ns;
  d.server_cpu_ns -= start.server_cpu_ns;
  return d;
}

/// Sums a round's changes into a part's total; gauges keep the maximum.
void Accumulate(Counters& total, const Counters& d) {
  total.process_cpu_ns += d.process_cpu_ns;
  if (total.gen.size() < d.gen.size()) total.gen.resize(d.gen.size());
  for (std::size_t i = 0; i < d.gen.size(); ++i) {
    total.gen[i].thread_ns += d.gen[i].thread_ns;
    total.gen[i].in_sut_calls_ns += d.gen[i].in_sut_calls_ns;
  }
  total.applied += d.applied;
  total.cycles += d.cycles;
  total.deltas_published += d.deltas_published;
  total.deltas_dropped += d.deltas_dropped;
  total.journal_bytes += d.journal_bytes;
  total.journal_snapshots += d.journal_snapshots;
  total.engine += d.engine;
  total.net_bytes += d.net_bytes;
  total.net_frames += d.net_frames;
  total.arena_chunks += d.arena_chunks;
  total.arena_peak_bytes =
      std::max(total.arena_peak_bytes, d.arena_peak_bytes);
  total.driver_cpu_ns += d.driver_cpu_ns;
  total.server_cpu_ns += d.server_cpu_ns;
  total.sut_threads = std::max(total.sut_threads, d.sut_threads);
}

/// Everything one setup builds: the service(s), server, clients/router,
/// the registered queries and the record stream positioned after the
/// prefill.
class System {
 public:
  /// `seed` makes the round's records and queries; `rep` names its
  /// journal directory.
  System(const WorkloadDef& w, const Options& o, std::uint64_t seed, int rep)
      : w_(w), o_(o), seed_(seed), rep_(rep) {}
  ~System() { Teardown(); }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Builds, pre-fills the window and registers the queries.
  Status Setup(SutCallCpu& cpu);

  /// Services whose counters describe the system.
  std::vector<MonitorService*> Services() {
    std::vector<MonitorService*> out;
    if (svc_) out.push_back(svc_.get());
    if (cluster_) {
      for (std::size_t i = 0; i < cluster_->partitions(); ++i) {
        if (cluster_->service(i) != nullptr) {
          out.push_back(cluster_->service(i));
        }
      }
    }
    return out;
  }

  /// Ships one batch stamped `ts`; returns the records accepted.
  std::size_t Ingest(std::vector<Record>& batch, Timestamp ts,
                     SutCallCpu& cpu, Status* error);
  /// Waits up to `timeout` for delta events.
  Status Poll(std::chrono::milliseconds timeout, SutCallCpu& cpu,
              std::vector<DeltaEvent>* out);
  topkmon::Result<std::vector<ResultEntry>> Read(QueryId q, SutCallCpu& cpu);
  topkmon::Result<QueryId> Register(const QuerySpec& spec, SutCallCpu& cpu);
  Status Unregister(QueryId q, SutCallCpu& cpu);
  Status Flush(SutCallCpu& cpu);
  std::size_t QueueDepth(SutCallCpu& cpu);
  /// Cluster only: the merged stream's tail after a quiescent flush.
  std::vector<DeltaEvent> FinalizeDeltas() {
    return router_ ? router_->FinalizeDeltas() : std::vector<DeltaEvent>{};
  }

  void Teardown();

  Counters Snapshot(const std::vector<GenThread*>& gens,
                    const std::vector<long>& bench_tids);

  topkmon::Workload& records() { return *records_; }
  /// Next record sequence number (caller ids; also the service-assigned
  /// record id on a single leader).
  std::uint64_t next_seq() const { return next_seq_; }
  std::size_t prefill_batches() const { return prefill_batches_; }
  /// The cluster's partition map (how the router routes caller ids);
  /// nullptr on a single leader.
  const topkmon::PartitionMap* partition_map() const {
    return cluster_ ? &cluster_->map() : nullptr;
  }

  /// Live queries: service (or router) id -> spec.
  std::map<QueryId, QuerySpec> live;
  /// Workload query id -> system query id (churn schedule mapping).
  std::map<QueryId, QueryId> from_workload;
  /// Queries the reader targets (never unregistered).
  std::vector<QueryId> read_targets;
  std::unique_ptr<topkmon::Workload> churn;  ///< query-churn schedule
  std::uint64_t refused = 0;  ///< records the system did not accept

 private:
  std::unique_ptr<MonitorEngine> MakeEngine() const;
  topkmon::ServiceOptions ServiceOpts() const;
  Status RegisterAll(const std::vector<topkmon::QueryEvent>& events,
                     bool read_target, SutCallCpu& cpu);

  const WorkloadDef w_;
  const Options o_;
  const std::uint64_t seed_;
  const int rep_;
  std::unique_ptr<topkmon::Workload> records_;
  std::uint64_t next_seq_ = 0;
  std::size_t prefill_batches_ = 0;
  std::string journal_dir_;

  std::unique_ptr<MonitorService> svc_;
  topkmon::SessionId session_ = 0;
  std::unique_ptr<TcpServer> server_;
  std::unique_ptr<MonitorClient> producer_;
  std::unique_ptr<MonitorClient> subscriber_;
  std::unique_ptr<MonitorClient> reader_;
  std::unique_ptr<LocalCluster> cluster_;
  std::unique_ptr<ClusterRouter> router_;
};

std::unique_ptr<MonitorEngine> System::MakeEngine() const {
  topkmon::GridEngineOptions g;
  g.dim = w_.dim;
  g.window = w_.window;
  g.cell_budget = 20736;  // the tuned 12^4 cells of Figure 14
  std::unique_ptr<MonitorEngine> engine =
      std::make_unique<topkmon::TmaEngine>(g);
  if (o_.trace) {
    engine = std::make_unique<TracedEngine>(std::move(engine));
  }
  return engine;
}

topkmon::ServiceOptions System::ServiceOpts() const {
  topkmon::ServiceOptions s;
  // One producer stamps batches in order, so there is nothing to
  // reorder: with no slack a batch is released as soon as it is pushed
  // and each cycle is exactly the batches that arrived while the driver
  // was busy -- one batch at the offered rate.
  s.ingest.slack = 0;
  s.session.max_queries_per_session = 4096;
  // The subscriber is scheduled behind the driver on a busy core; a
  // dropped event would fail the delta replay check.
  s.hub.buffer_capacity = std::size_t(1) << 16;
  return s;
}

Status System::RegisterAll(const std::vector<topkmon::QueryEvent>& events,
                           bool read_target, SutCallCpu& cpu) {
  for (const topkmon::QueryEvent& ev : events) {
    if (ev.kind != topkmon::QueryEvent::kRegister) continue;
    auto id = Register(ev.spec, cpu);
    if (!id.ok()) return id.status();
    live[*id] = ev.spec;
    from_workload[ev.id] = *id;
    if (read_target || !w_.churn) read_targets.push_back(*id);
  }
  return Status::Ok();
}

Status System::Setup(SutCallCpu& cpu) {
  records_ = RecordStream(w_, seed_);
  const topkmon::NetServerOptions net = [] {
    topkmon::NetServerOptions n;
    n.server_threads = 1;  // two or three client connections
    return n;
  }();
  switch (w_.topology) {
    case Topology::kInProcess:
    case Topology::kWire: {
      topkmon::ServiceOptions s = ServiceOpts();
      if (w_.journal) {
        journal_dir_ = o_.work_dir + "/journal-" + std::to_string(getpid()) +
                       "-" + std::to_string(rep_);
        RemoveTree(journal_dir_);
        s.journal.dir = journal_dir_;
        s.journal.sync = topkmon::SyncPolicy::kNone;
      }
      svc_ = std::make_unique<MonitorService>(MakeEngine(), s);
      if (!svc_->journal_status().ok()) return svc_->journal_status();
      if (w_.topology == Topology::kInProcess) {
        auto session = svc_->OpenSession("bench");
        if (!session.ok()) return session.status();
        session_ = *session;
        break;
      }
      server_ = std::make_unique<TcpServer>(*svc_, net);
      TOPKMON_RETURN_IF_ERROR(server_->Start());
      auto producer = MonitorClient::Connect("127.0.0.1", server_->port(),
                                             "producer", false);
      if (!producer.ok()) return producer.status();
      producer_ = std::move(*producer);
      auto subscriber = MonitorClient::Connect("127.0.0.1", server_->port(),
                                               "bench", false);
      if (!subscriber.ok()) return subscriber.status();
      subscriber_ = std::move(*subscriber);
      // The reader shares the subscriber's session (reads are session
      // scoped); it resumes it before any poll is parked.
      auto reader = MonitorClient::Connect("127.0.0.1", server_->port(),
                                           "bench", true);
      if (!reader.ok()) return reader.status();
      reader_ = std::move(*reader);
      if (!reader_->resumed()) {
        return Status::Internal("reader did not adopt the bench session");
      }
      break;
    }
    case Topology::kCluster: {
      topkmon::LocalClusterOptions c;
      c.partitions = w_.partitions;
      c.engine_factory = [this] { return MakeEngine(); };
      c.service = ServiceOpts();
      c.net = net;
      auto cluster = LocalCluster::Start(c);
      if (!cluster.ok()) return cluster.status();
      cluster_ = std::move(*cluster);
      auto router = ClusterRouter::Connect(cluster_->map(), "bench", false);
      if (!router.ok()) return router.status();
      router_ = std::move(*router);
      break;
    }
  }
  // Pre-fill the window to steady state, then register the queries (so
  // their initial results are computed once, over a full window).
  prefill_batches_ = PrefillBatches(w_);
  for (std::size_t b = 0; b < prefill_batches_; ++b) {
    topkmon::WorkloadStep step = records_->NextStep();
    std::size_t sent = 0;
    while (sent < step.arrivals.size()) {
      std::vector<Record> rest(step.arrivals.begin() +
                                   static_cast<std::ptrdiff_t>(sent),
                               step.arrivals.end());
      Status err;
      const std::size_t n =
          Ingest(rest, static_cast<Timestamp>(b + 1), cpu, &err);
      // Pre-fill is closed-loop: a full queue just means wait.
      if (n == 0 && !err.ok() &&
          err.code() != topkmon::StatusCode::kResourceExhausted) {
        return err;
      }
      sent += n;
      if (n == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  refused = 0;
  TOPKMON_RETURN_IF_ERROR(Flush(cpu));
  const std::uint64_t qseed = seed_ * 0x9E3779B97F4A7C15ULL + 17;
  const std::string qgen = w_.churn ? "query-churn" : "uniform";
  churn = MustMakeWorkload(qgen, GeneratorOptions(w_, qseed, w_.queries, 1));
  TOPKMON_RETURN_IF_ERROR(
      RegisterAll(churn->NextStep().query_events, false, cpu));
  if (w_.read_queries > 0) {
    auto dash = MustMakeWorkload(
        "uniform", GeneratorOptions(w_, qseed + 1, w_.read_queries, 1));
    std::vector<topkmon::QueryEvent> events = dash->NextStep().query_events;
    // Dashboard queries get ids the churn generator never produces.
    for (auto& ev : events) ev.id += 1u << 30;
    TOPKMON_RETURN_IF_ERROR(RegisterAll(events, true, cpu));
  }
  if (!w_.churn) churn.reset();
  return Flush(cpu);
}

std::size_t System::Ingest(std::vector<Record>& batch, Timestamp ts,
                           SutCallCpu& cpu, Status* error) {
  const std::uint64_t first = next_seq_;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].arrival = ts;
    batch[i].id = first + i;  // caller ids: the cluster routes by them
  }
  const std::size_t n = batch.size();
  std::size_t accepted = 0;
  const auto id = static_cast<std::int64_t>(ts);
  if (svc_ && !server_) {
    SutCall call(cpu, kServiceIngest, id);
    topkmon::RecordArena& arena = svc_->ingest_arena();
    Record* recs = arena.Allocate(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      recs[i].position = std::move(batch[i].position);
      recs[i].arrival = ts;
    }
    accepted = svc_->TryIngestBatch(session_, recs, batch.size(), error);
    if (accepted < batch.size()) {
      arena.Release(recs + accepted, batch.size() - accepted);
    }
  } else if (producer_) {
    SutCall call(cpu, kNetIngestRpc, id);
    auto ack = producer_->Ingest(std::move(batch));
    if (!ack.ok()) {
      *error = ack.status();
    } else {
      accepted = ack->accepted;
      *error = ack->first_error;
    }
  } else {
    SutCall call(cpu, kRouterIngest, id);
    auto report = router_->Ingest(batch);
    if (!report.ok()) {
      *error = report.status();
    } else {
      accepted = report->accepted;
      *error = report->first_error;
      // A partial cluster batch is not a prefix; count it all as refused
      // so the oracle is never fed a guess.
      if (accepted < batch.size()) accepted = 0;
    }
  }
  refused += n - accepted;
  next_seq_ += accepted;
  return accepted;
}

Status System::Poll(std::chrono::milliseconds timeout, SutCallCpu& cpu,
                    std::vector<DeltaEvent>* out) {
  out->clear();
  if (svc_ && !server_) {
    SutCall call(cpu, kServiceWait, 0);
    svc_->WaitDeltas(session_, 4096, timeout, out);
    return Status::Ok();
  }
  if (subscriber_) {
    SutCall call(cpu, kNetPollRpc, 0);
    auto ev = subscriber_->PollDeltas(4096, timeout);
    if (!ev.ok()) return ev.status();
    *out = std::move(*ev);
    return Status::Ok();
  }
  SutCall call(cpu, kRouterPoll, 0);
  auto ev = router_->PollDeltas(0, timeout);
  if (!ev.ok()) return ev.status();
  *out = std::move(*ev);
  return Status::Ok();
}

topkmon::Result<std::vector<ResultEntry>> System::Read(QueryId q,
                                                      SutCallCpu& cpu) {
  const auto id = static_cast<std::int64_t>(q);
  if (svc_ && !server_) {
    SutCall call(cpu, kServiceRead, id);
    return svc_->CurrentResult(q);
  }
  if (reader_) {
    SutCall call(cpu, kNetReadRpc, id);
    return reader_->CurrentResult(q);
  }
  SutCall call(cpu, kRouterRead, id);
  return router_->CurrentResult(q);
}

topkmon::Result<QueryId> System::Register(const QuerySpec& spec,
                                          SutCallCpu& cpu) {
  if (svc_ && !server_) {
    SutCall call(cpu, kServiceRegister, 0);
    return svc_->Register(session_, spec);
  }
  if (subscriber_) {
    SutCall call(cpu, kNetRegisterRpc, 0);
    return subscriber_->Register(spec);
  }
  SutCall call(cpu, kRouterRegister, 0);
  return router_->Register(spec);
}

Status System::Unregister(QueryId q, SutCallCpu& cpu) {
  // Churn runs in process only (churn-read).
  SutCall call(cpu, kServiceRegister, static_cast<std::int64_t>(q));
  return svc_->Unregister(session_, q);
}

Status System::Flush(SutCallCpu& cpu) {
  SutCall call(cpu, kServiceStats, 0);
  if (cluster_) return cluster_->FlushAll();
  return svc_->Flush();
}

std::size_t System::QueueDepth(SutCallCpu& cpu) {
  SutCall call(cpu, kServiceStats, 0);
  std::size_t depth = 0;
  for (MonitorService* s : Services()) depth += s->stats().queue_depth;
  return depth;
}

void System::Teardown() {
  if (router_) (void)router_->Close(true);
  router_.reset();
  for (auto* c : {&producer_, &subscriber_, &reader_}) {
    if (*c) (void)(*c)->Close(false);
    c->reset();
  }
  if (server_) server_->Stop();
  server_.reset();
  if (svc_) svc_->Shutdown();
  svc_.reset();
  if (cluster_) cluster_->Stop();
  cluster_.reset();
  if (!journal_dir_.empty()) RemoveTree(journal_dir_);
}

double SumMetric(const topkmon::MetricsSnapshot& snap, const char* name) {
  double v = 0;
  for (const auto& s : snap.samples) {
    if (s.name == name) v += s.value;
  }
  return v;
}

Counters System::Snapshot(const std::vector<GenThread*>& gens,
                          const std::vector<long>& bench_tids) {
  Counters c;
  for (const GenThread* g : gens) c.gen.push_back(g->Read());
  for (MonitorService* s : Services()) {
    const topkmon::ServiceStats st = s->stats();
    c.applied += st.records_applied;
    c.cycles += st.cycles;
    c.deltas_published += st.deltas_published;
    c.deltas_dropped += st.deltas_dropped;
    c.journal_bytes += st.journal_bytes;
    c.journal_snapshots += st.journal_snapshots;
    c.engine += s->EngineCounters();
    const topkmon::RecordArenaStats a = s->ingest_arena().stats();
    c.arena_chunks += a.chunks_created;
    c.arena_peak_bytes += a.peak_resident_bytes;
    const topkmon::MetricsSnapshot m = s->metrics().Snapshot();
    c.net_bytes += SumMetric(m, "topkmon_net_bytes_received_total") +
                   SumMetric(m, "topkmon_net_bytes_sent_total");
    c.net_frames += SumMetric(m, "topkmon_net_frames_received_total") +
                    SumMetric(m, "topkmon_net_frames_sent_total");
  }
  const std::set<long> drivers = DriverThreadIds();
  const std::set<long> bench(bench_tids.begin(), bench_tids.end());
  for (long tid : ProcessTids()) {
    if (bench.count(tid) != 0) continue;
    ++c.sut_threads;
    (drivers.count(tid) != 0 ? c.driver_cpu_ns : c.server_cpu_ns) +=
        TidCpuNs(tid);
  }
  c.process_cpu_ns = ProcessCpuNs();
  return c;
}

// --------------------------------------------------------------- oracle --

bool Better(const ResultEntry& a, const ResultEntry& b) {
  return topkmon::ResultOrder(a, b);
}

/// Brute-force top-k of `spec` over `window` (ids as the system assigns
/// them).
std::vector<ResultEntry> BruteTopK(const QuerySpec& spec,
                                   const std::vector<Record>& window) {
  std::vector<ResultEntry> all;
  all.reserve(window.size());
  for (const Record& r : window) {
    all.push_back({r.id, spec.function->Score(r.position)});
  }
  const std::size_t k = std::min<std::size_t>(spec.k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), Better);
  all.resize(k);
  return all;
}

std::string Describe(const std::vector<ResultEntry>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size() && i < 4; ++i) {
    s += "(" + std::to_string(v[i].id) + "," + std::to_string(v[i].score) +
         ")";
  }
  return s + (v.size() > 4 ? "..." : "") + " n=" + std::to_string(v.size());
}

/// Regenerates every record the run sent (the stream is a function of
/// the seed) and returns the ones still in the window, with the ids the
/// system assigned them.
std::vector<Record> ExpectedWindow(const WorkloadDef& w, std::uint64_t seed,
                                   std::uint64_t total_records,
                                   Timestamp last_ts,
                                   const topkmon::PartitionMap* map) {
  auto stream = RecordStream(w, seed);
  std::vector<std::deque<Record>> parts(w.partitions);
  std::vector<RecordId> next_local(w.partitions, 0);
  const bool count = w.window.kind == topkmon::WindowKind::kCountBased;
  std::uint64_t seq = 0;
  Timestamp ts = 0;
  while (seq < total_records) {
    topkmon::WorkloadStep step = stream->NextStep();
    ++ts;
    for (Record& r : step.arrivals) {
      if (seq >= total_records) break;
      const std::size_t p = map != nullptr ? map->OwnerOf(seq) : 0;
      const RecordId local = next_local[p]++;
      const RecordId id =
          map != nullptr ? topkmon::NamespaceRecordId(local, p, w.partitions)
                         : seq;
      std::deque<Record>& part = parts[p];
      part.emplace_back(id, std::move(r.position), ts);
      if (count && part.size() > w.window.capacity) part.pop_front();
      ++seq;
    }
  }
  std::vector<Record> window;
  for (auto& part : parts) {
    for (Record& r : part) {
      // Time-based: valid records arrived in (last_ts - span, last_ts].
      if (count || r.arrival > last_ts - w.window.span) {
        window.push_back(std::move(r));
      }
    }
  }
  return window;
}

// ------------------------------------------------------------------ run --

struct RunState {
  Schedule sched;
  std::atomic<bool> producer_done{false};
  std::atomic<bool> drain{false};  ///< flushed: receivers drain and exit
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> attempted{0};
  std::mutex error_mu;
  std::string error;

  void Fail(const std::string& what, std::uint64_t count = 1) {
    failures.fetch_add(count);
    std::lock_guard<std::mutex> lock(error_mu);
    if (error.empty()) error = what;
  }
};

/// Producer state visible after the round.
struct ProducerOut {
  std::vector<Sample> late_ms;
  std::uint64_t timed_records = 0;  ///< accepted in the timed slice
  Timestamp last_ts = 0;
};

bool InTimed(const Schedule& s, std::int64_t due) {
  return due >= s.t_start && due < s.t_end;
}

void ProduceOne(System& sys, RunState& st, ProducerOut& out, GenThread& me,
                std::uint64_t i, std::vector<Record>& batch) {
  const Schedule& s = st.sched;
  const std::int64_t due = s.Due(i);
  const Timestamp ts = s.first_ts + static_cast<Timestamp>(i);
  // The churn schedule's register/unregister events ride with the batch.
  if (sys.churn) {
    topkmon::WorkloadStep q = sys.churn->NextStep();
    for (const topkmon::QueryEvent& ev : q.query_events) {
      st.attempted.fetch_add(1);
      if (ev.kind == topkmon::QueryEvent::kUnregister) {
        auto it = sys.from_workload.find(ev.id);
        if (it == sys.from_workload.end()) continue;
        const Status u = sys.Unregister(it->second, me.sut);
        if (!u.ok()) st.Fail("unregister: " + u.ToString());
        sys.live.erase(it->second);
        sys.from_workload.erase(it);
      } else {
        auto id = sys.Register(ev.spec, me.sut);
        if (!id.ok()) {
          st.Fail("register: " + id.status().ToString());
          continue;
        }
        sys.live[*id] = ev.spec;
        sys.from_workload[ev.id] = *id;
      }
    }
  }
  SleepUntil(due);
  const std::int64_t late = NowNs() - due;
  out.late_ms.push_back({due, static_cast<double>(late) / kMs});
  const std::size_t n = batch.size();
  Status err;
  const std::size_t accepted = sys.Ingest(batch, ts, me.sut, &err);
  st.attempted.fetch_add(n);
  if (InTimed(s, due)) out.timed_records += accepted;
  if (accepted < n) {
    st.Fail("ingest refused " + std::to_string(n - accepted) +
                " records: " + err.ToString(),
            n - accepted);
  }
  out.last_ts = ts;
}

std::vector<Record> NextBatch(System& sys) {
  return std::move(sys.records().NextStep().arrivals);
}

void ProducerLoop(System& sys, RunState& st, ProducerOut& out,
                  GenThread& me) {
  me.tid = BenchThreadStart();
  std::vector<Record> batch = NextBatch(sys);
  for (std::uint64_t i = 0; st.sched.Due(i) < st.sched.t_end; ++i) {
    ProduceOne(sys, st, out, me, i, batch);
    batch = NextBatch(sys);  // generated while ahead of the schedule
  }
  st.producer_done = true;
  me.final_cpu_ns = ThreadCpuNs();
}

void SubscriberLoop(System& sys, RunState& st, DeltaSink& sink,
                    GenThread& me) {
  me.tid = BenchThreadStart();
  std::vector<DeltaEvent> events;
  while (true) {
    const bool draining = st.drain.load();
    const Status p = sys.Poll(std::chrono::milliseconds(draining ? 0 : 20),
                              me.sut, &events);
    const std::int64_t receipt = NowNs();
    if (!p.ok()) {
      st.Fail("poll: " + p.ToString());
      break;
    }
    sink.Consume(events, receipt, st.sched);
    if (draining && events.empty()) break;
  }
  me.final_cpu_ns = ThreadCpuNs();
}

struct ReaderOut {
  std::vector<Sample> latency_ms;
};

void ReadOne(System& sys, RunState& st, ReaderOut& out, SutCallCpu& cpu,
             std::uint64_t j, std::int64_t due) {
  const QueryId q = sys.read_targets[j % sys.read_targets.size()];
  auto r = sys.Read(q, cpu);
  const std::int64_t done = NowNs();
  st.attempted.fetch_add(1);
  if (!r.ok()) {
    st.Fail("read: " + r.status().ToString());
    return;
  }
  out.latency_ms.push_back({due, static_cast<double>(done - due) / kMs});
}

void ReaderLoop(System& sys, RunState& st, ReaderOut& out, GenThread& me,
                double rate) {
  me.tid = BenchThreadStart();
  const auto period = static_cast<std::int64_t>(kSec / rate);
  for (std::uint64_t j = 0;; ++j) {
    const std::int64_t due =
        st.sched.t0 + static_cast<std::int64_t>(j) * period;
    if (due >= st.sched.t_end) break;
    SleepUntil(due);
    ReadOne(sys, st, out, me.sut, j, due);
  }
  me.final_cpu_ns = ThreadCpuNs();
}

/// The cluster's single router thread interleaves the ingest schedule,
/// the read schedule and merged delta polls.
void RouterLoop(System& sys, RunState& st, ProducerOut& prod, ReaderOut& rd,
                DeltaSink& sink, GenThread& me, double read_rate) {
  me.tid = BenchThreadStart();
  const Schedule& s = st.sched;
  const auto read_period = static_cast<std::int64_t>(kSec / read_rate);
  std::uint64_t i = 0;
  std::uint64_t j = 0;
  std::vector<Record> batch = NextBatch(sys);
  std::vector<DeltaEvent> events;
  bool polled = false;
  auto consume = [&](std::chrono::milliseconds timeout) {
    const Status p = sys.Poll(timeout, me.sut, &events);
    if (!p.ok()) st.Fail("router poll: " + p.ToString());
    sink.Consume(events, NowNs(), s);
    return events.size();
  };
  while (true) {
    const std::int64_t next_ingest = s.Due(i);
    const std::int64_t next_read =
        s.t0 + static_cast<std::int64_t>(j) * read_period;
    const bool ingest_left = next_ingest < s.t_end;
    const bool reads_left = next_read < s.t_end;
    if (!ingest_left && !reads_left) break;
    const std::int64_t now = NowNs();
    if (ingest_left && next_ingest <= now &&
        (!reads_left || next_ingest <= next_read)) {
      ProduceOne(sys, st, prod, me, i++, batch);
      batch = NextBatch(sys);
      polled = false;
      continue;
    }
    if (reads_left && next_read <= now) {
      ReadOne(sys, st, rd, me.sut, j, next_read);
      ++j;
      polled = false;
      continue;
    }
    const std::int64_t next =
        std::min(ingest_left ? next_ingest : s.t_end,
                 reads_left ? next_read : s.t_end);
    // A parked long-poll wakes up to one server poll tick (5 ms) past
    // its deadline; leave that margin before the next due operation.
    const std::int64_t wait_ms = (next - now) / kMs - 6;
    if (wait_ms >= 1) {
      consume(std::chrono::milliseconds(wait_ms));
      polled = true;
    } else if (!polled) {
      consume(std::chrono::milliseconds(0));
      polled = true;
    } else {
      SleepUntil(next);
    }
  }
  st.producer_done = true;
  while (!st.drain.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Quiescent: every partition flushed. Poll dry, then finalize the tail.
  int empty = 0;
  while (empty < 3) {
    empty = consume(std::chrono::milliseconds(0)) == 0 ? empty + 1 : 0;
  }
  sink.Consume(sys.FinalizeDeltas(), NowNs(), s);
  me.final_cpu_ns = ThreadCpuNs();
}

// ------------------------------------------------------------ reporting --

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

std::string Json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    double v = m.items[i].second.first;
    if (!std::isfinite(v)) v = 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    s += (i ? ", " : "") + std::string("\"") + m.items[i].first +
         "\": {\"value\": " + buf + ", \"unit\": \"" +
         m.items[i].second.second + "\"}";
  }
  return s + "}}";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile for reporting, with a note on stderr when the sample count
/// forced a lower percentile than the metric's name says.
double Pct(const char* name, std::vector<double> v, double want) {
  Percentile p = SelectPercentile(v, want);
  std::fprintf(stderr, "  %-34s p%-5g = %-12.6g (n=%zu)%s\n", name, p.pct,
               p.value, p.samples,
               p.pct < want ? "  [fewer samples than the percentile needs]"
                            : "");
  return p.value;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string LoadAvg() {
  std::FILE* f = std::fopen("/proc/loadavg", "r");
  if (f == nullptr) return "?";
  char buf[128] = {0};
  if (std::fgets(buf, sizeof(buf), f) == nullptr) buf[0] = 0;
  std::fclose(f);
  std::string s(buf);
  while (!s.empty() && (s.back() == '\n')) s.pop_back();
  return s;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// -------------------------------------------------------------- metrics --

/// Everything a finished run measured, for the metric functions.
struct Measured {
  const WorkloadDef& w;
  const Options& o;
  /// Timed slices summed over the rounds of each part: [0] untraced,
  /// [1] traced (trace runs trace all but the first third of rounds).
  Counters part[2];
  std::uint64_t records[2] = {0, 0};
  /// Samples of the reported part, each from its round's timed slice.
  std::vector<double> late_ms, delta_ms, read_ms, depth;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_cpu_s;   ///< one per set-up
  std::vector<double> round_rss_mb;  ///< peak RSS of each round
  double backlog_growth = 0;         ///< summed over the reported rounds
  std::size_t gen_threads = 0;
  std::size_t connections = 0;
  std::size_t live_queries = 0;
  std::vector<double> partition_applied;

  int reported() const { return o.trace ? 1 : 0; }
  const Counters& d() const { return part[reported()]; }
  std::uint64_t recs() const { return records[reported()]; }
  double CpuUsPerRecord(int p) const {
    return SutCpuUsPerRecord(part[p].process_cpu_ns, part[p].gen,
                             records[p]);
  }
};

/// Adds a percentile metric (and notes its sample count on stderr).
void AddPct(Metrics& m, const char* name, std::vector<double> samples,
            double pct, const char* unit) {
  m.Add(name, Pct(name, std::move(samples), pct), unit);
}

Metrics EndToEnd(const Measured& r) {
  Metrics m;
  m.Add("setup_s", Median(r.setup_cpu_s), "s");
  m.Add("cpu_us_per_rec", r.CpuUsPerRecord(0), "us");
  m.Add("success_ratio",
        static_cast<double>(r.attempted - std::min(r.failed, r.attempted)) /
            static_cast<double>(r.attempted),
        "ratio");
  m.Add("peak_rss_mb", Median(r.round_rss_mb), "MiB");
  return m;
}

Metrics LayerMetrics(const Measured& r, const Tracer& tracer) {
  const Counters& d = r.d();
  const double recs =
      static_cast<double>(std::max<std::uint64_t>(1, r.recs()));
  const double cycles = static_cast<double>(d.cycles);
  const topkmon::EngineStats& e = d.engine;
  const double cpu_per_rec = r.CpuUsPerRecord(r.reported());
  const double sut_ns = cpu_per_rec * 1000.0 * recs;
  // The untraced rounds of the same run: the tracing overhead reference.
  const double cpu_untraced = r.CpuUsPerRecord(0);

  std::vector<Span> spans(tracer.spans().begin(),
                          tracer.spans().begin() +
                              static_cast<std::ptrdiff_t>(tracer.size()));
  const std::vector<std::int64_t> self = SelfTimes(spans);
  // A span still open when tracing stopped has no end; it is skipped.
  const auto open = [](const Span& sp) { return sp.end_ns == 0; };
  std::map<std::uint16_t, std::vector<double>> dur_us, self_us;
  std::map<std::uint16_t, double> cpu_ns, self_cpu_ns;
  std::vector<double> child_cpu(spans.size(), 0.0);
  for (const Span& sp : spans) {
    if (!open(sp) && sp.parent >= 0) {
      child_cpu[static_cast<std::size_t>(sp.parent)] +=
          static_cast<double>(sp.cpu_ns);
    }
  }
  double covered_ns = 0;  ///< system CPU inside root spans
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (open(sp)) continue;
    dur_us[sp.name].push_back(static_cast<double>(sp.end_ns - sp.start_ns) /
                              1e3);
    self_us[sp.name].push_back(static_cast<double>(self[i]) / 1e3);
    cpu_ns[sp.name] += static_cast<double>(sp.cpu_ns);
    self_cpu_ns[sp.name] += static_cast<double>(sp.cpu_ns) - child_cpu[i];
    if (sp.parent < 0) covered_ns += static_cast<double>(sp.cpu_ns);
  }
  // Snapshot-read wait: a read call's span minus the engine reads inside
  // its interval (on the server thread for wire and cluster reads; the
  // single reader issues one read at a time).
  std::vector<std::pair<std::int64_t, std::int64_t>> core_reads;
  for (const Span& sp : spans) {
    if (sp.name == kCoreRead && !open(sp)) {
      core_reads.emplace_back(sp.start_ns, sp.end_ns);
    }
  }
  std::sort(core_reads.begin(), core_reads.end());
  std::vector<double> read_wait_us;
  for (const Span& sp : spans) {
    if (open(sp) || (sp.name != kServiceRead && sp.name != kNetReadRpc &&
                     sp.name != kRouterRead)) {
      continue;
    }
    std::int64_t inner = 0;
    auto it = std::lower_bound(core_reads.begin(), core_reads.end(),
                               std::make_pair(sp.start_ns, std::int64_t{0}));
    for (; it != core_reads.end() && it->first < sp.end_ns; ++it) {
      if (it->second <= sp.end_ns) inner += it->second - it->first;
    }
    read_wait_us.push_back(
        static_cast<double>(sp.end_ns - sp.start_ns - inner) / 1e3);
  }
  double publish_us = 0;
  for (double d : dur_us[kServicePublish]) publish_us += d;
  const auto per_rec = [recs](double v) { return v / recs; };
  const auto num = [](auto x) { return static_cast<double>(x); };

  Metrics m;
  AddPct(m, "gen.late_ms_p99", r.late_ms, 99, "ms");
  m.Add("gen.cpu_us_per_rec", GeneratorCpuUsPerRecord(d.gen, r.recs()), "us");
  m.Add("gen.threads", static_cast<double>(r.gen_threads), "count");
  m.Add("gen.connections", static_cast<double>(r.connections), "count");

  AddPct(m, "net.ingest_rpc_us_p50", dur_us[kNetIngestRpc], 50, "us");
  AddPct(m, "net.ingest_rpc_us_p99", dur_us[kNetIngestRpc], 99, "us");
  AddPct(m, "net.poll_rpc_us_p50", dur_us[kNetPollRpc], 50, "us");
  m.Add("net.bytes_per_rec", per_rec(d.net_bytes), "bytes");
  m.Add("net.frames_per_rec", per_rec(d.net_frames), "count");
  m.Add("net.server_cpu_us_per_rec", per_rec(num(d.server_cpu_ns) / 1e3),
        "us");

  m.Add("stream.arena_peak_mb", num(d.arena_peak_bytes) / (1 << 20), "MiB");
  m.Add("stream.arena_chunks_created", num(d.arena_chunks), "count");

  AddPct(m, "service.ingest_call_us_p50", dur_us[kServiceIngest], 50, "us");
  m.Add("service.recs_per_cycle", Ratio(num(d.applied), cycles), "count");
  AddPct(m, "service.queue_depth_p99", r.depth, 99, "count");
  m.Add("service.backlog_growth", r.backlog_growth, "count");
  AddPct(m, "service.observe_to_apply_us_p50", dur_us[kServiceApplyWait], 50,
         "us");
  AddPct(m, "service.observe_to_apply_us_p99", dur_us[kServiceApplyWait], 99,
         "us");
  m.Add("service.hub_publish_us_per_cycle",
        Ratio(publish_us, static_cast<double>(dur_us[kCoreCycle].size())),
        "us");
  AddPct(m, "service.read_wait_us_p99", read_wait_us, 99, "us");
  m.Add("service.deltas_per_rec", per_rec(num(d.deltas_published)), "count");
  m.Add("service.deltas_dropped", num(d.deltas_dropped), "count");
  m.Add("service.driver_cpu_us_per_rec", per_rec(num(d.driver_cpu_ns) / 1e3),
        "us");
  // The latencies repeat too poorly from run to run on a shared box to
  // be end-to-end metrics: a burst of load from a neighbour doubles the
  // ingest->delta median at half load (cycles merge and queue), the
  // p99s rest on a few slow cycles, and a read's median flips between
  // "lock free" and "queued behind a cycle" as the share of time the
  // driver holds the engine lock moves.
  AddPct(m, "service.delta_p50_ms", r.delta_ms, 50, "ms");
  AddPct(m, "service.delta_p99_ms", r.delta_ms, 99, "ms");
  AddPct(m, "service.read_p50_ms", r.read_ms, 50, "ms");
  AddPct(m, "service.read_p99_ms", r.read_ms, 99, "ms");

  m.Add("journal.bytes_per_rec", per_rec(num(d.journal_bytes)), "bytes");
  m.Add("journal.snapshots", num(d.journal_snapshots), "count");

  AddPct(m, "core.cycle_us_p50", self_us[kCoreCycle], 50, "us");
  AddPct(m, "core.cycle_us_p99", self_us[kCoreCycle], 99, "us");
  m.Add("core.cpu_us_per_rec", per_rec(cpu_ns[kCoreCycle] / 1e3), "us");
  m.Add("core.busy_share", Ratio(self_cpu_ns[kCoreCycle], sut_ns), "ratio");
  AddPct(m, "core.register_us_p50", dur_us[kCoreRegister], 50, "us");
  AddPct(m, "core.register_us_p99", dur_us[kCoreRegister], 99, "us");
  AddPct(m, "core.read_us_p50", dur_us[kCoreRead], 50, "us");
  m.Add("core.recomputations_per_cycle",
        Ratio(static_cast<double>(e.recomputations), cycles), "count");
  m.Add("core.prrec", e.RecomputationRate(r.live_queries * r.w.partitions),
        "ratio");
  m.Add("core.expirations_per_cycle",
        Ratio(static_cast<double>(e.expirations), cycles), "count");
  m.Add("core.result_changes_per_rec",
        per_rec(static_cast<double>(e.result_changes)), "count");

  m.Add("grid.cells_per_rec", per_rec(static_cast<double>(e.cells_visited)),
        "count");
  m.Add("grid.scored_per_rec", per_rec(static_cast<double>(e.points_scored)),
        "count");

  AddPct(m, "cluster.router_ingest_us_p50", dur_us[kRouterIngest], 50, "us");
  AddPct(m, "cluster.router_ingest_us_p99", dur_us[kRouterIngest], 99, "us");
  AddPct(m, "cluster.router_poll_us_p50", dur_us[kRouterPoll], 50, "us");
  AddPct(m, "cluster.read_us_p99", dur_us[kRouterRead], 99, "us");
  double skew = 0;
  if (r.partition_applied.size() > 1) {
    double sum = 0;
    for (double x : r.partition_applied) sum += x;
    skew = Ratio(*std::max_element(r.partition_applied.begin(),
                                   r.partition_applied.end()),
                 sum / static_cast<double>(r.partition_applied.size()));
  }
  m.Add("cluster.partition_skew", skew, "ratio");

  m.Add("trace.overhead_pct",
        Ratio(cpu_per_rec - cpu_untraced, cpu_untraced) * 100.0, "%");
  m.Add("trace.residual_share", Ratio(sut_ns - covered_ns, sut_ns), "ratio");
  m.Add("trace.spans", static_cast<double>(tracer.size()), "count");
  m.Add("env.sut_threads", num(d.sut_threads), "count");
  return m;
}

// ------------------------------------------------------------------ main --

/// Drops the process's peak RSS to its current RSS, so that VmHWM then
/// measures one round. Free heap pages that earlier rounds left in the
/// allocator's per-thread arenas go back to the system first: which
/// arena a round's threads draw from changes from round to round, and
/// those leftovers moved a round's peak by 15%.
void ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// The run's verdict: the first wrong answer ends it.
struct Verdict {
  bool correct = true;
  std::string why;
};

/// Queries the oracle checks per round, except in the last round, which
/// checks every live query (the brute force costs 1 ms per query on the
/// 100k-record window).
constexpr std::size_t kOracleQueriesPerRound = 100;

/// The oracle, outside the timed slice: a live query's result must equal
/// a brute-force top-k over the records still in the window, and so must
/// the replay of its delta stream. With `all` false only a slice of the
/// queries that rotates with `round` is checked.
void CheckRound(const WorkloadDef& w, std::uint64_t seed, int round, bool all,
                System& sys, DeltaSink& sink, const ProducerOut& prod,
                std::uint64_t applied, SutCallCpu& cpu, Verdict* v) {
  const std::uint64_t total = sys.next_seq();
  if (sys.refused != 0) {
    *v = {false, "records were refused; the oracle cannot replay the window"};
    return;
  }
  if (applied != total) {
    *v = {false, "records applied " + std::to_string(applied) +
                     " != records accepted " + std::to_string(total)};
    return;
  }
  if (!sink.error.empty()) {
    *v = {false, sink.error};
    return;
  }
  const std::vector<Record> window =
      ExpectedWindow(w, seed, total, prod.last_ts, sys.partition_map());
  const std::size_t stride =
      all ? 1
          : std::max<std::size_t>(1, sys.live.size() / kOracleQueriesPerRound);
  std::size_t i = static_cast<std::size_t>(round);
  for (const auto& [q, spec] : sys.live) {
    if (i++ % stride != 0) continue;
    const std::vector<ResultEntry> want = BruteTopK(spec, window);
    auto got = sys.Read(q, cpu);
    if (!got.ok()) {
      *v = {false, "final read of query " + std::to_string(q) + ": " +
                       got.status().ToString()};
      return;
    }
    if (*got != want) {
      *v = {false, "query " + std::to_string(q) + " CurrentResult " +
                       Describe(*got) + " != brute force " + Describe(want)};
      return;
    }
    std::vector<ResultEntry> replayed;
    for (const auto& [id, score] : sink.replay[q]) {
      replayed.push_back({id, score});
    }
    std::sort(replayed.begin(), replayed.end(), Better);
    if (replayed != want) {
      *v = {false, "query " + std::to_string(q) + " delta replay " +
                       Describe(replayed) + " != brute force " +
                       Describe(want)};
      return;
    }
  }
}

/// Load-generator threads and connections of a workload: main + router
/// thread (3 connections) in the cluster; main + producer + subscriber +
/// reader otherwise (3 connections on the wire).
std::size_t GeneratorThreads(const WorkloadDef& w) {
  return w.topology == Topology::kCluster ? 2 : 4;
}
std::size_t GeneratorConnections(const WorkloadDef& w) {
  if (w.topology == Topology::kCluster) return w.partitions;
  return w.topology == Topology::kWire ? 3 : 0;
}

/// One round: sets the system up (several times; the last one is kept),
/// warms it up on the schedule, runs the timed slice, flushes, adds the
/// slice to part `part` of `r` and checks the oracle. Returns false if
/// set-up failed.
bool RunRound(const WorkloadDef& w, const Options& o, int round, int part,
              unsigned nproc, Tracer* tracer, GenThread& main_thread,
              Measured& r, Verdict* verdict) {
  const std::uint64_t seed = o.seed * 1000 + static_cast<std::uint64_t>(round);
  // The system's threads start on the system's core (they inherit the
  // creating thread's affinity), so set-up runs where the system will.
  if (nproc >= 2) PinThread(main_thread.tid.load(), 1);
  ResetPeakRss();
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < o.setups_per_round; ++rep) {
    sys.reset();
    const std::int64_t c = ProcessCpuNs();
    sys = std::make_unique<System>(w, o, seed,
                                   round * o.setups_per_round + rep);
    const Status st = sys->Setup(main_thread.sut);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return false;
    }
    r.setup_cpu_s.push_back(static_cast<double>(ProcessCpuNs() - c) / kSec);
  }

  RunState st;
  Schedule& s = st.sched;
  s.period_ns = static_cast<std::int64_t>(static_cast<double>(w.batch) *
                                          kSec / o.rate);
  s.first_ts = static_cast<Timestamp>(sys->prefill_batches()) + 1;
  s.t0 = NowNs() + 20 * kMs;
  s.t_start = s.t0 + static_cast<std::int64_t>(o.warmup_s * kSec);
  const double slice_s = o.seconds / o.rounds;
  s.t_end = s.t_start + static_cast<std::int64_t>(slice_s * kSec);

  ProducerOut prod;
  ReaderOut reader;
  DeltaSink sink;
  GenThread g_prod, g_sub, g_read;
  std::vector<GenThread*> gens = {&main_thread};
  if (w.topology == Topology::kCluster) {
    gens.push_back(&g_prod);
    g_prod.thread = std::thread(RouterLoop, std::ref(*sys), std::ref(st),
                                std::ref(prod), std::ref(reader),
                                std::ref(sink), std::ref(g_prod), w.read_rate);
  } else {
    gens.insert(gens.end(), {&g_prod, &g_sub, &g_read});
    g_prod.thread = std::thread(ProducerLoop, std::ref(*sys), std::ref(st),
                                std::ref(prod), std::ref(g_prod));
    g_sub.thread = std::thread(SubscriberLoop, std::ref(*sys), std::ref(st),
                               std::ref(sink), std::ref(g_sub));
    g_read.thread = std::thread(ReaderLoop, std::ref(*sys), std::ref(st),
                                std::ref(reader), std::ref(g_read),
                                w.read_rate);
  }
  // Wait until every generator thread has published its tid.
  for (GenThread* g : gens) {
    while (g->tid.load() == 0) std::this_thread::yield();
  }
  std::vector<long> bench_tids;
  for (GenThread* g : gens) bench_tids.push_back(g->tid.load());
  PinThreads(bench_tids, nproc);

  // The main thread samples the ingest backlog and cuts the slice.
  std::vector<double> depth_t, depth;
  Counters c_start;
  bool started = false;
  const std::int64_t sample_period = 5 * kMs;
  std::int64_t next_sample = s.t_start;
  while (!st.producer_done.load()) {
    const std::int64_t now = NowNs();
    if (!started && now >= s.t_start) {
      c_start = sys->Snapshot(gens, bench_tids);
      if (tracer != nullptr) {
        SetActiveTracer(tracer);
        for (MonitorService* svc : sys->Services()) {
          svc->SetCycleObserver(
              [](Timestamp ts, topkmon::RecordSpan) { ObserveCycle(ts); });
        }
      }
      started = true;
    }
    if (started && now >= next_sample && now < s.t_end) {
      depth_t.push_back(static_cast<double>(now - s.t_start) / kSec);
      depth.push_back(static_cast<double>(sys->QueueDepth(main_thread.sut)));
      next_sample += sample_period;
    }
    SleepUntil(std::min(next_sample, now + 5 * kMs));
  }
  if (w.topology != Topology::kCluster) g_prod.thread.join();
  if (g_read.thread.joinable()) g_read.thread.join();
  const Status flushed = sys->Flush(main_thread.sut);
  if (!flushed.ok()) st.Fail("flush: " + flushed.ToString());
  st.drain = true;
  if (g_sub.thread.joinable()) g_sub.thread.join();
  if (g_prod.thread.joinable()) g_prod.thread.join();
  const Counters c_end = sys->Snapshot(gens, bench_tids);
  if (tracer != nullptr) {
    SetActiveTracer(nullptr);
    for (MonitorService* svc : sys->Services()) {
      svc->SetCycleObserver(nullptr);
    }
  }
  // Before the oracle, whose regenerated window is the benchmark's own.
  r.round_rss_mb.push_back(PeakRssMb());

  Accumulate(r.part[part], Minus(c_end, c_start));
  r.records[part] += prod.timed_records;
  if (part == r.reported()) {
    const auto append = [&](std::vector<double>& to,
                            const std::vector<Sample>& from) {
      const std::vector<double> in = InWindow(from, s.t_start, s.t_end);
      to.insert(to.end(), in.begin(), in.end());
    };
    append(r.late_ms, prod.late_ms);
    append(r.delta_ms, sink.latency_ms);
    append(r.read_ms, reader.latency_ms);
    r.depth.insert(r.depth.end(), depth.begin(), depth.end());
    r.backlog_growth += Slope(depth_t, depth) * slice_s;
  }
  r.attempted += st.attempted.load();
  r.failed += st.failures.load();
  if (!st.error.empty()) {
    std::fprintf(stderr, "round %d first failure: %s\n", round,
                 st.error.c_str());
  }
  r.live_queries = sys->live.size();
  const std::vector<MonitorService*> services = sys->Services();
  r.partition_applied.resize(services.size(), 0.0);
  for (std::size_t i = 0; i < services.size(); ++i) {
    r.partition_applied[i] +=
        static_cast<double>(services[i]->stats().records_applied);
  }
  if (verdict->correct) {
    CheckRound(w, seed, round, round + 1 == o.rounds, *sys, sink, prod,
               c_end.applied, main_thread.sut, verdict);
    if (!verdict->correct) {
      verdict->why = "round " + std::to_string(round) + ": " + verdict->why;
    }
  }
  sys.reset();
  return true;
}

void PrintSeries(const char* what, const std::vector<double>& v) {
  std::fprintf(stderr, "%s:", what);
  for (double x : v) std::fprintf(stderr, " %.4g", x);
  std::fprintf(stderr, "\n");
}

int Run(const Options& o) {
  WorkloadDef w;
  if (!GetWorkload(o.workload, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::string load_start = LoadAvg();
  const std::size_t gen_threads = GeneratorThreads(w);
  const std::size_t connections = GeneratorConnections(w);
  if (gen_threads > nproc || connections > nproc) {
    std::fprintf(stderr,
                 "the generator needs %zu threads and %zu connections; "
                 "nproc is %u\n",
                 gen_threads, connections, nproc);
    return 2;
  }
  GenThread main_thread;
  main_thread.tid = BenchThreadStart();

  Measured r{w, o};
  r.gen_threads = gen_threads;
  r.connections = connections;
  // Allocated (and touched) only by trace runs, so it stays out of the
  // untraced run's peak RSS. Trace runs leave the first third of their
  // rounds untraced, as the overhead reference; the traced rounds still
  // hold 1000+ cycles and reads at the offered rates for their p99s.
  std::unique_ptr<Tracer> tracer;
  if (o.trace) tracer = std::make_unique<Tracer>(std::size_t(1) << 20);
  const int untraced_rounds = o.trace ? std::max(1, o.rounds / 3) : o.rounds;
  const std::int64_t t_run = NowNs();
  Verdict verdict;
  for (int round = 0; round < o.rounds && verdict.correct; ++round) {
    const int part = round < untraced_rounds ? 0 : 1;
    if (!RunRound(w, o, round, part, nproc,
                  part == 1 ? tracer.get() : nullptr, main_thread, r,
                  &verdict)) {
      return 2;
    }
  }
  const double run_s = static_cast<double>(NowNs() - t_run) / kSec;
  const std::string load_end = LoadAvg();

  PrintSeries("setup CPU per set-up (s)", r.setup_cpu_s);
  PrintSeries("peak RSS per round (MiB)", r.round_rss_mb);
  std::fprintf(stderr, "oracle: %d rounds, %zu live queries in the last%s\n",
               o.rounds, r.live_queries,
               verdict.correct ? ", all results match" : "");
  if (!verdict.correct) {
    std::fprintf(stderr, "ORACLE MISMATCH: %s\n", verdict.why.c_str());
  }
  const std::size_t sut_threads =
      std::max(r.part[0].sut_threads, r.part[1].sut_threads);
  std::fprintf(stderr,
               "env: workload=%s seed=%llu nproc=%u load_start=[%s] "
               "load_end=[%s] sut_threads=%zu gen_threads=%zu "
               "gen_connections=%zu rate=%g rec/s batch=%zu rounds=%d "
               "wall=%.1fs\n",
               w.name.c_str(), static_cast<unsigned long long>(o.seed), nproc,
               load_start.c_str(), load_end.c_str(), sut_threads, gen_threads,
               connections, o.rate, w.batch, o.rounds, run_s);
  const double slice_s = o.seconds / o.rounds;
  // Cores the system under test used: its CPU (the generator's own
  // taken out) over the timed slices.
  const double sut_cores =
      static_cast<double>(r.d().process_cpu_ns - GeneratorOwnNs(r.d().gen)) /
      kSec / (slice_s * (o.trace ? o.rounds - untraced_rounds : o.rounds));
  std::vector<double> late = r.late_ms;
  const Percentile late_p99 = SelectPercentile(late, 99);
  // One line for scripts: is the offered rate within today's capacity?
  std::fprintf(stderr,
               "validity: backlog_growth=%.1f late_ms_p99=%.4f "
               "sut_cores=%.3f gen_cpu_us_per_rec=%.4f%s\n",
               r.backlog_growth, late_p99.value, sut_cores,
               GeneratorCpuUsPerRecord(r.d().gen, r.recs()),
               r.backlog_growth > 4.0 * static_cast<double>(w.batch)
                   ? "  [GROWING: offered rate above capacity today]"
                   : "");
  std::fprintf(stderr, "metrics (%s):\n",
               o.trace ? "traced rounds" : "timed slices");
  const Metrics m = o.trace ? LayerMetrics(r, *tracer) : EndToEnd(r);
  for (const auto& it : m.items) {
    std::fprintf(stderr, "  %-36s %.6g %s\n", it.first.c_str(),
                 it.second.first, it.second.second.c_str());
  }
  if (o.trace) {
    const std::string path = o.work_dir + "/trace-" + w.name + "-" +
                             std::to_string(o.seed) + ".csv";
    if (!tracer->WriteCsv(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
    std::fprintf(stderr, "trace: %zu spans (%llu dropped) -> %s\n",
                 tracer->size(),
                 static_cast<unsigned long long>(tracer->dropped()),
                 path.c_str());
  }
  std::printf("%s\n", Json(verdict.correct, std::max<std::uint64_t>(
                                                1, r.attempted),
                           r.failed, m)
                          .c_str());
  std::fflush(stdout);
  return verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--rate") {
      o.rate = std::atof(v.c_str());
    } else if (k == "--work-dir") {
      o.work_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  if (o.workload.empty() || o.rate <= 0 || o.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --rate <records/s> "
                 "[--work-dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(o);
}
