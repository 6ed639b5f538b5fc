// Replication unit and edge-case coverage: the leader-side shipper's
// chunk semantics (sealing, restart-on-GC, torn live tails), the
// streaming journal frame parser, follower-mode service refusals, and
// the follower catch-up edge cases the design must survive — a torn
// leader tail mid-ship, segment rotation racing the shipper past a slow
// follower, a follower restart resuming from its local journal, and a
// slow follower that must never stall leader ingest.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/tma_engine.h"
#include "journal/format.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "net/client.h"
#include "net/server.h"
#include "replica/follower.h"
#include "replica/shipper.h"
#include "service/monitor_service.h"
#include "stream/generators.h"
#include "tests/journal/journal_test_util.h"
#include "tests/net/net_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::ScopedTempDir;

constexpr int kDim = 2;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void AppendBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<Record> MakeBatch(RecordId first, std::size_t n, Timestamp ts) {
  auto gen = MakeGenerator(Distribution::kIndependent, kDim, 7 + first);
  std::vector<Record> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(first + static_cast<RecordId>(i), gen->NextPoint(), ts);
  }
  return out;
}

// ---- streaming frame parser --------------------------------------------

TEST(ReplicaFrameParseTest, NeedMoreThenFrameThenBad) {
  std::string body;
  EncodeCycleBody(42, MakeBatch(0, 3, 42), &body);
  std::string frame;
  EncodeFrame(body, &frame);

  const char* got_body = nullptr;
  std::size_t body_len = 0;
  std::size_t consumed = 0;
  std::string detail;
  // Every proper prefix is kNeedMore — a torn tail never decodes.
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(TryParseJournalFrame(frame.data(), n, &got_body, &body_len,
                                   &consumed, &detail),
              JournalFrameParse::kNeedMore)
        << "prefix " << n;
  }
  ASSERT_EQ(TryParseJournalFrame(frame.data(), frame.size(), &got_body,
                                 &body_len, &consumed, &detail),
            JournalFrameParse::kFrame);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(body_len, body.size());
  JournalRecord record;
  TOPKMON_ASSERT_OK(DecodeBody(got_body, body_len, &record));
  EXPECT_EQ(record.type, JournalRecordType::kCycle);
  EXPECT_EQ(record.batch.size(), 3u);

  // Flip a body byte: complete frame, wrong CRC -> kBad.
  std::string damaged = frame;
  damaged[damaged.size() - 1] = static_cast<char>(damaged.back() ^ 0x40);
  EXPECT_EQ(TryParseJournalFrame(damaged.data(), damaged.size(), &got_body,
                                 &body_len, &consumed, &detail),
            JournalFrameParse::kBad);
}

// ---- shipper chunk semantics -------------------------------------------

TEST(ReplicaShipperTest, ChunkedReadsReassembleTheExactFileBytes) {
  ScopedTempDir dir;
  JournalOptions opt;
  opt.dir = dir.path();
  auto writer = CycleJournalWriter::Open(opt, JournalSnapshot{});
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (Timestamp ts = 1; ts <= 20; ++ts) {
    TOPKMON_ASSERT_OK((*writer)->AppendCycle(
        ts, MakeBatch(static_cast<RecordId>(ts * 10), 4, ts)));
  }
  const std::string path = (*writer)->current_segment_path();
  TOPKMON_ASSERT_OK((*writer)->Close());
  const std::string want = ReadFile(path);
  ASSERT_FALSE(want.empty());

  JournalShipper shipper(dir.path());
  std::string got;
  // Tiny chunks: every fetch ends mid-frame somewhere, which is exactly
  // the torn-tail shape a live leader presents — bytes must reassemble
  // verbatim regardless.
  while (true) {
    auto chunk = shipper.Read(0, got.size(), 13);
    ASSERT_TRUE(chunk.ok()) << chunk.status();
    EXPECT_FALSE(chunk->restart);
    EXPECT_EQ(chunk->offset, got.size());
    if (chunk->data.empty()) break;
    got += chunk->data;
  }
  EXPECT_EQ(got, want);
}

TEST(ReplicaShipperTest, TornLeaderTailShipsAndCompletesLater) {
  ScopedTempDir dir;
  JournalOptions opt;
  opt.dir = dir.path();
  auto writer = CycleJournalWriter::Open(opt, JournalSnapshot{});
  ASSERT_TRUE(writer.ok()) << writer.status();
  TOPKMON_ASSERT_OK((*writer)->AppendCycle(1, MakeBatch(0, 4, 1)));
  const std::string path = (*writer)->current_segment_path();
  TOPKMON_ASSERT_OK((*writer)->Close());

  // Simulate a crash mid-append: half a frame lands on disk.
  std::string body;
  EncodeCycleBody(2, MakeBatch(10, 4, 2), &body);
  std::string frame;
  EncodeFrame(body, &frame);
  const std::string first_half = frame.substr(0, frame.size() / 2);
  AppendBytes(path, first_half);

  JournalShipper shipper(dir.path());
  auto chunk = shipper.Read(0, 0, 1 << 20);
  ASSERT_TRUE(chunk.ok()) << chunk.status();
  const std::size_t with_tail = chunk->data.size();
  // The shipper serves the torn bytes as they are (the follower's frame
  // parser waits for the rest)...
  EXPECT_EQ(chunk->data.substr(with_tail - first_half.size()), first_half);
  // ...and once the "recovered" leader finishes the append, the next
  // fetch completes the frame byte-for-byte.
  AppendBytes(path, frame.substr(frame.size() / 2));
  auto rest = shipper.Read(0, with_tail, 1 << 20);
  ASSERT_TRUE(rest.ok()) << rest.status();
  EXPECT_EQ(rest->data, frame.substr(frame.size() / 2));
}

TEST(ReplicaShipperTest, RotationSealsAndGcDrawsRestart) {
  ScopedTempDir dir;
  JournalOptions opt;
  opt.dir = dir.path();
  auto writer = CycleJournalWriter::Open(opt, JournalSnapshot{});
  ASSERT_TRUE(writer.ok()) << writer.status();
  TOPKMON_ASSERT_OK((*writer)->AppendCycle(1, MakeBatch(0, 4, 1)));

  // Default GC (retain_segment_count = 1) deletes segment 0 at rotation:
  // a follower still asking for it draws a restart pointing at the
  // oldest survivor.
  JournalSnapshot snap;
  snap.last_cycle_ts = 1;
  snap.next_record_id = 4;
  TOPKMON_ASSERT_OK((*writer)->RotateWithSnapshot(snap));
  JournalShipper shipper(dir.path());
  auto gone = shipper.Read(0, 0, 1 << 20);
  ASSERT_TRUE(gone.ok()) << gone.status();
  EXPECT_TRUE(gone->restart);
  EXPECT_EQ(gone->next_segment, 1u);
  TOPKMON_ASSERT_OK((*writer)->Close());

  // With a replication horizon (retain_segment_count = 2) the sealed
  // segment survives its own rotation and ships with the sealed flag.
  ScopedTempDir dir2;
  JournalOptions opt2;
  opt2.dir = dir2.path();
  opt2.retain_segment_count = 2;
  auto writer2 = CycleJournalWriter::Open(opt2, JournalSnapshot{});
  ASSERT_TRUE(writer2.ok()) << writer2.status();
  TOPKMON_ASSERT_OK((*writer2)->AppendCycle(1, MakeBatch(0, 4, 1)));
  const std::uint64_t sealed_size =
      ReadFile((*writer2)->current_segment_path()).size();
  TOPKMON_ASSERT_OK((*writer2)->RotateWithSnapshot(snap));
  JournalShipper shipper2(dir2.path());
  auto sealed = shipper2.Read(0, 0, 1 << 20);
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  EXPECT_FALSE(sealed->restart);
  EXPECT_TRUE(sealed->sealed);
  EXPECT_EQ(sealed->next_segment, 1u);
  EXPECT_EQ(sealed->data.size(), sealed_size);
  // A second rotation pushes segment 0 past the horizon: restart.
  TOPKMON_ASSERT_OK((*writer2)->RotateWithSnapshot(snap));
  auto late = shipper2.Read(0, 0, 1 << 20);
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_TRUE(late->restart);
  EXPECT_EQ(late->next_segment, 1u);
  TOPKMON_ASSERT_OK((*writer2)->Close());
}

// ---- follower-mode service ---------------------------------------------

std::function<std::unique_ptr<MonitorEngine>()> BruteFactory(
    std::size_t window) {
  return [window] {
    return std::unique_ptr<MonitorEngine>(
        new BruteForceEngine(kDim, WindowSpec::Count(window)));
  };
}

TEST(ReplicaFollowerServiceTest, WritesAreRefusedWithRedirect) {
  ScopedTempDir dir;
  ServiceOptions opt;
  opt.journal.dir = dir.path() + "/repl";
  auto follower = MonitorService::OpenFollower(BruteFactory(100), opt,
                                               "10.0.0.1:4585");
  ASSERT_TRUE(follower.ok()) << follower.status();
  MonitorService& svc = **follower;
  EXPECT_EQ(svc.role(), ServiceRole::kFollower);

  const Status ingest = svc.Ingest(Point{0.5, 0.5}, 1);
  EXPECT_EQ(ingest.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(ingest.message().find("10.0.0.1:4585"), std::string::npos)
      << "redirect must name the leader: " << ingest;
  QuerySpec spec;
  spec.k = 2;
  spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0}, 0.0);
  const auto session = svc.OpenSession("reader");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(svc.Register(*session, spec).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc.Unregister(*session, 1).code(),
            StatusCode::kFailedPrecondition);
  // A reader session owning nothing is pure local state: closing it must
  // work, or short-lived follower readers pile into the session limit.
  TOPKMON_EXPECT_OK(svc.CloseSession(*session));
  svc.Shutdown();
}

// A replicated cycle publishes its deltas as the cycle is applied,
// together: a reader blocked in WaitDeltas gets the whole cycle at once.
TEST(ReplicaFollowerServiceTest, AppliedCyclesDeliverTheirDeltas) {
  ScopedTempDir dir;
  ServiceOptions opt;
  opt.journal.dir = dir.path() + "/repl";
  auto follower = MonitorService::OpenFollower(BruteFactory(100), opt,
                                               "leader:1");
  ASSERT_TRUE(follower.ok()) << follower.status();
  MonitorService& svc = **follower;
  const auto specs = MakeRandomQueries(kDim, 3, 2, 8);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JournalRecord reg;
    reg.type = JournalRecordType::kRegister;
    reg.query.spec = specs[i];
    reg.query.spec.id = static_cast<QueryId>(i + 1);
    reg.query.owner_label = "dash";
    TOPKMON_ASSERT_OK(svc.ApplyReplicated(reg));
  }
  const auto session = svc.FindSession("dash");
  ASSERT_TRUE(session.ok()) << session.status();

  std::vector<DeltaEvent> events;
  std::size_t got = 0;
  std::thread reader([&] {
    got = svc.WaitDeltas(*session, 1024, std::chrono::seconds(10), &events);
  });
  JournalRecord cycle;
  cycle.type = JournalRecordType::kCycle;
  cycle.cycle_ts = 1;
  cycle.batch = MakeBatch(0, 8, 1);
  TOPKMON_ASSERT_OK(svc.ApplyReplicated(cycle));
  reader.join();
  // Eight records into an empty window change all three results.
  ASSERT_EQ(got, 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    EXPECT_EQ(events[i].delta.when, 1);
    EXPECT_EQ(events[i].delta.added.size(), 2u);
  }
}

TEST(ReplicaFollowerServiceTest, ReplayRoutesDeltasAndPromoteAcceptsWrites) {
  ScopedTempDir dir;
  ServiceOptions opt;
  opt.journal.dir = dir.path() + "/repl";
  opt.hub.buffer_capacity = 1 << 12;
  auto follower = MonitorService::OpenFollower(BruteFactory(100), opt,
                                               "leader:1");
  ASSERT_TRUE(follower.ok()) << follower.status();
  MonitorService& svc = **follower;

  // Feed replicated records by hand: a register under label "dash", then
  // two cycles. The register must create the session, bind the route and
  // deliver the initial-result delta.
  JournalRecord reg;
  reg.type = JournalRecordType::kRegister;
  reg.query.spec = MakeRandomQueries(kDim, 1, 3, 5)[0];
  reg.query.spec.id = 7;
  reg.query.owner_label = "dash";
  TOPKMON_ASSERT_OK(svc.ApplyReplicated(reg));
  const auto session = svc.FindSession("dash");
  ASSERT_TRUE(session.ok()) << session.status();

  JournalRecord cycle;
  cycle.type = JournalRecordType::kCycle;
  cycle.cycle_ts = 1;
  cycle.batch = MakeBatch(0, 8, 1);
  TOPKMON_ASSERT_OK(svc.ApplyReplicated(cycle));
  cycle.cycle_ts = 2;
  cycle.batch = MakeBatch(8, 8, 2);
  TOPKMON_ASSERT_OK(svc.ApplyReplicated(cycle));

  std::vector<DeltaEvent> events;
  svc.PollDeltas(*session, 1024, &events);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().seq, 1u);
  EXPECT_EQ(events.front().delta.query, 7u);
  const auto replicated = svc.CurrentResult(7);
  ASSERT_TRUE(replicated.ok()) << replicated.status();
  EXPECT_EQ(svc.replication().applied_cycle_ts, 2);
  // This session owns a *replicated* query: closing it would diverge
  // from the leader, so it draws the redirect.
  EXPECT_EQ(svc.CloseSession(*session).code(),
            StatusCode::kFailedPrecondition);

  // Promotion: writes start working, record ids / timestamps resume past
  // the replayed ones, and the journal opens in the shipped dir.
  TOPKMON_ASSERT_OK(svc.Promote());
  EXPECT_EQ(svc.role(), ServiceRole::kLeader);
  TOPKMON_ASSERT_OK(svc.Ingest(Point{0.9, 0.9}, 3));
  TOPKMON_ASSERT_OK(svc.Flush());
  QuerySpec extra = MakeRandomQueries(kDim, 1, 2, 9)[0];
  const auto extra_id = svc.Register(*session, extra);
  ASSERT_TRUE(extra_id.ok()) << extra_id.status();
  EXPECT_GT(*extra_id, 7u) << "query ids must continue past the replayed";
  TOPKMON_ASSERT_OK(svc.journal_status());
  svc.Shutdown();

  // The promoted journal is recoverable: a restart sees the replicated
  // query and the promoted-era state.
  ServiceOptions again = opt;
  auto reopened = MonitorService::Open(BruteFactory(100), again);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->recovery().recovered);
  const auto recovered = (*reopened)->CurrentResult(7);
  EXPECT_TRUE(recovered.ok()) << recovered.status();
  (*reopened)->Shutdown();
}

// Regression: the follower-mode CloseSession refusal must not outlive
// Promote(). The refusal is keyed on the *current* role (checked at call
// time, not latched per session), so pre-promotion sessions — readers
// owning nothing and owners of replicated queries alike — close normally
// once the service is a leader, and closing the owner unregisters its
// queries like any leader-side close.
TEST(ReplicaFollowerServiceTest, CloseSessionWorksAfterPromote) {
  ScopedTempDir dir;
  ServiceOptions opt;
  opt.journal.dir = dir.path() + "/repl";
  auto follower = MonitorService::OpenFollower(BruteFactory(100), opt,
                                               "leader:1");
  ASSERT_TRUE(follower.ok()) << follower.status();
  MonitorService& svc = **follower;

  JournalRecord reg;
  reg.type = JournalRecordType::kRegister;
  reg.query.spec = MakeRandomQueries(kDim, 1, 3, 5)[0];
  reg.query.spec.id = 7;
  reg.query.owner_label = "dash";
  TOPKMON_ASSERT_OK(svc.ApplyReplicated(reg));
  JournalRecord cycle;
  cycle.type = JournalRecordType::kCycle;
  cycle.cycle_ts = 1;
  cycle.batch = MakeBatch(0, 8, 1);
  TOPKMON_ASSERT_OK(svc.ApplyReplicated(cycle));

  const auto owner = svc.FindSession("dash");
  ASSERT_TRUE(owner.ok()) << owner.status();
  const auto reader = svc.OpenSession("pre-promotion-reader");
  ASSERT_TRUE(reader.ok()) << reader.status();

  // Pre-promotion: the query-owning session draws the redirect.
  EXPECT_EQ(svc.CloseSession(*owner).code(),
            StatusCode::kFailedPrecondition);

  TOPKMON_ASSERT_OK(svc.Promote());
  EXPECT_EQ(svc.role(), ServiceRole::kLeader);

  // Post-promotion both pre-promotion sessions close cleanly...
  TOPKMON_EXPECT_OK(svc.CloseSession(*reader));
  TOPKMON_EXPECT_OK(svc.CloseSession(*owner));
  // ...the owner's replicated query went with it, and the labels are
  // free for fresh sessions again.
  EXPECT_EQ(svc.CurrentResult(7).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(svc.FindSession("dash").ok());
  EXPECT_FALSE(svc.FindSession("pre-promotion-reader").ok());
  TOPKMON_ASSERT_OK(svc.journal_status());
  svc.Shutdown();
}

// ---- live follower edge cases ------------------------------------------

struct Leader {
  ScopedTempDir dir;
  std::unique_ptr<MonitorService> service;
  std::unique_ptr<TcpServer> server;

  explicit Leader(std::size_t window = 400,
                  std::size_t segment_bytes = 8u << 20,
                  std::uint64_t retain_segments = 2) {
    ServiceOptions opt;
    opt.ingest.slack = 0;
    opt.ingest.max_batch = 128;  // many cycles -> rotation really happens
    opt.drain_wait = std::chrono::milliseconds(1);
    opt.journal.dir = dir.path() + "/leader";
    opt.journal.segment_bytes = segment_bytes;
    opt.journal.retain_segment_count = retain_segments;
    opt.journal.snapshot_every_cycles = 0;  // size-based rotation only
    auto opened = MonitorService::Open(BruteFactory(window), opt);
    if (!opened.ok()) std::abort();
    service = std::move(*opened);
    server = std::make_unique<TcpServer>(*service,
                                         testing::TestServerOptions());
    if (!server->Start().ok()) std::abort();
  }
};

ReplicaFollowerOptions FollowerOptions(std::uint16_t port) {
  ReplicaFollowerOptions opt;
  opt.leader_port = port;
  opt.fetch_wait = std::chrono::milliseconds(20);
  opt.reconnect_backoff = std::chrono::milliseconds(10);
  return opt;
}

ServiceOptions FollowerServiceOptions(const std::string& dir) {
  ServiceOptions opt;
  opt.journal.dir = dir;
  opt.hub.buffer_capacity = 1 << 16;
  return opt;
}

/// Ingests `n` records into the leader starting at *clock and flushes.
void IngestRecords(Leader& leader, std::size_t n, Timestamp* clock) {
  auto gen = MakeGenerator(Distribution::kClustered, kDim,
                           900 + static_cast<std::uint64_t>(*clock));
  for (std::size_t i = 0; i < n; ++i) {
    TOPKMON_ASSERT_OK(leader.service->Ingest(gen->NextPoint(), ++*clock));
  }
  TOPKMON_ASSERT_OK(leader.service->Flush());
}

void ExpectSameTopK(MonitorService& a, MonitorService& b, QueryId query) {
  const auto ra = a.CurrentResult(query);
  const auto rb = b.CurrentResult(query);
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_EQ(testing::Scores(*ra), testing::Scores(*rb))
      << "query " << query;
}

TEST(ReplicaFollowerTest, MirrorsLeaderThroughTinyChunksAndServesReads) {
  Leader leader;
  const auto session = leader.service->OpenSession("dash");
  ASSERT_TRUE(session.ok());
  std::vector<QueryId> queries;
  for (const QuerySpec& spec : MakeRandomQueries(kDim, 3, 4, 21)) {
    const auto id = leader.service->Register(*session, spec);
    ASSERT_TRUE(id.ok()) << id.status();
    queries.push_back(*id);
  }

  ScopedTempDir fdir;
  auto fopt = FollowerOptions(leader.server->port());
  // Tiny fetches: every chunk boundary lands mid-frame somewhere — the
  // torn-tail-mid-ship shape, continuously.
  fopt.fetch_bytes = 61;
  auto follower = ReplicaFollower::Open(
      BruteFactory(400), FollowerServiceOptions(fdir.path() + "/repl"),
      fopt);
  ASSERT_TRUE(follower.ok()) << follower.status();

  Timestamp clock = 0;
  IngestRecords(leader, 600, &clock);
  const Timestamp leader_ts =
      leader.service->replication().applied_cycle_ts;
  TOPKMON_ASSERT_OK((*follower)->WaitForCycleTs(
      leader_ts, std::chrono::seconds(30)));

  for (QueryId q : queries) {
    ExpectSameTopK(*leader.service, (*follower)->service(), q);
  }
  // The replica adopted the leader-side session label; its delta stream
  // is gap-free from seq 1.
  const auto fsession = (*follower)->service().FindSession("dash");
  ASSERT_TRUE(fsession.ok()) << fsession.status();
  std::vector<DeltaEvent> events;
  (*follower)->service().PollDeltas(*fsession, 1u << 20, &events);
  ASSERT_FALSE(events.empty());
  std::uint64_t seq = 1;
  for (const DeltaEvent& e : events) EXPECT_EQ(e.seq, seq++);

  // Reads over the wire: Welcome announces the follower role, snapshots
  // carry the staleness fields, writes draw the redirect.
  TcpServer fserver((*follower)->service(), testing::TestServerOptions());
  TOPKMON_ASSERT_OK(fserver.Start());
  auto reader = MonitorClient::Connect("127.0.0.1", fserver.port(), "dash",
                                       /*resume=*/true);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE((*reader)->resumed());
  EXPECT_TRUE((*reader)->server_is_follower());
  const auto snap = (*reader)->CurrentResult(queries[0]);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ((*reader)->snapshot_as_of(), leader_ts);
  const auto ack = (*reader)->Ingest(MakeBatch(0, 1, clock + 1));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, 0u);
  EXPECT_EQ(ack->first_error.code(), StatusCode::kFailedPrecondition);
  fserver.Stop();
  (*follower)->Stop();
}

TEST(ReplicaFollowerTest, RestartResumesFromLocalJournalEvenWithTornTail) {
  Leader leader;
  const auto session = leader.service->OpenSession("dash");
  ASSERT_TRUE(session.ok());
  const auto query = leader.service->Register(
      *session, MakeRandomQueries(kDim, 1, 5, 31)[0]);
  ASSERT_TRUE(query.ok());

  ScopedTempDir fdir;
  const std::string repl_dir = fdir.path() + "/repl";
  Timestamp clock = 0;
  {
    auto follower = ReplicaFollower::Open(
        BruteFactory(400), FollowerServiceOptions(repl_dir),
        FollowerOptions(leader.server->port()));
    ASSERT_TRUE(follower.ok()) << follower.status();
    IngestRecords(leader, 300, &clock);
    TOPKMON_ASSERT_OK((*follower)->WaitForCycleTs(
        leader.service->replication().applied_cycle_ts,
        std::chrono::seconds(30)));
    (*follower)->Stop();  // follower goes down; local journal remains
  }

  // Damage the local tail the way a crash mid-ship would: half a frame.
  auto segments = ListSegments(repl_dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments->empty());
  AppendBytes(segments->back().path, std::string(5, '\x7f'));

  // The leader moves on while the follower is down.
  IngestRecords(leader, 300, &clock);

  auto follower = ReplicaFollower::Open(
      BruteFactory(400), FollowerServiceOptions(repl_dir),
      FollowerOptions(leader.server->port()));
  ASSERT_TRUE(follower.ok()) << follower.status();
  const ReplicaFollowerStats boot = (*follower)->stats();
  EXPECT_GT(boot.records_applied, 0u)
      << "bootstrap must replay the locally shipped journal";
  TOPKMON_ASSERT_OK((*follower)->WaitForCycleTs(
      leader.service->replication().applied_cycle_ts,
      std::chrono::seconds(30)));
  ExpectSameTopK(*leader.service, (*follower)->service(), *query);
  EXPECT_EQ((*follower)->stats().restarts, 0u)
      << "a clean local resume must not need a full resync";
  (*follower)->Stop();
}

TEST(ReplicaFollowerTest, GcPastSlowFollowerForcesRestartCatchUp) {
  // Small segments with GC on: by the time the follower attaches, the
  // segment it asks for first (0) is long gone — it must restart from
  // the leader's oldest surviving snapshot anchor and still converge.
  Leader leader(/*window=*/400, /*segment_bytes=*/16384,
                /*retain_segments=*/2);
  const auto session = leader.service->OpenSession("dash");
  ASSERT_TRUE(session.ok());
  const auto query = leader.service->Register(
      *session, MakeRandomQueries(kDim, 1, 5, 41)[0]);
  ASSERT_TRUE(query.ok());
  Timestamp clock = 0;
  IngestRecords(leader, 3000, &clock);  // forces several rotations + GC
  {
    auto segments = ListSegments(leader.service->journal_dir());
    ASSERT_TRUE(segments.ok());
    ASSERT_GT(segments->front().index, 0u)
        << "premise: segment 0 must be garbage-collected before the "
           "follower attaches";
  }

  ScopedTempDir fdir;
  auto follower = ReplicaFollower::Open(
      BruteFactory(400), FollowerServiceOptions(fdir.path() + "/repl"),
      FollowerOptions(leader.server->port()));
  ASSERT_TRUE(follower.ok()) << follower.status();
  TOPKMON_ASSERT_OK((*follower)->WaitForCycleTs(
      leader.service->replication().applied_cycle_ts,
      std::chrono::seconds(30)));
  EXPECT_GE((*follower)->stats().restarts, 1u);
  ExpectSameTopK(*leader.service, (*follower)->service(), *query);

  // Rotation racing the attached shipper: keep ingesting so the leader
  // seals + deletes segments while the follower follows along live.
  IngestRecords(leader, 3000, &clock);
  TOPKMON_ASSERT_OK((*follower)->WaitForCycleTs(
      leader.service->replication().applied_cycle_ts,
      std::chrono::seconds(30)));
  ExpectSameTopK(*leader.service, (*follower)->service(), *query);
  EXPECT_GE((*follower)->stats().segments_completed, 1u);
  (*follower)->Stop();
}

TEST(ReplicaFollowerTest, SlowFollowerNeverStallsLeaderIngest) {
  Leader leader;
  const auto session = leader.service->OpenSession("dash");
  ASSERT_TRUE(session.ok());
  const auto query = leader.service->Register(
      *session, MakeRandomQueries(kDim, 1, 5, 51)[0]);
  ASSERT_TRUE(query.ok());

  ScopedTempDir fdir;
  auto fopt = FollowerOptions(leader.server->port());
  fopt.fetch_bytes = 48;  // pathologically slow shipping
  auto follower = ReplicaFollower::Open(
      BruteFactory(400), FollowerServiceOptions(fdir.path() + "/repl"),
      fopt);
  ASSERT_TRUE(follower.ok()) << follower.status();

  // The leader applies every record and Flush returns without ever
  // waiting on the follower (pull model: nothing in the ingest path
  // talks to replication).
  Timestamp clock = 0;
  IngestRecords(leader, 3000, &clock);
  EXPECT_EQ(leader.service->stats().records_applied, 3000u);
  EXPECT_LT((*follower)->service().stats().records_applied, 3000u)
      << "a 48-byte/fetch follower cannot have kept up with a flushed "
         "leader — if it did, this test lost its premise";
  // ... and the slow follower still converges eventually.
  TOPKMON_ASSERT_OK((*follower)->WaitForCycleTs(
      leader.service->replication().applied_cycle_ts,
      std::chrono::minutes(2)));
  ExpectSameTopK(*leader.service, (*follower)->service(), *query);
  (*follower)->Stop();
}

}  // namespace
}  // namespace topkmon
