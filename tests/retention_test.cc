// Tests for bounded-memory retention (docs/RETENTION.md): the
// ObservableWindow analysis, RetentionPolicy store compaction with
// tombstones, the EXPIRED frame codec, StreamServer history trimming, the
// server's retention driver (frame-log GC in lockstep with WAL
// checkpoints, incl. fork-based kill points at the trim boundary), the
// EXPIRED resume protocol for frames / fillers / result ranges, and a
// bounded chaos soak where surviving subscribers converge byte-identical
// on the retained window.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "frag/assembler.h"
#include "frag/fragment.h"
#include "frag/fragment_store.h"
#include "net/chaos.h"
#include "net/frame.h"
#include "net/query_channel.h"
#include "net/server.h"
#include "net/subscriber.h"
#include "net/wal.h"
#include "stream/clock.h"
#include "stream/continuous.h"
#include "stream/registry.h"
#include "stream/transport.h"
#include "xcql/executor.h"
#include "xml/serializer.h"
#include "xq/context.h"

namespace xcql {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

frag::TagStructure MustParseTs(const std::string& xml) {
  auto r = frag::TagStructure::Parse(xml);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).MoveValue();
}

constexpr const char* kPacketTs = R"(
<tag type="snapshot" id="1" name="packets">
  <tag type="event" id="2" name="packet">
    <tag type="snapshot" id="3" name="id"/>
  </tag>
</tag>)";

constexpr const char* kMixedTs = R"(
<tag type="snapshot" id="1" name="db">
  <tag type="temporal" id="2" name="account">
    <tag type="snapshot" id="3" name="balance"/>
  </tag>
  <tag type="event" id="4" name="tx"/>
</tag>)";

lang::QueryRelevance Analyze(const std::string& ts_xml,
                             const std::string& stream,
                             const std::string& query) {
  static std::vector<std::unique_ptr<frag::FragmentStore>>* keep =
      new std::vector<std::unique_ptr<frag::FragmentStore>>();
  keep->push_back(std::make_unique<frag::FragmentStore>(MustParseTs(ts_xml),
                                                        stream));
  lang::QueryExecutor ex;
  EXPECT_TRUE(ex.RegisterStream(keep->back().get()).ok());
  auto prep = ex.Prepare(query, lang::ExecMethod::kQaCPlus);
  EXPECT_TRUE(prep.ok()) << prep.status().ToString();
  if (!prep.ok()) return {};
  return prep.value().relevance;
}

// ---- Minimal observable window analysis -------------------------------------

TEST(ObservableWindowTest, PlainStreamScanIsUnboundedAndPins) {
  auto rel = Analyze(kPacketTs, "pkts",
                     "for $p in stream(\"pkts\")//packet "
                     "return string($p/id)");
  EXPECT_FALSE(rel.window.bounded);
  EXPECT_EQ(DateTime::Start(), rel.window.FloorAt(DateTime(100000)));
}

TEST(ObservableWindowTest, SlidingLookbackBoundsTheWindow) {
  auto rel = Analyze(kPacketTs, "pkts",
                     "for $p in stream(\"pkts\")//packet?[now - \"PT600S\", "
                     "now] return string($p/id)");
  EXPECT_TRUE(rel.window.bounded);
  EXPECT_EQ(600, rel.window.lookback_s);
  EXPECT_EQ(DateTime(100000 - 600), rel.window.FloorAt(DateTime(100000)));
}

TEST(ObservableWindowTest, AbsoluteLowerBoundIsAFixedFloor) {
  auto rel = Analyze(kPacketTs, "pkts",
                     "count(stream(\"pkts\")//packet?"
                     "[\"1970-01-02T00:00:00\", now])");
  EXPECT_TRUE(rel.window.bounded);
  EXPECT_EQ(DateTime(86400), rel.window.FloorAt(DateTime(100000000)));
}

TEST(ObservableWindowTest, PredicatedProjectionInputVoidsTheBound) {
  // The predicate can observe versions the projection clips, so the
  // window promise would be unsound; analysis must fall back to pinning.
  auto rel = Analyze(kPacketTs, "pkts",
                     "for $p in stream(\"pkts\")//packet[id = \"7\"]"
                     "?[now - \"PT600S\", now] return string($p/id)");
  EXPECT_FALSE(rel.window.bounded);
}

TEST(ObservableWindowTest, UnionTakesTheLoosestBound) {
  auto rel = Analyze(kPacketTs, "pkts",
                     "(count(stream(\"pkts\")//packet?[now - \"PT60S\", "
                     "now]), count(stream(\"pkts\")//packet?"
                     "[now - \"PT600S\", now]))");
  EXPECT_TRUE(rel.window.bounded);
  EXPECT_EQ(600, rel.window.lookback_s);
}

TEST(ObservableWindowTest, AnyUnwindowedAccessPins) {
  auto rel = Analyze(kPacketTs, "pkts",
                     "(count(stream(\"pkts\")//packet?[now - \"PT60S\", "
                     "now]), count(stream(\"pkts\")//packet))");
  EXPECT_FALSE(rel.window.bounded);
}

TEST(ObservableWindowTest, NoStoreAccessNeverPins) {
  auto rel = Analyze(kPacketTs, "pkts", "1 + 2");
  EXPECT_TRUE(rel.window.bounded);
  // No access at all: the floor is the loosest possible (End), so the
  // query never constrains retention.
  EXPECT_EQ(DateTime::End(), rel.window.FloorAt(DateTime(1000)));
}

// ---- EXPIRED frame codec ----------------------------------------------------

TEST(ExpiredCodecTest, RoundTripsAllKinds) {
  net::Expired range;
  range.kind = net::Expired::kRange;
  range.first_seq = 42;
  net::Expired filler;
  filler.kind = net::Expired::kFiller;
  filler.filler_id = 7;
  net::Expired results;
  results.kind = net::Expired::kResultRange;
  results.query_id = 0xdeadbeefull;
  results.first_seq = 1234;
  for (const net::Expired& in : {range, filler, results}) {
    auto out = net::DecodeExpired(net::EncodeExpired(in));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value().kind, in.kind);
    EXPECT_EQ(out.value().first_seq, in.first_seq);
    EXPECT_EQ(out.value().filler_id, in.filler_id);
    EXPECT_EQ(out.value().query_id, in.query_id);
  }
}

TEST(ExpiredCodecTest, RejectsTruncatedPayloads) {
  net::Expired in;
  in.kind = net::Expired::kResultRange;
  in.query_id = 9;
  in.first_seq = 10;
  const std::string bytes = net::EncodeExpired(in);
  for (size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(net::DecodeExpired(std::string_view(bytes).substr(0, n)).ok())
        << "accepted a " << n << "-byte prefix";
  }
}

// ---- FragmentStore compaction ----------------------------------------------

frag::Fragment Frag(int64_t id, int tsid, int64_t t, const char* name,
                    const std::string& text = "") {
  frag::Fragment f;
  f.id = id;
  f.tsid = tsid;
  f.valid_time = DateTime(t);
  f.content = Node::Element(name);
  if (!text.empty()) f.content->AddChild(Node::Text(text));
  return f;
}

TEST(CompactTest, LifespanRulePerTagType) {
  frag::FragmentStore store(MustParseTs(kMixedTs), "db");
  // Temporal account 10: versions at 100, 200, 500 — the 100-version's
  // lifespan ends at 200 (below the floor), the 200-version's at 500
  // (above it), and the 500-version is open at now.
  for (int64_t t : {100, 200, 500}) {
    ASSERT_TRUE(store.Insert(Frag(10, 2, t, "account")).ok());
  }
  // Events at 100 (below the floor: removable) and 400 (above: kept).
  ASSERT_TRUE(store.Insert(Frag(20, 4, 100, "tx")).ok());
  ASSERT_TRUE(store.Insert(Frag(21, 4, 400, "tx")).ok());
  // Snapshot balance 30: the 100-transmission was replaced at 200 —
  // superseded snapshots are removable regardless of the floor.
  ASSERT_TRUE(store.Insert(Frag(30, 3, 100, "balance", "5")).ok());
  ASSERT_TRUE(store.Insert(Frag(30, 3, 200, "balance", "6")).ok());

  frag::RetentionPolicy policy;
  policy.max_age_s = 0;  // everything below `now` is in the time window
  auto stats = store.Compact(policy, DateTime(1000), DateTime(300));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().removed_fragments, 3);  // acct@100, tx@100, bal@100
  EXPECT_EQ(stats.value().expired_fillers, 1);    // event filler 20

  EXPECT_EQ(store.VersionTimes(10), (std::vector<int64_t>{200, 500}));
  EXPECT_TRUE(store.VersionTimes(20).empty());
  EXPECT_TRUE(store.IsExpired(20));
  EXPECT_EQ(store.VersionTimes(21), (std::vector<int64_t>{400}));
  EXPECT_EQ(store.VersionTimes(30), (std::vector<int64_t>{200}));
  EXPECT_EQ(store.retention_floor(), DateTime(300));
}

TEST(CompactTest, ObserveFloorPinsCompaction) {
  frag::FragmentStore store(MustParseTs(kMixedTs), "db");
  for (int64_t t : {100, 200, 300}) {
    ASSERT_TRUE(store.Insert(Frag(20 + t, 4, t, "tx")).ok());
  }
  frag::RetentionPolicy policy;
  policy.max_age_s = 0;
  // An unbounded query pins the floor at Start(): nothing may go.
  auto pinned = store.Compact(policy, DateTime(1000), DateTime::Start());
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.value().removed_fragments, 0);
  EXPECT_EQ(store.size(), 3u);
  // Nothing pinning (End()): the policy window governs.
  auto free = store.Compact(policy, DateTime(1000), DateTime::End());
  ASSERT_TRUE(free.ok());
  EXPECT_EQ(free.value().removed_fragments, 3);
}

TEST(CompactTest, ZeroCountWindowIsSafeAndCompactsEverythingRemovable) {
  // The --retain-frames 0 extreme: the count window keeps nothing. The
  // cut index then equals the fragment count, which must not read one
  // past the end of the validTime array; lifespan rules and the observe
  // floor still decide what actually goes.
  frag::FragmentStore store(MustParseTs(kMixedTs), "db");
  for (int64_t t : {100, 200, 300}) {
    ASSERT_TRUE(store.Insert(Frag(20 + t, 4, t, "tx")).ok());
  }
  // An open temporal lifespan survives even a keep-nothing window.
  ASSERT_TRUE(store.Insert(Frag(10, 2, 150, "account")).ok());
  frag::RetentionPolicy policy;
  policy.max_fragments = 0;
  auto stats = store.Compact(policy, DateTime(1000), DateTime::End());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().removed_fragments, 3);  // the three events
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.VersionTimes(10), (std::vector<int64_t>{150}));
}

TEST(CompactTest, TombstoneDistinguishesExpiredFromLost) {
  frag::FragmentStore store(MustParseTs(kPacketTs), "pkts");
  // Root holds holes for fillers 1 (expired below) and 2 (never arrived).
  frag::Fragment root;
  root.id = 0;
  root.tsid = 1;
  root.valid_time = DateTime(999);
  root.content = Node::Element("packets");
  root.content->AddChild(frag::MakeHole(1, 2));
  root.content->AddChild(frag::MakeHole(2, 2));
  ASSERT_TRUE(store.Insert(std::move(root)).ok());
  ASSERT_TRUE(store.Insert(Frag(1, 2, 100, "packet")).ok());

  frag::RetentionPolicy policy;
  policy.max_age_s = 0;
  auto stats = store.Compact(policy, DateTime(5000), DateTime(4000));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(store.IsExpired(1));
  EXPECT_FALSE(store.IsExpired(2));
  // The dangling-edge report: only the genuinely lost filler shows up —
  // NACKing the expired one upstream would be answered EXPIRED anyway.
  EXPECT_EQ(store.MissingFillers(), (std::vector<int64_t>{2}));
  // The view still materializes; the expired filler resolves as empty.
  auto view = frag::Temporalize(store, false);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
}

TEST(CompactTest, LateArrivalBelowFloorOfExpiredFillerIsDropped) {
  frag::FragmentStore store(MustParseTs(kMixedTs), "db");
  ASSERT_TRUE(store.Insert(Frag(20, 4, 100, "tx")).ok());
  frag::RetentionPolicy policy;
  policy.max_age_s = 0;
  ASSERT_TRUE(store.Compact(policy, DateTime(1000), DateTime(500)).ok());
  ASSERT_TRUE(store.IsExpired(20));
  // A retransmission below the floor must not resurrect half a chain.
  ASSERT_TRUE(store.Insert(Frag(20, 4, 100, "tx")).ok());
  EXPECT_TRUE(store.VersionTimes(20).empty());
  EXPECT_TRUE(store.IsExpired(20));
  // A genuinely new version above the floor clears the tombstone.
  ASSERT_TRUE(store.Insert(Frag(20, 4, 800, "tx")).ok());
  EXPECT_EQ(store.VersionTimes(20), (std::vector<int64_t>{800}));
  EXPECT_FALSE(store.IsExpired(20));
}

// ---- StreamServer history trimming -----------------------------------------

frag::Fragment MakePacket(int64_t id, int64_t t, int pkt) {
  frag::Fragment f;
  f.id = id;
  f.tsid = 2;
  f.valid_time = DateTime(t);
  f.content = Node::Element("packet");
  NodePtr pid = Node::Element("id");
  pid->AddChild(Node::Text(std::to_string(pkt)));
  f.content->AddChild(std::move(pid));
  return f;
}

frag::Fragment MakeRoot(const std::vector<int64_t>& hole_ids) {
  frag::Fragment f;
  f.id = 0;
  f.tsid = 1;
  f.valid_time = DateTime(999);
  f.content = Node::Element("packets");
  for (int64_t id : hole_ids) f.content->AddChild(frag::MakeHole(id, 2));
  return f;
}

TEST(TrimHistoryTest, PositionsStayAbsoluteAcrossTrims) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(source.Publish(MakeRoot({})).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(1 + i, 1000 + i * 10, i)).ok());
  }
  EXPECT_EQ(source.history_base(), 0);
  EXPECT_EQ(source.history_size(), 6);
  EXPECT_EQ(source.TrimHistory(3), 3);
  EXPECT_EQ(source.history_base(), 3);
  EXPECT_EQ(source.history_size(), 6);
  // Absolute positions survive: position 3 still names the same fragment.
  EXPECT_EQ(source.history_at(3).valid_time, DateTime(1020));
  // Re-trimming below the base is a no-op, not a negative trim.
  EXPECT_EQ(source.TrimHistory(1), 0);
  EXPECT_EQ(source.history_base(), 3);
}

// ---- Networked retention: EXPIRED resume protocol ---------------------------

template <typename Pred>
bool PollFor(Pred pred, std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

net::RemoteQuerySpec Spec(const std::string& text,
                          uint8_t method = 2 /* kQaCPlus */) {
  net::RemoteQuerySpec spec;
  spec.text = text;
  spec.method = method;
  return spec;
}

TEST(RetentionServerTest, LateResumeBelowTheFloorGetsExpiredAndConverges) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  net::FragmentServerOptions sopts;
  sopts.retention.max_frames = 16;
  sopts.retention.check_every = 4;
  net::FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  // Early life witnessed by subscriber A, which then goes to sleep.
  ASSERT_TRUE(source.Publish(MakeRoot({})).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(1 + i, 1000 + i * 10, i)).ok());
  }
  net::FragmentSubscriberOptions aopts;
  aopts.port = server.port();
  aopts.stream = "pkts";
  net::FragmentSubscriber a(aopts);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(a.WaitForSeq(10, 10s));
  EXPECT_TRUE(a.connected());
  const int64_t a_last = a.last_seq();
  const uint64_t epoch = a.server_epoch();
  a.Stop();

  // While A sleeps the stream outgrows the retention window; the head
  // (a live root snapshot) is unpinned by a refresh and retired.
  for (int i = 10; i < 60; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(1 + i, 1000 + i * 10, i)).ok());
  }
  ASSERT_TRUE(PollFor([&] { return server.log_base() > a_last; }, 10s));
  const net::MetricsSnapshot sm = server.metrics();
  EXPECT_GT(sm.retention_runs, 0);
  EXPECT_GT(sm.frames_retired, 0);
  EXPECT_GE(sm.frames_refreshed, 1);  // the root snapshot
  EXPECT_EQ(sm.retention_floor_seq, server.log_base());
  EXPECT_GT(sm.frame_log_bytes, 0);

  // A fresh subscriber replays from -1: the run below the floor arrives
  // as one EXPIRED frame, then the retained suffix — no gap, no loss.
  net::FragmentSubscriberOptions bopts;
  bopts.port = server.port();
  bopts.stream = "pkts";
  net::FragmentSubscriber b(bopts);
  ASSERT_TRUE(b.Start().ok());
  const int64_t last = server.next_seq() - 1;
  ASSERT_TRUE(b.WaitForSeq(last, 10s));
  EXPECT_GE(b.metrics().expired_in, 1);
  EXPECT_EQ(b.metrics().gaps_detected, 0);

  // A wakes up holding (last_seq, epoch) from before the trim — its
  // resume point is below the floor now. Same handshake, same guarantee.
  aopts.initial_last_seq = a_last;
  aopts.known_epoch = epoch;
  net::FragmentSubscriber a2(aopts);
  ASSERT_TRUE(a2.Start().ok());
  ASSERT_TRUE(a2.WaitForSeq(last, 10s));
  EXPECT_GE(a2.metrics().expired_in, 1);
  EXPECT_EQ(a2.metrics().gaps_detected, 0);
  EXPECT_EQ(a2.metrics().epoch_resets, 0);
  EXPECT_GE(server.metrics().expired_out, 2);

  a2.Stop();
  b.Stop();
  server.Stop();
}

TEST(RetentionServerTest, NackForACompactedFillerResolvesAsExpired) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  net::FragmentServerOptions sopts;
  sopts.retention.max_frames = 6;
  sopts.retention.check_every = 2;
  net::FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  // Filler 1's frames land early and get retired; filler 2's survive.
  ASSERT_TRUE(source.Publish(MakeRoot({1, 2})).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(1, 1000 + i * 10, i)).ok());
  }
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(2, 5000 + i * 10, 100 + i)).ok());
  }
  ASSERT_TRUE(PollFor([&] { return server.log_base() >= 5; }, 10s));

  net::FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  opts.repair_retry_interval = 30ms;
  net::FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitForSeq(server.next_seq() - 1, 10s));

  // The retained replay carries the refreshed root, whose hole for filler
  // 1 now dangles: the repair sweep NACKs it and the server answers
  // EXPIRED — resolved deliberately, no budget burned, nothing "lost".
  frag::FragmentStore store(MustParseTs(kPacketTs), "pkts");
  ASSERT_TRUE(sub.DrainInto(&store).ok());
  ASSERT_EQ(store.MissingFillers(), (std::vector<int64_t>{1}));

  ASSERT_TRUE(PollFor(
      [&] {
        auto sweep = sub.RepairMissing(store);
        if (!sweep.ok()) return false;
        (void)sub.DrainInto(&store);
        return sweep.value().expired_total >= 1;
      },
      10s));
  auto sweep = sub.RepairMissing(store);
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().expired_total, 1);
  EXPECT_EQ(sweep.value().lost_total, 0);
  EXPECT_EQ(sweep.value().repaired_total, 0);
  EXPECT_GE(sub.metrics().fillers_expired, 1);
  EXPECT_GE(server.metrics().expired_out, 1);
  // The store still materializes around the expired filler.
  auto view = frag::Temporalize(store, false);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  sub.Stop();
  server.Stop();
}

// A trimmed frame log must not turn genuine upstream loss into a polite
// "expired": only fillers whose logged frames retention actually retired
// are answered EXPIRED; a filler that was never published stays silent so
// the subscriber's repair budget still reports it lost.
TEST(RetentionServerTest, NackForANeverPublishedFillerStaysLostNotExpired) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  net::FragmentServerOptions sopts;
  sopts.retention.max_frames = 6;
  sopts.retention.check_every = 2;
  net::FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  // Filler 1's frames land early and get retired; filler 2's never land
  // at all. Both leave dangling holes in the root, but only 1 may be
  // answered EXPIRED.
  ASSERT_TRUE(source.Publish(MakeRoot({1, 2})).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(1, 1000 + i * 10, i)).ok());
  }
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(3, 5000 + i * 10, 100 + i)).ok());
  }
  ASSERT_TRUE(PollFor([&] { return server.log_base() >= 5; }, 10s));

  net::FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  opts.repair_retry_interval = 30ms;
  opts.repair_retry_budget = 2;
  net::FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitForSeq(server.next_seq() - 1, 10s));

  frag::FragmentStore store(MustParseTs(kPacketTs), "pkts");
  ASSERT_TRUE(sub.DrainInto(&store).ok());
  ASSERT_EQ(store.MissingFillers(), (std::vector<int64_t>{1, 2}));

  ASSERT_TRUE(PollFor(
      [&] {
        auto sweep = sub.RepairMissing(store);
        if (!sweep.ok()) return false;
        (void)sub.DrainInto(&store);
        return sweep.value().expired_total >= 1 &&
               sweep.value().lost_total >= 1;
      },
      15s));
  auto sweep = sub.RepairMissing(store);
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().expired_total, 1);  // filler 1: retired frames
  EXPECT_EQ(sweep.value().lost_total, 1);     // filler 2: real loss
  EXPECT_EQ(sweep.value().repaired_total, 0);

  sub.Stop();
  server.Stop();
}

TEST(RetentionServerTest, TrimmedResultLogResumesViaExpiredResultRange) {
  constexpr const char* kIdQuery =
      "for $p in stream(\"pkts\")//packet return string($p/id)";
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  net::QueryChannel channel("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(channel.Open().ok());
  net::FragmentServerOptions sopts;
  sopts.query_channel = &channel;
  sopts.retention.max_results = 4;
  sopts.retention.check_every = 2;
  net::FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  net::FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  net::FragmentSubscriber one(opts);
  auto tok1 = one.AddRemoteQuery(Spec(kIdQuery));
  ASSERT_TRUE(tok1.ok());
  ASSERT_TRUE(one.Start().ok());
  ASSERT_TRUE(one.WaitQueryActive(tok1.value(), 10s));

  ASSERT_TRUE(source.Publish(MakeRoot({})).ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(1 + i, 1000 + i * 10, i)).ok());
  }
  // One delta per distinct id (the empty initial result emits nothing):
  // result seqs 0..11.
  ASSERT_TRUE(one.WaitForResultSeq(tok1.value(), 11, 10s));
  ASSERT_TRUE(PollFor(
      [&] { return server.metrics().result_log_trimmed > 0; }, 10s));

  // A second subscriber attaches to the same query from scratch: its
  // resume point (-1) is below the trimmed base, so the server opens the
  // result stream with EXPIRED kResultRange and serves the retained tail.
  net::FragmentSubscriber two(opts);
  auto tok2 = two.AddRemoteQuery(Spec(kIdQuery));
  ASSERT_TRUE(tok2.ok());
  ASSERT_TRUE(two.Start().ok());
  ASSERT_TRUE(two.WaitQueryActive(tok2.value(), 10s));
  ASSERT_TRUE(two.WaitForResultSeq(tok2.value(), 11, 10s));
  EXPECT_GE(two.metrics().expired_in, 1);
  EXPECT_EQ(two.metrics().gaps_detected, 0);
  auto state = two.query_state(tok2.value());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value().last_result_seq, 11);
  // The retained results it did get are the newest ones, byte-delivered.
  std::vector<net::RemoteQueryResult> results;
  two.DrainResults(&results);
  EXPECT_GT(results.size(), 0u);
  EXPECT_LT(results.size(), 12u);

  one.Stop();
  two.Stop();
  server.Stop();
}

// ---- Kill-point matrix: trim/checkpoint lockstep ----------------------------
//
// The retain:* crash points bracket the frame-log trim inside RunRetention.
// The invariant under crash: a seq may leave the in-memory log only once a
// durable WAL checkpoint covers it, so nothing is ever both forgotten and
// unrecoverable. A child process runs a publish workload under an
// aggressive retention policy, writes the observed floor when the target
// point fires for the third time, and _exit(42)s; the parent recovers the
// WAL, proves the durable prefix covers the forgotten range, restarts the
// stream from it, and converges a fresh subscriber.

struct RetainKillCtx {
  std::string kill_point;
  std::string floor_file;
  int fired = 0;
  net::FragmentServer* server = nullptr;
  net::Wal* wal = nullptr;
};
RetainKillCtx g_retain_kill;

constexpr int kRetainKillFiring = 5;

[[noreturn]] void RunRetentionKillWorkload(const std::string& dir,
                                           const std::string& kill_point,
                                           const std::string& floor_file) {
  g_retain_kill.kill_point = kill_point;
  g_retain_kill.floor_file = floor_file;
  net::WalHooks::Install([](const char* point) {
    RetainKillCtx& c = g_retain_kill;
    if (c.kill_point != point || c.server == nullptr) return;
    if (++c.fired < kRetainKillFiring) return;
    // Both retain:* hooks fire outside log_mu_, so reading the floor
    // from the hook cannot deadlock.
    std::ofstream out(c.floor_file, std::ios::trunc);
    out << c.server->log_base() << " " << c.wal->checkpointed() << "\n";
    out.close();
    ::_exit(42);
  });
  net::WalOptions wopts;
  wopts.fsync = net::FsyncPolicy::kNever;  // only checkpoints are durable
  net::WalRecovery rec;
  auto wal = net::Wal::Open(dir + "/wal", "pkts", kPacketTs, wopts, &rec);
  if (!wal.ok()) ::_exit(99);
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  net::FragmentServerOptions sopts;
  sopts.wal = wal.value().get();
  sopts.retention.max_frames = 8;
  sopts.retention.check_every = 4;
  net::FragmentServer server(&source, sopts);
  if (!server.Start().ok()) ::_exit(98);
  g_retain_kill.server = &server;
  g_retain_kill.wal = wal.value().get();
  if (!source.Publish(MakeRoot({})).ok()) ::_exit(97);
  for (int i = 0; i < 64; ++i) {
    if (!source.Publish(MakePacket(1 + i, 1000 + i * 10, i)).ok()) {
      ::_exit(96);
    }
  }
  ::_exit(0);  // the point never fired enough: the matrix missed it
}

TEST(RetentionKillTest, TrimNeverOutrunsTheDurableCheckpoint) {
  for (const char* point : {"retain:before_trim", "retain:after_trim"}) {
    char tmpl[] = "/tmp/xcql_retain_kill_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string floor_file = dir + "/floor";
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunRetentionKillWorkload(dir, point, floor_file);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << point;
    ASSERT_EQ(WEXITSTATUS(status), 42)
        << point << ": the workload never reached this crash point";

    int64_t floor = -1, checkpointed = -1;
    {
      std::ifstream in(floor_file);
      ASSERT_TRUE(static_cast<bool>(in >> floor >> checkpointed)) << point;
    }
    // By the fifth pass the driver has actually checkpointed and trimmed.
    EXPECT_GT(floor + checkpointed, 0) << point;

    net::WalRecovery rec;
    auto wal = net::Wal::Open(dir + "/wal", "pkts", kPacketTs,
                              net::WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok()) << point << ": " << wal.status().ToString();
    const int64_t n = static_cast<int64_t>(rec.records.size());
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(rec.records[static_cast<size_t>(i)].seq, i) << point;
    }
    // The lockstep invariant: every seq the server had forgotten at the
    // moment of death is durable. With fsync=kNever only the checkpoint
    // fsyncs, so this is exactly "the trim never outran the checkpoint".
    EXPECT_GE(n, floor) << point;
    EXPECT_GE(n, checkpointed) << point;

    // Third life: restart the stream from the durable prefix; a fresh
    // subscriber converges over it (EXPIRED for whatever a recovered
    // retention pass trims, never a gap).
    stream::StreamServer source("pkts", MustParseTs(kPacketTs));
    ASSERT_TRUE(net::RestoreStream(rec, &source).ok()) << point;
    net::FragmentServerOptions sopts;
    sopts.wal = wal.value().get();
    sopts.retention.max_frames = 8;
    sopts.retention.check_every = 4;
    net::FragmentServer server(&source, sopts);
    ASSERT_TRUE(server.Start().ok()) << point;
    for (int i = 64; i < 72; ++i) {
      ASSERT_TRUE(
          source.Publish(MakePacket(1 + i, 1000 + i * 10, i)).ok());
    }
    net::FragmentSubscriberOptions opts;
    opts.port = server.port();
    opts.stream = "pkts";
    net::FragmentSubscriber sub(opts);
    ASSERT_TRUE(sub.Start().ok()) << point;
    ASSERT_TRUE(sub.WaitForSeq(server.next_seq() - 1, 10s)) << point;
    EXPECT_EQ(sub.metrics().gaps_detected, 0) << point;
    sub.Stop();
    server.Stop();
    ASSERT_TRUE(wal.value()->Close().ok()) << point;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

// ---- Chaos soak: survivors converge on the retained window ------------------
//
// A lossy link (drops, duplicates, reorders) sits between the server and
// one subscriber while retention trims underneath; the subscriber also
// dies mid-stream and resumes from a floor-stale position. At the end, the
// chaos survivor and a clean direct subscriber must hold byte-identical
// fragment sets over a window that retention provably kept.

TEST(RetentionChaosTest, SurvivorsConvergeByteIdenticalOnRetainedWindow) {
  for (const uint64_t seed : {7u, 1234u}) {
    stream::StreamServer source("pkts", MustParseTs(kPacketTs));
    net::FragmentServerOptions sopts;
    sopts.heartbeat_interval = 50ms;
    sopts.retention.max_frames = 32;
    sopts.retention.check_every = 8;
    net::FragmentServer server(&source, sopts);
    ASSERT_TRUE(server.Start().ok());

    net::ChaosLinkOptions chaos_opts;
    chaos_opts.upstream_port = server.port();
    chaos_opts.seed = seed;
    chaos_opts.faults.drop = 0.02;
    chaos_opts.faults.duplicate = 0.02;
    chaos_opts.faults.reorder = 0.02;
    net::ChaosLink chaos(chaos_opts);
    ASSERT_TRUE(chaos.Start().ok());

    // The clean reference subscriber, directly attached for the whole run.
    net::FragmentSubscriberOptions bopts;
    bopts.port = server.port();
    bopts.stream = "pkts";
    net::FragmentSubscriber b(bopts);
    ASSERT_TRUE(b.Start().ok());

    net::FragmentSubscriberOptions aopts;
    aopts.port = chaos.port();
    aopts.stream = "pkts";
    aopts.backoff_initial = 5ms;
    aopts.backoff_max = 50ms;
    aopts.repair_retry_interval = 20ms;

    // Phase 1: survivor A rides the lossy link through the early stream.
    int64_t a_last = -1;
    uint64_t a_epoch = 0;
    frag::FragmentStore store_a(MustParseTs(kPacketTs), "pkts");
    {
      net::FragmentSubscriber a(aopts);
      ASSERT_TRUE(a.Start().ok());
      ASSERT_TRUE(source.Publish(MakeRoot({})).ok());
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(
            source.Publish(MakePacket(1 + i, 1000 + i * 10, i)).ok());
      }
      ASSERT_TRUE(a.WaitForSeq(server.next_seq() - 1, 60s))
          << "seed " << seed << " stuck at " << a.last_seq();
      a_last = a.last_seq();
      a_epoch = a.server_epoch();
      a.Stop();
    }

    // Phase 2: A is dead while the stream outgrows the retention window.
    for (int i = 40; i < 120; ++i) {
      ASSERT_TRUE(source.Publish(MakePacket(1 + i, 1000 + i * 10, i)).ok());
    }
    ASSERT_TRUE(PollFor([&] { return server.log_base() > a_last; }, 30s))
        << "seed " << seed;

    // Phase 3: A resumes below the floor, over the same lossy link.
    aopts.initial_last_seq = a_last;
    aopts.known_epoch = a_epoch;
    net::FragmentSubscriber a2(aopts);
    ASSERT_TRUE(a2.Start().ok());
    const int64_t last = server.next_seq() - 1;
    ASSERT_TRUE(a2.WaitForSeq(last, 60s))
        << "seed " << seed << " stuck at " << a2.last_seq()
        << " expired_in=" << a2.metrics().expired_in
        << " reconnects=" << a2.metrics().reconnects;
    ASSERT_TRUE(b.WaitForSeq(last, 60s)) << "seed " << seed;
    EXPECT_GE(a2.metrics().expired_in, 1) << "seed " << seed;

    frag::FragmentStore store_b(MustParseTs(kPacketTs), "pkts");
    ASSERT_TRUE(a2.DrainInto(&store_a).ok());
    ASSERT_TRUE(b.DrainInto(&store_b).ok());

    // Packets 100..119 (validTimes 2000..2190) sit comfortably inside the
    // 32-frame retention window at the end of the run: both survivors
    // must hold them, byte for byte.
    auto window = [](const frag::FragmentStore& store) {
      auto fillers = store.GetFillersByTsidInRange(2, DateTime(2000),
                                                   DateTime(2190));
      EXPECT_TRUE(fillers.ok());
      std::string out;
      if (!fillers.ok()) return out;
      for (const NodePtr& node : fillers.value()) {
        out += SerializeXml(*node);
        out += '\n';
      }
      return out;
    };
    const std::string wa = window(store_a);
    const std::string wb = window(store_b);
    EXPECT_FALSE(wb.empty()) << "seed " << seed;
    EXPECT_EQ(wa, wb) << "seed " << seed;

    const net::MetricsSnapshot sm = server.metrics();
    EXPECT_GT(sm.frames_retired, 0) << "seed " << seed;
    EXPECT_GT(sm.retention_runs, 0) << "seed " << seed;
    EXPECT_GE(chaos.stats().connections, 1) << "seed " << seed;

    a2.Stop();
    b.Stop();
    chaos.Stop();
    server.Stop();
  }
}

}  // namespace
}  // namespace xcql
