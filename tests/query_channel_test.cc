// Tests for the remote continuous-query subsystem (protocol v3): the
// QUERY/UNQUERY/RESULT/QUERY_STATUS codec, the server-side QueryChannel
// (canonical-key sharing, admission limits, deterministic result logs,
// durable registry recovery incl. fork-based kill points at the registry
// write boundary), and the full networked path — remote result streams
// must be byte-identical to a local ContinuousQueryEngine fed the same
// fragment schedule, across ExecMethods, under ChaosLink faults,
// subscriber kills, and server restart from WAL + registry.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "frag/fragment.h"
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
#include "xcql/translator.h"
#include "xq/context.h"

namespace xcql::net {
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
    <tag type="snapshot" id="4" name="srcIP"/>
  </tag>
</tag>)";

// The workhorse query: one result item per distinct packet id value, so
// every fresh packet publish produces exactly one delta under dedup.
constexpr const char* kIdQuery =
    "for $p in stream(\"pkts\")//packet return string($p/id)";

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

template <typename Pred>
bool PollFor(Pred pred, std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

RemoteQuerySpec Spec(const std::string& text,
                     uint8_t method = 2 /* kQaCPlus */, uint8_t hole = 0,
                     uint8_t tick = 0, uint8_t flags = 0) {
  RemoteQuerySpec spec;
  spec.text = text;
  spec.method = method;
  spec.hole_policy = hole;
  spec.tick_policy = tick;
  spec.flags = flags;
  return spec;
}

// One delta as observed by any consumer — the common currency every
// equivalence check below compares in. Result frames from different
// query ids differ in their payload bytes (the id rides in the RESULT
// payload), so cross-query comparisons happen at this level; same-query
// cross-incarnation comparisons additionally compare raw frame bytes.
struct DeltaRec {
  int64_t at = 0;
  std::vector<std::string> added;
  std::vector<std::string> removed;
  bool operator==(const DeltaRec& o) const {
    return at == o.at && added == o.added && removed == o.removed;
  }
};

void ExpectRecsEqual(const std::vector<DeltaRec>& got,
                     const std::vector<DeltaRec>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].at, want[i].at) << label << " delta " << i;
    EXPECT_EQ(got[i].added, want[i].added) << label << " delta " << i;
    EXPECT_EQ(got[i].removed, want[i].removed) << label << " delta " << i;
  }
}

// The engine-options mirror of QueryChannel's spec conversion; a remote
// stream matching LocalReference under these options pins the whole
// spec → engine plumbing (method byte, hole policy, filler-lookup flags).
stream::ContinuousQueryOptions RefOptions(const RemoteQuerySpec& spec) {
  stream::ContinuousQueryOptions o;
  o.method = static_cast<lang::ExecMethod>(spec.method);
  o.hole_policy = static_cast<xq::HolePolicy>(spec.hole_policy);
  o.tick_policy = static_cast<stream::TickPolicy>(spec.tick_policy);
  o.dedup = (spec.flags & kQueryFlagNoDedup) == 0;
  o.track_removals = (spec.flags & kQueryFlagTrackRemovals) != 0;
  if ((spec.flags & kQueryFlagPaperFaithful) != 0) o.linear_get_fillers = true;
  if ((spec.flags & kQueryFlagIndexedFillers) != 0) {
    o.linear_get_fillers = false;
  }
  return o;
}

// Replays `frags` through a local ContinuousQueryEngine exactly the way
// the channel does — register after `register_at` fragments, then one
// clock-advance + tick per fragment — and records the delta stream.
std::vector<DeltaRec> LocalReference(const std::string& query,
                                     const stream::ContinuousQueryOptions& opts,
                                     const std::vector<frag::Fragment>& frags,
                                     size_t register_at = 0) {
  stream::StreamHub hub;
  stream::SimClock clock;
  auto store_r = hub.AddLocalStream("pkts", MustParseTs(kPacketTs));
  EXPECT_TRUE(store_r.ok());
  if (!store_r.ok()) return {};
  frag::FragmentStore* store = store_r.value();
  stream::ContinuousQueryEngine engine(&hub, &clock);
  std::vector<DeltaRec> out;
  bool registered = false;
  auto do_register = [&] {
    auto id = engine.RegisterDelta(
        query,
        [&](const xq::Sequence& added, const std::vector<std::string>& removed,
            DateTime at) {
          DeltaRec d;
          d.at = at.seconds();
          for (const auto& item : added) {
            d.added.push_back(stream::SerializeResultItem(item));
          }
          d.removed = removed;
          out.push_back(std::move(d));
        },
        opts);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    registered = true;
  };
  for (size_t i = 0; i < frags.size(); ++i) {
    if (!registered && i >= register_at) do_register();
    hub.OnFragment("pkts", frags[i]);
    clock.AdvanceTo(store->max_valid_time());
    EXPECT_TRUE(engine.Tick().ok());
  }
  if (!registered) do_register();
  return out;
}

// Decodes one encoded v2 RESULT frame into (frame seq, DeltaRec).
std::optional<std::pair<int64_t, DeltaRec>> DecodeResultFrame(
    const std::string& bytes) {
  FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  auto next = reader.Next();
  EXPECT_TRUE(next.ok()) << next.status().ToString();
  if (!next.ok() || !next.value().has_value()) return std::nullopt;
  const Frame& frame = *next.value();
  EXPECT_EQ(frame.type, FrameType::kResult);
  auto delta = DecodeResultDelta(frame.payload);
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  if (!delta.ok()) return std::nullopt;
  DeltaRec rec;
  rec.at = delta.value().eval_time_s;
  rec.added = delta.value().added;
  rec.removed = delta.value().removed;
  return std::make_pair(static_cast<int64_t>(frame.seq), rec);
}

std::vector<DeltaRec> RecsOfFrames(const std::vector<std::string>& frames) {
  std::vector<DeltaRec> out;
  for (size_t i = 0; i < frames.size(); ++i) {
    auto decoded = DecodeResultFrame(frames[i]);
    EXPECT_TRUE(decoded.has_value());
    if (!decoded.has_value()) continue;
    EXPECT_EQ(decoded->first, static_cast<int64_t>(out.size()))
        << "result seq not contiguous from 0";
    out.push_back(std::move(decoded->second));
  }
  return out;
}

// Filters one token's results out of a DrainResults() accumulation and
// checks the per-query seq numbering is gapless from `first_seq`.
std::vector<DeltaRec> RecsOfToken(const std::vector<RemoteQueryResult>& all,
                                  uint32_t token, int64_t first_seq = 0) {
  std::vector<DeltaRec> out;
  int64_t expect_seq = first_seq;
  for (const auto& r : all) {
    if (r.token != token) continue;
    EXPECT_EQ(r.seq, expect_seq) << "result seq gap for token " << token;
    ++expect_seq;
    DeltaRec rec;
    rec.at = r.delta.eval_time_s;
    rec.added = r.delta.added;
    rec.removed = r.delta.removed;
    out.push_back(std::move(rec));
  }
  return out;
}

// ---- Protocol v3 codec ------------------------------------------------------

TEST(QueryCodecTest, QueryRoundTrips) {
  RemoteQuerySpec spec;
  spec.token = 0xfeedu;
  spec.method = 1;
  spec.hole_policy = 2;
  spec.tick_policy = 1;
  spec.flags = kQueryFlagPaperFaithful | kQueryFlagTrackRemovals;
  spec.last_result_seq = 123456789;
  spec.text = kIdQuery;
  auto back = DecodeQuery(EncodeQuery(spec));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().token, spec.token);
  EXPECT_EQ(back.value().method, spec.method);
  EXPECT_EQ(back.value().hole_policy, spec.hole_policy);
  EXPECT_EQ(back.value().tick_policy, spec.tick_policy);
  EXPECT_EQ(back.value().flags, spec.flags);
  EXPECT_EQ(back.value().last_result_seq, spec.last_result_seq);
  EXPECT_EQ(back.value().text, spec.text);

  // Fresh registration default and empty text both survive the wire; the
  // spec-level validation (empty text is invalid) is the channel's job.
  RemoteQuerySpec bare;
  auto bare_back = DecodeQuery(EncodeQuery(bare));
  ASSERT_TRUE(bare_back.ok());
  EXPECT_EQ(bare_back.value().last_result_seq, -1);
  EXPECT_TRUE(bare_back.value().text.empty());

  EXPECT_FALSE(DecodeQuery("short").ok());
}

TEST(QueryCodecTest, UnqueryAndStatusRoundTrip) {
  auto id = DecodeUnquery(EncodeUnquery(0x1122334455667788ull));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 0x1122334455667788ull);
  EXPECT_FALSE(DecodeUnquery("xx").ok());

  QueryStatus st;
  st.token = 7;
  st.query_id = 42;
  st.code = kQueryStatusRejected;
  st.message = "query limit reached (64 registered)";
  auto back = DecodeQueryStatus(EncodeQueryStatus(st));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().token, st.token);
  EXPECT_EQ(back.value().query_id, st.query_id);
  EXPECT_EQ(back.value().code, st.code);
  EXPECT_EQ(back.value().message, st.message);

  QueryStatus bare;
  auto bare_back = DecodeQueryStatus(EncodeQueryStatus(bare));
  ASSERT_TRUE(bare_back.ok());
  EXPECT_TRUE(bare_back.value().message.empty());
  EXPECT_FALSE(DecodeQueryStatus("nope").ok());
}

TEST(QueryCodecTest, ResultDeltaRoundTrips) {
  ResultDelta d;
  d.query_id = 9;
  d.eval_time_s = 1234567;
  d.added = {"<packet><id>1</id></packet>", "", std::string(4096, 'z')};
  d.removed = {"gone", ""};
  auto wire = EncodeResultDelta(d);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  auto back = DecodeResultDelta(wire.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().query_id, d.query_id);
  EXPECT_EQ(back.value().eval_time_s, d.eval_time_s);
  EXPECT_EQ(back.value().added, d.added);
  EXPECT_EQ(back.value().removed, d.removed);

  ResultDelta empty;
  empty.query_id = 1;
  auto empty_wire = EncodeResultDelta(empty);
  ASSERT_TRUE(empty_wire.ok());
  auto empty_back = DecodeResultDelta(empty_wire.value());
  ASSERT_TRUE(empty_back.ok());
  EXPECT_TRUE(empty_back.value().added.empty());
  EXPECT_TRUE(empty_back.value().removed.empty());
}

TEST(QueryCodecTest, ResultDeltaRejectsForgedCountsAndTruncation) {
  ResultDelta d;
  d.query_id = 1;
  d.added = {"aaaa", "bbbb"};
  auto wire = EncodeResultDelta(d);
  ASSERT_TRUE(wire.ok());
  std::string bytes = wire.value();

  // Truncation anywhere in the item region must fail cleanly.
  for (size_t cut = 1; cut < 12; ++cut) {
    EXPECT_FALSE(
        DecodeResultDelta(std::string_view(bytes).substr(0, bytes.size() - cut))
            .ok())
        << "cut " << cut;
  }

  // A forged added-count (the classic length-field attack) must be
  // detected by the items-vs-bytes fast check, not allocate-and-crash.
  std::string forged = bytes;
  uint32_t huge = 0x7fffffff;
  std::memcpy(&forged[16], &huge, sizeof(huge));  // added_count slot
  EXPECT_FALSE(DecodeResultDelta(forged).ok());
}

// ---- QueryChannel: validation, sharing, capacity ----------------------------

TEST(QueryChannelTest, ValidatesSpecs) {
  QueryChannel channel("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(channel.Open().ok());

  auto reject = [&](const RemoteQuerySpec& spec) {
    bool by_limit = true;
    auto r = channel.Register(spec, &by_limit);
    EXPECT_FALSE(r.ok());
    // Invalid specs must NOT read as capacity refusals: the server
    // answers kQueryStatusInvalid for these, kQueryStatusRejected only
    // for admission limits.
    EXPECT_FALSE(by_limit);
  };
  reject(Spec(""));                      // empty XCQL
  reject(Spec(kIdQuery, 3));             // method byte out of range
  reject(Spec(kIdQuery, 2, 3));          // hole policy out of range
  reject(Spec(kIdQuery, 2, 0, 3));       // tick policy out of range
  reject(Spec(kIdQuery, 2, 0, 0, 0x40));  // unknown flag bit
  reject(Spec(kIdQuery, 2, 0, 0,
              kQueryFlagPaperFaithful | kQueryFlagIndexedFillers));
  EXPECT_EQ(channel.stats().active_queries, 0);
}

TEST(QueryChannelTest, CanonicalKeySharingEvaluatesOnce) {
  QueryChannel channel("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(channel.Open().ok());

  // Same text + options from two "connections" (different tokens and
  // resume positions): one engine query, one result log.
  RemoteQuerySpec a = Spec(kIdQuery);
  a.token = 1;
  RemoteQuerySpec b = Spec(kIdQuery);
  b.token = 2;
  b.last_result_seq = 5;  // resume position is not part of the identity
  auto id_a = channel.Register(a);
  auto id_b = channel.Register(b);
  ASSERT_TRUE(id_a.ok()) << id_a.status().ToString();
  ASSERT_TRUE(id_b.ok()) << id_b.status().ToString();
  EXPECT_EQ(id_a.value(), id_b.value());
  EXPECT_EQ(channel.stats().active_queries, 1);

  // Any option change is a different query.
  auto id_c = channel.Register(Spec(kIdQuery, 0));  // method kCaQ
  ASSERT_TRUE(id_c.ok());
  EXPECT_NE(id_c.value(), id_a.value());
  auto id_d = channel.Register(Spec(kIdQuery, 2, 0, 0, kQueryFlagNoDedup));
  ASSERT_TRUE(id_d.ok());
  EXPECT_NE(id_d.value(), id_a.value());
  EXPECT_NE(id_d.value(), id_c.value());
  EXPECT_EQ(channel.stats().active_queries, 3);

  channel.OnFragment(MakeRoot({1, 2}));
  channel.OnFragment(MakePacket(1, 1000, 1));
  channel.OnFragment(MakePacket(2, 1010, 2));
  // The shared query evaluated once per tick: exactly one result log of
  // two deltas ("1" then "2"), not one per registration.
  EXPECT_EQ(channel.result_log_size(id_a.value()), 2);
  EXPECT_EQ(channel.stats().fragments_fed, 3);
}

TEST(QueryChannelTest, CapacityRejectsWithLimitFlagAndUnqueryFrees) {
  QueryChannelOptions opts;
  opts.max_queries = 1;
  QueryChannel channel("pkts", MustParseTs(kPacketTs), opts);
  ASSERT_TRUE(channel.Open().ok());

  auto id = channel.Register(Spec(kIdQuery));
  ASSERT_TRUE(id.ok());

  // A duplicate of the registered query shares the slot (no capacity
  // consumed), but a distinct query must be refused with the limit flag.
  ASSERT_TRUE(channel.Register(Spec(kIdQuery)).ok());
  bool by_limit = false;
  auto refused = channel.Register(Spec(kIdQuery, 0), &by_limit);
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(by_limit);

  ASSERT_TRUE(channel.Unregister(id.value()).ok());
  EXPECT_EQ(channel.stats().active_queries, 0);
  auto now_fits = channel.Register(Spec(kIdQuery, 0), &by_limit);
  EXPECT_TRUE(now_fits.ok()) << now_fits.status().ToString();
}

TEST(QueryChannelTest, SubscribeReplaysAtomicallyAndDeliversLive) {
  QueryChannel channel("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(channel.Open().ok());
  auto id = channel.Register(Spec(kIdQuery));
  ASSERT_TRUE(id.ok());

  channel.OnFragment(MakeRoot({1, 2}));
  channel.OnFragment(MakePacket(1, 1000, 1));
  channel.OnFragment(MakePacket(2, 1010, 2));
  ASSERT_EQ(channel.result_log_size(id.value()), 2);

  // Late joiner from scratch: full replay, then live frames.
  int sink_a = 0, sink_b = 0;
  std::vector<std::string> got_a, got_b;
  ASSERT_TRUE(channel
                  .Subscribe(id.value(), -1, &sink_a,
                             [&](const std::shared_ptr<const std::string>& b) { got_a.push_back(*b); })
                  .ok());
  ASSERT_EQ(got_a.size(), 2u);
  // Resuming joiner: only what it does not already hold.
  ASSERT_TRUE(channel
                  .Subscribe(id.value(), 0, &sink_b,
                             [&](const std::shared_ptr<const std::string>& b) { got_b.push_back(*b); })
                  .ok());
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_a[1], got_b[0]);

  channel.OnFragment(MakePacket(1, 1020, 3));
  EXPECT_EQ(got_a.size(), 3u);
  EXPECT_EQ(got_b.size(), 2u);
  EXPECT_EQ(got_a[2], got_b[1]);
  EXPECT_EQ(channel.stats().active_sinks, 2);

  // Replay + live concatenation is exactly the log, in order.
  auto recs = RecsOfFrames(got_a);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].added, std::vector<std::string>{"1"});
  EXPECT_EQ(recs[1].added, std::vector<std::string>{"2"});
  EXPECT_EQ(recs[2].added, std::vector<std::string>{"3"});

  // Detached sinks stop receiving; unknown ids are clean errors.
  channel.Unsubscribe(id.value(), &sink_a);
  channel.DropSink(&sink_b);
  channel.OnFragment(MakePacket(2, 1030, 4));
  EXPECT_EQ(got_a.size(), 3u);
  EXPECT_EQ(got_b.size(), 2u);
  EXPECT_EQ(channel.stats().active_sinks, 0);
  EXPECT_FALSE(
      channel
          .Subscribe(999, -1, &sink_a,
                     [](const std::shared_ptr<const std::string>&) {})
          .ok());
}

TEST(QueryChannelTest, UnregisterKeepsQueryWhileSinksRemain) {
  QueryChannel channel("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(channel.Open().ok());
  auto id = channel.Register(Spec(kIdQuery));
  ASSERT_TRUE(id.ok());
  int sink = 0;
  std::vector<std::string> got;
  ASSERT_TRUE(channel
                  .Subscribe(id.value(), -1, &sink,
                             [&](const std::shared_ptr<const std::string>& b) { got.push_back(*b); })
                  .ok());

  // UNQUERY with a sink still attached: the registration survives (the
  // other subscriber keeps its stream).
  ASSERT_TRUE(channel.Unregister(id.value()).ok());
  EXPECT_EQ(channel.stats().active_queries, 1);
  channel.OnFragment(MakeRoot({1}));
  channel.OnFragment(MakePacket(1, 1000, 1));
  EXPECT_EQ(got.size(), 1u);

  channel.DropSink(&sink);
  ASSERT_TRUE(channel.Unregister(id.value()).ok());
  EXPECT_EQ(channel.stats().active_queries, 0);
  EXPECT_FALSE(channel.Unregister(id.value()).ok());
}

// ---- Spec plumbing: hole policy, filler-lookup flags, methods ---------------

TEST(QueryChannelTest, HolePolicyPlumbsThroughTheSpec) {
  // The interval projection resolves holes inside each packet subtree,
  // so a packet whose <id> child is a dangling hole surfaces to the
  // policy: an omit query answers with what it has, a fail twin stays
  // silent until the missing filler arrives.
  const std::string query =
      "for $p in stream(\"pkts\")//packet?[start,now] return string($p/id)";
  QueryChannel channel("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(channel.Open().ok());
  RemoteQuerySpec omit_spec =
      Spec(query, 2, static_cast<uint8_t>(xq::HolePolicy::kOmit));
  RemoteQuerySpec fail_spec =
      Spec(query, 2, static_cast<uint8_t>(xq::HolePolicy::kFail));
  auto omit_id = channel.Register(omit_spec);
  auto fail_id = channel.Register(fail_spec);
  ASSERT_TRUE(omit_id.ok()) << omit_id.status().ToString();
  ASSERT_TRUE(fail_id.ok()) << fail_id.status().ToString();
  ASSERT_NE(omit_id.value(), fail_id.value());

  std::vector<std::string> omit_frames, fail_frames;
  int h1 = 0, h2 = 0;
  ASSERT_TRUE(
      channel
          .Subscribe(omit_id.value(), -1, &h1,
                     [&](const std::shared_ptr<const std::string>& b) { omit_frames.push_back(*b); })
          .ok());
  ASSERT_TRUE(
      channel
          .Subscribe(fail_id.value(), -1, &h2,
                     [&](const std::shared_ptr<const std::string>& b) { fail_frames.push_back(*b); })
          .ok());

  // Packet 2's <id> is a hole to filler 99, which is withheld.
  frag::Fragment torn;
  torn.id = 2;
  torn.tsid = 2;
  torn.valid_time = DateTime(1010);
  torn.content = Node::Element("packet");
  torn.content->AddChild(frag::MakeHole(99, 3));
  std::vector<frag::Fragment> frags = {MakeRoot({1, 2}),
                                       MakePacket(1, 1000, 1), torn};
  for (const auto& f : frags) channel.OnFragment(f);
  // While the filler is missing: omit keeps answering (packet 2's id
  // projects to nothing), fail recorded an error for the torn tick.
  auto omit_recs = RecsOfFrames(omit_frames);
  auto fail_recs = RecsOfFrames(fail_frames);
  ASSERT_GE(omit_recs.size(), 1u);
  EXPECT_EQ(omit_recs[0].added, std::vector<std::string>{"1"});
  ASSERT_EQ(fail_recs.size(), 1u);
  EXPECT_EQ(fail_recs[0].added, std::vector<std::string>{"1"});
  const size_t fail_before = fail_recs.size();

  // The missing filler arrives; both policies converge on the full id.
  frag::Fragment late;
  late.id = 99;
  late.tsid = 3;
  late.valid_time = DateTime(1020);
  late.content = Node::Element("id");
  late.content->AddChild(Node::Text("2"));
  frags.push_back(late);
  channel.OnFragment(frags.back());
  omit_recs = RecsOfFrames(omit_frames);
  fail_recs = RecsOfFrames(fail_frames);
  ASSERT_GT(fail_recs.size(), fail_before);
  EXPECT_EQ(fail_recs.back().added, std::vector<std::string>{"2"});
  EXPECT_EQ(omit_recs.back().added, std::vector<std::string>{"2"});
  // The two policies observably diverged on the torn stretch.
  EXPECT_NE(omit_recs.size(), fail_recs.size());

  // Both remote streams are byte-for-byte what a local engine under the
  // same options produces — the spec → engine mapping, pinned.
  ExpectRecsEqual(omit_recs, LocalReference(query, RefOptions(omit_spec), frags),
                  "omit vs local");
  ExpectRecsEqual(fail_recs, LocalReference(query, RefOptions(fail_spec), frags),
                  "fail vs local");
}

TEST(QueryChannelTest, FillerLookupFlagsAndMethodsAgreeOnResults) {
  // --paper-faithful / --holes plumbing: each filler-lookup pin and each
  // ExecMethod is a distinct registration (distinct cost model), but all
  // of them must emit the identical delta stream.
  QueryChannel channel("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(channel.Open().ok());
  std::vector<RemoteQuerySpec> variants = {
      Spec(kIdQuery, 2),                                    // baseline
      Spec(kIdQuery, 2, 0, 0, kQueryFlagPaperFaithful),     // linear scans
      Spec(kIdQuery, 2, 0, 0, kQueryFlagIndexedFillers),    // indexed
      Spec(kIdQuery, 0),                                    // kCaQ
      Spec(kIdQuery, 1),                                    // kQaC
  };
  std::vector<uint64_t> ids;
  std::vector<std::vector<std::string>> frames(variants.size());
  std::vector<int> handles(variants.size());
  for (size_t i = 0; i < variants.size(); ++i) {
    auto id = channel.Register(variants[i]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    for (uint64_t seen : ids) EXPECT_NE(id.value(), seen);
    ids.push_back(id.value());
    auto* sink = &frames[i];
    ASSERT_TRUE(channel
                    .Subscribe(id.value(), -1, &handles[i],
                               [sink](const std::shared_ptr<const std::string>&
                                          b) { sink->push_back(*b); })
                    .ok());
  }
  EXPECT_EQ(channel.stats().active_queries,
            static_cast<int>(variants.size()));

  std::vector<frag::Fragment> frags = {MakeRoot({1, 2}),
                                       MakePacket(1, 1000, 1),
                                       MakePacket(2, 1010, 2),
                                       MakePacket(1, 1020, 3)};
  for (const auto& f : frags) channel.OnFragment(f);

  auto baseline = RecsOfFrames(frames[0]);
  ASSERT_EQ(baseline.size(), 3u);
  for (size_t i = 1; i < variants.size(); ++i) {
    ExpectRecsEqual(RecsOfFrames(frames[i]), baseline,
                    "variant " + std::to_string(i));
  }
  ExpectRecsEqual(baseline,
                  LocalReference(kIdQuery, RefOptions(variants[0]), frags),
                  "baseline vs local");
}

// ---- Durable registry -------------------------------------------------------

class QueryRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/xcql_query_reg_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    WalHooks::Install(nullptr);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  QueryChannelOptions DurableOpts() const {
    QueryChannelOptions opts;
    opts.registry_path = dir_ + "/queries.reg";
    return opts;
  }
  std::string dir_;
};

TEST_F(QueryRegistryTest, RecoveryRebuildsResultLogsByteIdentical) {
  const std::string late_query =
      "for $p in stream(\"pkts\")//packet where $p/id > 2 "
      "return string($p/id)";
  std::vector<frag::Fragment> frags = {
      MakeRoot({1, 2}),        MakePacket(1, 1000, 1), MakePacket(2, 1010, 2),
      MakePacket(1, 1020, 3),  MakePacket(2, 1030, 4), MakePacket(1, 1040, 5),
  };
  uint64_t id_a = 0, id_b = 0;
  std::vector<std::string> first_a, first_b;

  // First life: one query from the very start, one registered mid-stream
  // (after three fragments) — its registration position must ride in the
  // registry record.
  {
    QueryChannel channel("pkts", MustParseTs(kPacketTs), DurableOpts());
    ASSERT_TRUE(channel.Open().ok());
    auto a = channel.Register(Spec(kIdQuery));
    ASSERT_TRUE(a.ok());
    id_a = a.value();
    for (size_t i = 0; i < 3; ++i) channel.OnFragment(frags[i]);
    auto b = channel.Register(Spec(late_query));
    ASSERT_TRUE(b.ok());
    id_b = b.value();
    for (size_t i = 3; i < frags.size(); ++i) channel.OnFragment(frags[i]);

    int ha = 0, hb = 0;
    ASSERT_TRUE(channel
                    .Subscribe(id_a, -1, &ha,
                               [&](const std::shared_ptr<const std::string>& f) {
                                 first_a.push_back(*f);
                               })
                    .ok());
    ASSERT_TRUE(channel
                    .Subscribe(id_b, -1, &hb,
                               [&](const std::shared_ptr<const std::string>& f) {
                                 first_b.push_back(*f);
                               })
                    .ok());
    ASSERT_EQ(first_a.size(), 5u);  // "1".."5", one delta each
    ASSERT_EQ(first_b.size(), 3u);  // "3","4","5" seen after registration
  }

  // Second life: Open() replays the registry; the queries wait as
  // pending until the feed reaches their positions, and the regenerated
  // result logs — frame bytes, seqs included — match the first life.
  {
    QueryChannel channel("pkts", MustParseTs(kPacketTs), DurableOpts());
    ASSERT_TRUE(channel.Open().ok());
    auto stats = channel.stats();
    EXPECT_EQ(stats.recovered_queries, 2);
    // The position-0 query activates right at Open(); the mid-stream one
    // waits as pending until the feed reaches its position.
    EXPECT_EQ(stats.active_queries, 1);
    EXPECT_EQ(stats.pending_queries, 1);
    for (const auto& f : frags) channel.OnFragment(f);
    EXPECT_EQ(channel.stats().active_queries, 2);
    EXPECT_EQ(channel.stats().pending_queries, 0);

    std::vector<std::string> second_a, second_b;
    int ha = 0, hb = 0;
    ASSERT_TRUE(channel
                    .Subscribe(id_a, -1, &ha,
                               [&](const std::shared_ptr<const std::string>& f) {
                                 second_a.push_back(*f);
                               })
                    .ok());
    ASSERT_TRUE(channel
                    .Subscribe(id_b, -1, &hb,
                               [&](const std::shared_ptr<const std::string>& f) {
                                 second_b.push_back(*f);
                               })
                    .ok());
    EXPECT_EQ(second_a, first_a);
    EXPECT_EQ(second_b, first_b);

    // Re-registering the same query while it is still pending re-admits
    // it under its stable id rather than minting a fresh one.
    QueryChannel shorter("pkts", MustParseTs(kPacketTs), DurableOpts());
    ASSERT_TRUE(shorter.Open().ok());
    auto re = shorter.Register(Spec(late_query));
    ASSERT_TRUE(re.ok());
    EXPECT_EQ(re.value(), id_b);
  }
}

TEST_F(QueryRegistryTest, UnqueryTombstoneSurvivesRestart) {
  uint64_t id = 0;
  {
    QueryChannel channel("pkts", MustParseTs(kPacketTs), DurableOpts());
    ASSERT_TRUE(channel.Open().ok());
    auto a = channel.Register(Spec(kIdQuery));
    ASSERT_TRUE(a.ok());
    id = a.value();
    auto b = channel.Register(Spec(kIdQuery, 0));
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(channel.Unregister(id).ok());
  }
  QueryChannel channel("pkts", MustParseTs(kPacketTs), DurableOpts());
  ASSERT_TRUE(channel.Open().ok());
  // Only the un-tombstoned registration comes back (active immediately:
  // it registered at position 0).
  EXPECT_EQ(channel.stats().active_queries, 1);
  EXPECT_EQ(channel.stats().pending_queries, 0);
  channel.OnFragment(MakeRoot({1}));
  EXPECT_EQ(channel.stats().active_queries, 1);
  EXPECT_EQ(channel.result_log_size(id), 0);
}

TEST_F(QueryRegistryTest, TornTailIsTruncatedNotFatal) {
  {
    QueryChannel channel("pkts", MustParseTs(kPacketTs), DurableOpts());
    ASSERT_TRUE(channel.Open().ok());
    ASSERT_TRUE(channel.Register(Spec(kIdQuery)).ok());
  }
  // A crash mid-append leaves a partial frame at the tail; recovery must
  // keep the intact prefix and truncate the garbage.
  {
    std::ofstream f(dir_ + "/queries.reg",
                    std::ios::binary | std::ios::app);
    f.write("XFRM\x02garbage", 11);
  }
  const auto torn_size = fs::file_size(dir_ + "/queries.reg");
  {
    QueryChannel channel("pkts", MustParseTs(kPacketTs), DurableOpts());
    ASSERT_TRUE(channel.Open().ok());
    EXPECT_EQ(channel.stats().recovered_queries, 1);
    EXPECT_LT(fs::file_size(dir_ + "/queries.reg"), torn_size);
    // And the file is appendable again: a new registration persists.
    ASSERT_TRUE(channel.Register(Spec(kIdQuery, 0)).ok());
  }
  QueryChannel channel("pkts", MustParseTs(kPacketTs), DurableOpts());
  ASSERT_TRUE(channel.Open().ok());
  EXPECT_EQ(channel.stats().recovered_queries, 2);
}

// Kill-point crash test at the registry write boundary: a child process
// registers a query and dies exactly before/after the record write. The
// invariant is atomicity — before the write the registration must be
// wholly absent after recovery, after it wholly present.
TEST_F(QueryRegistryTest, CrashAtRegistryWriteBoundaryIsAtomic) {
  for (const char* point : {"queryreg:before_write", "queryreg:after_write"}) {
    const bool expect_recovered =
        std::strcmp(point, "queryreg:after_write") == 0;
    fs::remove(dir_ + "/queries.reg");

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      WalHooks::Install([point](const char* at) {
        if (std::strcmp(at, point) == 0) ::_exit(43);
      });
      QueryChannelOptions opts;
      opts.registry_path = dir_ + "/queries.reg";
      QueryChannel channel("pkts", MustParseTs(kPacketTs), opts);
      if (!channel.Open().ok()) ::_exit(90);
      channel.Register(Spec(kIdQuery));
      ::_exit(91);  // the kill point never fired
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << point;
    ASSERT_EQ(WEXITSTATUS(status), 43) << point;

    QueryChannel channel("pkts", MustParseTs(kPacketTs), DurableOpts());
    ASSERT_TRUE(channel.Open().ok()) << point;
    EXPECT_EQ(channel.stats().recovered_queries, expect_recovered ? 1 : 0)
        << point;
    // Either way the registry is healthy: a fresh registration lands and
    // survives the next restart.
    ASSERT_TRUE(channel.Register(Spec(kIdQuery, 0)).ok()) << point;
  }
}

// ---- Networked end-to-end ---------------------------------------------------

TEST(RemoteQueryTest, EndToEndMatchesLocalReference) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  QueryChannel channel("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(channel.Open().ok());
  FragmentServerOptions sopts;
  sopts.query_channel = &channel;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  RemoteQuerySpec spec = Spec(kIdQuery);
  auto token = sub.AddRemoteQuery(spec);
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(5s));
  EXPECT_TRUE(sub.connected());
  ASSERT_TRUE(sub.WaitQueryActive(token.value(), 5s));

  std::vector<frag::Fragment> frags = {MakeRoot({1, 2}),
                                       MakePacket(1, 1000, 1),
                                       MakePacket(2, 1010, 2),
                                       MakePacket(1, 1020, 3)};
  for (const auto& f : frags) ASSERT_TRUE(source.Publish(f).ok());
  ASSERT_TRUE(sub.WaitForResultSeq(token.value(), 2, 10s));

  std::vector<RemoteQueryResult> results;
  sub.DrainResults(&results);
  ExpectRecsEqual(RecsOfToken(results, token.value()),
                  LocalReference(kIdQuery, RefOptions(spec), frags),
                  "remote vs local");

  auto state = sub.query_state(token.value());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state.value().active);
  EXPECT_EQ(state.value().last_result_seq, 2);
  EXPECT_EQ(channel.stats().fragments_fed, 4);
  EXPECT_GE(server.metrics().queries_registered, 1);
  EXPECT_GE(server.metrics().result_frames_out, 3);

  // Fragments and results share the session: the data plane flowed too.
  ASSERT_TRUE(sub.WaitForSeq(3, 5s));

  // UNQUERY: the last sink detaching deregisters server-side.
  ASSERT_TRUE(sub.RemoveRemoteQuery(token.value()).ok());
  EXPECT_TRUE(
      PollFor([&] { return channel.stats().active_queries == 0; }, 5s));

  sub.Stop();
  server.Stop();
}

TEST(RemoteQueryTest, ServerWithoutAChannelRejectsQueries) {
  // A server without a channel answers the QUERY with a clean
  // kQueryStatusRejected, and the data plane is unaffected.
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  auto token = sub.AddRemoteQuery(Spec(kIdQuery));
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(5s));
  ASSERT_TRUE(PollFor(
      [&] {
        auto st = sub.query_state(token.value());
        return st.ok() && st.value().last_code != kQueryStatusOk;
      },
      5s));

  ASSERT_TRUE(source.Publish(MakePacket(1, 1000, 1)).ok());
  ASSERT_TRUE(sub.WaitForSeq(0, 5s));
  EXPECT_FALSE(sub.WaitQueryActive(token.value(), 100ms));
  auto state = sub.query_state(token.value());
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state.value().active);
  EXPECT_EQ(state.value().last_code, kQueryStatusRejected);
  EXPECT_FALSE(state.value().last_message.empty());
  EXPECT_GE(server.metrics().queries_rejected, 1);
  EXPECT_EQ(server.metrics().bad_control_frames, 0);
  sub.Stop();
  server.Stop();
}

// Waits here are generous (20s): the test chains three subscribers'
// handshake + query round-trips, and on an oversubscribed CI box a lost
// scheduling race recovers via the liveness-watchdog reconnect, which
// alone can take several seconds.
TEST(RemoteQueryTest, AdmissionLimitsAnswerWithCleanRejections) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  QueryChannelOptions copts;
  copts.max_queries = 2;
  QueryChannel channel("pkts", MustParseTs(kPacketTs), copts);
  ASSERT_TRUE(channel.Open().ok());
  FragmentServerOptions sopts;
  sopts.query_channel = &channel;
  sopts.max_queries_per_conn = 1;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(20s));

  // First query is admitted; the second trips the per-connection cap.
  auto tok1 = sub.AddRemoteQuery(Spec(kIdQuery));
  ASSERT_TRUE(tok1.ok());
  const bool tok1_active = sub.WaitQueryActive(tok1.value(), 20s);
  if (!tok1_active) {
    auto st = sub.query_state(tok1.value());
    auto sm = server.metrics();
    ASSERT_TRUE(tok1_active)
        << "tok1 state: ok=" << st.ok()
        << " last_code=" << (st.ok() ? st.value().last_code : -1)
        << " msg=" << (st.ok() ? st.value().last_message : "")
        << " channel active=" << channel.stats().active_queries
        << " srv registered=" << sm.queries_registered
        << " rejected=" << sm.queries_rejected
        << " bad_ctrl=" << sm.bad_control_frames
        << " sub reconnects=" << sub.metrics().reconnects
        << " frames_out=" << sub.metrics().frames_out;
  }
  auto tok2 = sub.AddRemoteQuery(Spec(kIdQuery, 0));
  ASSERT_TRUE(tok2.ok());
  ASSERT_TRUE(PollFor(
      [&] {
        auto s = sub.query_state(tok2.value());
        return s.ok() && s.value().last_code != 0;
      },
      20s));
  auto rejected = sub.query_state(tok2.value());
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected.value().active);
  EXPECT_EQ(rejected.value().last_code, kQueryStatusRejected);
  EXPECT_NE(rejected.value().last_message.find("connection query limit"),
            std::string::npos)
      << rejected.value().last_message;

  // A second connection still has per-conn room, but its second distinct
  // query trips the channel-wide cap — with the capacity code, not the
  // invalid-spec one.
  FragmentSubscriber sub2(opts);
  ASSERT_TRUE(sub2.Start().ok());
  ASSERT_TRUE(sub2.WaitConnected(20s));
  auto tok3 = sub2.AddRemoteQuery(Spec(kIdQuery, 0));
  ASSERT_TRUE(tok3.ok());
  const bool tok3_active = sub2.WaitQueryActive(tok3.value(), 20s);
  if (!tok3_active) {
    auto st = sub2.query_state(tok3.value());
    ASSERT_TRUE(tok3_active)
        << "tok3 state: ok=" << st.ok()
        << " last_code=" << (st.ok() ? st.value().last_code : -1)
        << " msg=" << (st.ok() ? st.value().last_message : "")
        << " channel active_queries=" << channel.stats().active_queries;
  }
  EXPECT_EQ(channel.stats().active_queries, 2);

  FragmentSubscriber sub3(opts);
  ASSERT_TRUE(sub3.Start().ok());
  ASSERT_TRUE(sub3.WaitConnected(20s));
  auto tok4 = sub3.AddRemoteQuery(Spec(kIdQuery, 1));
  ASSERT_TRUE(tok4.ok());
  ASSERT_TRUE(PollFor(
      [&] {
        auto s = sub3.query_state(tok4.value());
        return s.ok() && s.value().last_code != 0;
      },
      20s));
  auto full = sub3.query_state(tok4.value());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().last_code, kQueryStatusRejected);
  EXPECT_NE(full.value().last_message.find("query limit reached"),
            std::string::npos)
      << full.value().last_message;

  // An invalid spec is the other error class.
  auto tok5 = sub3.AddRemoteQuery(
      Spec(kIdQuery, 2, 0, 0,
           kQueryFlagPaperFaithful | kQueryFlagIndexedFillers));
  ASSERT_TRUE(tok5.ok());
  ASSERT_TRUE(PollFor(
      [&] {
        auto s = sub3.query_state(tok5.value());
        return s.ok() && s.value().last_code != 0;
      },
      20s));
  EXPECT_EQ(sub3.query_state(tok5.value()).value().last_code,
            kQueryStatusInvalid);

  // Rejections are control-plane answers, not cut connections: all three
  // sessions still deliver fragments.
  EXPECT_GE(server.metrics().queries_rejected, 3);
  ASSERT_TRUE(source.Publish(MakePacket(1, 1000, 1)).ok());
  EXPECT_TRUE(sub.WaitForSeq(0, 20s));
  EXPECT_TRUE(sub2.WaitForSeq(0, 20s));
  EXPECT_TRUE(sub3.WaitForSeq(0, 20s));

  sub3.Stop();
  sub2.Stop();
  sub.Stop();
  server.Stop();
}

TEST(RemoteQueryTest, FanOutEvaluatesOnceAndAllSubscribersAgree) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  QueryChannel channel("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(channel.Open().ok());
  FragmentServerOptions sopts;
  sopts.query_channel = &channel;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kSubs = 4;
  RemoteQuerySpec spec = Spec(kIdQuery);
  std::vector<std::unique_ptr<FragmentSubscriber>> subs;
  std::vector<uint32_t> tokens;
  for (int i = 0; i < kSubs; ++i) {
    FragmentSubscriberOptions opts;
    opts.port = server.port();
    opts.stream = "pkts";
    subs.push_back(std::make_unique<FragmentSubscriber>(opts));
    auto token = subs.back()->AddRemoteQuery(spec);
    ASSERT_TRUE(token.ok());
    tokens.push_back(token.value());
    ASSERT_TRUE(subs.back()->Start().ok());
  }
  for (int i = 0; i < kSubs; ++i) {
    ASSERT_TRUE(subs[i]->WaitConnected(5s));
    ASSERT_TRUE(subs[i]->WaitQueryActive(tokens[i], 5s));
  }
  // N registrations of the same query share one engine entry. (The ack
  // travels before the sink attaches, so poll for the last attachment.)
  EXPECT_EQ(channel.stats().active_queries, 1);
  EXPECT_TRUE(
      PollFor([&] { return channel.stats().active_sinks == kSubs; }, 5s));

  std::vector<frag::Fragment> frags = {MakeRoot({1, 2, 3})};
  int64_t t = 1000;
  for (int u = 1; u <= 20; ++u) {
    frags.push_back(MakePacket(1 + u % 3, t += 7, u));
  }
  for (const auto& f : frags) ASSERT_TRUE(source.Publish(f).ok());

  const auto want =
      LocalReference(kIdQuery, RefOptions(spec), frags);
  const int64_t last = static_cast<int64_t>(want.size()) - 1;
  ASSERT_GE(last, 0);
  for (int i = 0; i < kSubs; ++i) {
    ASSERT_TRUE(subs[i]->WaitForResultSeq(tokens[i], last, 10s))
        << "subscriber " << i;
    std::vector<RemoteQueryResult> results;
    subs[i]->DrainResults(&results);
    ExpectRecsEqual(RecsOfToken(results, tokens[i]), want,
                    "subscriber " + std::to_string(i));
  }
  // Evaluate once, fan out N: the channel logged |want| frames total and
  // the server sent one copy per subscriber.
  EXPECT_EQ(channel.stats().result_frames, static_cast<int64_t>(want.size()));
  EXPECT_GE(server.metrics().result_frames_out,
            static_cast<int64_t>(want.size()) * kSubs);

  for (auto& s : subs) s->Stop();
  server.Stop();
}

TEST(RemoteQueryTest, KilledSubscriberResumesResultStreamExactly) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  QueryChannel channel("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(channel.Open().ok());
  FragmentServerOptions sopts;
  sopts.query_channel = &channel;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  opts.backoff_initial = 10ms;
  opts.backoff_max = 100ms;
  FragmentSubscriber sub(opts);
  RemoteQuerySpec spec = Spec(kIdQuery);
  auto token = sub.AddRemoteQuery(spec);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(5s));
  ASSERT_TRUE(sub.WaitQueryActive(token.value(), 5s));

  std::vector<frag::Fragment> frags = {MakeRoot({1, 2})};
  int64_t t = 1000;
  for (int u = 1; u <= 10; ++u) {
    frags.push_back(MakePacket(1 + u % 2, t += 7, u));
  }
  for (const auto& f : frags) ASSERT_TRUE(source.Publish(f).ok());
  ASSERT_TRUE(sub.WaitForResultSeq(token.value(), 9, 10s));
  std::vector<RemoteQueryResult> accumulated;
  sub.DrainResults(&accumulated);

  // Sever the connection mid-stream; publishes continue while it is
  // down. The reconnect resends QUERY with the last contiguous result
  // seq, so the resumed stream continues without a gap or a repeat.
  sub.KillConnection();
  for (int u = 11; u <= 20; ++u) {
    frags.push_back(MakePacket(1 + u % 2, t += 7, u));
    ASSERT_TRUE(source.Publish(frags.back()).ok());
  }
  ASSERT_TRUE(sub.WaitForResultSeq(token.value(), 19, 20s));
  sub.DrainResults(&accumulated);

  ExpectRecsEqual(RecsOfToken(accumulated, token.value()),
                  LocalReference(kIdQuery, RefOptions(spec), frags),
                  "resumed stream vs local");
  sub.Stop();
  server.Stop();
}

// ---- Server restart from WAL + registry -------------------------------------

TEST(RemoteQueryTest, ServerRestartRegeneratesAndResumesResultStreams) {
  char tmpl[] = "/tmp/xcql_query_restart_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  // Pin a port up front so the one subscriber can ride across both
  // server lives (the listener sets SO_REUSEADDR).
  uint16_t port = 0;
  {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port = ntohs(addr.sin_port);
    ::close(fd);
  }

  QueryChannelOptions copts;
  copts.registry_path = dir + "/queries.reg";

  FragmentSubscriberOptions opts;
  opts.port = port;
  opts.stream = "pkts";
  opts.backoff_initial = 10ms;
  opts.backoff_max = 100ms;
  FragmentSubscriber sub(opts);
  RemoteQuerySpec spec = Spec(kIdQuery);
  auto token = sub.AddRemoteQuery(spec);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(sub.Start().ok());

  std::vector<frag::Fragment> frags = {MakeRoot({1, 2})};
  int64_t t = 1000;
  std::vector<RemoteQueryResult> accumulated;
  uint64_t epoch = 0;

  // First life: durable fragment log + durable query registry.
  {
    WalRecovery rec;
    auto wal = Wal::Open(dir + "/wal", "pkts", kPacketTs, WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    stream::StreamServer source("pkts", MustParseTs(kPacketTs));
    QueryChannel channel("pkts", MustParseTs(kPacketTs), copts);
    ASSERT_TRUE(channel.Open().ok());
    FragmentServerOptions sopts;
    sopts.port = port;
    sopts.wal = wal.value().get();
    sopts.query_channel = &channel;
    FragmentServer server(&source, sopts);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(sub.WaitConnected(10s));
    ASSERT_TRUE(sub.WaitQueryActive(token.value(), 5s));

    for (int u = 1; u <= 6; ++u) {
      frags.push_back(MakePacket(1 + u % 2, t += 7, u));
    }
    for (const auto& f : frags) ASSERT_TRUE(source.Publish(f).ok());
    ASSERT_TRUE(sub.WaitForResultSeq(token.value(), 5, 10s));
    sub.DrainResults(&accumulated);
    epoch = sub.server_epoch();
    ASSERT_NE(epoch, 0u);
    server.Stop();
    ASSERT_TRUE(wal.value()->Close().ok());
  }

  // Second life: the WAL restores the fragment log, the registry
  // restores the query, and the seed replay regenerates its result log
  // before the subscriber reconnects. The in-flight subscriber resumes
  // mid-result-stream: no epoch reset, no repeats, no gaps.
  {
    WalRecovery rec;
    auto wal = Wal::Open(dir + "/wal", "pkts", kPacketTs, WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(rec.records.size(), 7u);
    stream::StreamServer source("pkts", MustParseTs(kPacketTs));
    ASSERT_TRUE(RestoreStream(rec, &source).ok());
    QueryChannel channel("pkts", MustParseTs(kPacketTs), copts);
    ASSERT_TRUE(channel.Open().ok());
    EXPECT_EQ(channel.stats().recovered_queries, 1);
    FragmentServerOptions sopts;
    sopts.port = port;
    sopts.wal = wal.value().get();
    sopts.query_channel = &channel;
    FragmentServer server(&source, sopts);
    ASSERT_TRUE(server.Start().ok());
    // Start() seeded the channel from recovered history: the result log
    // is regenerated before any publish.
    EXPECT_EQ(channel.stats().fragments_fed, 7);
    EXPECT_EQ(channel.stats().active_queries, 1);

    for (int u = 7; u <= 12; ++u) {
      frags.push_back(MakePacket(1 + u % 2, t += 7, u));
      ASSERT_TRUE(source.Publish(frags.back()).ok());
    }
    ASSERT_TRUE(sub.WaitForResultSeq(token.value(), 11, 20s));
    EXPECT_EQ(sub.server_epoch(), epoch);
    EXPECT_EQ(sub.metrics().epoch_resets, 0);
    sub.DrainResults(&accumulated);
    sub.Stop();
    server.Stop();
  }

  ExpectRecsEqual(RecsOfToken(accumulated, token.value()),
                  LocalReference(kIdQuery, RefOptions(spec), frags),
                  "across-restart stream vs local");
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---- Randomized chaos equivalence (the acceptance scenario) -----------------

// For each ExecMethod: a subscriber behind a ChaosLink (drops, dups,
// reorders, corruption) registers the query, a randomized fragment
// schedule flows, and the connection is hard-killed mid-stream. The
// accumulated remote result stream must equal the local engine's delta
// stream over the same schedule — exactly, in content and order.
TEST(RemoteQueryTest, ChaosEquivalenceAcrossExecMethods) {
  for (uint8_t method : {uint8_t{0}, uint8_t{1}, uint8_t{2}}) {
    SCOPED_TRACE("method " + std::to_string(int{method}));
    stream::StreamServer source("pkts", MustParseTs(kPacketTs));
    QueryChannel channel("pkts", MustParseTs(kPacketTs));
    ASSERT_TRUE(channel.Open().ok());
    FragmentServerOptions sopts;
    sopts.query_channel = &channel;
    sopts.heartbeat_interval = 50ms;
    FragmentServer server(&source, sopts);
    ASSERT_TRUE(server.Start().ok());

    ChaosLinkOptions chaos_opts;
    chaos_opts.upstream_port = server.port();
    chaos_opts.seed = 1000 + method;
    chaos_opts.faults.drop = 0.01;
    chaos_opts.faults.duplicate = 0.01;
    chaos_opts.faults.reorder = 0.01;
    chaos_opts.faults.corrupt = 0.01;
    ChaosLink chaos(chaos_opts);
    ASSERT_TRUE(chaos.Start().ok());

    FragmentSubscriberOptions opts;
    opts.port = chaos.port();
    opts.stream = "pkts";
    opts.backoff_initial = 10ms;
    opts.backoff_max = 100ms;
    FragmentSubscriber sub(opts);
    RemoteQuerySpec spec = Spec(kIdQuery, method);
    auto token = sub.AddRemoteQuery(spec);
    ASSERT_TRUE(token.ok());
    ASSERT_TRUE(sub.Start().ok());
    ASSERT_TRUE(sub.WaitConnected(30s));
    ASSERT_TRUE(sub.WaitQueryActive(token.value(), 30s));
    auto qid = sub.query_state(token.value()).value().query_id;

    std::vector<frag::Fragment> frags = {MakeRoot({1, 2, 3})};
    ASSERT_TRUE(source.Publish(frags.back()).ok());
    Random rng(20260809 + method);
    int64_t t = 1000;
    int next_val = 0;
    auto publish_one = [&] {
      frags.push_back(MakePacket(1 + static_cast<int64_t>(rng.Uniform(3)),
                                 t += 1 + static_cast<int64_t>(rng.Uniform(9)),
                                 ++next_val));
      ASSERT_TRUE(source.Publish(frags.back()).ok());
    };
    for (int u = 0; u < 20; ++u) publish_one();
    sub.KillConnection();  // hard mid-stream cut on top of the chaos
    for (int u = 0; u < 20; ++u) publish_one();

    // Converge: a dropped tail RESULT frame is only detectable through
    // later traffic, so nudge with fresh publishes until the subscriber
    // holds the full log (which the nudges themselves extend).
    const auto deadline = std::chrono::steady_clock::now() + 90s;
    for (;;) {
      const int64_t want = channel.result_log_size(qid) - 1;
      if (sub.WaitForResultSeq(token.value(), want, 2s) &&
          channel.result_log_size(qid) - 1 == want) {
        break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "stuck at result seq "
          << sub.query_state(token.value()).value().last_result_seq << " of "
          << channel.result_log_size(qid) - 1;
      publish_one();
    }

    std::vector<RemoteQueryResult> accumulated;
    sub.DrainResults(&accumulated);
    ExpectRecsEqual(RecsOfToken(accumulated, token.value()),
                    LocalReference(kIdQuery, RefOptions(spec), frags),
                    "chaos stream vs local");

    sub.Stop();
    chaos.Stop();
    server.Stop();
  }
}

}  // namespace
}  // namespace xcql::net
