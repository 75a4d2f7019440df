// Tests for the networked fragment transport (src/net/): frame codec,
// handshake, end-to-end equivalence over loopback TCP (live subscribers,
// late joiners, disconnect + resume via REPLAY_FROM), and the
// slow-consumer policies. All TCP traffic stays on 127.0.0.1 with
// ephemeral ports, so tests run in parallel and offline.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/random.h"
#include "frag/assembler.h"
#include "frag/fragment.h"
#include "net/chaos.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/query_channel.h"
#include "net/server.h"
#include "net/subscriber.h"
#include "net/wal.h"
#include "stream/registry.h"
#include "stream/transport.h"
#include "xmark/generator.h"
#include "xml/serializer.h"

namespace xcql::net {
namespace {

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

// A packet fragment; `pad` grows the payload (so tests can exceed kernel
// socket buffering deterministically).
frag::Fragment MakePacket(int64_t id, int64_t t, int pkt, size_t pad = 0) {
  frag::Fragment f;
  f.id = id;
  f.tsid = 2;
  f.valid_time = DateTime(t);
  f.content = Node::Element("packet");
  NodePtr pid = Node::Element("id");
  pid->AddChild(Node::Text(std::to_string(pkt)));
  f.content->AddChild(std::move(pid));
  if (pad > 0) {
    NodePtr src = Node::Element("srcIP");
    src->AddChild(Node::Text(std::string(pad, 'x')));
    f.content->AddChild(std::move(src));
  }
  return f;
}

std::string MustEncode(const Frame& f) {
  auto r = EncodeFrame(f);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).MoveValue() : std::string();
}

std::string ViewOf(const frag::FragmentStore& store) {
  auto view = frag::Temporalize(store, false);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  if (!view.ok()) return "";
  return SerializeXml(*view.value());
}

// ---- Frame codec ------------------------------------------------------------

TEST(FrameCodecTest, RoundTripsAllTypesFedByteByByte) {
  std::vector<Frame> in;
  in.push_back({FrameType::kHello, 0, 0, "hello-payload"});
  in.push_back({FrameType::kFragment, kFlagCompressedPayload, 41,
                std::string(100000, 'z')});
  in.push_back({FrameType::kHeartbeat, 0, 42, ""});
  in.push_back({FrameType::kReplayFrom, 0, 0, EncodeReplayFrom(-1)});
  in.push_back({FrameType::kBye, 0, 7, ""});
  std::string wire;
  for (const auto& f : in) wire += MustEncode(f);

  FrameReader reader;
  std::vector<Frame> out;
  for (char c : wire) {
    reader.Feed(&c, 1);
    for (;;) {
      auto next = reader.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next.value().has_value()) break;
      out.push_back(std::move(*next.value()));
    }
  }
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].type, in[i].type);
    EXPECT_EQ(out[i].flags, in[i].flags);
    EXPECT_EQ(out[i].seq, in[i].seq);
    EXPECT_EQ(out[i].payload, in[i].payload);
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameCodecTest, DecodesFramesSplitAcrossFeeds) {
  Frame f{FrameType::kFragment, 0, 9, "abcdef"};
  std::string wire = MustEncode(f) + MustEncode(f);
  FrameReader reader;
  // Feed in two lumps that split mid-header of the second frame.
  size_t cut = wire.size() / 2 + 3;
  reader.Feed(wire.data(), cut);
  int seen = 0;
  auto drain = [&] {
    for (;;) {
      auto next = reader.Next();
      ASSERT_TRUE(next.ok());
      if (!next.value().has_value()) break;
      EXPECT_EQ(next.value()->payload, "abcdef");
      ++seen;
    }
  };
  drain();
  reader.Feed(wire.data() + cut, wire.size() - cut);
  drain();
  EXPECT_EQ(seen, 2);
}

TEST(FrameCodecTest, RejectsBadMagic) {
  std::string wire = MustEncode({FrameType::kHeartbeat, 0, 1, ""});
  wire[0] ^= 0x55;
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  EXPECT_FALSE(reader.Next().ok());
}

TEST(FrameCodecTest, RejectsUnknownVersion) {
  std::string wire = MustEncode({FrameType::kHeartbeat, 0, 1, ""});
  wire[4] = 99;
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  EXPECT_FALSE(reader.Next().ok());
}

TEST(FrameCodecTest, RejectsOversizedPayload) {
  std::string wire = MustEncode({FrameType::kFragment, 0, 1, "x"});
  uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(&wire[16], &huge, sizeof(huge));
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  EXPECT_FALSE(reader.Next().ok());
}

TEST(FrameCodecTest, EncodeRejectsOversizedPayload) {
  // The decoder treats an over-limit length as stream corruption, so the
  // encoder must refuse to produce such a frame in the first place —
  // otherwise one oversized fragment kills every subscriber in an endless
  // reconnect loop on that seq.
  Frame f{FrameType::kFragment, 0, 1,
          std::string(kMaxFramePayload + 1, 'x')};
  EXPECT_FALSE(EncodeFrame(f).ok());
  f.payload.resize(kMaxFramePayload);  // exactly at the limit is legal
  EXPECT_TRUE(EncodeFrame(f).ok());
}

TEST(FrameCodecTest, PublishRejectsOversizedFragment) {
  // The same limit holds at publish time (EncodeWirePayload): the
  // fragment fails with a Status before any counter or history mutation,
  // so it can never reach the frame log or the wire.
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  EXPECT_FALSE(
      source.Publish(MakePacket(1, 1000, 0, frag::kMaxWirePayload + 1))
          .ok());
  EXPECT_EQ(source.history_size(), 0);
  EXPECT_EQ(source.fragments_sent(), 0);
  EXPECT_EQ(source.bytes_sent(), 0);
}

TEST(FrameCodecTest, HelloRoundTrips) {
  Hello h;
  h.stream_name = "auction";
  h.codec = frag::WireCodec::kTagCompressed;
  h.ts_hash = 0xdeadbeefcafe1234ull;
  h.tag_structure_xml = "<tag id=\"1\" name=\"site\"/>";
  auto back = DecodeHello(EncodeHello(h));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().stream_name, h.stream_name);
  EXPECT_EQ(back.value().codec, h.codec);
  EXPECT_EQ(back.value().ts_hash, h.ts_hash);
  EXPECT_EQ(back.value().tag_structure_xml, h.tag_structure_xml);

  Hello bare;
  bare.stream_name = "s";
  auto bare_back = DecodeHello(EncodeHello(bare));
  ASSERT_TRUE(bare_back.ok());
  EXPECT_EQ(bare_back.value().stream_name, "s");
  EXPECT_EQ(bare_back.value().ts_hash, 0u);
  EXPECT_TRUE(bare_back.value().tag_structure_xml.empty());

  EXPECT_FALSE(DecodeHello("tooshort").ok());
}

TEST(FrameCodecTest, ReplayFromRoundTrips) {
  for (int64_t seq : {int64_t{-1}, int64_t{0}, int64_t{123456789}}) {
    auto back = DecodeReplayFrom(EncodeReplayFrom(seq));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), seq);
  }
  EXPECT_FALSE(DecodeReplayFrom("abc").ok());
}

TEST(FrameCodecTest, V2FramesCarryAValidChecksum) {
  Frame f{FrameType::kFragment, kFlagCompressedPayload, 77, "payload-bytes"};
  std::string wire = MustEncode(f);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + f.payload.size());
  EXPECT_EQ(static_cast<uint8_t>(wire[4]), kFrameVersion);
  uint32_t stored = 0;
  std::memcpy(&stored, wire.data() + 20, sizeof(stored));
  EXPECT_EQ(stored, Crc32c(wire.substr(4, 16) + f.payload));

  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  auto next = reader.Next();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next.value().has_value());
  EXPECT_TRUE(next.value()->crc_ok);
  EXPECT_EQ(next.value()->type, FrameType::kFragment);
  EXPECT_EQ(next.value()->flags, kFlagCompressedPayload);
  EXPECT_EQ(next.value()->seq, 77u);
  EXPECT_EQ(next.value()->payload, f.payload);
}

TEST(FrameCodecTest, RepeatFlagPatchKeepsTheChecksumValid) {
  Frame f{FrameType::kFragment, kFlagCompressedPayload, 9, "xyz"};
  std::string flagged = WithRepeatFlag(MustEncode(f));
  FrameReader reader;
  reader.Feed(flagged.data(), flagged.size());
  auto next = reader.Next();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next.value().has_value());
  EXPECT_TRUE(next.value()->crc_ok);
  EXPECT_EQ(next.value()->flags, kFlagCompressedPayload | kFlagRepeat);
  EXPECT_EQ(next.value()->payload, "xyz");
}

TEST(FrameCodecTest, RepeatRequestRoundTrips) {
  for (int64_t id : {int64_t{0}, int64_t{7}, int64_t{123456789}}) {
    // Legacy 8-byte form: no have-list, meaning "send every version".
    auto back = DecodeRepeatRequest(EncodeRepeatRequest(id));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().filler_id, id);
    EXPECT_TRUE(back.value().have_valid_times.empty());
  }
  EXPECT_FALSE(DecodeRepeatRequest("xy").ok());
}

TEST(FrameCodecTest, VersionAwareRepeatRequestRoundTrips) {
  RepeatRequest req;
  req.filler_id = 42;
  req.have_valid_times = {100, 260, 980000000};
  auto back = DecodeRepeatRequest(EncodeRepeatRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().filler_id, 42);
  EXPECT_EQ(back.value().have_valid_times, req.have_valid_times);

  // An explicitly empty have-list still round-trips (it encodes the count).
  req.have_valid_times.clear();
  back = DecodeRepeatRequest(EncodeRepeatRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().have_valid_times.empty());

  // Truncated count and short have-lists are parse errors, not crashes.
  std::string wire = EncodeRepeatRequest(
      RepeatRequest{7, std::vector<int64_t>{1, 2}});
  EXPECT_FALSE(DecodeRepeatRequest(wire.substr(0, 10)).ok());
  EXPECT_FALSE(DecodeRepeatRequest(wire.substr(0, wire.size() - 3)).ok());
}

TEST(FrameCodecTest, CorruptV2FrameIsFlaggedWithoutDesyncingTheStream) {
  std::string first =
      MustEncode({FrameType::kFragment, 0, 0, "first-payload"});
  std::string second =
      MustEncode({FrameType::kFragment, 0, 1, "second-payload"});
  first[kFrameHeaderSize + 3] ^= 0x10;  // flip one payload bit
  std::string wire = first + second;

  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  auto bad = reader.Next();
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  ASSERT_TRUE(bad.value().has_value());
  EXPECT_FALSE(bad.value()->crc_ok);
  EXPECT_TRUE(bad.value()->payload.empty());  // untrusted content withheld
  // The framing held up, so the next frame decodes cleanly.
  auto good = reader.Next();
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(good.value().has_value());
  EXPECT_TRUE(good.value()->crc_ok);
  EXPECT_EQ(good.value()->seq, 1u);
  EXPECT_EQ(good.value()->payload, "second-payload");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameCodecTest, TagStructureHashDistinguishesSchemas) {
  frag::TagStructure pkts = MustParseTs(kPacketTs);
  frag::TagStructure auction =
      MustParseTs(xmark::AuctionTagStructureXml());
  EXPECT_NE(TagStructureHash(pkts), 0u);
  EXPECT_NE(TagStructureHash(auction), 0u);
  EXPECT_NE(TagStructureHash(pkts), TagStructureHash(auction));
  // Object and canonical-XML forms agree.
  EXPECT_EQ(TagStructureHash(pkts), TagStructureHash(pkts.ToXml()));
}

// ---- Raw protocol client ----------------------------------------------------

// A hand-rolled protocol client used to (a) stall on purpose — it
// handshakes, requests a replay, then never reads again — and (b) keep the
// server honest against a non-FragmentSubscriber peer. The tiny SO_RCVBUF
// (set before connect, so the window scale is negotiated small) bounds how
// much a stalled connection can sink into kernel buffers.
class RawClient {
 public:
  ~RawClient() { Close(); }

  void Connect(uint16_t port, const std::string& stream) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    int rcvbuf = 4096;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    Hello hello;
    hello.stream_name = stream;
    Send(MustEncode({FrameType::kHello, 0, 0, EncodeHello(hello)}));
    // Read just far enough to see the server's HELLO ack, then go silent.
    FrameReader reader;
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "connection died during handshake";
      reader.Feed(buf, static_cast<size_t>(n));
      auto next = reader.Next();
      ASSERT_TRUE(next.ok());
      if (!next.value().has_value()) continue;
      ASSERT_EQ(next.value()->type, FrameType::kHello);
      break;
    }
    Send(MustEncode({FrameType::kReplayFrom, 0, 0, EncodeReplayFrom(-1)}));
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  int fd_ = -1;
};

// Polls until `pred` holds or the deadline passes.
template <typename Pred>
bool PollFor(Pred pred, std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

// ---- Handshake --------------------------------------------------------------

TEST(FragmentServerTest, RejectsWrongStreamName) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "not-the-stream";
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  EXPECT_FALSE(sub.WaitConnected(5s));
  EXPECT_TRUE(sub.handshake_failed());
  EXPECT_GE(server.metrics().handshake_failures, 1);
  sub.Stop();
  server.Stop();
}

TEST(FragmentServerTest, RejectsMismatchedSchemaHash) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  // The subscriber holds a different schema: its hash travels in HELLO and
  // the server must refuse rather than feed it undecodable frames.
  opts.tag_structure_xml = xmark::AuctionTagStructureXml();
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  EXPECT_FALSE(sub.WaitConnected(5s));
  EXPECT_TRUE(sub.handshake_failed());
  sub.Stop();
  server.Stop();
}

// Reads frames off `sock` until the peer closes it (true) or `timeout`
// passes (false); every complete frame lands in `out`.
bool ReadUntilClosed(Socket* sock, std::vector<Frame>* out,
                     std::chrono::milliseconds timeout) {
  FrameReader reader;
  char buf[4096];
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    bool timed_out = false;
    auto n = sock->RecvTimeout(buf, sizeof(buf), 100ms, &timed_out);
    if (!n.ok()) return true;  // reset: closed as well
    if (timed_out) continue;
    if (n.value() == 0) return true;
    reader.Feed(buf, n.value());
    for (;;) {
      auto next = reader.Next();
      if (!next.ok() || !next.value().has_value()) break;
      out->push_back(std::move(*next.value()));
    }
  }
  return false;
}

// `frame_bytes` re-laid as another frame version: version 1 drops the
// checksum field (the layout older builds speak), any other version only
// rewrites the version byte.
std::string AsFrameVersion(std::string frame_bytes, uint8_t version) {
  if (version == 1) frame_bytes.erase(20, 4);
  frame_bytes[4] = static_cast<char>(version);
  return frame_bytes;
}

TEST(FragmentServerTest, ForeignFrameVersionGetsAByeAndIsCounted) {
  // A peer speaking another frame version can never handshake. The server
  // answers its first frame with a BYE — which such a peer reads as a
  // rejection — counts the failure, and closes the connection.
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());
  Hello hello;
  hello.stream_name = "pkts";
  const std::string good =
      MustEncode({FrameType::kHello, 0, 0, EncodeHello(hello)});
  int64_t attempts = 0;
  for (uint8_t version : {uint8_t{1}, uint8_t{3}}) {
    auto conn = ConnectTo("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    Socket sock = std::move(conn).MoveValue();
    const std::string wire = AsFrameVersion(good, version);
    ASSERT_TRUE(sock.SendAll(wire.data(), wire.size()).ok());
    std::vector<Frame> got;
    EXPECT_TRUE(ReadUntilClosed(&sock, &got, 5s)) << "version " << int{version};
    ASSERT_EQ(got.size(), 1u) << "version " << int{version};
    EXPECT_EQ(got[0].type, FrameType::kBye);
    ++attempts;
    EXPECT_TRUE(PollFor(
        [&] { return server.metrics().handshake_failures == attempts; }, 5s));
  }
  EXPECT_EQ(server.metrics().frames_corrupt, 0);
  server.Stop();
}

TEST(FragmentServerTest, CorruptHelloIsCutWithoutABye) {
  // A HELLO that fails its checksum leaves nothing to answer: the server
  // counts it and cuts the connection. No BYE — the subscriber would read
  // one as a rejection, while a redial with a clean HELLO succeeds.
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(source.Publish(MakePacket(1, 1000, 7)).ok());
  Hello hello;
  hello.stream_name = "pkts";
  std::string wire =
      MustEncode({FrameType::kHello, 0, 0, EncodeHello(hello)});
  wire[kFrameHeaderSize + 2] ^= 0x04;  // one payload bit
  auto conn = ConnectTo("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  Socket sock = std::move(conn).MoveValue();
  ASSERT_TRUE(sock.SendAll(wire.data(), wire.size()).ok());
  std::vector<Frame> got;
  EXPECT_TRUE(ReadUntilClosed(&sock, &got, 5s));
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(PollFor(
      [&] {
        const MetricsSnapshot m = server.metrics();
        return m.frames_corrupt == 1 && m.handshake_failures == 1;
      },
      5s));

  // The server is still healthy: a clean subscriber converges.
  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  EXPECT_TRUE(sub.WaitForSeq(0, 10s));
  EXPECT_FALSE(sub.handshake_failed());
  sub.Stop();
  server.Stop();
}

TEST(FragmentSubscriberTest, ForeignVersionAckIsAHandshakeRejection) {
  // A server speaking another frame version answers HELLO in a frame the
  // subscriber cannot parse. That is a rejection, not a damaged stream:
  // the subscriber gives up after kHandshakeRejectLimit attempts instead
  // of redialling forever.
  const std::string ts_xml = MustParseTs(kPacketTs).ToXml();
  auto listener = ListenOn(0);
  ASSERT_TRUE(listener.ok());
  auto port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok());
  Hello ack;
  ack.stream_name = "pkts";
  ack.ts_hash = TagStructureHash(ts_xml);
  ack.tag_structure_xml = ts_xml;
  const std::string v1_ack = AsFrameVersion(
      MustEncode({FrameType::kHello, 0, 0, EncodeHello(ack)}), 1);

  std::atomic<int> accepted{0};
  std::thread fake([&] {
    for (;;) {
      auto conn = Accept(listener.value());
      if (!conn.ok()) return;  // listener shut down
      ++accepted;
      Socket sock = std::move(conn).MoveValue();
      (void)sock.SendAll(v1_ack.data(), v1_ack.size());
      char buf[1024];
      for (;;) {  // hold until the subscriber hangs up
        auto n = sock.Recv(buf, sizeof(buf));
        if (!n.ok() || n.value() == 0) break;
      }
    }
  });

  FragmentSubscriberOptions opts;
  opts.port = port.value();
  opts.stream = "pkts";
  opts.backoff_initial = 5ms;
  opts.backoff_max = 20ms;
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  EXPECT_TRUE(PollFor([&] { return sub.handshake_failed(); }, 10s));
  EXPECT_FALSE(sub.connected());
  EXPECT_EQ(sub.metrics().handshake_failures, kHandshakeRejectLimit);
  sub.Stop();
  listener.value().Shutdown();
  fake.join();
  EXPECT_EQ(accepted.load(), kHandshakeRejectLimit);
}

TEST(FragmentServerTest, HandshakeDeliversTagStructure) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(5s));
  auto ts_xml = sub.TagStructureXml();
  ASSERT_TRUE(ts_xml.ok());
  EXPECT_EQ(TagStructureHash(ts_xml.value()),
            TagStructureHash(source.tag_structure()));
  sub.Stop();
  server.Stop();
}

TEST(FragmentServerTest, HeartbeatsFlowWhenIdle) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServerOptions opts;
  opts.heartbeat_interval = 20ms;
  FragmentServer server(&source, opts);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions sopts;
  sopts.port = server.port();
  sopts.stream = "pkts";
  FragmentSubscriber sub(sopts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(5s));
  // HELLO ack + several heartbeats; no fragments were ever published.
  EXPECT_TRUE(PollFor([&] { return sub.metrics().frames_in >= 4; }, 5s));
  EXPECT_EQ(sub.metrics().fragments_in, 0);
  sub.Stop();
  server.Stop();
}

TEST(FragmentServerTest, SeedsReplayLogFromPreStartHistory) {
  // Fragments published before the network face existed are still
  // replayable: Start() seeds the frame log from the source's history.
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(i + 1, 1000 + i, i)).ok());
  }
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.next_seq(), 3);

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitForSeq(2, 10s));
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id, 1);
  EXPECT_EQ(got[2].id, 3);
  sub.Stop();
  server.Stop();
}

// ---- End-to-end equivalence -------------------------------------------------

// The acceptance scenario: an XMark document plus >= 1,000 updates
// published through a StreamServer reach (a) an in-process StreamHub, (b)
// a TCP subscriber connected from the start, (c) one whose connection is
// severed mid-stream (reconnect + REPLAY_FROM resume), and (d) a late
// joiner that replays everything. All four stores must materialize to
// byte-identical views.
void RunEquivalence(frag::WireCodec codec) {
  std::string ts_xml = xmark::AuctionTagStructureXml();
  stream::StreamServer source("auction", MustParseTs(ts_xml));
  if (codec == frag::WireCodec::kTagCompressed) {
    source.EnableWireCompression();
  }
  stream::StreamHub reference;
  ASSERT_TRUE(reference.Subscribe(&source).ok());

  FragmentServerOptions sopts;
  sopts.queue_capacity = 256;
  sopts.heartbeat_interval = 200ms;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  auto sub_opts = [&] {
    FragmentSubscriberOptions o;
    o.port = server.port();
    o.stream = "auction";
    o.codec = codec;
    return o;
  };
  FragmentSubscriber early(sub_opts());
  FragmentSubscriber resumer(sub_opts());
  ASSERT_TRUE(early.Start().ok());
  ASSERT_TRUE(resumer.Start().ok());
  ASSERT_TRUE(early.WaitConnected(10s));
  ASSERT_TRUE(resumer.WaitConnected(10s));

  xmark::XMarkOptions gen;
  gen.scale = 0.0;
  auto doc = xmark::GenerateAuctionDoc(gen);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(source.PublishDocument(*doc.value()).ok());

  // Update targets: the fragmented fillers of the initial document.
  std::vector<int64_t> candidates;
  for (int64_t i = 0; i < source.history_size(); ++i) {
    const auto* tag =
        source.tag_structure().FindById(source.history_at(i).tsid);
    if (tag != nullptr && tag->fragmented()) candidates.push_back(i);
  }
  ASSERT_FALSE(candidates.empty());

  constexpr int kUpdates = 1000;
  Random rng(11);
  int64_t t =
      source.history_at(source.history_size() - 1).valid_time.seconds();
  for (int u = 0; u < kUpdates; ++u) {
    if (u == kUpdates / 2) {
      // Network fault mid-stream: the resumer must reconnect and resume
      // from its last seen seq without loss or duplication.
      resumer.KillConnection();
    }
    const auto& base = source.history_at(static_cast<int64_t>(
        candidates[rng.Uniform(candidates.size())]));
    frag::Fragment f;
    f.id = base.id;
    f.tsid = base.tsid;
    t += 1 + static_cast<int64_t>(rng.Uniform(30));
    f.valid_time = DateTime(t);
    f.content = base.content->Clone();
    f.content->SetAttr("rev", std::to_string(u + 1));
    ASSERT_TRUE(source.Publish(std::move(f)).ok());
  }
  const int64_t last = server.next_seq() - 1;
  ASSERT_EQ(last + 1, source.history_size());

  FragmentSubscriber late(sub_opts());
  ASSERT_TRUE(late.Start().ok());

  const frag::FragmentStore* ref = reference.store("auction");
  ASSERT_NE(ref, nullptr);
  const std::string want = ViewOf(*ref);
  ASSERT_FALSE(want.empty());

  struct Case {
    const char* name;
    FragmentSubscriber* sub;
  };
  for (const Case& c : {Case{"early", &early}, Case{"resumer", &resumer},
                        Case{"late", &late}}) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.sub->WaitForSeq(last, 60s))
        << "stuck at seq " << c.sub->last_seq() << " of " << last;
    stream::StreamHub hub;
    auto store = hub.AddLocalStream("auction", MustParseTs(ts_xml));
    ASSERT_TRUE(store.ok());
    auto drained = c.sub->DrainInto(store.value());
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    EXPECT_EQ(store.value()->size(), ref->size());
    EXPECT_EQ(ViewOf(*store.value()), want);
  }
  EXPECT_GE(resumer.metrics().reconnects, 1);
  EXPECT_GE(server.metrics().replays_served, 4);  // 3 initial + 1 resume
  EXPECT_EQ(server.metrics().drops, 0);           // kBlock never drops

  early.Stop();
  resumer.Stop();
  late.Stop();
  server.Stop();
}

TEST(NetEquivalenceTest, PlainXmlWire) {
  RunEquivalence(frag::WireCodec::kPlainXml);
}

TEST(NetEquivalenceTest, TagCompressedWire) {
  RunEquivalence(frag::WireCodec::kTagCompressed);
}

TEST(NetEquivalenceTest, CompressedWireCarriesFewerBytes) {
  // Same stream, both codecs: the §4.1 wire form must be smaller on the
  // fragment frames (the reason the negotiation exists at all).
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(i + 1, 1000 + i, i, 64)).ok());
  }
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());

  int64_t bytes[2] = {0, 0};
  frag::WireCodec codecs[2] = {frag::WireCodec::kPlainXml,
                               frag::WireCodec::kTagCompressed};
  for (int k = 0; k < 2; ++k) {
    FragmentSubscriberOptions opts;
    opts.port = server.port();
    opts.stream = "pkts";
    opts.codec = codecs[k];
    FragmentSubscriber sub(opts);
    ASSERT_TRUE(sub.Start().ok());
    ASSERT_TRUE(sub.WaitForSeq(49, 10s));
    auto m = sub.metrics();
    EXPECT_EQ(m.fragments_in, 50);
    bytes[k] = m.bytes_in;
    sub.Stop();
  }
  EXPECT_LT(bytes[1], bytes[0]);
  server.Stop();
}

// ---- Repeats over the wire --------------------------------------------------

TEST(FragmentServerTest, RepeatFillerKeepsSeqAlignedWithHistory) {
  // RepeatFiller retransmissions must re-send the original logged frames,
  // not mint new seqs: otherwise the frame log diverges from
  // StreamServer::history_ numbering and resume-after-restart (log
  // reseeded from history) skips or duplicates fragments.
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(source.Publish(MakePacket(5, 1000, 0)).ok());
  ASSERT_TRUE(source.Publish(MakePacket(5, 1001, 1)).ok());
  ASSERT_TRUE(source.Publish(MakePacket(6, 1002, 2)).ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitForSeq(2, 10s));
  const int64_t frames_before = sub.metrics().frames_in;

  auto repeated = source.RepeatFiller(5);
  ASSERT_TRUE(repeated.ok());
  EXPECT_EQ(repeated.value(), 2);
  // No new seqs: the log's next seq still equals the history size.
  EXPECT_EQ(server.next_seq(), 3);
  EXPECT_EQ(server.next_seq(), source.history_size());
  EXPECT_TRUE(PollFor([&] { return server.metrics().repeats_out >= 2; }, 5s));
  // The repeated frames do reach the subscriber...
  ASSERT_TRUE(PollFor(
      [&] { return sub.metrics().frames_in >= frames_before + 2; }, 10s));
  // ...which discards them as duplicates of seqs it already holds.
  EXPECT_EQ(sub.metrics().fragments_in, 3);
  EXPECT_EQ(sub.last_seq(), 2);

  // The stream continues seamlessly after the repeats.
  ASSERT_TRUE(source.Publish(MakePacket(6, 1003, 3)).ok());
  ASSERT_TRUE(sub.WaitForSeq(3, 10s));
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  EXPECT_EQ(got.size(), 4u);
  sub.Stop();
  server.Stop();
}

// ---- Gap detection ----------------------------------------------------------

// A hand-rolled protocol server for fault injection: accepts one
// connection, answers the handshake, records the REPLAY_FROM value, sends
// a scripted list of pre-encoded frames, then holds the connection open —
// silently, no FIN, like a half-dead server — until the peer closes it.
// Returns the REPLAY_FROM seq (-100 on protocol error).
int64_t ServeOneSession(const Socket& listener, const std::string& ts_xml,
                        const std::vector<std::string>& frames,
                        const std::vector<int>& to_send) {
  auto accepted = Accept(listener);
  if (!accepted.ok()) return -100;
  Socket conn = std::move(accepted).MoveValue();
  FrameReader reader;
  char buf[4096];
  int64_t replay_from = -100;
  bool handshaken = false;
  bool have_replay = false;
  while (!have_replay) {
    auto n = conn.Recv(buf, sizeof(buf));
    if (!n.ok() || n.value() == 0) return -100;
    reader.Feed(buf, n.value());
    for (;;) {
      auto next = reader.Next();
      if (!next.ok()) return -100;
      if (!next.value().has_value()) break;
      Frame fr = std::move(*next.value());
      if (!handshaken && fr.type == FrameType::kHello) {
        Hello ack;
        ack.stream_name = "pkts";
        ack.ts_hash = TagStructureHash(ts_xml);
        ack.tag_structure_xml = ts_xml;
        auto hello_r = EncodeFrame({FrameType::kHello, 0, 0, EncodeHello(ack)});
        if (!hello_r.ok()) return -100;
        const std::string& hello = hello_r.value();
        if (!conn.SendAll(hello.data(), hello.size()).ok()) return -100;
        handshaken = true;
      } else if (fr.type == FrameType::kReplayFrom) {
        auto from = DecodeReplayFrom(fr.payload);
        if (!from.ok()) return -100;
        replay_from = from.value();
        have_replay = true;
      }
    }
  }
  for (int idx : to_send) {
    if (!conn.SendAll(frames[idx].data(), frames[idx].size()).ok()) break;
  }
  for (;;) {  // hold until the peer closes (gap kill or Stop())
    auto n = conn.Recv(buf, sizeof(buf));
    if (!n.ok() || n.value() == 0) break;
  }
  return replay_from;
}

TEST(FragmentSubscriberTest, SeqGapForcesReconnectAndReplayFromContiguous) {
  // A mid-session seq gap (what a kDropOldest eviction looks like on the
  // wire) must not be silently absorbed: the subscriber kills the
  // connection and resumes via REPLAY_FROM(last contiguous seq), so the
  // dropped frames are refetched rather than permanently lost.
  frag::TagStructure ts = MustParseTs(kPacketTs);
  const std::string ts_xml = ts.ToXml();
  auto listener = ListenOn(0);
  ASSERT_TRUE(listener.ok());
  auto port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok());

  std::vector<std::string> frames;
  for (int i = 0; i < 4; ++i) {
    auto payload = frag::EncodeWirePayload(MakePacket(i + 1, 1000 + i, i),
                                           ts, frag::WireCodec::kPlainXml);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    frames.push_back(MustEncode({FrameType::kFragment, 0,
                                 static_cast<uint64_t>(i),
                                 std::move(payload).MoveValue()}));
  }

  int64_t first_replay = -7;
  int64_t second_replay = -7;
  std::thread faulty([&] {
    // Session 1: deliver seq 0, then seq 2 — seq 1 is "lost".
    first_replay =
        ServeOneSession(listener.value(), ts_xml, frames, {0, 2});
    // Session 2: the reconnect replays from the contiguous prefix.
    second_replay =
        ServeOneSession(listener.value(), ts_xml, frames, {1, 2, 3});
  });

  FragmentSubscriberOptions opts;
  opts.port = port.value();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  const bool caught_up = sub.WaitForSeq(3, 10s);
  const MetricsSnapshot m = sub.metrics();
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  sub.Stop();
  listener.value().Shutdown();
  faulty.join();

  EXPECT_TRUE(caught_up);
  EXPECT_EQ(first_replay, -1);   // cold start: replay everything
  EXPECT_EQ(second_replay, 0);   // resume from the last contiguous seq
  EXPECT_GE(m.gaps_detected, 1);
  EXPECT_GE(m.reconnects, 1);
  ASSERT_EQ(got.size(), 4u);     // every fragment exactly once, in order
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, static_cast<int64_t>(i + 1));
  }
}

// ---- Slow consumers ---------------------------------------------------------

TEST(SlowConsumerTest, DropOldestBoundsQueueAndCountsDrops) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServerOptions opts;
  opts.queue_capacity = 64;
  opts.slow_consumer = SlowConsumerPolicy::kDropOldest;
  opts.heartbeat_interval = 10s;  // keep heartbeats out of the picture
  FragmentServer server(&source, opts);
  ASSERT_TRUE(server.Start().ok());

  // A subscriber that handshakes, asks for a replay, then never reads.
  RawClient stalled;
  stalled.Connect(server.port(), "pkts");
  ASSERT_TRUE(PollFor(
      [&] {
        auto stats = server.connection_stats();
        return stats.size() == 1 && stats[0].live;
      },
      5s));

  // And a healthy one, which must be unaffected throughout.
  FragmentSubscriberOptions sopts;
  sopts.port = server.port();
  sopts.stream = "pkts";
  FragmentSubscriber healthy(sopts);
  ASSERT_TRUE(healthy.Start().ok());
  ASSERT_TRUE(healthy.WaitConnected(5s));
  ASSERT_TRUE(PollFor([&] { return server.active_connections() == 2; }, 5s));

  // 64 KiB payloads: ~19 MB in total, far beyond what the stalled
  // connection can sink into kernel buffers (tcp_wmem autotunes to a few
  // MB at most against the tiny receive window), so its queue must
  // overflow. The light throttle keeps the healthy writer comfortably
  // ahead — this test is about a slow *consumer*, not a publisher
  // outrunning everyone.
  constexpr int kCount = 300;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(
        source.Publish(MakePacket(i + 1, 1000 + i, i, 64 * 1024)).ok());
    if (i % 10 == 9) std::this_thread::sleep_for(1ms);
  }

  // The healthy subscriber got every fragment — no gaps, so its
  // connection never dropped.
  ASSERT_TRUE(healthy.WaitForSeq(kCount - 1, 30s));
  EXPECT_EQ(healthy.metrics().fragments_in, kCount);

  // The stalled connection dropped, stayed within its bound, and its
  // counters obey the conservation law at any sampled instant.
  ASSERT_TRUE(PollFor(
      [&] {
        for (const auto& s : server.connection_stats()) {
          if (s.dropped > 0) return true;
        }
        return false;
      },
      10s));
  int stalled_conns = 0;
  int64_t total_dropped = 0;
  for (const auto& s : server.connection_stats()) {
    EXPECT_EQ(s.enqueued, s.sent + s.dropped + s.queue_depth);
    EXPECT_LE(s.queue_depth, 64);
    total_dropped += s.dropped;
    if (s.dropped > 0) {
      ++stalled_conns;
      EXPECT_EQ(s.enqueued, kCount);
      // Everything beyond the queue bound and what the kernel absorbed
      // (at most ~4 MB / 64 KiB ≈ 65 frames) was evicted.
      EXPECT_GE(s.dropped, 100);
    }
  }
  EXPECT_EQ(stalled_conns, 1);
  EXPECT_EQ(server.metrics().drops, total_dropped);
  EXPECT_GE(server.metrics().queue_depth_hwm, 64);
  EXPECT_EQ(server.metrics().slow_disconnects, 0);

  stalled.Close();
  healthy.Stop();
  server.Stop();
}

TEST(SlowConsumerTest, DisconnectCutsTheStalledConnectionOnly) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServerOptions opts;
  opts.queue_capacity = 16;
  opts.slow_consumer = SlowConsumerPolicy::kDisconnect;
  opts.heartbeat_interval = 10s;
  FragmentServer server(&source, opts);
  ASSERT_TRUE(server.Start().ok());

  RawClient stalled;
  stalled.Connect(server.port(), "pkts");
  ASSERT_TRUE(PollFor(
      [&] {
        auto stats = server.connection_stats();
        return stats.size() == 1 && stats[0].live;
      },
      5s));

  FragmentSubscriberOptions sopts;
  sopts.port = server.port();
  sopts.stream = "pkts";
  FragmentSubscriber healthy(sopts);
  ASSERT_TRUE(healthy.Start().ok());
  ASSERT_TRUE(healthy.WaitConnected(5s));
  ASSERT_TRUE(PollFor([&] { return server.active_connections() == 2; }, 5s));

  // Same sizing rationale as the drop test: enough 64 KiB frames to
  // overrun kernel buffering plus the queue bound on the stalled
  // connection, throttled so the healthy writer never falls behind.
  constexpr int kCount = 120;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(
        source.Publish(MakePacket(i + 1, 1000 + i, i, 64 * 1024)).ok());
    if (i % 10 == 9) std::this_thread::sleep_for(1ms);
  }

  ASSERT_TRUE(healthy.WaitForSeq(kCount - 1, 30s));
  EXPECT_EQ(healthy.metrics().fragments_in, kCount);
  EXPECT_TRUE(
      PollFor([&] { return server.metrics().slow_disconnects >= 1; }, 10s));
  EXPECT_EQ(server.metrics().slow_disconnects, 1);  // the healthy one lives
  EXPECT_EQ(server.metrics().drops, 0);

  stalled.Close();
  healthy.Stop();
  server.Stop();
}

TEST(SlowConsumerTest, BlockPolicyDeliversEverythingToEveryone) {
  // kBlock with a tiny queue: the publisher throttles to the slowest
  // consumer but nothing is ever lost.
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServerOptions opts;
  opts.queue_capacity = 2;
  FragmentServer server(&source, opts);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions sopts;
  sopts.port = server.port();
  sopts.stream = "pkts";
  FragmentSubscriber a(sopts), b(sopts);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.WaitConnected(5s));
  ASSERT_TRUE(b.WaitConnected(5s));
  ASSERT_TRUE(PollFor([&] { return server.active_connections() == 2; }, 5s));

  constexpr int kCount = 300;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(i + 1, 1000 + i, i)).ok());
  }
  ASSERT_TRUE(a.WaitForSeq(kCount - 1, 30s));
  ASSERT_TRUE(b.WaitForSeq(kCount - 1, 30s));
  EXPECT_EQ(a.metrics().fragments_in, kCount);
  EXPECT_EQ(b.metrics().fragments_in, kCount);
  EXPECT_EQ(server.metrics().drops, 0);
  EXPECT_EQ(server.metrics().slow_disconnects, 0);

  a.Stop();
  b.Stop();
  server.Stop();
}

// ---- Robustness: checksums, liveness, repair, degradation -------------------

// Collects the filler ids referenced by hole elements under `n`.
void CollectHoleIds(const Node& n, std::vector<int64_t>* out) {
  if (frag::IsHoleElement(n)) {
    auto id = frag::HoleId(n);
    if (id.ok()) out->push_back(id.value());
    return;
  }
  for (const auto& child : n.children()) CollectHoleIds(*child, out);
}

TEST(FragmentSubscriberTest, LivenessTimeoutRecoversFromAHalfDeadServer) {
  // A server that stops sending without closing the socket (no FIN — a
  // hard crash, a pulled cable) must not hold the subscriber forever: the
  // liveness watchdog kills the connection and the reconnect resumes via
  // REPLAY_FROM from the last contiguous seq.
  frag::TagStructure ts = MustParseTs(kPacketTs);
  const std::string ts_xml = ts.ToXml();
  auto listener = ListenOn(0);
  ASSERT_TRUE(listener.ok());
  auto port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok());

  std::vector<std::string> frames;
  for (int i = 0; i < 4; ++i) {
    auto payload = frag::EncodeWirePayload(MakePacket(i + 1, 1000 + i, i),
                                           ts, frag::WireCodec::kPlainXml);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    frames.push_back(MustEncode({FrameType::kFragment, 0,
                                 static_cast<uint64_t>(i),
                                 std::move(payload).MoveValue()}));
  }

  int64_t first_replay = -7;
  int64_t second_replay = -7;
  std::thread half_dead([&] {
    // Session 1 delivers seqs 0-1 and then goes silent (never heartbeats,
    // never FINs). Session 2 serves the resumed tail.
    first_replay =
        ServeOneSession(listener.value(), ts_xml, frames, {0, 1});
    second_replay =
        ServeOneSession(listener.value(), ts_xml, frames, {2, 3});
  });

  FragmentSubscriberOptions opts;
  opts.port = port.value();
  opts.stream = "pkts";
  opts.liveness_timeout = 200ms;
  opts.backoff_initial = 10ms;
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  const bool caught_up = sub.WaitForSeq(3, 10s);
  const MetricsSnapshot m = sub.metrics();
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  sub.Stop();
  listener.value().Shutdown();
  half_dead.join();

  EXPECT_TRUE(caught_up);
  EXPECT_EQ(first_replay, -1);  // cold start
  EXPECT_EQ(second_replay, 1);  // resume from the last contiguous seq
  EXPECT_GE(m.liveness_timeouts, 1);
  EXPECT_GE(m.reconnects, 1);
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, static_cast<int64_t>(i + 1));
  }
}

// Like ServeOneSession, but after delivering the first two frames it keeps
// heartbeating a published count that covers all of them — a loss the
// subscriber can only notice through the heartbeat — until the peer asks
// for a catch-up replay, which it then serves.
struct LaggingResult {
  int64_t initial_replay = -100;
  int64_t catchup_from = -100;
};

LaggingResult ServeLaggingSession(const Socket& listener,
                                  const std::string& ts_xml,
                                  const std::vector<std::string>& frames) {
  LaggingResult result;
  auto accepted = Accept(listener);
  if (!accepted.ok()) return result;
  Socket conn = std::move(accepted).MoveValue();
  FrameReader reader;
  char buf[4096];
  bool handshaken = false;
  while (result.initial_replay == -100) {
    auto n = conn.Recv(buf, sizeof(buf));
    if (!n.ok() || n.value() == 0) return result;
    reader.Feed(buf, n.value());
    for (;;) {
      auto next = reader.Next();
      if (!next.ok()) return result;
      if (!next.value().has_value()) break;
      Frame fr = std::move(*next.value());
      if (!handshaken && fr.type == FrameType::kHello) {
        Hello ack;
        ack.stream_name = "pkts";
        ack.ts_hash = TagStructureHash(ts_xml);
        ack.tag_structure_xml = ts_xml;
        auto hello_r = EncodeFrame({FrameType::kHello, 0, 0, EncodeHello(ack)});
        if (!hello_r.ok()) return result;
        const std::string& hello = hello_r.value();
        if (!conn.SendAll(hello.data(), hello.size()).ok()) return result;
        handshaken = true;
      } else if (fr.type == FrameType::kReplayFrom) {
        auto from = DecodeReplayFrom(fr.payload);
        if (!from.ok()) return result;
        result.initial_replay = from.value();
      }
    }
  }
  for (int idx : {0, 1}) {
    if (!conn.SendAll(frames[idx].data(), frames[idx].size()).ok()) {
      return result;
    }
  }
  const std::string hb = MustEncode(
      {FrameType::kHeartbeat, 0, static_cast<uint64_t>(frames.size()), ""});
  while (result.catchup_from == -100) {
    if (!conn.SendAll(hb.data(), hb.size()).ok()) return result;
    bool timed_out = false;
    auto n = conn.RecvTimeout(buf, sizeof(buf), 40ms, &timed_out);
    if (!n.ok()) return result;
    if (timed_out) continue;
    if (n.value() == 0) return result;
    reader.Feed(buf, n.value());
    for (;;) {
      auto next = reader.Next();
      if (!next.ok()) return result;
      if (!next.value().has_value()) break;
      if (next.value()->type == FrameType::kReplayFrom) {
        auto from = DecodeReplayFrom(next.value()->payload);
        if (from.ok()) result.catchup_from = from.value();
      }
    }
  }
  for (size_t i = static_cast<size_t>(result.catchup_from) + 1;
       i < frames.size(); ++i) {
    if (!conn.SendAll(frames[i].data(), frames[i].size()).ok()) {
      return result;
    }
  }
  for (;;) {  // hold until the peer closes
    auto n = conn.Recv(buf, sizeof(buf));
    if (!n.ok() || n.value() == 0) break;
  }
  return result;
}

TEST(FragmentSubscriberTest, HeartbeatLagTriggersInSessionCatchup) {
  // Frames evicted before the subscriber ever saw them leave no seq gap
  // on the wire; the only witness is the heartbeat's published count
  // running ahead of a stalled contiguous prefix. Two lagging heartbeats
  // in a row must trigger an in-session REPLAY_FROM — no reconnect.
  frag::TagStructure ts = MustParseTs(kPacketTs);
  const std::string ts_xml = ts.ToXml();
  auto listener = ListenOn(0);
  ASSERT_TRUE(listener.ok());
  auto port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok());

  std::vector<std::string> frames;
  for (int i = 0; i < 4; ++i) {
    auto payload = frag::EncodeWirePayload(MakePacket(i + 1, 1000 + i, i),
                                           ts, frag::WireCodec::kPlainXml);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    frames.push_back(MustEncode({FrameType::kFragment, 0,
                                 static_cast<uint64_t>(i),
                                 std::move(payload).MoveValue()}));
  }

  LaggingResult result;
  std::thread lagging([&] {
    result = ServeLaggingSession(listener.value(), ts_xml, frames);
  });

  FragmentSubscriberOptions opts;
  opts.port = port.value();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  const bool caught_up = sub.WaitForSeq(3, 10s);
  const MetricsSnapshot m = sub.metrics();
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  sub.Stop();
  listener.value().Shutdown();
  lagging.join();

  EXPECT_TRUE(caught_up);
  EXPECT_EQ(result.initial_replay, -1);
  EXPECT_EQ(result.catchup_from, 1);  // "I have up to seq 1"
  EXPECT_GE(m.catchup_replays, 1);
  EXPECT_EQ(m.reconnects, 0);  // recovered inside the session
  EXPECT_EQ(m.gaps_detected, 0);
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, static_cast<int64_t>(i + 1));
  }
}

TEST(FragmentSubscriberTest, PoisonFrameIsQuarantinedWithoutReconnect) {
  // A frame whose checksum verifies but whose payload does not decode is
  // publisher poison, not transport noise: retrying the connection would
  // refetch the same bytes forever. It must be quarantined and skipped.
  frag::TagStructure ts = MustParseTs(kPacketTs);
  const std::string ts_xml = ts.ToXml();
  auto listener = ListenOn(0);
  ASSERT_TRUE(listener.ok());
  auto port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok());

  const std::string kGarbage = "not a wire payload";
  std::vector<std::string> frames;
  auto p0 = frag::EncodeWirePayload(MakePacket(1, 1000, 0), ts,
                                    frag::WireCodec::kPlainXml);
  auto p2 = frag::EncodeWirePayload(MakePacket(3, 1002, 2), ts,
                                    frag::WireCodec::kPlainXml);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p2.ok());
  frames.push_back(
      MustEncode({FrameType::kFragment, 0, 0, std::move(p0).MoveValue()}));
  frames.push_back(MustEncode({FrameType::kFragment, 0, 1, kGarbage}));
  frames.push_back(
      MustEncode({FrameType::kFragment, 0, 2, std::move(p2).MoveValue()}));

  int64_t replay = -7;
  std::thread poisoner([&] {
    replay = ServeOneSession(listener.value(), ts_xml, frames, {0, 1, 2});
  });

  FragmentSubscriberOptions opts;
  opts.port = port.value();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  const bool caught_up = sub.WaitForSeq(2, 10s);
  const MetricsSnapshot m = sub.metrics();
  auto poison = sub.poison_log();
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  sub.Stop();
  listener.value().Shutdown();
  poisoner.join();

  EXPECT_TRUE(caught_up);
  EXPECT_EQ(replay, -1);
  EXPECT_EQ(m.fragments_in, 2);
  EXPECT_EQ(m.poison_quarantined, 1);
  EXPECT_EQ(m.reconnects, 0);
  EXPECT_EQ(m.gaps_detected, 0);
  ASSERT_EQ(poison.size(), 1u);
  EXPECT_EQ(poison[0].seq, 1);
  EXPECT_EQ(poison[0].payload_bytes, kGarbage.size());
  EXPECT_FALSE(poison[0].error.empty());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 1);
  EXPECT_EQ(got[1].id, 3);
}

TEST(FragmentSubscriberTest, NackRepairsAMissingFiller) {
  // The full NACK loop against a real server: a filler's fragments are
  // "lost" downstream of the subscriber, the store reports the dangling
  // hole, RepairMissing NACKs it upstream, the server re-sends the
  // original frames repeat-flagged, and the store converges to the
  // reference view.
  std::string ts_xml = xmark::AuctionTagStructureXml();
  stream::StreamServer source("auction", MustParseTs(ts_xml));
  stream::StreamHub reference;
  ASSERT_TRUE(reference.Subscribe(&source).ok());
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "auction";
  opts.repair_retry_interval = 30ms;
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(10s));

  xmark::XMarkOptions gen;
  gen.scale = 0.0;
  auto doc = xmark::GenerateAuctionDoc(gen);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(source.PublishDocument(*doc.value()).ok());
  const int64_t last = server.next_seq() - 1;
  ASSERT_TRUE(sub.WaitForSeq(last, 30s));
  ASSERT_TRUE(sub.connected());

  // The victim: the first filler the root fragment's holes reference —
  // guaranteed to leave a dangling hole when its fragments go missing.
  std::vector<int64_t> root_holes;
  CollectHoleIds(*source.history_at(0).content, &root_holes);
  ASSERT_FALSE(root_holes.empty());
  const int64_t victim = root_holes[0];

  stream::StreamHub hub;
  auto store_r = hub.AddLocalStream("auction", MustParseTs(ts_xml));
  ASSERT_TRUE(store_r.ok());
  frag::FragmentStore* store = store_r.value();
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  int filtered = 0;
  for (auto& f : got) {
    if (f.id == victim) {
      ++filtered;  // "lost" between transport and store
      continue;
    }
    ASSERT_TRUE(store->Insert(std::move(f)).ok());
  }
  ASSERT_GE(filtered, 1);
  auto missing = store->MissingFillers();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], victim);

  auto sweep1 = sub.RepairMissing(*store);
  ASSERT_TRUE(sweep1.ok()) << sweep1.status().ToString();
  EXPECT_EQ(sweep1.value().missing, 1);
  EXPECT_EQ(sweep1.value().nacks_sent, 1);

  ASSERT_TRUE(PollFor(
      [&] {
        auto drained = sub.DrainInto(store);
        return drained.ok() && store->MissingFillers().empty();
      },
      10s));

  auto sweep2 = sub.RepairMissing(*store);
  ASSERT_TRUE(sweep2.ok());
  EXPECT_EQ(sweep2.value().missing, 0);
  EXPECT_EQ(sweep2.value().repaired_total, 1);
  EXPECT_EQ(sweep2.value().lost_total, 0);

  const frag::FragmentStore* ref = reference.store("auction");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(store->size(), ref->size());
  EXPECT_EQ(ViewOf(*store), ViewOf(*ref));
  auto m = sub.metrics();
  EXPECT_EQ(m.nacks_sent, 1);
  EXPECT_EQ(m.fillers_repaired, 1);
  EXPECT_EQ(m.fillers_lost, 0);
  EXPECT_GE(server.metrics().repeat_requests_in, 1);
  EXPECT_GE(server.metrics().repeats_out, 1);

  sub.Stop();
  server.Stop();
}

TEST(FragmentSubscriberTest, RepairBudgetExhaustionDegradesInsteadOfWedging) {
  // A server that never answers NACKs must not wedge the pipeline: after
  // the retry budget the filler is declared lost, and each HolePolicy
  // degrades the materialized view its own way.
  frag::TagStructure ts = MustParseTs(kPacketTs);
  const std::string ts_xml = ts.ToXml();
  auto listener = ListenOn(0);
  ASSERT_TRUE(listener.ok());
  auto port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok());

  // One root fragment whose <packet> child (filler 5) never arrives.
  frag::Fragment root;
  root.id = 0;
  root.tsid = 1;
  root.valid_time = DateTime(1000);
  root.content = Node::Element("packets");
  root.content->AddChild(frag::MakeHole(5, 2));
  auto payload =
      frag::EncodeWirePayload(root, ts, frag::WireCodec::kPlainXml);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  std::vector<std::string> frames{MustEncode(
      {FrameType::kFragment, 0, 0, std::move(payload).MoveValue()})};

  int64_t replay = -7;
  std::thread deaf([&] {
    // Handshakes and serves the root, then swallows every NACK.
    replay = ServeOneSession(listener.value(), ts_xml, frames, {0});
  });

  FragmentSubscriberOptions opts;
  opts.port = port.value();
  opts.stream = "pkts";
  opts.repair_retry_budget = 2;
  opts.repair_retry_interval = 30ms;
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitForSeq(0, 10s));
  ASSERT_TRUE(PollFor([&] { return sub.connected(); }, 5s));

  stream::StreamHub hub;
  auto store_r = hub.AddLocalStream("pkts", MustParseTs(ts_xml));
  ASSERT_TRUE(store_r.ok());
  frag::FragmentStore* store = store_r.value();
  ASSERT_TRUE(sub.DrainInto(store).ok());
  ASSERT_EQ(store->MissingFillers().size(), 1u);

  RepairSummary last_sweep;
  ASSERT_TRUE(PollFor(
      [&] {
        auto sweep = sub.RepairMissing(*store);
        if (!sweep.ok()) return false;
        last_sweep = sweep.value();
        return last_sweep.lost_total >= 1;
      },
      10s));
  const MetricsSnapshot m = sub.metrics();
  sub.Stop();
  listener.value().Shutdown();
  deaf.join();

  EXPECT_EQ(replay, -1);
  EXPECT_EQ(last_sweep.lost_total, 1);
  EXPECT_EQ(last_sweep.repaired_total, 0);
  EXPECT_EQ(m.nacks_sent, 2);  // exactly the budget
  EXPECT_EQ(m.fillers_lost, 1);
  EXPECT_EQ(m.fillers_repaired, 0);

  // Degraded-mode temporalization over the unrepairable store.
  frag::TemporalizeStats stats;
  auto omitted =
      frag::Temporalize(*store, false, xq::HolePolicy::kOmit, &stats);
  ASSERT_TRUE(omitted.ok()) << omitted.status().ToString();
  EXPECT_EQ(stats.unresolved_holes, 1);
  EXPECT_TRUE(omitted.value()->children().empty());

  EXPECT_FALSE(
      frag::Temporalize(*store, false, xq::HolePolicy::kFail).ok());

  stats = {};
  auto kept =
      frag::Temporalize(*store, false, xq::HolePolicy::kKeepHole, &stats);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(stats.unresolved_holes, 1);
  ASSERT_EQ(kept.value()->children().size(), 1u);
  const Node& hole = *kept.value()->children()[0];
  EXPECT_TRUE(frag::IsHoleElement(hole));
  auto hole_id = frag::HoleId(hole);
  ASSERT_TRUE(hole_id.ok());
  EXPECT_EQ(hole_id.value(), 5);
}

// ---- Chaos soak -------------------------------------------------------------

TEST(NetChaosTest, SoakConvergesToTheCleanViewThroughFaults) {
  // The headline robustness scenario: an XMark stream with hundreds of
  // updates served through a deterministic chaos link that drops,
  // duplicates, reorders, corrupts, and truncates. The subscriber must
  // survive every fault class and — with NACK repair for the fillers
  // withheld downstream — converge to a store byte-identical to a clean
  // in-process reference.
  std::string ts_xml = xmark::AuctionTagStructureXml();
  stream::StreamServer source("auction", MustParseTs(ts_xml));
  stream::StreamHub reference;
  ASSERT_TRUE(reference.Subscribe(&source).ok());

  FragmentServerOptions sopts;
  sopts.queue_capacity = 4096;
  sopts.heartbeat_interval = 100ms;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  ChaosLinkOptions chaos_opts;
  chaos_opts.upstream_port = server.port();
  chaos_opts.seed = 42;
  chaos_opts.faults.drop = 0.02;
  chaos_opts.faults.duplicate = 0.02;
  chaos_opts.faults.reorder = 0.02;
  chaos_opts.faults.corrupt = 0.02;
  chaos_opts.faults.truncate = 0.01;
  ChaosLink chaos(chaos_opts);
  ASSERT_TRUE(chaos.Start().ok());

  FragmentSubscriberOptions opts;
  opts.port = chaos.port();
  opts.stream = "auction";
  opts.backoff_initial = 10ms;
  opts.backoff_max = 100ms;
  opts.repair_retry_interval = 50ms;
  opts.repair_retry_budget = 50;
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(30s));

  xmark::XMarkOptions gen;
  gen.scale = 0.0;
  auto doc = xmark::GenerateAuctionDoc(gen);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(source.PublishDocument(*doc.value()).ok());

  // Victims: fillers the root references, withheld from the local store
  // downstream of the subscriber so only NACK repair can recover them.
  // They are excluded from the update mix so each has exactly one frame
  // and a repair is all-or-nothing: either the repeat lands intact or the
  // filler stays missing and is NACKed again (repair granularity is the
  // filler id — docs/ROBUSTNESS.md).
  std::vector<int64_t> root_holes;
  CollectHoleIds(*source.history_at(0).content, &root_holes);
  ASSERT_GE(root_holes.size(), 3u);
  std::vector<int64_t> victims(root_holes.begin(), root_holes.begin() + 3);
  auto is_victim = [&](int64_t id) {
    return std::find(victims.begin(), victims.end(), id) != victims.end();
  };

  std::vector<int64_t> candidates;
  for (int64_t i = 0; i < source.history_size(); ++i) {
    const auto& f = source.history_at(i);
    const auto* tag = source.tag_structure().FindById(f.tsid);
    if (tag != nullptr && tag->fragmented() && !is_victim(f.id)) {
      candidates.push_back(i);
    }
  }
  ASSERT_FALSE(candidates.empty());

  constexpr int kUpdates = 400;
  Random rng(17);
  int64_t t =
      source.history_at(source.history_size() - 1).valid_time.seconds();
  for (int u = 0; u < kUpdates; ++u) {
    const auto& base = source.history_at(static_cast<int64_t>(
        candidates[rng.Uniform(candidates.size())]));
    frag::Fragment f;
    f.id = base.id;
    f.tsid = base.tsid;
    t += 1 + static_cast<int64_t>(rng.Uniform(30));
    f.valid_time = DateTime(t);
    f.content = base.content->Clone();
    f.content->SetAttr("rev", std::to_string(u + 1));
    ASSERT_TRUE(source.Publish(std::move(f)).ok());
  }
  const int64_t last = server.next_seq() - 1;
  ASSERT_TRUE(sub.WaitForSeq(last, 120s))
      << "stuck at seq " << sub.last_seq() << " of " << last;

  stream::StreamHub hub;
  auto store_r = hub.AddLocalStream("auction", MustParseTs(ts_xml));
  ASSERT_TRUE(store_r.ok());
  frag::FragmentStore* store = store_r.value();
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  for (auto& f : got) {
    if (is_victim(f.id)) continue;  // "lost" downstream of the transport
    ASSERT_TRUE(store->Insert(std::move(f)).ok());
  }
  ASSERT_EQ(store->MissingFillers().size(), victims.size());

  // Repair loop: NACK, drain, re-check — chaos may eat repeats too, so
  // keep sweeping until every hole fills (the retry budget is generous).
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (!store->MissingFillers().empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << store->MissingFillers().size() << " fillers still missing";
    auto sweep = sub.RepairMissing(*store);
    ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
    ASSERT_EQ(sweep.value().lost_total, 0) << "a filler ran out of budget";
    std::this_thread::sleep_for(20ms);
    ASSERT_TRUE(sub.DrainInto(store).ok());
  }
  auto final_sweep = sub.RepairMissing(*store);
  ASSERT_TRUE(final_sweep.ok());
  EXPECT_EQ(final_sweep.value().missing, 0);
  EXPECT_GE(final_sweep.value().repaired_total,
            static_cast<int>(victims.size()));
  EXPECT_EQ(final_sweep.value().lost_total, 0);

  // Byte-identical convergence with the clean in-process reference.
  const frag::FragmentStore* ref = reference.store("auction");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(store->size(), ref->size());
  EXPECT_EQ(ViewOf(*store), ViewOf(*ref));

  // The run actually exercised the fault paths.
  const MetricsSnapshot m = sub.metrics();
  EXPECT_GE(m.frames_corrupt, 1);
  EXPECT_GE(m.nacks_sent, static_cast<int64_t>(victims.size()));
  EXPECT_GE(m.fillers_repaired, static_cast<int64_t>(victims.size()));
  EXPECT_EQ(m.fillers_lost, 0);
  EXPECT_GE(m.reconnects, 1);
  EXPECT_GE(server.metrics().repeat_requests_in,
            static_cast<int64_t>(victims.size()));
  const ChaosStats cs = chaos.stats();
  EXPECT_GE(cs.corrupted, 1);
  EXPECT_GE(cs.dropped + cs.duplicated + cs.reordered + cs.corrupted +
                cs.truncated,
            10);

  sub.Stop();
  chaos.Stop();
  server.Stop();
}

// ---- Version-aware NACK repair ----------------------------------------------

TEST(FragmentSubscriberTest, VersionAwareNackFetchesOnlyMissingVersions) {
  // A filler with three versions, of which only the first survived the
  // trip into the store. MissingFillers() can't see it (the filler isn't
  // missing, just incomplete); RepairVersions NACKs it with the held
  // validTimes and the server re-sends exactly the two absent versions.
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  opts.repair_retry_interval = 30ms;
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(10s));

  for (int v = 0; v < 3; ++v) {
    ASSERT_TRUE(source.Publish(MakePacket(5, 100 + v * 100, v)).ok());
  }
  ASSERT_TRUE(sub.WaitForSeq(2, 10s));
  ASSERT_TRUE(sub.connected());

  stream::StreamHub hub;
  auto store_r = hub.AddLocalStream("pkts", MustParseTs(kPacketTs));
  ASSERT_TRUE(store_r.ok());
  frag::FragmentStore* store = store_r.value();
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  ASSERT_EQ(got.size(), 3u);
  for (auto& f : got) {
    if (f.valid_time.seconds() != 100) continue;  // versions 2+3 "lost"
    ASSERT_TRUE(store->Insert(std::move(f)).ok());
  }
  ASSERT_EQ(store->VersionTimes(5), (std::vector<int64_t>{100}));
  ASSERT_TRUE(store->MissingFillers().empty());  // invisible to the sweep

  const int64_t replays_before = server.metrics().replays_served;
  ASSERT_TRUE(sub.RepairVersions(5, *store).ok());
  ASSERT_TRUE(PollFor(
      [&] {
        auto drained = sub.DrainInto(store);
        return drained.ok() && store->VersionTimes(5).size() == 3;
      },
      10s));
  EXPECT_EQ(store->VersionTimes(5),
            (std::vector<int64_t>{100, 200, 300}));
  EXPECT_EQ(store->size(), 3u);  // exactly the two absent versions arrived

  // The server filtered by the have-list: two repeats, not three, and the
  // repair never fell back to a full replay.
  EXPECT_EQ(server.metrics().repeats_out, 2);
  EXPECT_EQ(server.metrics().repeat_requests_in, 1);
  EXPECT_EQ(server.metrics().replays_served, replays_before);
  EXPECT_EQ(sub.metrics().nacks_sent, 1);

  // The next sweep observes the version count grew and closes the repair.
  auto sweep = sub.RepairMissing(*store);
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().repaired_total, 1);
  EXPECT_EQ(sweep.value().lost_total, 0);
  EXPECT_EQ(sub.metrics().fillers_repaired, 1);

  sub.Stop();
  server.Stop();
}

// ---- Control-plane robustness -----------------------------------------------

TEST(FragmentServerTest, MalformedControlPayloadsAreCountedAndDropped) {
  // A well-framed, checksum-valid control frame whose payload does not
  // decode must not kill the session (one buggy client frame would
  // otherwise take down a live subscription): the server counts it, drops
  // it, and keeps serving the same connection.
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(source.Publish(MakePacket(1, 1000, 7)).ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  auto send_all = [&](const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  };
  Hello hello;
  hello.stream_name = "pkts";
  send_all(MustEncode({FrameType::kHello, 0, 0, EncodeHello(hello)}));

  FrameReader reader;
  char buf[4096];
  auto read_frame = [&]() -> Frame {
    for (;;) {
      auto next = reader.Next();
      EXPECT_TRUE(next.ok());
      if (next.ok() && next.value().has_value()) return *next.value();
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      EXPECT_GT(n, 0) << "server closed the connection";
      if (n <= 0) return Frame{};
      reader.Feed(buf, static_cast<size_t>(n));
    }
  };
  ASSERT_EQ(read_frame().type, FrameType::kHello);

  // Two undecodable control payloads, post-handshake.
  send_all(MustEncode({FrameType::kReplayFrom, 0, 0, "zz"}));
  send_all(MustEncode({FrameType::kRepeatRequest, 0, 0, "short-bad"}));
  ASSERT_TRUE(PollFor(
      [&] { return server.metrics().bad_control_frames == 2; }, 5s));

  // The session survived: a valid replay on the same connection streams
  // the published fragment.
  send_all(MustEncode({FrameType::kReplayFrom, 0, 0, EncodeReplayFrom(-1)}));
  Frame frame;
  do {
    frame = read_frame();
  } while (frame.type == FrameType::kHeartbeat);
  EXPECT_EQ(frame.type, FrameType::kFragment);
  EXPECT_EQ(frame.seq, 0u);
  EXPECT_EQ(server.metrics().bad_control_frames, 2);

  ::close(fd);
  server.Stop();
}

// A root snapshot (filler 0) whose holes dangle to the packet fillers, so
// the store temporalizes into a complete document for ViewOf comparisons.
frag::Fragment MakeRoot(const std::vector<int64_t>& hole_ids) {
  frag::Fragment f;
  f.id = 0;
  f.tsid = 1;
  f.valid_time = DateTime(999);
  f.content = Node::Element("packets");
  for (int64_t id : hole_ids) f.content->AddChild(frag::MakeHole(id, 2));
  return f;
}

TEST(NetChaosTest, ControlPlaneChaosIsCountedAndSurvived) {
  // fault_control mangles the client→server direction: HELLOs, REPLAY_FROMs
  // and NACKs arrive with flipped payload bits. The server must count and
  // drop every mangled request without crashing or wedging the session,
  // and the subscriber's retry + catch-up machinery must still converge —
  // including NACK repair, whose REPEAT_REQUESTs roll against the same
  // corruption.
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServerOptions sopts;
  sopts.heartbeat_interval = 50ms;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  ChaosLinkOptions chaos_opts;
  chaos_opts.upstream_port = server.port();
  chaos_opts.seed = 7;
  chaos_opts.faults.control_corrupt = 0.45;
  chaos_opts.fault_control = true;
  ChaosLink chaos(chaos_opts);
  ASSERT_TRUE(chaos.Start().ok());

  ASSERT_TRUE(source.Publish(MakeRoot({1, 2})).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(1 + i % 2, 1000 + i * 10, i)).ok());
  }

  FragmentSubscriberOptions opts;
  opts.port = chaos.port();
  opts.stream = "pkts";
  opts.backoff_initial = 5ms;
  opts.backoff_max = 50ms;
  opts.repair_retry_interval = 20ms;
  opts.repair_retry_budget = 100;
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  {
    const bool converged = sub.WaitForSeq(20, 60s);
    const MetricsSnapshot dm = sub.metrics();
    const ChaosStats dcs = chaos.stats();
    const MetricsSnapshot dsm = server.metrics();
    ASSERT_TRUE(converged)
        << "stuck at seq " << sub.last_seq() << " fatal="
        << sub.handshake_failed() << " reconnects=" << dm.reconnects
        << " handshake_failures=" << dm.handshake_failures
        << " replays=" << dm.replays_requested
        << " catchup=" << dm.catchup_replays
        << " liveness=" << dm.liveness_timeouts
        << " frames_in=" << dm.fragments_in
        << " | chaos conns=" << dcs.connections
        << " ctrl=" << dcs.control_frames << "/" << dcs.control_corrupted
        << " | srv hs_fail=" << dsm.handshake_failures
        << " corrupt=" << dsm.frames_corrupt
        << " bad_ctrl=" << dsm.bad_control_frames
        << " replays_served=" << dsm.replays_served;
  }

  // Withhold filler 2 downstream so only NACK repair can recover it.
  frag::FragmentStore store(MustParseTs(kPacketTs), "pkts");
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  for (auto& f : got) {
    if (f.id == 2) continue;
    ASSERT_TRUE(store.Insert(std::move(f)).ok());
  }
  ASSERT_EQ(store.MissingFillers().size(), 1u);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (!store.MissingFillers().empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "filler 2 still missing";
    auto sweep = sub.RepairMissing(store);
    ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
    ASSERT_EQ(sweep.value().lost_total, 0)
        << "repeat_requests_in=" << server.metrics().repeat_requests_in
        << " repeats_out=" << server.metrics().repeats_out
        << " bad_ctrl=" << server.metrics().bad_control_frames
        << " srv_corrupt=" << server.metrics().frames_corrupt
        << " nacks_sent=" << sub.metrics().nacks_sent
        << " connected=" << sub.connected()
        << " sub_frames_in=" << sub.metrics().frames_in
        << " sub_fragments_in=" << sub.metrics().fragments_in
        << " sub_corrupt=" << sub.metrics().frames_corrupt
        << " sub_gaps=" << sub.metrics().gaps_detected
        << " sub_reconnects=" << sub.metrics().reconnects
        << " sub_poison=" << sub.metrics().poison_quarantined;
    std::this_thread::sleep_for(20ms);
    ASSERT_TRUE(sub.DrainInto(&store).ok());
  }

  frag::FragmentStore ref(MustParseTs(kPacketTs), "pkts");
  ASSERT_TRUE(ref.Insert(MakeRoot({1, 2})).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ref.Insert(MakePacket(1 + i % 2, 1000 + i * 10, i)).ok());
  }
  EXPECT_EQ(ViewOf(store), ViewOf(ref));

  // The run actually attacked the control plane, and the server absorbed
  // every mangled frame into a counter instead of dying: each corrupted
  // control frame surfaces as a checksum drop, an undecodable payload, or
  // a failed handshake.
  const ChaosStats cs = chaos.stats();
  EXPECT_GE(cs.control_frames, 2);
  EXPECT_GE(cs.control_corrupted, 1);
  const MetricsSnapshot sm = server.metrics();
  EXPECT_GE(sm.frames_corrupt + sm.bad_control_frames +
                sm.handshake_failures,
            1);

  // The server is still healthy: a clean direct subscriber converges.
  FragmentSubscriberOptions clean_opts;
  clean_opts.port = server.port();
  clean_opts.stream = "pkts";
  FragmentSubscriber clean(clean_opts);
  ASSERT_TRUE(clean.Start().ok());
  EXPECT_TRUE(clean.WaitForSeq(20, 10s));
  clean.Stop();

  sub.Stop();
  chaos.Stop();
  server.Stop();
}

// ---- Durability: restart, epoch reset, crash soak ---------------------------

namespace fs = std::filesystem;

class WalTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/xcql_net_wal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    WalHooks::Install(nullptr);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(WalTransportTest, ServerRestartFromWalResumesSubscribers) {
  frag::FragmentStore store(MustParseTs(kPacketTs), "pkts");
  int64_t saved_last = -1;
  uint64_t saved_epoch = 0;

  // First life: durable server, four fragments, one subscriber.
  {
    WalRecovery rec;
    auto wal = Wal::Open(dir_ + "/wal", "pkts", kPacketTs, WalOptions{},
                         &rec);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(rec.records.empty());
    stream::StreamServer source("pkts", MustParseTs(kPacketTs));
    FragmentServerOptions sopts;
    sopts.wal = wal.value().get();
    FragmentServer server(&source, sopts);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(source.Publish(MakeRoot({1, 2})).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(source.Publish(MakePacket(1 + i % 2, 1000 + i * 10, i))
                      .ok());
    }
    FragmentSubscriberOptions opts;
    opts.port = server.port();
    opts.stream = "pkts";
    FragmentSubscriber sub(opts);
    ASSERT_TRUE(sub.Start().ok());
    ASSERT_TRUE(sub.WaitForSeq(4, 10s));
    ASSERT_TRUE(sub.DrainInto(&store).ok());
    saved_last = sub.last_seq();
    saved_epoch = sub.server_epoch();
    EXPECT_EQ(saved_last, 4);
    EXPECT_EQ(saved_epoch, wal.value()->epoch());
    ASSERT_NE(saved_epoch, 0u);
    sub.Stop();
    server.Stop();
    ASSERT_TRUE(wal.value()->Close().ok());
  }

  // Second life: recover from disk, publish more, and a subscriber that
  // resumes from its persisted (last_seq, epoch) receives only the new
  // frames — no re-replay of what it already holds.
  {
    WalRecovery rec;
    auto wal = Wal::Open(dir_ + "/wal", "pkts", kPacketTs, WalOptions{},
                         &rec);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(rec.records.size(), 5u);
    ASSERT_EQ(rec.epoch, saved_epoch);
    stream::StreamServer source("pkts", MustParseTs(kPacketTs));
    ASSERT_TRUE(RestoreStream(rec, &source).ok());
    FragmentServerOptions sopts;
    sopts.wal = wal.value().get();
    FragmentServer server(&source, sopts);
    ASSERT_TRUE(server.Start().ok());
    for (int i = 4; i < 6; ++i) {
      ASSERT_TRUE(source.Publish(MakePacket(1 + i % 2, 1000 + i * 10, i))
                      .ok());
    }
    FragmentSubscriberOptions opts;
    opts.port = server.port();
    opts.stream = "pkts";
    opts.initial_last_seq = saved_last;
    opts.known_epoch = saved_epoch;
    FragmentSubscriber sub(opts);
    ASSERT_TRUE(sub.Start().ok());
    ASSERT_TRUE(sub.WaitForSeq(6, 10s));
    EXPECT_EQ(sub.server_epoch(), saved_epoch);
    EXPECT_EQ(sub.metrics().epoch_resets, 0);
    EXPECT_EQ(sub.metrics().fragments_in, 2);  // seqs 5 and 6 only
    ASSERT_TRUE(sub.DrainInto(&store).ok());
    sub.Stop();
    server.Stop();
  }

  // The resumed store equals a clean single-life reference, byte for byte.
  frag::FragmentStore ref(MustParseTs(kPacketTs), "pkts");
  ASSERT_TRUE(ref.Insert(MakeRoot({1, 2})).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(ref.Insert(MakePacket(1 + i % 2, 1000 + i * 10, i)).ok());
  }
  EXPECT_EQ(store.size(), ref.size());
  EXPECT_EQ(ViewOf(store), ViewOf(ref));
}

TEST_F(WalTransportTest, EpochChangeDiscardsResumeStateAndReplaysAll) {
  int64_t saved_last = -1;
  uint64_t saved_epoch = 0;
  {
    WalRecovery rec;
    auto wal = Wal::Open(dir_ + "/wal", "pkts", kPacketTs, WalOptions{},
                         &rec);
    ASSERT_TRUE(wal.ok());
    stream::StreamServer source("pkts", MustParseTs(kPacketTs));
    FragmentServerOptions sopts;
    sopts.wal = wal.value().get();
    FragmentServer server(&source, sopts);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(source.Publish(MakePacket(1, 1000, 0)).ok());
    ASSERT_TRUE(source.Publish(MakePacket(1, 1010, 1)).ok());
    FragmentSubscriberOptions opts;
    opts.port = server.port();
    opts.stream = "pkts";
    FragmentSubscriber sub(opts);
    ASSERT_TRUE(sub.Start().ok());
    ASSERT_TRUE(sub.WaitForSeq(1, 10s));
    saved_last = sub.last_seq();
    saved_epoch = sub.server_epoch();
    ASSERT_NE(saved_epoch, 0u);
    sub.Stop();
    server.Stop();
    ASSERT_TRUE(wal.value()->Close().ok());
  }

  // The data dir is wiped: a new epoch, a different history. A subscriber
  // resuming with the old (last_seq, epoch) must detect the reset and
  // restart from scratch instead of mis-resuming seq numbers into an
  // unrelated stream.
  std::error_code ec;
  fs::remove_all(dir_ + "/wal", ec);
  WalRecovery rec;
  auto wal = Wal::Open(dir_ + "/wal", "pkts", kPacketTs, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());
  ASSERT_NE(wal.value()->epoch(), saved_epoch);
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServerOptions sopts;
  sopts.wal = wal.value().get();
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(9, 5000 + i * 10, 100 + i)).ok());
  }
  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  opts.initial_last_seq = saved_last;
  opts.known_epoch = saved_epoch;
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  // With the stale resume point discarded the full new history (3 frames,
  // seqs 0..2) replays; resuming from seq 1 would have delivered one.
  ASSERT_TRUE(sub.WaitForSeq(2, 10s));
  EXPECT_EQ(sub.metrics().epoch_resets, 1);
  EXPECT_EQ(sub.metrics().fragments_in, 3);
  EXPECT_EQ(sub.server_epoch(), wal.value()->epoch());
  frag::FragmentStore store(MustParseTs(kPacketTs), "pkts");
  ASSERT_TRUE(sub.DrainInto(&store).ok());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.VersionTimes(9), (std::vector<int64_t>{5000, 5010, 5020}));
  sub.Stop();
  server.Stop();
}

// A WAL append failure must not let durability end *silently*: the server
// keeps serving, but it retires the durable epoch for a freshly minted
// volatile one and restarts every subscriber on it. A resume point from
// the degraded run can then never splice into a post-restart stream whose
// WAL is missing the un-appended frames.
TEST_F(WalTransportTest, WalAppendFailureRetiresTheDurableEpoch) {
  WalRecovery rec;
  auto wal = Wal::Open(dir_ + "/wal", "pkts", kPacketTs, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServerOptions sopts;
  sopts.wal = wal.value().get();
  // This test is about the degrade protocol itself; with self-healing on,
  // the supervisor would re-arm the (healthy) disk before the assertions
  // run. The re-arm path is covered by disk_fault_test.cc.
  sopts.durability.self_heal = false;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(source.Publish(MakeRoot({1, 2})).ok());
  ASSERT_TRUE(source.Publish(MakePacket(1, 1000, 0)).ok());
  ASSERT_TRUE(source.Publish(MakePacket(2, 1010, 1)).ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitForSeq(2, 10s));
  const uint64_t durable_epoch = server.epoch();
  ASSERT_EQ(durable_epoch, wal.value()->epoch());
  ASSERT_NE(durable_epoch, 0u);
  ASSERT_FALSE(server.wal_degraded());

  // Fail every append from here on (a closed WAL rejects appends the same
  // way a full disk would). The next publish ends durability.
  ASSERT_TRUE(wal.value()->Close().ok());
  ASSERT_TRUE(source.Publish(MakePacket(1, 1020, 2)).ok());
  ASSERT_TRUE(source.Publish(MakePacket(2, 1030, 3)).ok());

  // The degrade cut the connection; the subscriber reconnects, sees the
  // volatile epoch, discards its resume state, and replays everything.
  ASSERT_TRUE(sub.WaitForSeq(4, 10s));
  EXPECT_TRUE(server.wal_degraded());
  EXPECT_NE(server.epoch(), durable_epoch);
  EXPECT_NE(server.epoch(), 0u);
  EXPECT_EQ(sub.server_epoch(), server.epoch());
  EXPECT_GE(sub.metrics().epoch_resets, 1);
  EXPECT_GE(server.metrics().wal_append_failures, 1);

  // Delivery itself never degraded: the subscriber holds all five
  // fragments, including the two the WAL rejected.
  frag::FragmentStore store(MustParseTs(kPacketTs), "pkts");
  ASSERT_TRUE(sub.DrainInto(&store).ok());
  frag::FragmentStore ref(MustParseTs(kPacketTs), "pkts");
  ASSERT_TRUE(ref.Insert(MakeRoot({1, 2})).ok());
  ASSERT_TRUE(ref.Insert(MakePacket(1, 1000, 0)).ok());
  ASSERT_TRUE(ref.Insert(MakePacket(2, 1010, 1)).ok());
  ASSERT_TRUE(ref.Insert(MakePacket(1, 1020, 2)).ok());
  ASSERT_TRUE(ref.Insert(MakePacket(2, 1030, 3)).ok());
  EXPECT_EQ(ViewOf(store), ViewOf(ref));
  sub.Stop();
  server.Stop();
}

// ---- Crash soak -------------------------------------------------------------

constexpr int kSoakRecords = 40;

frag::Fragment SoakFragment(int i) {
  // Record 0 is the root; after it, four fillers with ~ten versions each,
  // strictly increasing validTimes, padded so 512-byte WAL segments rotate
  // every couple of records.
  if (i == 0) return MakeRoot({10, 11, 12, 13});
  return MakePacket(10 + (i - 1) % 4, 1000 + i * 10, i, /*pad=*/100);
}

// The child's whole life: recover the WAL, serve, publish the rest of the
// workload — and die at `kill_point` (the `kill_at`th time it fires), if
// one is set. Exit codes: 43 = killed at the point, 0 = workload complete
// (waits for the parent's stop file), anything else = a real failure.
[[noreturn]] void RunSoakServer(const std::string& dir,
                                const char* kill_point, int kill_at) {
  if (kill_point != nullptr) {
    auto fired = std::make_shared<int>(0);
    std::string point = kill_point;
    WalHooks::Install([point, kill_at, fired](const char* p) {
      if (point == p && ++*fired >= kill_at) ::_exit(43);
    });
  }
  WalOptions wopts;
  wopts.fsync = FsyncPolicy::kAlways;
  wopts.segment_bytes = 512;
  wopts.checkpoint_every = 6;
  WalRecovery rec;
  auto wal = Wal::Open(dir + "/wal", "pkts", kPacketTs, wopts, &rec);
  if (!wal.ok()) ::_exit(99);
  auto ts = frag::TagStructure::Parse(kPacketTs);
  if (!ts.ok()) ::_exit(99);
  stream::StreamServer source("pkts", std::move(ts).MoveValue());
  if (!rec.records.empty() && !RestoreStream(rec, &source).ok()) ::_exit(98);
  FragmentServerOptions sopts;
  sopts.wal = wal.value().get();
  FragmentServer server(&source, sopts);
  if (!server.Start().ok()) ::_exit(97);
  // Announce the port atomically (write + rename) so the parent never
  // reads a half-written file.
  if (!WriteStringToFile(dir + "/port.tmp", std::to_string(server.port()))
           .ok()) {
    ::_exit(96);
  }
  if (::rename((dir + "/port.tmp").c_str(), (dir + "/port").c_str()) != 0) {
    ::_exit(96);
  }
  for (int64_t i = source.history_size(); i < kSoakRecords; ++i) {
    if (!source.Publish(SoakFragment(static_cast<int>(i))).ok()) ::_exit(95);
    std::this_thread::sleep_for(1ms);
  }
  WalHooks::Install(nullptr);
  (void)wal.value()->Sync();
  if (!WriteStringToFile(dir + "/complete", "done").ok()) ::_exit(94);
  for (int i = 0; i < 1000 && !fs::exists(dir + "/stop"); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  ::_exit(0);
}

TEST_F(WalTransportTest, CrashSoakConvergesByteIdenticalAcrossKills) {
  // The server is killed over and over mid-stream — at every WAL crash
  // point in turn, plus raw SIGKILL rounds — and restarted from its data
  // dir each time. A per-round subscriber resumes from the previous
  // round's (last_seq, epoch); across all the carnage the accumulated
  // store must converge byte-identical to a clean single-run reference.
  struct Spec {
    const char* point;  // nullptr = SIGKILL round
    int at;
  };
  std::vector<Spec> specs;
  for (const char* p : WalHooks::Points()) {
    const bool is_append = std::string(p).rfind("append:", 0) == 0;
    specs.push_back({p, is_append ? 4 : 2});
  }
  specs.push_back({nullptr, 0});
  specs.push_back({nullptr, 0});

  frag::FragmentStore ref(MustParseTs(kPacketTs), "pkts");
  for (int i = 0; i < kSoakRecords; ++i) {
    ASSERT_TRUE(ref.Insert(SoakFragment(i)).ok());
  }

  frag::FragmentStore store(MustParseTs(kPacketTs), "pkts");
  int64_t saved_last = -1;
  uint64_t saved_epoch = 0;
  int64_t epoch_resets = 0;
  int kills = 0;
  bool complete = false;
  for (int round = 0; !complete; ++round) {
    ASSERT_LT(round, 60) << "soak failed to make progress; stuck at seq "
                         << saved_last;
    const Spec& spec = specs[static_cast<size_t>(round) % specs.size()];
    std::error_code ec;
    fs::remove(dir_ + "/port", ec);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunSoakServer(dir_, spec.point, spec.at);  // never returns
    ASSERT_TRUE(PollFor([&] { return fs::exists(dir_ + "/port"); }, 10s));
    auto port_str = ReadFileToString(dir_ + "/port");
    ASSERT_TRUE(port_str.ok());

    FragmentSubscriberOptions opts;
    opts.port = static_cast<uint16_t>(std::atoi(port_str.value().c_str()));
    opts.stream = "pkts";
    opts.backoff_initial = 5ms;
    opts.backoff_max = 20ms;
    opts.initial_last_seq = saved_last;
    opts.known_epoch = saved_epoch;
    FragmentSubscriber sub(opts);
    ASSERT_TRUE(sub.Start().ok());
    (void)sub.WaitConnected(2s);  // best effort: the child may die first

    if (spec.point == nullptr) {
      // SIGKILL round: let it stream a moment, then pull the plug.
      std::this_thread::sleep_for(50ms);
      if (!fs::exists(dir_ + "/complete")) ::kill(pid, SIGKILL);
    }

    int status = 0;
    bool child_done = false;
    while (!child_done) {
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        child_done = true;
      } else if (fs::exists(dir_ + "/complete")) {
        // Final life: the whole workload is durable. Catch all the way
        // up, then release the child.
        EXPECT_TRUE(sub.WaitForSeq(kSoakRecords - 1, 30s))
            << "stuck at seq " << sub.last_seq();
        ASSERT_TRUE(WriteStringToFile(dir_ + "/stop", "").ok());
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        child_done = true;
      } else {
        std::this_thread::sleep_for(5ms);
      }
    }
    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      ASSERT_TRUE(code == 0 || code == 43) << "child failed, exit " << code;
      if (code == 0) complete = true;
      if (code == 43) ++kills;
    } else {
      ASSERT_TRUE(WIFSIGNALED(status));
      ++kills;
    }

    ASSERT_TRUE(sub.DrainInto(&store).ok());
    if (sub.last_seq() > saved_last) saved_last = sub.last_seq();
    if (sub.server_epoch() != 0) {
      if (saved_epoch == 0) saved_epoch = sub.server_epoch();
      // The data dir is never wiped, so the epoch must hold steady across
      // every crash and recovery.
      EXPECT_EQ(sub.server_epoch(), saved_epoch) << "round " << round;
    }
    epoch_resets += sub.metrics().epoch_resets;
    sub.Stop();
  }

  EXPECT_GE(kills, 5) << "the soak barely crashed anything";
  EXPECT_EQ(saved_last, kSoakRecords - 1);
  EXPECT_EQ(epoch_resets, 0);
  EXPECT_EQ(store.size(), ref.size());
  EXPECT_EQ(ViewOf(store), ViewOf(ref));
}

// ---- Event loop: fd hygiene, backends, encode-once fan-out ------------------

int CountOpenFds() {
  int n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(FrameCodecTest, SubscribeAndSkipToRoundTrip) {
  const std::vector<int> ids = {2, 4, 6};
  auto back = DecodeSubscribe(EncodeSubscribe(ids));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), ids);

  auto empty = DecodeSubscribe(EncodeSubscribe({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());

  // The payload length must match the promised count exactly: truncated,
  // padded, and sub-header payloads are all parse errors, never misreads.
  const std::string wire = EncodeSubscribe(ids);
  EXPECT_FALSE(
      DecodeSubscribe(std::string_view(wire.data(), wire.size() - 2)).ok());
  EXPECT_FALSE(DecodeSubscribe(wire + "x").ok());
  EXPECT_FALSE(DecodeSubscribe("abc").ok());

  // SUBSCRIBE and SKIP_TO travel through the frame codec like any other
  // type; SKIP_TO spans [payload start, header seq].
  Frame sub{FrameType::kSubscribe, 0, 0, wire};
  Frame skip{FrameType::kSkipTo, 0, 123, EncodeSkipTo(120)};
  std::string bytes = MustEncode(sub) + MustEncode(skip);
  FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  auto first = reader.Next();
  ASSERT_TRUE(first.ok() && first.value().has_value());
  EXPECT_EQ(first.value()->type, FrameType::kSubscribe);
  auto decoded = DecodeSubscribe(first.value()->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), ids);
  auto second = reader.Next();
  ASSERT_TRUE(second.ok() && second.value().has_value());
  EXPECT_EQ(second.value()->type, FrameType::kSkipTo);
  EXPECT_EQ(second.value()->seq, 123);
  auto start = DecodeSkipTo(second.value()->payload);
  ASSERT_TRUE(start.ok());
  EXPECT_EQ(start.value(), 120);
  EXPECT_FALSE(DecodeSkipTo("short").ok());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(EventLoopTest, WakeStormNeverLosesAWakeup) {
  // Every Wake() must reach the owner. A lost one leaves the wake flag set
  // with the pipe empty, after which no Wake() interrupts a sleeping
  // Wait() again (the server would deliver only on its maintenance
  // sweeps). One thread wakes about every 0.5us for 300ms while the owner
  // sleeps in Wait(1000): a return without took_wake() is a timeout, i.e.
  // a wakeup that went missing. The loss is a narrow race, so a single run
  // catches it often, not always.
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::atomic<bool> done{false};
  std::thread waker([&] {
    const auto end = std::chrono::steady_clock::now() + 300ms;
    while (std::chrono::steady_clock::now() < end) {
      loop.Wake();
      const auto gap = std::chrono::steady_clock::now() + 500ns;
      while (std::chrono::steady_clock::now() < gap) {
      }
    }
    done.store(true, std::memory_order_release);
    loop.Wake();
  });
  std::vector<LoopEvent> events;
  int64_t waits = 0;
  int64_t missed = 0;
  while (!done.load(std::memory_order_acquire)) {
    auto n = loop.Wait(&events, 1000);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ++waits;
    if (!loop.took_wake()) ++missed;
  }
  waker.join();
  EXPECT_EQ(missed, 0) << "of " << waits << " waits";
}

TEST(EventLoopServerTest, StopReleasesEveryFdAndSupportsRestart) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(i + 1, 1000 + i, i)).ok());
  }

  // Everything the server opens — listener, epoll/poll set, wake pipe,
  // accepted connections — must be gone after Stop(), across restarts.
  const int baseline = CountOpenFds();
  for (int round = 0; round < 2; ++round) {
    FragmentServerOptions opts;
    opts.heartbeat_interval = 100ms;
    FragmentServer server(&source, opts);
    ASSERT_TRUE(server.Start().ok()) << "round " << round;

    FragmentSubscriberOptions sopts;
    sopts.port = server.port();
    sopts.stream = "pkts";
    FragmentSubscriber a(sopts), b(sopts), c(sopts);
    ASSERT_TRUE(a.Start().ok());
    ASSERT_TRUE(b.Start().ok());
    ASSERT_TRUE(c.Start().ok());
    ASSERT_TRUE(a.WaitForSeq(2, 10s));
    ASSERT_TRUE(b.WaitForSeq(2, 10s));
    ASSERT_TRUE(c.WaitForSeq(2, 10s));
    EXPECT_GT(CountOpenFds(), baseline);

    a.Stop();
    b.Stop();
    c.Stop();
    server.Stop();
    EXPECT_EQ(CountOpenFds(), baseline) << "round " << round;
  }
}

TEST(EventLoopServerTest, PollBackendServesEndToEnd) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));

#ifdef __linux__
  {
    // The default resolves to epoll on Linux.
    FragmentServer def(&source);
    ASSERT_TRUE(def.Start().ok());
    EXPECT_EQ(def.backend(), EventBackend::kEpoll);
    def.Stop();
  }
#endif

  // The portable poll(2) backend stays selectable and serves the same
  // protocol: replay, live delivery, heartbeats.
  FragmentServerOptions opts;
  opts.backend = EventBackend::kPoll;
  opts.heartbeat_interval = 100ms;
  FragmentServer server(&source, opts);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.backend(), EventBackend::kPoll);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(i + 1, 1000 + i, i)).ok());
  }
  FragmentSubscriberOptions sopts;
  sopts.port = server.port();
  sopts.stream = "pkts";
  FragmentSubscriber sub(sopts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitForSeq(4, 10s));
  for (int i = 5; i < 10; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(i + 1, 1000 + i, i)).ok());
  }
  ASSERT_TRUE(sub.WaitForSeq(9, 10s));
  EXPECT_EQ(sub.metrics().fragments_in, 10);

  sub.Stop();
  server.Stop();
}

TEST(EventLoopServerTest, FanOutAndReplayEncodeEachFragmentExactlyOnce) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kHistory = 40;
  for (int i = 0; i < kHistory; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(i + 1, 1000 + i, i)).ok());
  }

  // Six late joiners replay the full log; replay serves the refcounted
  // buffers encoded at publish time, so the encode count stays flat.
  constexpr int kSubs = 6;
  std::vector<std::unique_ptr<FragmentSubscriber>> subs;
  FragmentSubscriberOptions sopts;
  sopts.port = server.port();
  sopts.stream = "pkts";
  for (int i = 0; i < kSubs; ++i) {
    subs.push_back(std::make_unique<FragmentSubscriber>(sopts));
    ASSERT_TRUE(subs.back()->Start().ok());
  }
  for (auto& s : subs) ASSERT_TRUE(s->WaitForSeq(kHistory - 1, 10s));
  EXPECT_EQ(server.metrics().fragment_encodes, kHistory);

  // Live fan-out: one encoding shared by all six queues.
  constexpr int kLive = 10;
  for (int i = 0; i < kLive; ++i) {
    ASSERT_TRUE(
        source.Publish(MakePacket(kHistory + i + 1, 2000 + i, i)).ok());
  }
  for (auto& s : subs) {
    ASSERT_TRUE(s->WaitForSeq(kHistory + kLive - 1, 10s));
    EXPECT_EQ(s->metrics().fragments_in, kHistory + kLive);
  }
  const MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.fragment_encodes, kHistory + kLive);
  EXPECT_EQ(m.drops, 0);

  // Fully drained queues: per-connection conservation degenerates to
  // enqueued == sent.
  for (const auto& s : server.connection_stats()) {
    EXPECT_EQ(s.enqueued, s.sent + s.dropped + s.queue_depth);
  }

  for (auto& s : subs) s->Stop();
  server.Stop();
}

TEST(EventLoopServerTest, ConnectionChurnUnderConcurrentPublishIsClean) {
  stream::StreamServer source("pkts", MustParseTs(kPacketTs));
  FragmentServerOptions opts;
  opts.heartbeat_interval = 100ms;
  opts.queue_capacity = 4096;
  opts.slow_consumer = SlowConsumerPolicy::kDropOldest;
  FragmentServer server(&source, opts);
  ASSERT_TRUE(server.Start().ok());

  // A publisher that never pauses while connections come and go — the
  // TSan target for the loop-thread / publisher / churner interleavings.
  std::atomic<bool> stop{false};
  std::atomic<int> published{0};
  std::thread pub([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++i;
      EXPECT_TRUE(source.Publish(MakePacket(i, 1000 + i, i)).ok());
      published.store(i, std::memory_order_relaxed);
      std::this_thread::sleep_for(500us);
    }
  });

  // 4 threads × 16 sessions = 64 connect/disconnect cycles, a mix of
  // filtered and unfiltered subscribers, a third of them severed rudely.
  std::vector<std::thread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&, t] {
      for (int round = 0; round < 16; ++round) {
        FragmentSubscriberOptions so;
        so.port = server.port();
        so.stream = "pkts";
        so.backoff_initial = 5ms;
        if ((round + t) % 2 == 0) so.filter_tsids = {2};
        FragmentSubscriber s(so);
        EXPECT_TRUE(s.Start().ok());
        s.WaitConnected(10s);
        std::this_thread::sleep_for(2ms);
        if (round % 3 == 0) s.KillConnection();
        s.Stop();
      }
    });
  }
  for (auto& t : churners) t.join();
  stop.store(true);
  pub.join();

  // The server shed every churned connection and still serves the whole
  // stream to a fresh subscriber.
  ASSERT_TRUE(PollFor([&] { return server.active_connections() == 0; }, 10s));
  const int total = published.load();
  ASSERT_GT(total, 0);
  FragmentSubscriberOptions so;
  so.port = server.port();
  so.stream = "pkts";
  FragmentSubscriber fin(so);
  ASSERT_TRUE(fin.Start().ok());
  ASSERT_TRUE(fin.WaitForSeq(total - 1, 30s));
  EXPECT_EQ(fin.metrics().fragments_in, total);
  for (const auto& s : server.connection_stats()) {
    EXPECT_EQ(s.enqueued, s.sent + s.dropped + s.queue_depth);
  }
  fin.Stop();
  server.Stop();
}

// ---- Per-tsid subscription filters ------------------------------------------

// A three-event schema so filters can carve disjoint slices of a stream.
constexpr const char* kFlowTs = R"(
<tag type="snapshot" id="1" name="flows">
  <tag type="event" id="2" name="tcp">
    <tag type="snapshot" id="3" name="port"/>
  </tag>
  <tag type="event" id="4" name="udp">
    <tag type="snapshot" id="5" name="port"/>
  </tag>
  <tag type="event" id="6" name="icmp">
    <tag type="snapshot" id="7" name="code"/>
  </tag>
</tag>)";

frag::Fragment MakeFlow(int tsid, int64_t id, int64_t t, int val) {
  const char* name = tsid == 2 ? "tcp" : tsid == 4 ? "udp" : "icmp";
  const char* field = tsid == 6 ? "code" : "port";
  frag::Fragment f;
  f.id = id;
  f.tsid = tsid;
  f.valid_time = DateTime(t);
  f.content = Node::Element(name);
  NodePtr child = Node::Element(field);
  child->AddChild(Node::Text(std::to_string(val)));
  f.content->AddChild(std::move(child));
  return f;
}

// The byte-level identity of one delivered fragment, for exact
// filtered-subsequence comparisons.
std::string FlowSig(const frag::Fragment& f) {
  return std::to_string(f.tsid) + "|" + std::to_string(f.id) + "|" +
         std::to_string(f.valid_time.seconds()) + "|" +
         SerializeXml(*f.content);
}

TEST(FilterTest, SubscriberFilterCarvesByteIdenticalSlice) {
  stream::StreamServer source("flows", MustParseTs(kFlowTs));
  FragmentServerOptions opts;
  opts.heartbeat_interval = 100ms;
  FragmentServer server(&source, opts);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::string> expect;  // the tcp slice, in stream order
  Random rng(7);
  int64_t next_id = 0;
  auto publish_mix = [&](int n) {
    for (int i = 0; i < n; ++i) {
      int tsid = 2 * (1 + static_cast<int>(rng.Uniform(3)));
      ++next_id;
      frag::Fragment f = MakeFlow(tsid, next_id, 1000 + next_id, i);
      if (tsid == 2) expect.push_back(FlowSig(f));
      EXPECT_TRUE(source.Publish(std::move(f)).ok());
    }
  };
  // Half the stream exists before the subscriber: the replay must honor
  // the filter too (SUBSCRIBE goes out before REPLAY_FROM).
  publish_mix(60);

  FragmentSubscriberOptions sopts;
  sopts.port = server.port();
  sopts.stream = "flows";
  sopts.filter_tsids = {2};
  FragmentSubscriber sub(sopts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(10s));
  EXPECT_TRUE(sub.connected());
  publish_mix(60);

  // SKIP_TO frames advance the contiguous prefix across the filtered-out
  // runs, so the subscriber reaches the stream head without the data.
  const int64_t last = server.next_seq() - 1;
  ASSERT_TRUE(sub.WaitForSeq(last, 30s))
      << "stuck at seq " << sub.last_seq() << " of " << last;

  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(FlowSig(got[i]), expect[i]) << "frame " << i;
  }

  EXPECT_GE(sub.metrics().skips_in, 1);
  const MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.frames_filtered, 120 - static_cast<int64_t>(expect.size()));
  EXPECT_GT(m.filtered_bytes_saved, 0);
  EXPECT_GE(m.skips_out, 1);
  auto stats = server.connection_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].filtered);

  sub.Stop();
  server.Stop();
}

TEST(FilterTest, EmptySubscribeClearsTheFilter) {
  // filter_tsids only ever *sets* a filter; this pins the protocol-level
  // clear against a raw session: SUBSCRIBE {2}, then SUBSCRIBE {}, then
  // everything flows again.
  stream::StreamServer source("flows", MustParseTs(kFlowTs));
  FragmentServerOptions opts;
  opts.heartbeat_interval = 100ms;
  FragmentServer server(&source, opts);
  ASSERT_TRUE(server.Start().ok());

  FragmentSubscriberOptions sopts;
  sopts.port = server.port();
  sopts.stream = "flows";
  sopts.filter_tsids = {2};
  FragmentSubscriber sub(sopts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(10s));
  ASSERT_TRUE(PollFor(
      [&] {
        auto stats = server.connection_stats();
        return stats.size() == 1 && stats[0].filtered;
      },
      5s));
  sub.Stop();

  // Same port, no filter: the server must treat the fresh session clean.
  sopts.filter_tsids.clear();
  FragmentSubscriber open(sopts);
  ASSERT_TRUE(open.Start().ok());
  ASSERT_TRUE(open.WaitConnected(10s));
  for (int i = 0; i < 9; ++i) {
    int tsid = 2 * (1 + i % 3);
    ASSERT_TRUE(source.Publish(MakeFlow(tsid, i + 1, 1000 + i, i)).ok());
  }
  ASSERT_TRUE(open.WaitForSeq(8, 10s));
  EXPECT_EQ(open.metrics().fragments_in, 9);
  auto stats = server.connection_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].filtered);

  open.Stop();
  server.Stop();
}

TEST(FilterTest, AutoFilterFromQueryRelevanceNarrowsDelivery) {
  stream::StreamServer source("flows", MustParseTs(kFlowTs));
  QueryChannel channel("flows", MustParseTs(kFlowTs));
  ASSERT_TRUE(channel.Open().ok());
  FragmentServerOptions opts;
  opts.query_channel = &channel;
  opts.heartbeat_interval = 100ms;
  FragmentServer server(&source, opts);
  ASSERT_TRUE(server.Start().ok());

  // No static filter — the server derives one from the query: //tcp under
  // QaC+ compiles to tsid scans of the tcp subtree, so only {2,3} are
  // relevant and udp/icmp traffic never crosses the wire.
  FragmentSubscriberOptions sopts;
  sopts.port = server.port();
  sopts.stream = "flows";
  FragmentSubscriber sub(sopts);
  RemoteQuerySpec spec;
  spec.method = 2;  // lang::ExecMethod::kQaCPlus
  spec.flags = kQueryFlagAutoFilter;
  spec.text = "for $f in stream(\"flows\")//tcp return string($f/port)";
  auto token = sub.AddRemoteQuery(spec);
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitConnected(10s));
  ASSERT_TRUE(sub.WaitQueryActive(token.value(), 10s));
  ASSERT_TRUE(PollFor(
      [&] {
        auto stats = server.connection_stats();
        return stats.size() == 1 && stats[0].filtered;
      },
      5s));

  int tcp_count = 0;
  for (int i = 0; i < 30; ++i) {
    int tsid = 2 * (1 + i % 3);
    if (tsid == 2) ++tcp_count;
    ASSERT_TRUE(
        source.Publish(MakeFlow(tsid, i + 1, 1000 + i, 7000 + i)).ok());
  }
  const int64_t last = server.next_seq() - 1;
  ASSERT_TRUE(sub.WaitForSeq(last, 30s))
      << "stuck at seq " << sub.last_seq() << " of " << last;

  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  ASSERT_EQ(got.size(), static_cast<size_t>(tcp_count));
  for (const auto& f : got) EXPECT_EQ(f.tsid, 2);
  EXPECT_GT(server.metrics().frames_filtered, 0);

  // The query results themselves are untouched by the transport filter.
  EXPECT_TRUE(sub.WaitForResultSeq(token.value(), 0, 10s));

  sub.Stop();
  server.Stop();
}

TEST(FilterTest, RandomizedFiltersSurviveChaosAndReconnects) {
  // N subscribers behind a faulty link, each with a random tsid filter,
  // two of them severed mid-stream: every one must converge to exactly
  // its filtered subsequence, byte-identical and in stream order.
  stream::StreamServer source("flows", MustParseTs(kFlowTs));
  FragmentServerOptions opts;
  opts.heartbeat_interval = 100ms;
  opts.queue_capacity = 4096;
  FragmentServer server(&source, opts);
  ASSERT_TRUE(server.Start().ok());

  ChaosLinkOptions copts;
  copts.upstream_port = server.port();
  copts.seed = 7;
  copts.faults.drop = 0.01;
  copts.faults.duplicate = 0.01;
  copts.faults.reorder = 0.01;
  copts.faults.corrupt = 0.01;
  ChaosLink chaos(copts);
  ASSERT_TRUE(chaos.Start().ok());

  constexpr int kSubs = 5;
  std::vector<std::unique_ptr<FragmentSubscriber>> subs;
  std::vector<std::vector<int>> filters;
  Random pick(99);
  for (int i = 0; i < kSubs; ++i) {
    std::vector<int> f;
    if (i == 0) {
      f = {2};  // always one single-slice subscriber...
    } else if (i > 1) {
      // ...one guaranteed-unfiltered one (i == 1), the rest random.
      for (int tsid : {2, 4, 6}) {
        if (pick.Uniform(2) == 1) f.push_back(tsid);
      }
    }
    filters.push_back(f);
    FragmentSubscriberOptions so;
    so.port = chaos.port();
    so.stream = "flows";
    so.backoff_initial = 10ms;
    so.backoff_max = 100ms;
    so.filter_tsids = f;
    subs.push_back(std::make_unique<FragmentSubscriber>(so));
    ASSERT_TRUE(subs[i]->Start().ok());
    ASSERT_TRUE(subs[i]->WaitConnected(30s));
  }

  std::vector<std::pair<int, std::string>> pub;  // (tsid, signature)
  Random rng(3);
  constexpr int kCount = 300;
  for (int i = 0; i < kCount; ++i) {
    int tsid = 2 * (1 + static_cast<int>(rng.Uniform(3)));
    frag::Fragment f =
        MakeFlow(tsid, i + 1, 1000 + i, static_cast<int>(rng.Uniform(1000)));
    pub.emplace_back(tsid, FlowSig(f));
    ASSERT_TRUE(source.Publish(std::move(f)).ok());
    // Rude mid-stream cuts: reconnect re-sends SUBSCRIBE before
    // REPLAY_FROM, so the resumed replay stays filtered.
    if (i == kCount / 3) subs[0]->KillConnection();
    if (i == (2 * kCount) / 3) subs[3]->KillConnection();
  }

  const int64_t last = server.next_seq() - 1;
  for (int i = 0; i < kSubs; ++i) {
    ASSERT_TRUE(subs[i]->WaitForSeq(last, 120s))
        << "sub " << i << " stuck at seq " << subs[i]->last_seq() << " of "
        << last;
  }

  for (int i = 0; i < kSubs; ++i) {
    std::vector<frag::Fragment> got;
    subs[i]->Drain(&got);
    std::vector<std::string> want;
    for (const auto& [tsid, sig] : pub) {
      if (filters[i].empty() ||
          std::find(filters[i].begin(), filters[i].end(), tsid) !=
              filters[i].end()) {
        want.push_back(sig);
      }
    }
    ASSERT_EQ(got.size(), want.size()) << "sub " << i;
    for (size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(FlowSig(got[j]), want[j]) << "sub " << i << " frame " << j;
    }
  }

  // The two kills alone guarantee reconnect traffic; chaos usually adds
  // more. And the faults really fired.
  int64_t reconnects = 0;
  for (const auto& s : subs) reconnects += s->metrics().reconnects;
  EXPECT_GE(reconnects, 2);
  const ChaosStats cs = chaos.stats();
  EXPECT_GE(cs.dropped + cs.duplicated + cs.reordered + cs.corrupted, 1);

  for (auto& s : subs) s->Stop();
  chaos.Stop();
  server.Stop();
}

}  // namespace
}  // namespace xcql::net
