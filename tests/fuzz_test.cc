// Deterministic fuzz-style robustness tests: randomly mutated documents,
// fragment streams and queries must never crash the parsers or the
// evaluator — every input yields either a value or a clean error Status.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "frag/fragment.h"
#include "frag/tag_structure.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/subscriber.h"
#include "stream/transport.h"
#include "test_util.h"
#include "xml/parser.h"
#include "xq/eval.h"
#include "xq/parser.h"

namespace xcql {
namespace {

// Applies `n` random byte-level mutations (replace/insert/delete).
std::string Mutate(std::string input, Random* rng, int n) {
  static const char kBytes[] =
      "<>/=\"'&;{}[]()$#?@!abcXYZ019 \t\n-_.:*+|,";
  for (int i = 0; i < n && !input.empty(); ++i) {
    size_t pos = rng->Uniform(input.size());
    switch (rng->Uniform(3)) {
      case 0:
        input[pos] = kBytes[rng->Uniform(sizeof(kBytes) - 1)];
        break;
      case 1:
        input.insert(pos, 1, kBytes[rng->Uniform(sizeof(kBytes) - 1)]);
        break;
      default:
        input.erase(pos, 1);
        break;
    }
  }
  return input;
}

class XmlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlFuzzTest, MutatedDocumentsNeverCrashTheParser) {
  Random rng(GetParam());
  std::string doc = testutil::kCreditView;
  for (int round = 0; round < 20; ++round) {
    std::string mutated = Mutate(doc, &rng, 1 + static_cast<int>(
                                                   rng.Uniform(8)));
    auto r = ParseXml(mutated);
    if (r.ok()) {
      // Whatever parsed must serialize and reparse.
      std::string again = SerializeXml(*r.value());
      EXPECT_TRUE(ParseXml(again).ok()) << again;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzTest,
                         ::testing::Range<uint64_t>(0, 16));

class QueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzzTest, MutatedQueriesNeverCrashParserOrEvaluator) {
  Random rng(GetParam() + 1000);
  const char* corpus[] = {
      "for $a in doc(\"credit\")//account "
      "where sum($a/transaction?[2003-11-01,2003-12-01]"
      "[status = \"charged\"]/amount) >= $a/creditLimit?[now] "
      "return <account>{attribute id {$a/@id}, $a/customer}</account>",
      "declare function f($x) { $x * 2 }; f(3) + count((1 to 10)[. mod 2])",
      "some $x in (1, 2, 3) satisfies $x > 2 and \"a\" < \"b\"",
      "stream(\"credit\")//transaction#[1,last]?[start,now]",
  };
  xq::FunctionRegistry registry = xq::FunctionRegistry::Builtins();
  auto doc = ParseXml(testutil::kCreditView);
  ASSERT_TRUE(doc.ok());
  for (const char* base : corpus) {
    for (int round = 0; round < 12; ++round) {
      std::string mutated =
          Mutate(base, &rng, 1 + static_cast<int>(rng.Uniform(6)));
      auto prog = xq::ParseQuery(mutated);
      if (!prog.ok()) continue;  // clean parse error
      // Evaluate whatever still parses; errors must come back as Status.
      xq::EvalContext ctx;
      ctx.functions = &registry;
      ctx.now = DateTime::Parse("2003-12-01T00:00:00").value();
      ctx.documents["credit"] = doc.value();
      xq::Evaluator ev(&ctx);
      auto result = ev.EvalProgram(prog.value());
      (void)result;  // ok or clean error — reaching here is the assertion
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest,
                         ::testing::Range<uint64_t>(0, 16));

class FragmentFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FragmentFuzzTest, MutatedWireFormsNeverCrash) {
  Random rng(GetParam() + 2000);
  const char* wire =
      "<filler id=\"100\" tsid=\"5\" validTime=\"2003-10-23T12:23:34\">"
      "<transaction id=\"12345\"><vendor>Pizza</vendor>"
      "<hole id=\"200\" tsid=\"7\"/></transaction></filler>";
  for (int round = 0; round < 30; ++round) {
    std::string mutated =
        Mutate(wire, &rng, 1 + static_cast<int>(rng.Uniform(6)));
    auto f = frag::Fragment::Parse(mutated);
    (void)f;
  }
  // Tag structures too.
  for (int round = 0; round < 30; ++round) {
    std::string mutated = Mutate(testutil::kCreditTagStructure, &rng,
                                 1 + static_cast<int>(rng.Uniform(6)));
    auto ts = frag::TagStructure::Parse(mutated);
    (void)ts;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentFuzzTest,
                         ::testing::Range<uint64_t>(0, 16));

class FrameFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrameFuzzTest, MutatedFramesNeverCrashOrForgeAChecksum) {
  // Truncated and bit-flipped frame streams, fed in random-sized chunks,
  // must never crash the reader, over-read, or — the integrity property —
  // produce a checksum-verified frame that differs from a frame actually
  // encoded. 1-3 bit flips are always within CRC32C's detection
  // distance at these frame sizes, so any frame that verifies can only be
  // one the mutations never touched.
  Random rng(GetParam() + 3000);
  // Valid frames of every type; no payload embeds the frame magic.
  std::vector<net::Frame> corpus;
  net::Hello hello;
  hello.stream_name = "credit";
  corpus.push_back(
      {net::FrameType::kHello, 0, 0, net::EncodeHello(hello)});
  corpus.push_back({net::FrameType::kFragment,
                    net::kFlagCompressedPayload, 41,
                    std::string(300, 'z')});
  corpus.push_back({net::FrameType::kHeartbeat, 0, 42, ""});
  corpus.push_back(
      {net::FrameType::kReplayFrom, 0, 0, net::EncodeReplayFrom(-1)});
  corpus.push_back({net::FrameType::kRepeatRequest, 0, 7,
                    net::EncodeRepeatRequest(1234)});
  std::vector<std::string> encoded;
  for (const auto& f : corpus) {
    auto e = net::EncodeFrame(f);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    encoded.push_back(std::move(e).MoveValue());
  }
  auto matches_corpus = [&](const net::Frame& got) {
    for (const auto& f : corpus) {
      if (got.type == f.type && got.flags == f.flags &&
          got.seq == f.seq && got.payload == f.payload) {
        return true;
      }
    }
    return false;
  };

  for (int round = 0; round < 200; ++round) {
    std::string wire = encoded[rng.Uniform(encoded.size())] +
                       encoded[rng.Uniform(encoded.size())];
    if (rng.Bernoulli(0.3)) {
      wire.resize(1 + rng.Uniform(wire.size()));
    }
    const int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < flips; ++i) {
      wire[rng.Uniform(wire.size())] ^=
          static_cast<char>(1 << rng.Uniform(8));
    }

    net::FrameReader reader;
    size_t off = 0;
    bool dead = false;
    while (off < wire.size() && !dead) {
      const size_t n =
          std::min<size_t>(1 + rng.Uniform(64), wire.size() - off);
      reader.Feed(wire.data() + off, n);
      off += n;
      for (;;) {
        auto next = reader.Next();
        if (!next.ok()) {
          dead = true;  // clean decode error: the stream is abandoned
          break;
        }
        if (!next.value().has_value()) break;
        const net::Frame& got = *next.value();
        if (got.crc_ok) {
          EXPECT_TRUE(matches_corpus(got))
              << "forged frame in round " << round << ": type "
              << static_cast<int>(got.type) << " seq " << got.seq;
        }
      }
    }

    // A rewritten version byte is a foreign protocol, not a damaged
    // frame: a clean Unsupported error and no frame, whatever follows.
    std::string foreign = encoded[rng.Uniform(encoded.size())];
    uint8_t version = net::kFrameVersion;
    do {
      version = static_cast<uint8_t>(rng.Uniform(256));
    } while (version == net::kFrameVersion);
    foreign[4] = static_cast<char>(version);
    net::FrameReader foreign_reader;
    foreign_reader.Feed(foreign.data(), foreign.size());
    auto rejected = foreign_reader.Next();
    ASSERT_FALSE(rejected.ok()) << "version " << int{version} << " decoded";
    EXPECT_EQ(rejected.status().code(), StatusCode::kUnsupported)
        << rejected.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzzTest,
                         ::testing::Range<uint64_t>(0, 16));

class ControlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ControlFuzzTest, MutatedControlFramesNeverKillTheServer) {
  // A live FragmentServer fed mutated control frames — garbage HELLOs at
  // handshake, well-framed-but-undecodable REPLAY_FROM / REPEAT_REQUEST
  // payloads, bit-flipped frames, unknown frame types — must count
  // each rejection (handshake_failures / bad_control_frames /
  // frames_corrupt) and keep serving: a clean subscriber connected after
  // the barrage still converges on the full stream.
  using namespace std::chrono_literals;
  Random rng(GetParam() + 4000);

  const char* ts_xml = R"(
<tag type="snapshot" id="1" name="packets">
  <tag type="event" id="2" name="packet">
    <tag type="snapshot" id="3" name="id"/>
  </tag>
</tag>)";
  auto ts = frag::TagStructure::Parse(ts_xml);
  ASSERT_TRUE(ts.ok());
  stream::StreamServer source("pkts", std::move(ts).MoveValue());
  for (int i = 0; i < 8; ++i) {
    frag::Fragment f;
    f.id = 10 + i;
    f.tsid = 2;
    f.valid_time = DateTime(1000 + i);
    f.content = Node::Element("packet");
    NodePtr pid = Node::Element("id");
    pid->AddChild(Node::Text(std::to_string(i)));
    f.content->AddChild(std::move(pid));
    ASSERT_TRUE(source.Publish(std::move(f)).ok());
  }
  net::FragmentServer server(&source);
  ASSERT_TRUE(server.Start().ok());

  auto encode = [](const net::Frame& f) {
    auto e = net::EncodeFrame(f);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return e.ok() ? std::move(e).MoveValue() : std::string();
  };
  net::Hello hello;
  hello.stream_name = "pkts";
  const std::string good_hello = net::EncodeHello(hello);

  // Reads frames off `sock` until one of type `want` arrives. False on
  // timeout/close — the server hung up, which callers treat as "this
  // round's session is over".
  auto read_until = [&](net::Socket& sock, net::FrameType want) {
    net::FrameReader reader;
    char buf[4096];
    auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      bool timed_out = false;
      auto n = sock.RecvTimeout(buf, sizeof(buf), 200ms, &timed_out);
      if (!n.ok()) return false;
      if (timed_out) continue;
      if (n.value() == 0) return false;
      reader.Feed(buf, n.value());
      for (;;) {
        auto next = reader.Next();
        if (!next.ok()) return false;
        if (!next.value().has_value()) break;
        if (next.value()->type == want) return true;
      }
    }
    return false;
  };

  for (int round = 0; round < 12; ++round) {
    auto conn = net::ConnectTo("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    net::Socket sock = std::move(conn).MoveValue();
    if (rng.Bernoulli(0.4)) {
      // Mangled handshake: a well-framed HELLO whose payload is mutated
      // garbage. The server must count it and cut the connection — no
      // crash, no BYE-as-semantic-rejection.
      std::string payload =
          Mutate(good_hello, &rng, 2 + static_cast<int>(rng.Uniform(8)));
      std::string wire =
          encode({net::FrameType::kHello, 0, 0, std::move(payload)});
      (void)sock.SendAll(wire.data(), wire.size());
      char buf[1024];
      bool timed_out = false;
      (void)sock.RecvTimeout(buf, sizeof(buf), 500ms, &timed_out);
      continue;
    }
    // Clean handshake, then a burst of hostile post-handshake frames.
    std::string wire = encode({net::FrameType::kHello, 0, 0, good_hello});
    ASSERT_TRUE(sock.SendAll(wire.data(), wire.size()).ok());
    if (!read_until(sock, net::FrameType::kHello)) continue;
    for (int k = 0; k < 6; ++k) {
      net::Frame f;
      f.seq = static_cast<int64_t>(rng.Uniform(100));
      switch (rng.Uniform(4)) {
        case 0:  // wrong-length REPLAY_FROM payload: decode must fail
          f.type = net::FrameType::kReplayFrom;
          f.payload = std::string(1 + rng.Uniform(6), 'x');
          break;
        case 1:  // mutated REPEAT_REQUEST
          f.type = net::FrameType::kRepeatRequest;
          f.payload = Mutate(net::EncodeRepeatRequest(1234), &rng,
                             1 + static_cast<int>(rng.Uniform(6)));
          break;
        case 2:  // unknown frame type with random bytes
          f.type = static_cast<net::FrameType>(200 + rng.Uniform(50));
          f.payload = std::string(rng.Uniform(32), '?');
          break;
        default:  // valid REPLAY_FROM, bit-flipped after encoding: the
                  // checksum is the detector
          f.type = net::FrameType::kReplayFrom;
          f.payload = net::EncodeReplayFrom(-1);
          break;
      }
      const bool flip = rng.Uniform(4) == 3;
      std::string bytes = encode(f);
      if (flip && bytes.size() > net::kFrameHeaderSize) {
        size_t off = net::kFrameHeaderSize +
                     rng.Uniform(bytes.size() - net::kFrameHeaderSize);
        bytes[off] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      if (!sock.SendAll(bytes.data(), bytes.size()).ok()) break;
    }
    std::this_thread::sleep_for(20ms);
  }

  // Deterministic floor: at least one garbage HELLO and one undecodable
  // control frame, so the counters below are guaranteed to move even if
  // every random roll above happened to produce decodable bytes.
  {
    auto conn = net::ConnectTo("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok());
    net::Socket sock = std::move(conn).MoveValue();
    std::string wire =
        encode({net::FrameType::kHello, 0, 0, "not-a-hello-payload"});
    ASSERT_TRUE(sock.SendAll(wire.data(), wire.size()).ok());
  }
  {
    auto conn = net::ConnectTo("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok());
    net::Socket sock = std::move(conn).MoveValue();
    std::string wire = encode({net::FrameType::kHello, 0, 0, good_hello});
    ASSERT_TRUE(sock.SendAll(wire.data(), wire.size()).ok());
    ASSERT_TRUE(read_until(sock, net::FrameType::kHello));
    std::string bad =
        encode({net::FrameType::kReplayFrom, 0, 0, std::string("zz")});
    ASSERT_TRUE(sock.SendAll(bad.data(), bad.size()).ok());
    std::this_thread::sleep_for(50ms);
  }

  auto sm = server.metrics();
  EXPECT_GE(sm.handshake_failures, 1) << "garbage HELLO went uncounted";
  EXPECT_GE(sm.bad_control_frames, 1)
      << "undecodable control frame went uncounted";

  // The server survived the barrage: a clean subscriber converges.
  net::FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = "pkts";
  net::FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  EXPECT_TRUE(sub.WaitForSeq(7, 10s))
      << "server stopped serving after control-frame fuzzing: last_seq="
      << sub.last_seq();
  std::vector<frag::Fragment> got;
  sub.Drain(&got);
  EXPECT_EQ(got.size(), 8u);
  sub.Stop();
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace xcql
