// Tests for the durability layer (src/net/wal.h): record codec round-trip
// through reopen, torn-tail truncation at every byte boundary, poison
// (corruption) detection, checkpoint compaction + GC, epoch rules, and the
// fork-based kill-point matrix — a child process runs a scripted workload
// and _exit()s at each WalHooks crash point; the parent then recovers the
// directory and proves the log is a contiguous, appendable prefix.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "frag/codec.h"
#include "net/frame.h"
#include "net/wal.h"
#include "stream/transport.h"

namespace xcql::net {
namespace {

namespace fs = std::filesystem;

constexpr const char* kStream = "packets";
constexpr const char* kTs = R"(
<tag type="snapshot" id="1" name="packets">
  <tag type="event" id="2" name="packet">
    <tag type="snapshot" id="3" name="id"/>
  </tag>
</tag>)";

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/xcql_wal_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    WalHooks::Install(nullptr);
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  // A fresh directory path (not yet created) under the test root.
  std::string Dir(const std::string& name = "wal") {
    return root_ + "/" + name;
  }

  std::string root_;
};

// The deterministic record for seq i: payload is fixed-size so frame sizes
// (and thus rotation points) are predictable. 40-byte payload + 24-byte v2
// header = a 64-byte record.
std::string PayloadFor(int64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "record-%06lld",
                static_cast<long long>(seq));
  std::string payload = buf;
  payload.resize(40, '.');
  return payload;
}

std::string RecordFor(int64_t seq) {
  Frame f;
  f.type = FrameType::kFragment;
  f.seq = static_cast<uint64_t>(seq);
  f.payload = PayloadFor(seq);
  auto bytes = EncodeFrame(f);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? std::move(bytes).MoveValue() : std::string();
}

Result<std::unique_ptr<Wal>> OpenWal(const std::string& dir,
                                     const WalOptions& opts,
                                     WalRecovery* rec) {
  return Wal::Open(dir, kStream, kTs, opts, rec);
}

void ExpectPrefix(const WalRecovery& rec, int64_t at_least = 0) {
  ASSERT_GE(static_cast<int64_t>(rec.records.size()), at_least);
  for (size_t i = 0; i < rec.records.size(); ++i) {
    ASSERT_EQ(rec.records[i].seq, static_cast<int64_t>(i));
    ASSERT_EQ(rec.records[i].payload, PayloadFor(static_cast<int64_t>(i)));
  }
}

std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Appends raw bytes to an existing file (simulating a torn tail or
// filesystem garbage past the last record).
void AppendRaw(const std::string& path, std::string_view bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

TEST_F(WalTest, RecordsRoundTripThroughReopen) {
  WalOptions opts;
  uint64_t epoch = 0;
  {
    WalRecovery rec;
    auto wal = OpenWal(Dir(), opts, &rec);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_TRUE(rec.records.empty());
    EXPECT_EQ(rec.stream_name, kStream);
    epoch = wal.value()->epoch();
    EXPECT_NE(epoch, 0u);
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
    }
    EXPECT_EQ(wal.value()->next_seq(), 20);
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  WalRecovery rec;
  auto wal = OpenWal(Dir(), opts, &rec);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal.value()->epoch(), epoch);  // epoch survives reopen
  EXPECT_EQ(rec.epoch, epoch);
  EXPECT_EQ(rec.records.size(), 20u);
  ExpectPrefix(rec, 20);
  EXPECT_EQ(rec.report.checkpoint_records, 0);
  EXPECT_EQ(rec.report.tail_records, 20);
  EXPECT_FALSE(rec.report.torn_tail);
  EXPECT_EQ(wal.value()->next_seq(), 20);
  // Appending resumes at the recovered seq.
  ASSERT_TRUE(wal.value()->Append(20, RecordFor(20)).ok());
}

TEST_F(WalTest, AppendIsIdempotentBelowNextSeqAndRejectsGaps) {
  WalRecovery rec;
  auto wal = OpenWal(Dir(), WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(0, RecordFor(0)).ok());
  ASSERT_TRUE(wal.value()->Append(1, RecordFor(1)).ok());
  // Re-seeding seqs the log already holds is a no-op, not a duplicate.
  EXPECT_TRUE(wal.value()->Append(0, RecordFor(0)).ok());
  EXPECT_EQ(wal.value()->stats().appends, 2);
  // A gap would lose a record silently on replay: hard error.
  EXPECT_FALSE(wal.value()->Append(5, RecordFor(5)).ok());
  // Not an encoded frame: hard error.
  EXPECT_FALSE(wal.value()->Append(2, "tiny").ok());
  ASSERT_TRUE(wal.value()->Close().ok());
  // Closed: appends fail.
  EXPECT_FALSE(wal.value()->Append(2, RecordFor(2)).ok());
}

TEST_F(WalTest, TornTailIsTruncatedAtEveryByteBoundary) {
  const std::string torn_record = RecordFor(3);
  for (size_t cut = 1; cut < torn_record.size(); ++cut) {
    std::string dir = Dir("cut" + std::to_string(cut));
    {
      WalRecovery rec;
      auto wal = OpenWal(dir, WalOptions{}, &rec);
      ASSERT_TRUE(wal.ok());
      for (int64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
      }
      ASSERT_TRUE(wal.value()->Close().ok());
    }
    // Crash mid-append: a prefix of record 3 lands in the active segment.
    AppendRaw(dir + "/" + "wal-00000000000000000000.log",
              std::string_view(torn_record).substr(0, cut));
    WalRecovery rec;
    auto wal = OpenWal(dir, WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok()) << "cut=" << cut << ": "
                          << wal.status().ToString();
    EXPECT_EQ(rec.records.size(), 3u) << "cut=" << cut;
    ExpectPrefix(rec, 3);
    EXPECT_TRUE(rec.report.torn_tail) << "cut=" << cut;
    EXPECT_EQ(rec.report.torn_bytes, cut);
    EXPECT_FALSE(rec.report.warning.empty());
    // Exactly the partial record was truncated: the next append goes
    // through and a further reopen is clean.
    ASSERT_TRUE(wal.value()->Append(3, RecordFor(3)).ok());
    ASSERT_TRUE(wal.value()->Close().ok());
    WalRecovery rec2;
    auto wal2 = OpenWal(dir, WalOptions{}, &rec2);
    ASSERT_TRUE(wal2.ok());
    EXPECT_EQ(rec2.records.size(), 4u);
    EXPECT_FALSE(rec2.report.torn_tail);
  }
}

TEST_F(WalTest, CorruptRecordMidLogIsPoisonNotTornTail) {
  {
    WalRecovery rec;
    auto wal = OpenWal(Dir(), WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok());
    for (int64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
    }
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  // Flip one payload bit inside record 1. The framing still holds, so the
  // CRC catches it — and with complete records *after* it the failure
  // cannot be a torn tail: the bytes were fully written, then damaged.
  std::string path = Dir() + "/wal-00000000000000000000.log";
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = bytes.value();
  damaged[64 + 24 + 5] ^= 0x20;  // record 1's payload
  ASSERT_TRUE(WriteStringToFile(path, damaged).ok());
  WalRecovery rec;
  auto wal = OpenWal(Dir(), WalOptions{}, &rec);
  ASSERT_FALSE(wal.ok());
  EXPECT_NE(wal.status().message().find("poison"), std::string::npos)
      << wal.status().ToString();
  EXPECT_NE(wal.status().message().find("CRC32C"), std::string::npos);
}

TEST_F(WalTest, CrcFailedFinalRecordInNewestSegmentIsTornTail) {
  {
    WalRecovery rec;
    auto wal = OpenWal(Dir(), WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok());
    for (int64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
    }
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  // Damage the *final* record's payload. The framing still completes, so
  // under fsync=interval/never this is indistinguishable from a crash
  // that grew the file before the payload blocks flushed: recovery must
  // truncate it as a torn tail, not refuse to start.
  std::string path = Dir() + "/wal-00000000000000000000.log";
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = bytes.value();
  damaged[3 * 64 + 24 + 5] ^= 0x20;  // record 3's payload
  ASSERT_TRUE(WriteStringToFile(path, damaged).ok());
  WalRecovery rec;
  auto wal = OpenWal(Dir(), WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(rec.records.size(), 3u);
  ExpectPrefix(rec, 3);
  EXPECT_TRUE(rec.report.torn_tail);
  EXPECT_EQ(rec.report.torn_bytes, 64u);  // exactly the damaged record
  // The truncated log accepts a re-append of seq 3 and reopens clean.
  ASSERT_TRUE(wal.value()->Append(3, RecordFor(3)).ok());
  ASSERT_TRUE(wal.value()->Close().ok());
  WalRecovery rec2;
  auto wal2 = OpenWal(Dir(), WalOptions{}, &rec2);
  ASSERT_TRUE(wal2.ok());
  EXPECT_EQ(rec2.records.size(), 4u);
  ExpectPrefix(rec2, 4);
  EXPECT_FALSE(rec2.report.torn_tail);
}

TEST_F(WalTest, CrcFailedRecordInSealedSegmentIsPoisonEvenAtItsEnd) {
  WalOptions opts;
  opts.segment_bytes = 160;  // 64-byte records: rotate every 2-3
  {
    WalRecovery rec;
    auto wal = OpenWal(Dir(), opts, &rec);
    ASSERT_TRUE(wal.ok());
    for (int64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
    }
    ASSERT_GT(wal.value()->stats().rotations, 0);
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  // The torn-tail reading exists only for the newest segment: sealed
  // files are never appended to, so even their final record failing its
  // checksum is bit rot, never a crash artifact.
  std::string path = Dir() + "/wal-00000000000000000000.log";
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = bytes.value();
  damaged[damaged.size() - 10] ^= 0x20;  // the sealed segment's last record
  ASSERT_TRUE(WriteStringToFile(path, damaged).ok());
  WalRecovery rec;
  auto wal = OpenWal(Dir(), WalOptions{}, &rec);
  ASSERT_FALSE(wal.ok());
  EXPECT_NE(wal.status().message().find("poison"), std::string::npos)
      << wal.status().ToString();
  EXPECT_NE(wal.status().message().find("CRC32C"), std::string::npos);
}

TEST_F(WalTest, PartialRecordInSealedSegmentIsPoison) {
  {
    WalRecovery rec;
    WalOptions opts;
    opts.segment_bytes = 160;  // 64-byte records: rotate every 2-3
    auto wal = OpenWal(Dir(), opts, &rec);
    ASSERT_TRUE(wal.ok());
    for (int64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
    }
    ASSERT_GT(wal.value()->stats().rotations, 0);
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  // A partial record at the end of a *sealed* segment cannot be a torn
  // append (appends only ever go to the newest segment): corruption.
  AppendRaw(Dir() + "/wal-00000000000000000000.log",
            std::string_view(RecordFor(99)).substr(0, 30));
  WalRecovery rec;
  auto wal = OpenWal(Dir(), WalOptions{}, &rec);
  ASSERT_FALSE(wal.ok());
  EXPECT_NE(wal.status().message().find("poison"), std::string::npos)
      << wal.status().ToString();
}

TEST_F(WalTest, CheckpointCompactsSegmentsAndGcs) {
  WalOptions opts;
  opts.segment_bytes = 160;
  uint64_t epoch = 0;
  {
    WalRecovery rec;
    auto wal = OpenWal(Dir(), opts, &rec);
    ASSERT_TRUE(wal.ok());
    epoch = wal.value()->epoch();
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
    }
    ASSERT_TRUE(wal.value()->Checkpoint().ok());
    EXPECT_EQ(wal.value()->stats().checkpoints, 1);
    // Steady state after a checkpoint: manifest, one checkpoint covering
    // everything, one fresh (empty) active segment. Old segments GC'd.
    EXPECT_EQ(DirEntries(Dir()),
              (std::vector<std::string>{
                  "MANIFEST", "checkpoint-00000000000000000010.ckpt",
                  "wal-00000000000000000010.log"}));
    // More records land in the post-checkpoint tail.
    for (int64_t i = 10; i < 13; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
    }
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  WalRecovery rec;
  auto wal = OpenWal(Dir(), opts, &rec);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal.value()->epoch(), epoch);
  EXPECT_EQ(rec.report.checkpoint_records, 10);
  EXPECT_EQ(rec.report.tail_records, 3);
  EXPECT_EQ(rec.records.size(), 13u);
  ExpectPrefix(rec, 13);
}

TEST_F(WalTest, AutoCheckpointEveryNRecords) {
  WalOptions opts;
  opts.checkpoint_every = 4;
  WalRecovery rec;
  auto wal = OpenWal(Dir(), opts, &rec);
  ASSERT_TRUE(wal.ok());
  for (int64_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
  }
  EXPECT_EQ(wal.value()->stats().checkpoints, 2);  // at 4 and at 8
  ASSERT_TRUE(wal.value()->Close().ok());
  WalRecovery rec2;
  auto wal2 = OpenWal(Dir(), opts, &rec2);
  ASSERT_TRUE(wal2.ok());
  EXPECT_EQ(rec2.report.checkpoint_records, 8);
  EXPECT_EQ(rec2.report.tail_records, 1);
  ExpectPrefix(rec2, 9);
}

TEST_F(WalTest, CorruptCheckpointIsPoison) {
  {
    WalRecovery rec;
    auto wal = OpenWal(Dir(), WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok());
    for (int64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
    }
    ASSERT_TRUE(wal.value()->Checkpoint().ok());
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  std::string path = Dir() + "/checkpoint-00000000000000000005.ckpt";
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = bytes.value();
  damaged[2 * 64 + 30] ^= 0x08;
  ASSERT_TRUE(WriteStringToFile(path, damaged).ok());
  WalRecovery rec;
  auto wal = OpenWal(Dir(), WalOptions{}, &rec);
  ASSERT_FALSE(wal.ok());
  EXPECT_NE(wal.status().message().find("poison"), std::string::npos)
      << wal.status().ToString();
}

TEST_F(WalTest, MismatchedStreamOrSchemaIsRejected) {
  {
    WalRecovery rec;
    auto wal = OpenWal(Dir(), WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(0, RecordFor(0)).ok());
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  WalRecovery rec;
  auto other_stream = Wal::Open(Dir(), "audit", kTs, WalOptions{}, &rec);
  EXPECT_FALSE(other_stream.ok());
  EXPECT_NE(other_stream.status().message().find("reset the data dir"),
            std::string::npos);
  const char* other_ts = R"(<tag type="snapshot" id="1" name="other"/>)";
  auto other_schema = Wal::Open(Dir(), kStream, other_ts, WalOptions{}, &rec);
  EXPECT_FALSE(other_schema.ok());
  // Same schema, re-serialized differently (whitespace), still matches:
  // the comparison is canonical, not textual.
  auto reserialized = frag::TagStructure::Parse(kTs);
  ASSERT_TRUE(reserialized.ok());
  auto same = Wal::Open(Dir(), kStream, reserialized.value().ToXml(),
                        WalOptions{}, &rec);
  EXPECT_TRUE(same.ok()) << same.status().ToString();
}

TEST_F(WalTest, ResetDirectoryMintsAFreshEpoch) {
  uint64_t first = 0;
  {
    WalRecovery rec;
    auto wal = OpenWal(Dir(), WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok());
    first = wal.value()->epoch();
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  std::error_code ec;
  fs::remove_all(Dir(), ec);
  WalRecovery rec;
  auto wal = OpenWal(Dir(), WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());
  EXPECT_NE(wal.value()->epoch(), 0u);
  EXPECT_NE(wal.value()->epoch(), first);
}

TEST_F(WalTest, FsyncPoliciesAllPersist) {
  for (FsyncPolicy policy : {FsyncPolicy::kAlways, FsyncPolicy::kInterval,
                             FsyncPolicy::kNever}) {
    std::string dir = Dir(FsyncPolicyName(policy));
    WalOptions opts;
    opts.fsync = policy;
    opts.fsync_interval = std::chrono::milliseconds(1);
    {
      WalRecovery rec;
      auto wal = OpenWal(dir, opts, &rec);
      ASSERT_TRUE(wal.ok());
      for (int64_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
      }
      if (policy == FsyncPolicy::kAlways) {
        EXPECT_EQ(wal.value()->stats().syncs, 5);
      }
      ASSERT_TRUE(wal.value()->Close().ok());
    }
    WalRecovery rec;
    auto wal = OpenWal(dir, opts, &rec);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(rec.records.size(), 5u);
    ExpectPrefix(rec, 5);
  }
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
  EXPECT_EQ(ParseFsyncPolicy("interval").value(), FsyncPolicy::kInterval);
}

TEST_F(WalTest, RestoreStreamRebuildsPublishedHistory) {
  auto ts = frag::TagStructure::Parse(kTs);
  ASSERT_TRUE(ts.ok());
  // Publish through a real StreamServer so records carry genuine wire
  // payloads (not the synthetic fixed-size ones).
  stream::StreamServer original(kStream, std::move(ts).MoveValue());
  std::vector<std::string> frames;
  for (int i = 0; i < 6; ++i) {
    frag::Fragment f;
    f.id = 100 + i % 2;  // two fillers, three versions each
    f.tsid = 2;
    f.valid_time = DateTime(1000 + i * 60);
    f.content = Node::Element("packet");
    NodePtr pid = Node::Element("id");
    pid->AddChild(Node::Text(std::to_string(i)));
    f.content->AddChild(std::move(pid));
    ASSERT_TRUE(original.Publish(std::move(f)).ok());
  }
  {
    WalRecovery rec;
    auto wal = OpenWal(Dir(), WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok());
    for (int64_t i = 0; i < original.history_size(); ++i) {
      auto payload = frag::EncodeWirePayload(original.history_at(i),
                                             original.tag_structure(),
                                             frag::WireCodec::kPlainXml);
      ASSERT_TRUE(payload.ok());
      Frame frame;
      frame.type = FrameType::kFragment;
      frame.seq = static_cast<uint64_t>(i);
      frame.payload = std::move(payload).MoveValue();
      auto bytes = EncodeFrame(frame);
      ASSERT_TRUE(bytes.ok());
      ASSERT_TRUE(wal.value()->Append(i, bytes.value()).ok());
    }
    ASSERT_TRUE(wal.value()->Close().ok());
  }
  WalRecovery rec;
  auto wal = OpenWal(Dir(), WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());
  auto ts2 = frag::TagStructure::Parse(kTs);
  ASSERT_TRUE(ts2.ok());
  stream::StreamServer restored(kStream, std::move(ts2).MoveValue());
  ASSERT_TRUE(RestoreStream(rec, &restored).ok());
  ASSERT_EQ(restored.history_size(), original.history_size());
  for (int64_t i = 0; i < original.history_size(); ++i) {
    const auto& a = original.history_at(i);
    const auto& b = restored.history_at(i);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.tsid, b.tsid);
    EXPECT_EQ(a.valid_time, b.valid_time);
    EXPECT_TRUE(Node::DeepEqual(*a.content, *b.content));
  }
  // Fresh filler ids continue above everything restored — a re-fragmented
  // document after recovery can never collide with recovered fillers.
  EXPECT_GT(restored.NextFillerId(), 101);
}

// ---- Kill-point matrix ------------------------------------------------------
//
// The workload below hits every crash point: appends fire the append:*
// points each record, the 160-byte segment cap forces rotations, and
// checkpoint_every=5 forces checkpoints. The child installs a hook that
// _exit(42)s the process the first time the target point fires; the parent
// proves recovery at that exact state.

constexpr int kWorkloadRecords = 12;

[[noreturn]] void RunKillWorkload(const std::string& dir,
                                  const std::string& kill_point) {
  WalHooks::Install([kill_point](const char* point) {
    if (kill_point == point) ::_exit(42);
  });
  WalOptions opts;
  opts.fsync = FsyncPolicy::kAlways;
  opts.segment_bytes = 160;
  opts.checkpoint_every = 5;
  WalRecovery rec;
  auto wal = Wal::Open(dir, kStream, kTs, opts, &rec);
  if (!wal.ok()) ::_exit(99);
  for (int64_t i = 0; i < kWorkloadRecords; ++i) {
    if (!wal.value()->Append(i, RecordFor(i)).ok()) ::_exit(98);
  }
  ::_exit(0);  // the hook never fired: the matrix missed its point
}

TEST_F(WalTest, KillPointMatrixRecoversAContiguousAppendablePrefix) {
  ASSERT_EQ(WalHooks::Points().size(), 12u);
  for (const char* point : WalHooks::Points()) {
    // The retain:* points fire from the server's retention driver, not
    // from WAL appends; retention_test's kill matrix covers them.
    if (std::string(point).rfind("retain:", 0) == 0) continue;
    std::string dir = Dir(std::string("kill_") + point);
    std::replace(dir.begin(), dir.end(), ':', '_');
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunKillWorkload(dir, point);  // never returns
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << point;
    ASSERT_EQ(WEXITSTATUS(status), 42)
        << point << ": the workload never reached this crash point";

    WalRecovery rec;
    auto wal = OpenWal(dir, WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok()) << point << ": " << wal.status().ToString();
    // Whatever survived is a contiguous prefix of what was appended — no
    // gap, no reordering, no damaged record.
    ExpectPrefix(rec);
    int64_t n = static_cast<int64_t>(rec.records.size());
    ASSERT_LE(n, kWorkloadRecords) << point;
    // With fsync=always every acked append is durable; the only record
    // that may be missing is the one in flight when the process died.
    if (std::string(point) != "append:before_write" &&
        std::string(point) != "append:mid_write" &&
        std::string(point) != "append:after_write") {
      EXPECT_GT(n, 0) << point;
    }
    // A torn tail can only come from dying between the two halves of a
    // split write.
    if (std::string(point) != "append:mid_write") {
      EXPECT_FALSE(rec.report.torn_tail) << point;
    } else {
      EXPECT_TRUE(rec.report.torn_tail) << point;
      EXPECT_GT(rec.report.torn_bytes, 0u) << point;
    }
    EXPECT_EQ(wal.value()->next_seq(), n) << point;
    // The recovered log accepts the rest of the workload and survives a
    // clean reopen: recovery restored a fully consistent steady state.
    for (int64_t i = n; i < kWorkloadRecords; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok()) << point;
    }
    ASSERT_TRUE(wal.value()->Close().ok()) << point;
    WalRecovery rec2;
    auto wal2 = OpenWal(dir, WalOptions{}, &rec2);
    ASSERT_TRUE(wal2.ok()) << point << ": " << wal2.status().ToString();
    EXPECT_EQ(rec2.records.size(),
              static_cast<size_t>(kWorkloadRecords)) << point;
    ExpectPrefix(rec2, kWorkloadRecords);
    EXPECT_FALSE(rec2.report.torn_tail) << point;
  }
}

// Crashing inside a checkpoint must never lose the pre-checkpoint records:
// the tmp file only replaces the old files after its rename, and an
// interrupted GC is finished at the next open.
TEST_F(WalTest, KillDuringCheckpointPreservesEveryRecord) {
  for (const char* point :
       {"checkpoint:begin", "checkpoint:tmp_written",
        "checkpoint:after_rename", "checkpoint:after_gc"}) {
    std::string dir = Dir(std::string("ckpt_") + point);
    std::replace(dir.begin(), dir.end(), ':', '_');
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunKillWorkload(dir, point);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_EQ(WEXITSTATUS(status), 42) << point;
    WalRecovery rec;
    auto wal = OpenWal(dir, WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok()) << point << ": " << wal.status().ToString();
    // The workload checkpoints after the 5th append (every point in this
    // list is at-or-after that checkpoint began), and every appended
    // record was fsync'd, so all 5 must be there.
    EXPECT_GE(rec.records.size(), 5u) << point;
    ExpectPrefix(rec);
  }
}

// Regression: a crash at checkpoint:after_rename (rename done, GC not)
// leaves the pre-checkpoint active segment on disk with a base *below*
// the checkpoint count but an end exactly at it. Open must GC that
// segment, not adopt it as active — adopting it made the *next*
// checkpoint byte-copy checkpoint + segment into a file whose record
// count no longer matched its name, poisoning the directory.
TEST_F(WalTest, CheckpointAfterMidGcRecoveryDoesNotDuplicateRecords) {
  std::string dir = Dir("ckpt_dup");
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunKillWorkload(dir, "checkpoint:after_rename");
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_EQ(WEXITSTATUS(status), 42);

  WalRecovery rec;
  auto wal = OpenWal(dir, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  int64_t n = static_cast<int64_t>(rec.records.size());
  // The checkpoint fires inside Append(4): exactly records 0..4 are both
  // durable and checkpointed when the child dies.
  ASSERT_EQ(n, 5);
  EXPECT_EQ(rec.report.checkpoint_records, 5);
  ExpectPrefix(rec, 5);
  // Recovery finished the interrupted GC: nothing below the checkpoint
  // survives as a log segment.
  std::vector<std::string> entries = DirEntries(dir);
  for (const std::string& e : entries) {
    if (e.rfind("wal-", 0) != 0) continue;
    EXPECT_GE(e, std::string("wal-00000000000000000005.log")) << e;
  }
  for (int64_t i = n; i < kWorkloadRecords; ++i) {
    ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
  }
  // The second checkpoint is the regression proper: pre-fix it copied
  // records 0..4 twice (once from the checkpoint, once from the adopted
  // stale segment) and the reopen below failed with a count mismatch.
  ASSERT_TRUE(wal.value()->Checkpoint().ok());
  ASSERT_TRUE(wal.value()->Close().ok());

  WalRecovery rec2;
  auto wal2 = OpenWal(dir, WalOptions{}, &rec2);
  ASSERT_TRUE(wal2.ok()) << wal2.status().ToString();
  EXPECT_EQ(rec2.records.size(), static_cast<size_t>(kWorkloadRecords));
  EXPECT_EQ(rec2.report.checkpoint_records, kWorkloadRecords);
  ExpectPrefix(rec2, kWorkloadRecords);
}

// FsyncPolicy::kInterval bounds the loss window by wall clock, not by
// "until someone happens to append again": the background flusher must
// sync an idle dirty tail on its own.
TEST_F(WalTest, IntervalPolicySyncsAnIdleTailWithinTheInterval) {
  WalOptions opts;
  opts.fsync = FsyncPolicy::kInterval;
  opts.fsync_interval = std::chrono::milliseconds(20);
  WalRecovery rec;
  auto wal = OpenWal(Dir(), opts, &rec);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(0, RecordFor(0)).ok());
  // No further appends: only the flusher thread can sync this record.
  // Generous poll bound; normally one 20ms interval suffices.
  for (int i = 0; i < 400 && wal.value()->stats().syncs == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(wal.value()->stats().syncs, 1)
      << "idle dirty tail was never synced by the interval flusher";
  ASSERT_TRUE(wal.value()->Close().ok());
}

}  // namespace
}  // namespace xcql::net
