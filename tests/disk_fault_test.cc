// Disk-fault chaos tests (common/io_env.h): the third chaos axis, next to
// ChaosLink (network faults) and WalHooks (crash points). A FaultyIoEnv is
// installed under the durability layer and injects errno failures — ENOSPC,
// EIO, EDQUOT, short writes, fsync failures, rename failures — at every
// file-touching site, proving three contracts:
//
//  1. No injected failure crashes the process or silently loses acked
//     data: a restart always recovers a contiguous, byte-identical prefix.
//  2. fsyncgate: a descriptor whose fsync failed is never fsync'd again
//     (FaultyIoEnv counts violations; every test asserts the count is 0).
//  3. Self-healing: a degraded server re-arms into a fresh durable
//     generation once the disk heals, subscribers are cut exactly once per
//     epoch change, and the converged subscriber state is byte-identical
//     to a run that never faulted.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/io_env.h"
#include "frag/assembler.h"
#include "frag/fragment.h"
#include "net/frame.h"
#include "net/query_channel.h"
#include "net/server.h"
#include "net/subscriber.h"
#include "net/wal.h"
#include "stream/transport.h"
#include "xml/serializer.h"

#ifndef EDQUOT
#define EDQUOT 122
#endif

namespace xcql::net {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

using xcql::FaultRule;
using xcql::FaultyIoEnv;
using xcql::IoEnv;
using xcql::IoOp;

constexpr const char* kStream = "pkts";
constexpr const char* kPacketTs = R"(
<tag type="snapshot" id="1" name="packets">
  <tag type="event" id="2" name="packet">
    <tag type="snapshot" id="3" name="id"/>
    <tag type="snapshot" id="4" name="srcIP"/>
  </tag>
</tag>)";

frag::TagStructure MustParseTs(const std::string& xml) {
  auto r = frag::TagStructure::Parse(xml);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).MoveValue();
}

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

// Deterministic 64-byte WAL record for seq i (matches wal_test.cc).
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

// Recovery must always be a contiguous prefix 0..n-1 with byte-identical
// payloads; losing a suffix the fault made un-durable is allowed, losing
// or corrupting anything before it is not.
void ExpectPrefix(const WalRecovery& rec, int64_t at_least = 0) {
  ASSERT_GE(static_cast<int64_t>(rec.records.size()), at_least);
  for (size_t i = 0; i < rec.records.size(); ++i) {
    ASSERT_EQ(rec.records[i].seq, static_cast<int64_t>(i));
    ASSERT_EQ(rec.records[i].payload, PayloadFor(static_cast<int64_t>(i)));
  }
}

bool HasTmpFile(const std::string& dir) {
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().string().size() >= 4 &&
        e.path().string().substr(e.path().string().size() - 4) == ".tmp") {
      return true;
    }
  }
  return false;
}

// ---- FaultyIoEnv itself -----------------------------------------------------

class IoEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/xcql_ioenv_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    env_ = std::make_unique<FaultyIoEnv>(7);
    IoEnv::Install(env_.get());
  }
  void TearDown() override {
    IoEnv::Install(nullptr);
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  std::string root_;
  std::unique_ptr<FaultyIoEnv> env_;
};

TEST_F(IoEnvTest, OneShotRuleFailsOnceThenDisarms) {
  FaultRule rule;
  rule.path_prefix = root_;
  rule.op = IoOp::kWrite;
  rule.err = ENOSPC;
  int id = env_->AddRule(rule);

  int fd = IoEnv::Get()->Open((root_ + "/f").c_str(),
                              O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(IoEnv::Get()->Write(fd, "x", 1), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(IoEnv::Get()->Write(fd, "x", 1), 1);  // disarmed
  EXPECT_EQ(env_->hits(id), 1);
  EXPECT_EQ(env_->total_injected(), 1);
  IoEnv::Get()->Close(fd);
}

TEST_F(IoEnvTest, AfterNRuleIsStickyLikeADyingDisk) {
  FaultRule rule;
  rule.path_prefix = root_;
  rule.op = IoOp::kWrite;
  rule.err = EIO;
  rule.mode = FaultRule::Mode::kAfterN;
  rule.after_n = 2;
  int id = env_->AddRule(rule);

  int fd = IoEnv::Get()->Open((root_ + "/f").c_str(),
                              O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(IoEnv::Get()->Write(fd, "x", 1), 1);
  EXPECT_EQ(IoEnv::Get()->Write(fd, "x", 1), 1);
  for (int i = 0; i < 3; ++i) {
    errno = 0;
    EXPECT_EQ(IoEnv::Get()->Write(fd, "x", 1), -1);
    EXPECT_EQ(errno, EIO);
  }
  EXPECT_EQ(env_->hits(id), 3);
  env_->RemoveRule(id);
  EXPECT_EQ(IoEnv::Get()->Write(fd, "x", 1), 1);  // the disk healed
  IoEnv::Get()->Close(fd);
}

TEST_F(IoEnvTest, ShortWriteLandsHalfThenHardErrors) {
  FaultRule rule;
  rule.path_prefix = root_;
  rule.op = IoOp::kWrite;
  rule.err = ENOSPC;
  rule.mode = FaultRule::Mode::kAfterN;
  rule.after_n = 0;
  rule.short_write = true;
  env_->AddRule(rule);

  int fd = IoEnv::Get()->Open((root_ + "/f").c_str(),
                              O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  std::string data(100, 'a');
  ssize_t n = IoEnv::Get()->Write(fd, data.data(), data.size());
  ASSERT_GT(n, 0);  // the short half really landed
  ASSERT_LT(n, static_cast<ssize_t>(data.size()));
  errno = 0;
  EXPECT_EQ(IoEnv::Get()->Write(fd, data.data(), data.size()), -1);
  EXPECT_EQ(errno, ENOSPC);
  IoEnv::Get()->Close(fd);
  EXPECT_EQ(fs::file_size(root_ + "/f"), static_cast<uintmax_t>(n));
}

TEST_F(IoEnvTest, FsyncRetryViolationIsCounted) {
  FaultRule rule;
  rule.path_prefix = root_;
  rule.op = IoOp::kFsync;
  rule.err = EIO;
  env_->AddRule(rule);

  int fd = IoEnv::Get()->Open((root_ + "/f").c_str(),
                              O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(IoEnv::Get()->Fsync(fd), -1);
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
  // Deliberately break the fsyncgate rule — the bookkeeping must see it.
  IoEnv::Get()->Fsync(fd);
  EXPECT_EQ(env_->fsync_retry_violations(), 1);
  IoEnv::Get()->Close(fd);

  // Closing releases the descriptor: a *new* file reusing the fd number
  // must not inherit the failed-fsync taint.
  int fd2 = IoEnv::Get()->Open((root_ + "/g").c_str(),
                               O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd2, 0);
  EXPECT_EQ(IoEnv::Get()->Fsync(fd2), 0);
  EXPECT_EQ(env_->fsync_retry_violations(), 1);
  IoEnv::Get()->Close(fd2);
}

TEST_F(IoEnvTest, StatvfsOverrideUsesLongestPrefixAndFeedsIoFreeBytes) {
  env_->SetFreeBytes(root_, 1 << 20);
  env_->SetFreeBytes(root_ + "/inner", 4 << 20);
  EXPECT_EQ(xcql::IoFreeBytes(root_), 1 << 20);
  EXPECT_EQ(xcql::IoFreeBytes(root_ + "/inner/deep"), 4 << 20);
  env_->SetFreeBytes(root_, -1);
  env_->SetFreeBytes(root_ + "/inner", -1);
  EXPECT_GT(xcql::IoFreeBytes(root_), 0);  // back to the real filesystem
}

// ---- WAL fault matrix -------------------------------------------------------

class DiskFaultWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/xcql_disk_fault_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    env_ = std::make_unique<FaultyIoEnv>(42);
    IoEnv::Install(env_.get());
  }
  void TearDown() override {
    IoEnv::Install(nullptr);
    WalHooks::Install(nullptr);
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  std::string Dir(const std::string& name) { return root_ + "/" + name; }

  Result<std::unique_ptr<Wal>> OpenWal(const std::string& dir,
                                       const WalOptions& opts,
                                       WalRecovery* rec) {
    return Wal::Open(dir, "packets", kPacketTs, opts, rec);
  }

  std::string root_;
  std::unique_ptr<FaultyIoEnv> env_;
};

// Every append-path site × errno class: the append fails cleanly, the
// handle breaks (no out-of-order appends past a record of unknown fate),
// nothing crashes, and a restart recovers a contiguous prefix.
TEST_F(DiskFaultWalTest, AppendFaultMatrixBreaksCleanlyAndRecoversPrefix) {
  struct Case {
    const char* name;
    IoOp op;
    int err;
    bool short_write;
  };
  const Case kCases[] = {
      {"write-enospc", IoOp::kWrite, ENOSPC, false},
      {"write-eio", IoOp::kWrite, EIO, false},
      {"write-edquot", IoOp::kWrite, EDQUOT, false},
      {"write-short-then-enospc", IoOp::kWrite, ENOSPC, true},
      {"fsync-eio", IoOp::kFsync, EIO, false},
      {"fsync-enospc", IoOp::kFsync, ENOSPC, false},
  };
  int n = 0;
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    const std::string dir = Dir("wal" + std::to_string(n++));
    WalRecovery rec;
    auto wal = OpenWal(dir, WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (int64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
    }

    FaultRule rule;
    rule.path_prefix = dir + "/wal-";  // the active segment only
    rule.op = c.op;
    rule.err = c.err;
    rule.short_write = c.short_write;
    if (c.short_write) {
      // One-shot would disarm after the short half; the point of the
      // short-write case is the torn record *followed by* the hard error.
      rule.mode = FaultRule::Mode::kAfterN;
      rule.after_n = 0;
    }
    int id = env_->AddRule(rule);

    Status st = wal.value()->Append(3, RecordFor(3));
    ASSERT_FALSE(st.ok()) << c.name;
    EXPECT_TRUE(wal.value()->broken());
    EXPECT_GE(wal.value()->stats().append_failures, 1);
    // Broken means broken: the next append is refused without touching
    // the descriptor (an out-of-order record would corrupt recovery).
    EXPECT_FALSE(wal.value()->Append(4, RecordFor(4)).ok());
    EXPECT_GE(env_->hits(id), 1);
    wal.value()->Close();
    env_->ClearRules();

    WalRecovery rerec;
    auto rewal = OpenWal(dir, WalOptions{}, &rerec);
    ASSERT_TRUE(rewal.ok()) << rewal.status().ToString();
    ExpectPrefix(rerec, /*at_least=*/3);  // seqs 0..2 were acked durable
    EXPECT_LE(rerec.records.size(), 4u);
    // The recovered handle is appendable: life goes on from the prefix.
    int64_t next = rewal.value()->next_seq();
    EXPECT_TRUE(rewal.value()->Append(next, RecordFor(next)).ok());
    rewal.value()->Close();
  }
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

TEST_F(DiskFaultWalTest, RotationOpenFailureBreaksWithoutLosingThePrefix) {
  const std::string dir = Dir("wal");
  WalOptions opts;
  opts.segment_bytes = 256;  // 64-byte records: rotate every 4 appends
  WalRecovery rec;
  auto wal = OpenWal(dir, opts, &rec);
  ASSERT_TRUE(wal.ok());
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
  }

  FaultRule rule;
  rule.path_prefix = dir + "/wal-";
  rule.op = IoOp::kOpen;
  rule.err = ENOSPC;
  env_->AddRule(rule);

  // Appends keep failing at the rotation boundary until the handle breaks
  // or the rule disarms; either way nothing before the boundary is lost.
  int64_t seq = 3;
  Status st;
  while (seq < 10 && (st = wal.value()->Append(seq, RecordFor(seq))).ok()) {
    ++seq;
  }
  ASSERT_FALSE(st.ok());
  wal.value()->Close();
  env_->ClearRules();

  WalRecovery rerec;
  auto rewal = OpenWal(dir, WalOptions{}, &rerec);
  ASSERT_TRUE(rewal.ok());
  ExpectPrefix(rerec, /*at_least=*/3);
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

// Satellite: a failed checkpoint must unlink its half-written temp file —
// at the write, the fsync, and the rename site — and a stale *.tmp left by
// a crash is swept at the next Open.
TEST_F(DiskFaultWalTest, CheckpointFailureLeavesNoTmpBehind) {
  const IoOp kSites[] = {IoOp::kWrite, IoOp::kFsync, IoOp::kRename};
  int n = 0;
  for (IoOp site : kSites) {
    SCOPED_TRACE(static_cast<int>(site));
    const std::string dir = Dir("ckpt" + std::to_string(n++));
    WalRecovery rec;
    auto wal = OpenWal(dir, WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok());
    for (int64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
    }

    FaultRule rule;
    rule.path_prefix = dir + "/checkpoint-";
    rule.op = site;
    rule.err = site == IoOp::kWrite ? ENOSPC : EIO;
    env_->AddRule(rule);

    EXPECT_FALSE(wal.value()->Checkpoint().ok());
    EXPECT_FALSE(HasTmpFile(dir));
    // A checkpoint failure is not fatal to the log: appends and a retried
    // checkpoint (the rule is one-shot) both succeed.
    EXPECT_TRUE(wal.value()->Append(5, RecordFor(5)).ok());
    EXPECT_TRUE(wal.value()->Checkpoint().ok());
    EXPECT_EQ(wal.value()->checkpointed(), 6);
    wal.value()->Close();
    env_->ClearRules();

    WalRecovery rerec;
    auto rewal = OpenWal(dir, WalOptions{}, &rerec);
    ASSERT_TRUE(rewal.ok());
    ExpectPrefix(rerec, /*at_least=*/6);
    rewal.value()->Close();
  }
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

TEST_F(DiskFaultWalTest, StaleTmpFromACrashIsSweptAtOpen) {
  const std::string dir = Dir("wal");
  {
    WalRecovery rec;
    auto wal = OpenWal(dir, WalOptions{}, &rec);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(0, RecordFor(0)).ok());
    wal.value()->Close();
  }
  {
    std::ofstream out(dir + "/checkpoint-00000000000000000042.ckpt.tmp");
    out << "half-written checkpoint from a crashed process";
  }
  ASSERT_TRUE(HasTmpFile(dir));
  WalRecovery rec;
  auto wal = OpenWal(dir, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE(HasTmpFile(dir));
  ExpectPrefix(rec, /*at_least=*/1);
  wal.value()->Close();
}

// The re-arm core: a broken handle rebuilds in place into a fresh
// generation — new epoch, manifest carrying the base, the live records
// re-checkpointed through fresh descriptors — and appends resume.
TEST_F(DiskFaultWalTest, RearmRebuildsAFreshGenerationInPlace) {
  const std::string dir = Dir("wal");
  WalRecovery rec;
  auto wal = OpenWal(dir, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());
  const uint64_t old_epoch = wal.value()->epoch();
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
  }

  FaultRule rule;
  rule.path_prefix = dir + "/wal-";
  rule.op = IoOp::kFsync;
  rule.err = EIO;
  env_->AddRule(rule);
  ASSERT_FALSE(wal.value()->Append(5, RecordFor(5)).ok());
  ASSERT_TRUE(wal.value()->broken());

  // Retention already trimmed seqs 0..1 from memory: the caller re-arms
  // with its live tail, seqs 2..5 (including the frame whose append the
  // sick descriptor rejected — it never left memory).
  std::vector<std::shared_ptr<const std::string>> live;
  for (int64_t i = 2; i <= 5; ++i) {
    live.push_back(std::make_shared<const std::string>(RecordFor(i)));
  }
  ASSERT_TRUE(wal.value()->Rearm(2, live).ok());
  EXPECT_FALSE(wal.value()->broken());
  EXPECT_NE(wal.value()->epoch(), old_epoch);
  EXPECT_EQ(wal.value()->base_seq(), 2);
  EXPECT_EQ(wal.value()->next_seq(), 6);
  EXPECT_EQ(wal.value()->stats().rearms, 1);
  EXPECT_TRUE(wal.value()->Append(6, RecordFor(6)).ok());
  const uint64_t new_epoch = wal.value()->epoch();
  wal.value()->Close();

  // A restart sees only the new generation: base 2, records 2..6, the
  // re-armed epoch — no trace of the old one.
  WalRecovery rerec;
  auto rewal = OpenWal(dir, WalOptions{}, &rerec);
  ASSERT_TRUE(rewal.ok()) << rewal.status().ToString();
  EXPECT_EQ(rerec.epoch, new_epoch);
  EXPECT_EQ(rerec.base_seq, 2);
  ASSERT_EQ(rerec.records.size(), 5u);
  for (size_t i = 0; i < rerec.records.size(); ++i) {
    EXPECT_EQ(rerec.records[i].seq, static_cast<int64_t>(2 + i));
    EXPECT_EQ(rerec.records[i].payload,
              PayloadFor(static_cast<int64_t>(2 + i)));
  }
  rewal.value()->Close();
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

TEST_F(DiskFaultWalTest, RearmOnAStillSickDiskFailsAndStaysRetryable) {
  const std::string dir = Dir("wal");
  WalRecovery rec;
  auto wal = OpenWal(dir, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.value()->Append(i, RecordFor(i)).ok());
  }

  // A disk that is bad and stays bad: every write under the dir fails.
  FaultRule rule;
  rule.path_prefix = dir;
  rule.op = IoOp::kWrite;
  rule.err = EIO;
  rule.mode = FaultRule::Mode::kAfterN;
  rule.after_n = 0;
  int id = env_->AddRule(rule);
  ASSERT_FALSE(wal.value()->Append(3, RecordFor(3)).ok());
  ASSERT_TRUE(wal.value()->broken());

  std::vector<std::shared_ptr<const std::string>> live;
  for (int64_t i = 0; i <= 3; ++i) {
    live.push_back(std::make_shared<const std::string>(RecordFor(i)));
  }
  EXPECT_FALSE(wal.value()->Rearm(0, live).ok());
  EXPECT_TRUE(wal.value()->broken());

  env_->RemoveRule(id);  // the disk heals; the same Rearm now succeeds
  ASSERT_TRUE(wal.value()->Rearm(0, live).ok());
  EXPECT_FALSE(wal.value()->broken());
  EXPECT_EQ(wal.value()->next_seq(), 4);
  EXPECT_TRUE(wal.value()->Append(4, RecordFor(4)).ok());
  wal.value()->Close();

  WalRecovery rerec;
  auto rewal = OpenWal(dir, WalOptions{}, &rerec);
  ASSERT_TRUE(rewal.ok());
  ExpectPrefix(rerec, /*at_least=*/5);
  rewal.value()->Close();
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

// Satellite: the interval flusher's fsync failure must surface through the
// failure callback (there is no append on which to return an error).
TEST_F(DiskFaultWalTest, FlusherFsyncFailureFiresTheFailureCallback) {
  const std::string dir = Dir("wal");
  WalOptions opts;
  opts.fsync = FsyncPolicy::kInterval;
  opts.fsync_interval = 10ms;
  WalRecovery rec;
  auto wal = OpenWal(dir, opts, &rec);
  ASSERT_TRUE(wal.ok());

  std::atomic<int> fired{0};
  Status seen;
  std::mutex seen_mu;
  wal.value()->SetFailureCallback([&](const Status& why) {
    std::lock_guard<std::mutex> lock(seen_mu);
    seen = why;
    fired.fetch_add(1);
  });

  ASSERT_TRUE(wal.value()->Append(0, RecordFor(0)).ok());
  FaultRule rule;
  rule.path_prefix = dir + "/wal-";
  rule.op = IoOp::kFsync;
  rule.err = EIO;
  env_->AddRule(rule);
  ASSERT_TRUE(wal.value()->Append(1, RecordFor(1)).ok());  // dirties the log

  ASSERT_TRUE(PollFor([&] { return fired.load() > 0; }, 5s));
  EXPECT_TRUE(wal.value()->broken());
  {
    std::lock_guard<std::mutex> lock(seen_mu);
    EXPECT_FALSE(seen.ok());
  }
  // Exactly one notification per break, and — fsyncgate — the broken
  // descriptor was never fsync'd again, including by Close.
  EXPECT_EQ(fired.load(), 1);
  wal.value()->SetFailureCallback(nullptr);
  wal.value()->Close();
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

// Real-ENOSPC smoke: no injection, a real kernel limit. A child caps its
// file size with RLIMIT_FSIZE (SIGXFSZ ignored, so writes fail with
// EFBIG), appends until the disk "fills", and must break cleanly; the
// parent then recovers a contiguous prefix.
TEST_F(DiskFaultWalTest, RealFileLimitEnospcSmoke) {
  const std::string dir = Dir("wal");
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    struct rlimit rl;
    rl.rlim_cur = 8192;
    rl.rlim_max = 8192;
    if (::setrlimit(RLIMIT_FSIZE, &rl) != 0) _exit(4);
    WalRecovery rec;
    auto wal = Wal::Open(dir, "packets", kPacketTs, WalOptions{}, &rec);
    if (!wal.ok()) _exit(2);
    bool failed_cleanly = false;
    for (int64_t i = 0; i < 1000; ++i) {
      if (!wal.value()->Append(i, RecordFor(i)).ok()) {
        failed_cleanly = wal.value()->broken();
        break;
      }
    }
    _exit(failed_cleanly ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died from a signal";
  ASSERT_EQ(WEXITSTATUS(status), 0);

  WalRecovery rec;
  auto wal = OpenWal(dir, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ExpectPrefix(rec, /*at_least=*/1);  // the limit bit after ~120 records
  EXPECT_LT(rec.records.size(), 1000u);
  int64_t next = wal.value()->next_seq();
  EXPECT_TRUE(wal.value()->Append(next, RecordFor(next)).ok());
  wal.value()->Close();
}

// ---- Query registry ---------------------------------------------------------

RemoteQuerySpec QuerySpec(const std::string& text) {
  RemoteQuerySpec spec;
  spec.method = 2;  // lang::ExecMethod::kQaCPlus
  spec.text = text;
  return spec;
}

// Satellite: a QUERY whose registry record cannot be persisted must be
// rejected — never acknowledged, then silently volatile. The registry
// truncates the partial record away and stays usable for the next QUERY.
TEST_F(DiskFaultWalTest, QueryThatCannotPersistIsRejectedNotVolatile) {
  const std::string reg = Dir("queries.reg");
  const struct {
    const char* name;
    IoOp op;
  } kSites[] = {{"write", IoOp::kWrite}, {"fsync", IoOp::kFsync}};

  for (const auto& site : kSites) {
    SCOPED_TRACE(site.name);
    QueryChannelOptions copts;
    copts.registry_path = reg;
    QueryChannel channel(kStream, MustParseTs(kPacketTs), copts);
    ASSERT_TRUE(channel.Open().ok());
    const int64_t recovered = channel.stats().recovered_queries;
    // The second site iteration reopens the same registry, so the first
    // iteration's admitted query replays into the baseline.
    const int base_active = channel.stats().active_queries;

    FaultRule rule;
    rule.path_prefix = reg;
    rule.op = site.op;
    rule.err = site.op == IoOp::kWrite ? ENOSPC : EIO;
    env_->AddRule(rule);

    const std::string text =
        std::string("for $p in stream(\"pkts\")//packet return string($p/") +
        (site.op == IoOp::kWrite ? "id" : "srcIP") + ")";
    auto refused = channel.Register(QuerySpec(text));
    ASSERT_FALSE(refused.ok()) << site.name;
    EXPECT_EQ(channel.stats().active_queries, base_active);

    // The rule was one-shot; the registry repaired itself (partial record
    // truncated, fsync-failed descriptor replaced) and the same QUERY now
    // registers durably.
    auto admitted = channel.Register(QuerySpec(text));
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    EXPECT_EQ(channel.stats().active_queries, base_active + 1);

    // A reopen replays exactly the admitted registrations — the refused
    // record never hit the durable registry.
    QueryChannel fresh(kStream, MustParseTs(kPacketTs), copts);
    ASSERT_TRUE(fresh.Open().ok());
    EXPECT_EQ(fresh.stats().recovered_queries, recovered + 1);
    env_->ClearRules();
  }
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

// ---- Server: degrade, self-heal, watermarks ---------------------------------

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

frag::Fragment MakeRoot(const std::vector<int64_t>& hole_ids) {
  frag::Fragment f;
  f.id = 0;
  f.tsid = 1;
  f.valid_time = DateTime(999);
  f.content = Node::Element("packets");
  for (int64_t id : hole_ids) f.content->AddChild(frag::MakeHole(id, 2));
  return f;
}

std::string ViewOf(const frag::FragmentStore& store) {
  auto view = frag::Temporalize(store, false);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  if (!view.ok()) return "";
  return SerializeXml(*view.value());
}

class DiskFaultTransportTest : public DiskFaultWalTest {};

// The acceptance centerpiece: a chaos soak of repeated fail/heal cycles
// with a live subscriber. Each cycle the disk fails once (degrading the
// server), then heals; the self-healing supervisor re-arms into a fresh
// durable generation. After N cycles the subscriber's converged document
// must be byte-identical to a run that never faulted, the re-arm counter
// must equal N, and no descriptor was ever fsync'd after a failed fsync.
TEST_F(DiskFaultTransportTest, SelfHealingSoakConvergesByteIdentical) {
  constexpr int kCycles = 3;
  constexpr int kPerCycle = 3;

  const std::string dir = Dir("wal");
  WalRecovery rec;
  auto wal = OpenWal(dir, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());

  stream::StreamServer source(kStream, MustParseTs(kPacketTs));
  FragmentServerOptions sopts;
  sopts.wal = wal.value().get();
  sopts.durability.self_heal = true;
  sopts.durability.probe_initial = 20ms;
  sopts.durability.probe_max = 100ms;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(source.Publish(MakeRoot({1, 2})).ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = kStream;
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitForSeq(0, 10s));

  int seq = 0;  // last published seq (the root was seq 0)
  int pkt = 0;
  std::vector<frag::Fragment> published;  // for the never-faulted reference
  for (int cycle = 1; cycle <= kCycles; ++cycle) {
    SCOPED_TRACE(cycle);
    // The disk fails exactly once: the next publish's append breaks the
    // WAL and the server degrades, cutting the subscriber.
    FaultRule rule;
    rule.path_prefix = dir + "/wal-";
    rule.op = cycle % 2 ? IoOp::kFsync : IoOp::kWrite;
    rule.err = cycle % 2 ? EIO : ENOSPC;
    env_->AddRule(rule);

    frag::Fragment f = MakePacket(1 + pkt % 2, 1000 + pkt * 10, pkt);
    ++pkt;
    published.push_back(f);
    ASSERT_TRUE(source.Publish(f).ok());
    ++seq;
    ASSERT_TRUE(PollFor([&] { return server.wal_degraded(); }, 5s));

    // The fault was one-shot, so the disk is already healed: the probe
    // loop re-arms on its own. Every frame — including the one the WAL
    // rejected — is re-checkpointed into the fresh generation.
    ASSERT_TRUE(PollFor(
        [&] {
          return !server.wal_degraded() &&
                 server.metrics().durability_rearms == cycle;
        },
        10s));
    EXPECT_EQ(server.epoch(), wal.value()->epoch());
    EXPECT_EQ(wal.value()->stats().rearms, cycle);
    EXPECT_GT(server.time_in_degraded_ms(), 0);

    // Durable life resumes: more traffic lands in the new generation,
    // and the subscriber reconverges onto it before the next fault (so
    // every cycle's epoch change is actually observed, not collapsed
    // into one final reconnect).
    for (int i = 0; i < kPerCycle; ++i) {
      frag::Fragment g = MakePacket(1 + pkt % 2, 1000 + pkt * 10, pkt);
      ++pkt;
      published.push_back(g);
      ASSERT_TRUE(source.Publish(g).ok());
      ++seq;
    }
    ASSERT_TRUE(sub.WaitForSeq(seq, 15s))
        << "cycle " << cycle << " stuck at " << sub.last_seq() << " of "
        << seq;
  }

  // The subscriber reconverged across every cut: at least one epoch
  // change per cycle (degrade and re-arm each mint one; a re-arm faster
  // than the reconnect hides the volatile epoch) and never more than two.
  EXPECT_GE(sub.metrics().epoch_resets, kCycles);
  EXPECT_LE(sub.metrics().epoch_resets, 2 * kCycles);
  EXPECT_EQ(sub.server_epoch(), wal.value()->epoch());

  frag::FragmentStore store(MustParseTs(kPacketTs), kStream);
  ASSERT_TRUE(sub.DrainInto(&store).ok());
  sub.Stop();
  server.Stop();

  // Byte-identical to a run that never faulted.
  frag::FragmentStore ref(MustParseTs(kPacketTs), kStream);
  ASSERT_TRUE(ref.Insert(MakeRoot({1, 2})).ok());
  for (const auto& f : published) ASSERT_TRUE(ref.Insert(f).ok());
  EXPECT_EQ(store.size(), ref.size());
  EXPECT_EQ(ViewOf(store), ViewOf(ref));

  // And durable: a restart recovers every frame of the final generation.
  const uint64_t final_epoch = wal.value()->epoch();
  wal.value()->Close();
  WalRecovery rerec;
  auto rewal = OpenWal(dir, WalOptions{}, &rerec);
  ASSERT_TRUE(rewal.ok());
  EXPECT_EQ(rerec.epoch, final_epoch);
  EXPECT_EQ(rerec.base_seq, 0);
  EXPECT_EQ(static_cast<int64_t>(rerec.records.size()), seq + 1);
  rewal.value()->Close();
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

// Self-heal off: degraded is terminal until the operator (here, the test)
// calls TryRearm explicitly.
TEST_F(DiskFaultTransportTest, ManualTryRearmRestoresDurability) {
  const std::string dir = Dir("wal");
  WalRecovery rec;
  auto wal = OpenWal(dir, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());

  stream::StreamServer source(kStream, MustParseTs(kPacketTs));
  FragmentServerOptions sopts;
  sopts.wal = wal.value().get();
  sopts.durability.self_heal = false;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(server.TryRearm().ok());  // not degraded: a no-op
  EXPECT_EQ(server.metrics().durability_rearms, 0);

  ASSERT_TRUE(source.Publish(MakeRoot({1, 2})).ok());
  FaultRule rule;
  rule.path_prefix = dir + "/wal-";
  rule.op = IoOp::kWrite;
  rule.err = ENOSPC;
  env_->AddRule(rule);
  ASSERT_TRUE(source.Publish(MakePacket(1, 1000, 0)).ok());
  ASSERT_TRUE(server.wal_degraded());

  // Nobody re-arms on their own with self_heal off.
  std::this_thread::sleep_for(100ms);
  ASSERT_TRUE(server.wal_degraded());
  EXPECT_GT(server.time_in_degraded_ms(), 0);

  ASSERT_TRUE(server.TryRearm().ok());
  EXPECT_FALSE(server.wal_degraded());
  EXPECT_EQ(server.epoch(), wal.value()->epoch());
  EXPECT_EQ(server.metrics().durability_rearms, 1);
  EXPECT_GE(server.metrics().degraded_ms_total, 0);
  ASSERT_TRUE(source.Publish(MakePacket(2, 1010, 1)).ok());

  FragmentSubscriberOptions opts;
  opts.port = server.port();
  opts.stream = kStream;
  FragmentSubscriber sub(opts);
  ASSERT_TRUE(sub.Start().ok());
  ASSERT_TRUE(sub.WaitForSeq(2, 10s));
  EXPECT_EQ(sub.server_epoch(), wal.value()->epoch());
  sub.Stop();
  server.Stop();

  wal.value()->Close();
  WalRecovery rerec;
  auto rewal = OpenWal(dir, WalOptions{}, &rerec);
  ASSERT_TRUE(rewal.ok());
  EXPECT_EQ(rerec.records.size(), 3u);  // root + both packets survived
  rewal.value()->Close();
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

// Hard watermark: durability degrades preemptively while appends would
// still succeed, refuses to re-arm while space stays scarce, and re-arms
// once free bytes recover.
TEST_F(DiskFaultTransportTest, HardWatermarkDegradesPreemptivelyThenHeals) {
  const std::string dir = Dir("wal");
  WalRecovery rec;
  auto wal = OpenWal(dir, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());

  env_->SetFreeBytes(dir, 1 << 20);  // 1 MiB free, hard mark at 64 MiB

  stream::StreamServer source(kStream, MustParseTs(kPacketTs));
  FragmentServerOptions sopts;
  sopts.wal = wal.value().get();
  sopts.durability.self_heal = true;
  sopts.durability.probe_initial = 20ms;
  sopts.durability.probe_max = 100ms;
  sopts.durability.hard_free_bytes = 64 << 20;
  sopts.durability.watermark_interval = 20ms;
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  // No append ever failed — the supervisor saw the statvfs reading and
  // degraded before the disk could tear a half-written record.
  ASSERT_TRUE(PollFor([&] { return server.wal_degraded(); }, 5s));
  EXPECT_EQ(server.metrics().wal_append_failures, 0);
  EXPECT_EQ(server.metrics().data_dir_free_bytes, 1 << 20);

  // Scarce space also vetoes re-arming: degraded must persist even though
  // the probe write itself would succeed.
  std::this_thread::sleep_for(200ms);
  ASSERT_TRUE(server.wal_degraded());
  EXPECT_EQ(server.metrics().durability_rearms, 0);

  // Space recovers; the supervisor re-arms on its own.
  env_->SetFreeBytes(dir, 512ll << 20);
  ASSERT_TRUE(PollFor(
      [&] {
        return !server.wal_degraded() &&
               server.metrics().durability_rearms == 1;
      },
      10s));
  EXPECT_EQ(server.epoch(), wal.value()->epoch());

  ASSERT_TRUE(source.Publish(MakeRoot({1, 2})).ok());
  ASSERT_TRUE(source.Publish(MakePacket(1, 1000, 0)).ok());
  server.Stop();
  wal.value()->Close();

  WalRecovery rerec;
  auto rewal = OpenWal(dir, WalOptions{}, &rerec);
  ASSERT_TRUE(rewal.ok());
  EXPECT_EQ(rerec.records.size(), 2u);
  rewal.value()->Close();
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

// Soft watermark: scarce-but-not-critical space forces a retention pass at
// the next publish, trimming the frame log down to its windows early.
TEST_F(DiskFaultTransportTest, SoftWatermarkForcesAnEmergencyRetentionPass) {
  const std::string dir = Dir("wal");
  WalRecovery rec;
  auto wal = OpenWal(dir, WalOptions{}, &rec);
  ASSERT_TRUE(wal.ok());

  stream::StreamServer source(kStream, MustParseTs(kPacketTs));
  FragmentServerOptions sopts;
  sopts.wal = wal.value().get();
  sopts.durability.self_heal = false;
  sopts.durability.soft_free_bytes = 64 << 20;
  sopts.durability.watermark_interval = 20ms;
  sopts.retention.max_frames = 4;
  sopts.retention.check_every = 1000000;  // never trip the counter path
  FragmentServer server(&source, sopts);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(source.Publish(MakeRoot({1, 2})).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(source.Publish(MakePacket(1 + i % 2, 1000 + i * 10, i)).ok());
  }
  // Plenty of space: no emergency pass, the log keeps everything (the
  // counter path would need a million publishes).
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(server.metrics().emergency_retention_runs, 0);
  EXPECT_EQ(server.log_base(), 0);

  // Space dips below the soft mark; publishes now run emergency passes.
  // The live root pins the first pass (it gets refreshed, not trimmed),
  // so the log visibly shrinks on a later one.
  env_->SetFreeBytes(dir, 1 << 20);
  int next_pkt = 10;
  ASSERT_TRUE(PollFor(
      [&] {
        frag::Fragment f =
            MakePacket(1 + next_pkt % 2, 1000 + next_pkt * 10, next_pkt);
        ++next_pkt;
        EXPECT_TRUE(source.Publish(f).ok());
        return server.log_base() > 0;
      },
      10s));
  EXPECT_GE(server.metrics().emergency_retention_runs, 1);
  EXPECT_FALSE(server.wal_degraded());  // soft is advisory, never degrades

  server.Stop();
  wal.value()->Close();
  EXPECT_EQ(env_->fsync_retry_violations(), 0);
}

}  // namespace
}  // namespace xcql::net
