#include "net/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <random>

#include "common/file_util.h"
#include "common/io_env.h"
#include "common/string_util.h"
#include "frag/codec.h"

namespace xcql::net {

namespace {

// Every syscall below routes through the process-wide IoEnv, so disk-fault
// tests can inject errno failures at any site (docs/ROBUSTNESS.md).
IoEnv* io() { return IoEnv::Get(); }

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kSegmentPrefix = "wal-";
constexpr const char* kSegmentSuffix = ".log";
constexpr const char* kCheckpointPrefix = "checkpoint-";
constexpr const char* kCheckpointSuffix = ".ckpt";
constexpr const char* kTmpSuffix = ".tmp";

std::string SegmentName(int64_t base_seq) {
  return StringPrintf("%s%020lld%s", kSegmentPrefix,
                      static_cast<long long>(base_seq), kSegmentSuffix);
}

std::string CheckpointName(int64_t records) {
  return StringPrintf("%s%020lld%s", kCheckpointPrefix,
                      static_cast<long long>(records), kCheckpointSuffix);
}

// Parses "<prefix><20 digits><suffix>", returning the number or -1.
int64_t ParseNumberedName(const std::string& name, const char* prefix,
                          const char* suffix) {
  size_t plen = std::strlen(prefix);
  size_t slen = std::strlen(suffix);
  if (name.size() != plen + 20 + slen) return -1;
  if (name.compare(0, plen, prefix) != 0) return -1;
  if (name.compare(plen + 20, slen, suffix) != 0) return -1;
  int64_t v = 0;
  for (size_t i = plen; i < plen + 20; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return -1;
    v = v * 10 + (c - '0');
  }
  return v;
}

bool EndsWith(const std::string& s, const char* suffix) {
  size_t slen = std::strlen(suffix);
  return s.size() >= slen && s.compare(s.size() - slen, slen, suffix) == 0;
}

// Schema equality must survive re-serialization — the caller may pass the
// generator's raw XML while the manifest holds (or the server re-emits) the
// parsed round-trip — so compare the canonical ToXml form, falling back to
// the raw string only when it does not parse.
uint64_t CanonicalTsHash(const std::string& ts_xml) {
  auto ts = frag::TagStructure::Parse(ts_xml);
  return ts.ok() ? TagStructureHash(ts.value()) : TagStructureHash(ts_xml);
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = io()->OpenDir(dir.c_str());
  if (d == nullptr) return ErrnoStatus("opendir", dir);
  std::vector<std::string> names;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

// fsync on the directory itself, so a freshly created/renamed file's
// directory entry survives a crash too.
Status SyncDir(const std::string& dir) {
  int fd = io()->Open(dir.c_str(), O_RDONLY | O_DIRECTORY, 0);
  if (fd < 0) return ErrnoStatus("open dir", dir);
  int rc = io()->Fsync(fd);
  io()->Close(fd);
  if (rc != 0) return ErrnoStatus("fsync dir", dir);
  return Status::OK();
}

Status SyncFd(int fd, const std::string& path) {
  if (io()->Fsync(fd) != 0) return ErrnoStatus("fsync", path);
  return Status::OK();
}

// Writes a whole file durably: tmp-less, for the manifest at init time
// (nothing references the directory until Open returns).
Status WriteFileSynced(const std::string& path, std::string_view data) {
  int fd = io()->Open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = io()->Write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = ErrnoStatus("write", path);
      io()->Close(fd);
      return st;
    }
    off += static_cast<size_t>(n);
  }
  Status st = SyncFd(fd, path);
  io()->Close(fd);
  return st;
}

// Encodes the MANIFEST: the HELLO identity frame, plus — for a re-armed
// generation whose records start past 0 — a kReplayFrom base marker. Base
// 0 stays a single frame, byte-identical to what every pre-existing data
// dir holds.
Result<std::string> EncodeManifest(uint64_t epoch,
                                   const std::string& stream_name,
                                   const std::string& ts_xml,
                                   int64_t base_seq) {
  Hello manifest;
  manifest.stream_name = stream_name;
  manifest.ts_hash = TagStructureHash(ts_xml);
  manifest.tag_structure_xml = ts_xml;
  Frame frame;
  frame.type = FrameType::kHello;
  frame.seq = epoch;
  frame.payload = EncodeHello(manifest);
  XCQL_ASSIGN_OR_RETURN(std::string bytes, EncodeFrame(frame));
  if (base_seq > 0) {
    Frame marker;
    marker.type = FrameType::kReplayFrom;
    marker.seq = static_cast<uint64_t>(base_seq);
    XCQL_ASSIGN_OR_RETURN(std::string marker_bytes, EncodeFrame(marker));
    bytes += marker_bytes;
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// WalHooks: a process-wide hook behind one relaxed atomic, so the
// production path (no hook) costs a single load per crash point.

std::atomic<bool> g_hook_installed{false};
std::mutex g_hook_mu;
WalHooks::Hook g_hook;  // guarded by g_hook_mu

// Every boundary the WAL announces. Order mirrors the lifecycle: append,
// rotate, checkpoint.
const char* kWalCrashPoints[] = {
    "append:before_write",   // record not yet on disk
    "append:mid_write",      // half the record's bytes on disk (torn tail)
    "append:after_write",    // record written, not yet fsync'd
    "append:after_sync",     // record durable
    "rotate:sealed",         // old segment synced+closed, new one absent
    "rotate:after_open",     // new segment exists, dir entry may not
    "checkpoint:begin",      // nothing moved yet
    "checkpoint:tmp_written",  // tmp complete + fsync'd, not yet renamed
    "checkpoint:after_rename",  // checkpoint visible, old files not GC'd
    "checkpoint:after_gc",   // steady state restored
    // Fired by the server's retention driver (net/server.cc), not the WAL
    // itself: the boundary between "checkpoint covers the range" and "the
    // in-memory frame log dropped it". A kill between them must never leave
    // a seq both GC'd and un-checkpointed.
    "retain:before_trim",    // checkpoint durable, frame log still intact
    "retain:after_trim",     // frame log trimmed, stores compacted
};

// One decoded file of records (checkpoint or segment).
struct ScannedFile {
  std::vector<WalRecord> records;
  size_t good_bytes = 0;   // offset just past the last complete record
  size_t total_bytes = 0;  // file size
  bool torn = false;       // complete-record prefix, then a partial record
};

// Parses `bytes` as consecutive v2 FRAGMENT frames. `allow_torn` (the
// newest segment only) turns an incomplete final record into torn=true;
// anywhere else an incomplete or invalid record is corruption.
Result<ScannedFile> ScanRecordFile(const std::string& path,
                                   const std::string& bytes,
                                   bool allow_torn) {
  ScannedFile out;
  out.total_bytes = bytes.size();
  FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  // Offset of a CRC-failed record seen in torn-tolerant mode. Under
  // fsync=interval/never a crash can expose a record whose framing
  // completed (i_size ran ahead) but whose payload blocks never flushed —
  // a torn tail that fails its checksum instead of stopping short. That
  // reading only holds for the *final* record: if anything complete
  // follows, the failed record's bytes were written and then damaged.
  size_t bad_crc_at = std::string::npos;
  uint64_t bad_crc_seq = 0;
  for (;;) {
    size_t before = bytes.size() - reader.buffered();
    auto next = reader.Next();
    if (!next.ok()) {
      // A torn append is always a *prefix* of a valid frame — the magic
      // and version bytes land first — so a framing error (bad magic,
      // bogus length) means the bytes on disk were damaged after they
      // were written. Except in the newest segment, where a crashed
      // filesystem may expose never-written garbage past the last
      // complete record: treat that as the torn tail.
      if (allow_torn) {
        out.good_bytes = bad_crc_at != std::string::npos ? bad_crc_at
                                                         : before;
        out.torn = true;
        return out;
      }
      return Status::Internal("wal poison: " + path + " at offset " +
                              std::to_string(before) + ": " +
                              next.status().message());
    }
    if (!next.value().has_value()) {
      // Incomplete (or absent) record at EOF.
      if (bad_crc_at != std::string::npos) {
        // The CRC failure was the final record after all: torn tail.
        out.good_bytes = bad_crc_at;
        out.torn = true;
        return out;
      }
      out.good_bytes = before;
      if (reader.buffered() == 0) return out;  // clean end
      if (allow_torn) {
        out.torn = true;
        return out;
      }
      return Status::Internal(
          "wal poison: " + path + " ends with " +
          std::to_string(reader.buffered()) +
          " bytes of a partial record inside a sealed file");
    }
    const Frame& frame = *next.value();
    if (bad_crc_at != std::string::npos) {
      // A complete record follows the checksum failure, so the failed
      // record cannot be a torn tail: its bytes reached the disk and
      // were damaged afterwards. Refusing to serve is the only honest
      // answer — the record's content is gone.
      return Status::Internal(
          "wal poison: " + path + " at offset " +
          std::to_string(bad_crc_at) + ": record seq " +
          std::to_string(bad_crc_seq) +
          " failed its CRC32C mid-log (disk corruption, not a torn "
          "write)");
    }
    if (!frame.crc_ok) {
      if (allow_torn) {
        // Might be the torn tail (see above) — decided by what follows.
        bad_crc_at = before;
        bad_crc_seq = frame.seq;
        continue;
      }
      // Sealed files are never appended to, so a checksum failure there
      // is bit rot no matter where it sits.
      return Status::Internal(
          "wal poison: " + path + " at offset " + std::to_string(before) +
          ": record seq " + std::to_string(frame.seq) +
          " failed its CRC32C (disk corruption, not a torn write)");
    }
    if (frame.type != FrameType::kFragment) {
      return Status::Internal(
          "wal poison: " + path + " at offset " + std::to_string(before) +
          ": unexpected " + std::string(FrameTypeName(frame.type)) +
          " frame (wal files hold FRAGMENT records only)");
    }
    WalRecord rec;
    rec.seq = static_cast<int64_t>(frame.seq);
    rec.flags = frame.flags;
    rec.payload = frame.payload;
    out.records.push_back(std::move(rec));
    out.good_bytes = bytes.size() - reader.buffered();
  }
}

}  // namespace

uint64_t MintEpoch() {
  std::random_device rd;
  uint64_t e = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  e ^= static_cast<uint64_t>(::getpid()) << 48;
  e ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return e == 0 ? 1 : e;  // 0 means "no epoch" on the wire
}

void WalHooks::Install(Hook hook) {
  std::lock_guard<std::mutex> lock(g_hook_mu);
  g_hook = std::move(hook);
  g_hook_installed.store(g_hook != nullptr, std::memory_order_release);
}

bool WalHooks::installed() {
  return g_hook_installed.load(std::memory_order_acquire);
}

void WalHooks::At(const char* point) {
  if (!installed()) return;
  Hook hook;
  {
    std::lock_guard<std::mutex> lock(g_hook_mu);
    hook = g_hook;
  }
  if (hook) hook(point);
}

const std::vector<const char*>& WalHooks::Points() {
  static const std::vector<const char*> points(
      std::begin(kWalCrashPoints), std::end(kWalCrashPoints));
  return points;
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "never") return FsyncPolicy::kNever;
  return Status::InvalidArgument("unknown fsync policy '" +
                                 std::string(name) +
                                 "' (always | interval | never)");
}

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), opts_(options) {}

Wal::~Wal() { (void)Close(); }

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                       const std::string& stream_name,
                                       const std::string& ts_xml,
                                       const WalOptions& options,
                                       WalRecovery* recovery) {
  if (dir.empty()) return Status::InvalidArgument("wal needs a directory");
  if (io()->Mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("mkdir", dir);
  }
  XCQL_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));

  // Finish any interrupted checkpoint: a tmp file was never visible to
  // recovery, so deleting it is always safe.
  std::vector<int64_t> checkpoints;
  std::vector<int64_t> segments;
  bool have_manifest = false;
  for (const std::string& name : names) {
    if (EndsWith(name, kTmpSuffix)) {
      (void)io()->Unlink((dir + "/" + name).c_str());
      continue;
    }
    if (name == kManifestName) {
      have_manifest = true;
      continue;
    }
    int64_t seg = ParseNumberedName(name, kSegmentPrefix, kSegmentSuffix);
    if (seg >= 0) {
      segments.push_back(seg);
      continue;
    }
    int64_t ckpt =
        ParseNumberedName(name, kCheckpointPrefix, kCheckpointSuffix);
    if (ckpt >= 0) {
      checkpoints.push_back(ckpt);
      continue;
    }
    // Foreign files are left alone but called out: a data dir is owned.
    std::fprintf(stderr, "wal: ignoring unrecognized file %s/%s\n",
                 dir.c_str(), name.c_str());
  }
  std::sort(checkpoints.begin(), checkpoints.end());
  std::sort(segments.begin(), segments.end());

  WalRecovery rec;

  // --- Manifest: epoch + stream identity. -------------------------------
  bool fresh = false;
  if (have_manifest) {
    XCQL_ASSIGN_OR_RETURN(std::string bytes,
                          ReadFileToString(dir + "/" + kManifestName));
    FrameReader reader;
    reader.Feed(bytes.data(), bytes.size());
    auto frame = reader.Next();
    bool ok = frame.ok() && frame.value().has_value() &&
              frame.value()->crc_ok &&
              frame.value()->type == FrameType::kHello;
    // An optional second frame is the base marker a Rearm wrote: a
    // kReplayFrom whose seq is the first record seq this generation
    // holds. A single-frame manifest (every pre-Rearm dir) means base 0.
    int64_t manifest_base = 0;
    if (ok && reader.buffered() > 0) {
      auto marker = reader.Next();
      ok = marker.ok() && marker.value().has_value() &&
           marker.value()->crc_ok &&
           marker.value()->type == FrameType::kReplayFrom &&
           reader.buffered() == 0;
      if (ok) manifest_base = static_cast<int64_t>(marker.value()->seq);
    }
    if (!ok) {
      // The manifest is written (and fsync'd) before the first segment is
      // created, so a damaged manifest alongside records is corruption; a
      // damaged manifest alone is a crash during init of an empty dir,
      // which re-initializes safely.
      if (segments.empty() && checkpoints.empty()) {
        have_manifest = false;
      } else {
        return Status::Internal("wal poison: " + dir + "/" + kManifestName +
                                " is damaged but the directory holds "
                                "records; refusing to guess the epoch");
      }
    } else {
      auto hello = DecodeHello(frame.value()->payload);
      if (!hello.ok()) {
        return Status::Internal("wal poison: undecodable manifest: " +
                                hello.status().message());
      }
      rec.epoch = frame.value()->seq;
      if (rec.epoch == 0) {
        return Status::Internal("wal poison: manifest carries epoch 0");
      }
      rec.base_seq = manifest_base;
      rec.stream_name = hello.value().stream_name;
      rec.ts_xml = hello.value().tag_structure_xml;
      if (!stream_name.empty() && stream_name != rec.stream_name) {
        return Status::InvalidArgument(
            "wal holds stream '" + rec.stream_name + "', not '" +
            stream_name + "': reset the data dir or serve the same stream");
      }
      if (!ts_xml.empty() &&
          CanonicalTsHash(ts_xml) != CanonicalTsHash(rec.ts_xml)) {
        return Status::InvalidArgument(
            "wal tag structure differs from the served schema: reset the "
            "data dir or serve the same schema");
      }
    }
  }
  if (!have_manifest) {
    if (!segments.empty() || !checkpoints.empty()) {
      return Status::Internal(
          "wal poison: " + dir +
          " holds records but no manifest; refusing to guess the epoch");
    }
    if (stream_name.empty() || ts_xml.empty()) {
      return Status::InvalidArgument(
          "initializing a wal needs the stream name and tag structure");
    }
    fresh = true;
    rec.epoch = MintEpoch();
    rec.stream_name = stream_name;
    rec.ts_xml = ts_xml;
    XCQL_ASSIGN_OR_RETURN(
        std::string bytes,
        EncodeManifest(rec.epoch, stream_name, ts_xml, /*base_seq=*/0));
    XCQL_RETURN_NOT_OK(WriteFileSynced(dir + "/" + kManifestName, bytes));
    XCQL_RETURN_NOT_OK(SyncDir(dir));
  }

  // --- Checkpoint: the compacted prefix. --------------------------------
  // A checkpoint named n covers records [base, n): the record count is
  // n - base, and seqs run contiguously from the generation's base.
  int64_t expected = rec.base_seq;  // next record seq the chain must produce
  if (!checkpoints.empty()) {
    int64_t n = checkpoints.back();
    std::string path = dir + "/" + CheckpointName(n);
    XCQL_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
    // A checkpoint becomes visible only via rename of a complete, fsync'd
    // tmp file, so a torn checkpoint is corruption, never a crash artifact.
    XCQL_ASSIGN_OR_RETURN(ScannedFile scanned,
                          ScanRecordFile(path, bytes, /*allow_torn=*/false));
    if (static_cast<int64_t>(scanned.records.size()) != n - rec.base_seq) {
      return Status::Internal(StringPrintf(
          "wal poison: %s holds %lld records, name promises %lld "
          "(generation base %lld)",
          path.c_str(), static_cast<long long>(scanned.records.size()),
          static_cast<long long>(n - rec.base_seq),
          static_cast<long long>(rec.base_seq)));
    }
    for (int64_t i = rec.base_seq; i < n; ++i) {
      const size_t at = static_cast<size_t>(i - rec.base_seq);
      if (scanned.records[at].seq != i) {
        return Status::Internal(StringPrintf(
            "wal poison: %s record %lld carries seq %lld", path.c_str(),
            static_cast<long long>(at),
            static_cast<long long>(scanned.records[at].seq)));
      }
    }
    rec.report.checkpoint_records = n - rec.base_seq;
    expected = n;
    rec.records = std::move(scanned.records);
  }

  // --- Segments: the tail. ----------------------------------------------
  // Segments wholly behind the checkpoint are a crash between a
  // checkpoint's rename and its GC; they parse (cheap insurance) and die.
  const int64_t ckpt_records = expected;  // records the checkpoint covers
  std::vector<std::string> gc;  // files to delete once recovery is decided
  for (int64_t i = 0; i + 1 < static_cast<int64_t>(checkpoints.size());
       ++i) {
    gc.push_back(dir + "/" + CheckpointName(checkpoints[i]));
  }
  std::string active_path;
  int64_t active_base = -1;
  size_t active_bytes = 0;
  std::vector<std::string> sealed;
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool last = (i + 1 == segments.size());
    const int64_t base = segments[i];
    std::string path = dir + "/" + SegmentName(base);
    XCQL_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
    XCQL_ASSIGN_OR_RETURN(ScannedFile scanned,
                          ScanRecordFile(path, bytes, /*allow_torn=*/last));
    ++rec.report.segments_scanned;
    // Seq discipline: a segment's records run contiguously from its name.
    for (size_t j = 0; j < scanned.records.size(); ++j) {
      if (scanned.records[j].seq != base + static_cast<int64_t>(j)) {
        return Status::Internal(StringPrintf(
            "wal poison: %s record %lld carries seq %lld (expected %lld)",
            path.c_str(), static_cast<long long>(j),
            static_cast<long long>(scanned.records[j].seq),
            static_cast<long long>(base + static_cast<int64_t>(j))));
      }
    }
    const int64_t seg_end = base + static_cast<int64_t>(scanned.records.size());
    if (seg_end <= expected && !last) {
      gc.push_back(std::move(path));  // fully covered by the checkpoint
      continue;
    }
    if (base > expected) {
      return Status::Internal(StringPrintf(
          "wal poison: %s starts at seq %lld but records stop at %lld "
          "(a whole segment is missing)",
          path.c_str(), static_cast<long long>(base),
          static_cast<long long>(expected)));
    }
    for (size_t j = 0; j < scanned.records.size(); ++j) {
      if (scanned.records[j].seq >= expected) {
        rec.records.push_back(std::move(scanned.records[j]));
        ++rec.report.tail_records;
        ++expected;
      }
    }
    if (scanned.torn) {
      // Exactly one partial record at the very tail: truncate and warn.
      size_t dropped = scanned.total_bytes - scanned.good_bytes;
      if (io()->Truncate(path.c_str(),
                         static_cast<off_t>(scanned.good_bytes)) != 0) {
        return ErrnoStatus("truncate torn wal tail of", path);
      }
      int fd = io()->Open(path.c_str(), O_WRONLY, 0);
      if (fd >= 0) {
        (void)io()->Fsync(fd);
        io()->Close(fd);
      }
      rec.report.torn_tail = true;
      rec.report.torn_bytes = dropped;
      rec.report.warning = StringPrintf(
          "truncated one partial record (%lld bytes) at the tail of %s; "
          "the stream resumes from seq %lld",
          static_cast<long long>(dropped), path.c_str(),
          static_cast<long long>(expected));
      std::fprintf(stderr, "wal: %s\n", rec.report.warning.c_str());
    }
    if (last) {
      if (seg_end == expected && base >= ckpt_records) {
        // Appending seq `expected` keeps this segment contiguous, and no
        // record in it is also in the checkpoint: adopt it as the active
        // segment.
        active_path = path;
        active_base = base;
        active_bytes = scanned.good_bytes;
      } else if (seg_end <= ckpt_records) {
        // Fully covered by the checkpoint (a crash between a checkpoint's
        // rename and its GC). Adopting it would hand the next checkpoint
        // a segment whose records duplicate the checkpoint's, so finish
        // the GC and start fresh at `expected`.
        gc.push_back(std::move(path));
      } else {
        // Straddles the checkpoint: its tail records past `ckpt_records`
        // are the only copy, so it cannot die, but appending to it would
        // grow the duplicated prefix. Keep it sealed (the checkpoint
        // copy skips records a prior file already covered) and open a
        // fresh active segment at `expected`.
        sealed.push_back(std::move(path));
      }
    } else {
      sealed.push_back(std::move(path));
    }
  }

  auto wal = std::unique_ptr<Wal>(new Wal(dir, options));
  wal->epoch_ = rec.epoch;
  wal->stream_name_ = rec.stream_name;
  wal->ts_xml_ = rec.ts_xml;
  wal->base_ = rec.base_seq;
  wal->next_seq_ = expected;
  wal->checkpointed_ =
      checkpoints.empty() ? rec.base_seq : checkpoints.back();
  wal->sealed_ = std::move(sealed);
  wal->last_sync_ = std::chrono::steady_clock::now();

  // Finish the interrupted GC (if any) before appending anything new.
  for (const std::string& path : gc) (void)io()->Unlink(path.c_str());
  if (!gc.empty()) XCQL_RETURN_NOT_OK(SyncDir(dir));

  if (!active_path.empty() && active_base <= expected) {
    XCQL_RETURN_NOT_OK(wal->OpenActiveSegment(active_base, /*create=*/false));
    wal->active_bytes_ = active_bytes;
  } else {
    XCQL_RETURN_NOT_OK(wal->OpenActiveSegment(expected, /*create=*/true));
  }

  if (!fresh && recovery == nullptr && !rec.records.empty()) {
    return Status::InvalidArgument(
        "wal holds records but the caller passed no recovery sink");
  }
  if (recovery != nullptr) *recovery = std::move(rec);
  if (options.fsync == FsyncPolicy::kInterval) wal->StartFlusher();
  return wal;
}

void Wal::StartFlusher() {
  flusher_ = std::thread([this] { FlusherLoop(); });
}

void Wal::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!flusher_stop_) {
    if (!dirty_ || fd_ < 0) {
      flush_cv_.wait(lock, [&] {
        return flusher_stop_ || (dirty_ && fd_ >= 0);
      });
      continue;
    }
    // Sleep until the oldest unsynced append turns fsync_interval old,
    // then sync — unless an append's own amortized sync got there first.
    const auto deadline = dirty_since_ + opts_.fsync_interval;
    if (flush_cv_.wait_until(lock, deadline, [&] { return flusher_stop_; }))
      break;
    if (!dirty_ || fd_ < 0) continue;
    Status st = SyncLocked();
    if (!st.ok()) {
      // Same contract as a failed append-path sync: durability is gone
      // and pretending otherwise would be worse. Unlike an append-path
      // failure there is no caller to tell, so fire the failure callback
      // (outside mu_) — the server must degrade *now*, not at the next
      // append, or subscribers keep collecting resume points that a
      // restart would mis-splice.
      broken_ = true;
      std::fprintf(stderr, "wal: background sync failed: %s\n",
                   st.message().c_str());
      lock.unlock();
      NotifyFailure(st);
      return;
    }
  }
}

void Wal::NotifyFailure(const Status& why) {
  std::lock_guard<std::mutex> lock(cb_mu_);
  if (failure_cb_) failure_cb_(why);
}

void Wal::SetFailureCallback(std::function<void(const Status&)> cb) {
  std::lock_guard<std::mutex> lock(cb_mu_);
  failure_cb_ = std::move(cb);
}

Status Wal::OpenActiveSegment(int64_t base_seq, bool create) {
  active_path_ = dir_ + "/" + SegmentName(base_seq);
  int flags = O_WRONLY | O_APPEND | (create ? O_CREAT : 0);
  fd_ = io()->Open(active_path_.c_str(), flags, 0644);
  if (fd_ < 0) return ErrnoStatus("open segment", active_path_);
  active_base_ = base_seq;
  if (create) {
    active_bytes_ = 0;
    XCQL_RETURN_NOT_OK(SyncDir(dir_));
  }
  return Status::OK();
}

int64_t Wal::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status Wal::Append(int64_t seq, std::string_view frame_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = AppendLocked(seq, frame_bytes);
  if (!st.ok()) ++stats_.append_failures;
  return st;
}

Status Wal::AppendLocked(int64_t seq, std::string_view frame_bytes) {
  if (fd_ < 0) return Status::Internal("wal is closed");
  if (broken_) {
    return Status::Internal("wal is broken after an unrecoverable write "
                            "error; restart to recover");
  }
  if (seq < next_seq_) return Status::OK();  // already durable (re-seed)
  if (seq != next_seq_) {
    return Status::InvalidArgument(StringPrintf(
        "wal append out of order: got seq %lld, expected %lld",
        static_cast<long long>(seq), static_cast<long long>(next_seq_)));
  }
  if (frame_bytes.size() < kFrameHeaderSize) {
    return Status::InvalidArgument("wal record is not an encoded frame");
  }
  // From here on a failure means the write path itself is sick (rotation,
  // write, or fsync): the record's durability is unknowable, and any
  // record appended after it would be out of order. Mark the wal broken
  // so every later append fails fast instead of silently not persisting.
  auto durability_lost = [this](Status st) {
    broken_ = true;
    return st;
  };
  if (active_bytes_ > 0 &&
      active_bytes_ + frame_bytes.size() > opts_.segment_bytes) {
    Status st = RotateLocked();
    if (!st.ok()) return durability_lost(std::move(st));
  }
  WalHooks::At("append:before_write");
  if (WalHooks::installed() && frame_bytes.size() >= 2) {
    // Split the write so a kill-point test can die with half a record on
    // disk — the torn tail recovery must truncate.
    size_t half = frame_bytes.size() / 2;
    Status st = WriteFully(frame_bytes.substr(0, half));
    if (!st.ok()) return durability_lost(std::move(st));
    WalHooks::At("append:mid_write");
    st = WriteFully(frame_bytes.substr(half));
    if (!st.ok()) return durability_lost(std::move(st));
  } else {
    Status st = WriteFully(frame_bytes);
    if (!st.ok()) return durability_lost(std::move(st));
  }
  active_bytes_ += frame_bytes.size();
  ++next_seq_;
  ++stats_.appends;
  if (!dirty_) {
    dirty_ = true;
    dirty_since_ = std::chrono::steady_clock::now();
    flush_cv_.notify_all();  // wake the interval flusher, if any
  }
  WalHooks::At("append:after_write");
  Status st = MaybeSyncLocked();
  if (!st.ok()) return durability_lost(std::move(st));
  WalHooks::At("append:after_sync");
  if (opts_.checkpoint_every > 0 &&
      next_seq_ - checkpointed_ >= opts_.checkpoint_every) {
    st = CheckpointLocked();
    if (!st.ok()) {
      if (fd_ < 0) return durability_lost(std::move(st));  // lost the tail
      // The record itself is durable; a failed compaction costs disk
      // space, not data. Surface it and retry at the next append.
      ++stats_.checkpoint_failures;
      std::fprintf(stderr, "wal: checkpoint failed: %s\n",
                   st.message().c_str());
    }
  }
  return Status::OK();
}

Status Wal::WriteFully(std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = io()->Write(fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = ErrnoStatus("write", active_path_);
      // Un-write whatever partial bytes landed: a mid-segment torn record
      // would read as poison at the next recovery. If even that fails the
      // wal is broken and refuses further appends — recovery's torn-tail
      // truncation will repair the file.
      if (io()->Ftruncate(fd_, static_cast<off_t>(active_bytes_)) != 0) {
        broken_ = true;
      }
      return st;
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Wal::SyncLocked() {
  if (fd_ < 0) return Status::Internal("wal is closed");
  // fsyncgate: once anything broke this handle, its descriptor may carry
  // a failed fsync, and fsyncing it again could report success for pages
  // the kernel already dropped. Data is only re-made durable by Rearm,
  // which re-writes it through fresh descriptors.
  if (broken_) {
    return Status::Internal(
        "wal is broken; refusing to fsync a possibly-poisoned descriptor");
  }
  if (!dirty_) return Status::OK();
  XCQL_RETURN_NOT_OK(SyncFd(fd_, active_path_));
  dirty_ = false;
  last_sync_ = std::chrono::steady_clock::now();
  ++stats_.syncs;
  return Status::OK();
}

Status Wal::MaybeSyncLocked() {
  switch (opts_.fsync) {
    case FsyncPolicy::kAlways:
      return SyncLocked();
    case FsyncPolicy::kInterval:
      if (std::chrono::steady_clock::now() - last_sync_ >=
          opts_.fsync_interval) {
        return SyncLocked();
      }
      return Status::OK();
    case FsyncPolicy::kNever:
      return Status::OK();
  }
  return Status::OK();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::RotateLocked() {
  XCQL_RETURN_NOT_OK(SyncLocked());
  io()->Close(fd_);
  fd_ = -1;
  sealed_.push_back(active_path_);
  WalHooks::At("rotate:sealed");
  XCQL_RETURN_NOT_OK(OpenActiveSegment(next_seq_, /*create=*/true));
  WalHooks::At("rotate:after_open");
  ++stats_.rotations;
  return Status::OK();
}

Status Wal::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status Wal::CheckpointLocked() {
  if (fd_ < 0) return Status::Internal("wal is closed");
  if (broken_) {
    return Status::Internal(
        "wal is broken; checkpoints resume after a re-arm or restart");
  }
  if (next_seq_ == checkpointed_ && sealed_.empty()) {
    return Status::OK();  // nothing newer than the checkpoint
  }
  WalHooks::At("checkpoint:begin");
  // The snapshot covers every record written so far; flush them first so
  // the copy below reads complete records.
  XCQL_RETURN_NOT_OK(SyncLocked());
  const int64_t n = next_seq_;
  const std::string tmp_path = dir_ + "/" + CheckpointName(n) + kTmpSuffix;
  int tmp = io()->Open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (tmp < 0) return ErrnoStatus("open", tmp_path);
  // Seqs [base_, copied) are already in the tmp file. Records run
  // contiguously ascending within each source file, but a file can
  // overlap what a prior file contributed — recovery from a crash
  // between a checkpoint's rename and its GC keeps a straddling segment
  // whose prefix the checkpoint already holds — so each copy skips to
  // the first record past `copied` instead of byte-copying blindly.
  int64_t copied = base_;
  auto copy_into = [&](const std::string& path) -> Status {
    XCQL_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
    size_t off = bytes.size();  // nothing new: copy nothing
    FrameReader reader;
    reader.Feed(bytes.data(), bytes.size());
    for (;;) {
      size_t before = bytes.size() - reader.buffered();
      auto next = reader.Next();
      if (!next.ok() || !next.value().has_value()) break;
      int64_t seq = static_cast<int64_t>(next.value()->seq);
      if (seq >= copied && off == bytes.size()) off = before;
      if (seq + 1 > copied) copied = seq + 1;
    }
    while (off < bytes.size()) {
      ssize_t w = io()->Write(tmp, bytes.data() + off, bytes.size() - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write", tmp_path);
      }
      off += static_cast<size_t>(w);
    }
    return Status::OK();
  };
  Status st = Status::OK();
  // checkpointed_ == base_ means no checkpoint file exists yet (a fresh
  // generation covers nothing below its own base).
  const std::string old_ckpt =
      checkpointed_ > base_ ? dir_ + "/" + CheckpointName(checkpointed_)
                            : "";
  if (!old_ckpt.empty()) st = copy_into(old_ckpt);
  for (const std::string& path : sealed_) {
    if (!st.ok()) break;
    st = copy_into(path);
  }
  if (st.ok()) st = copy_into(active_path_);
  if (st.ok() && copied != n) {
    // Writing a checkpoint whose record count belies its name would
    // poison the *next* recovery; better to fail this one loudly.
    st = Status::Internal(StringPrintf(
        "checkpoint aborted: sources yield %lld records, expected %lld",
        static_cast<long long>(copied), static_cast<long long>(n)));
  }
  if (st.ok()) st = SyncFd(tmp, tmp_path);
  io()->Close(tmp);
  if (!st.ok()) {
    // Unlink the tmp on every failure path: a stale tmp is harmless to
    // recovery (Open sweeps *.tmp) but wastes the very disk space a
    // failing checkpoint suggests is scarce.
    (void)io()->Unlink(tmp_path.c_str());
    return st;
  }
  WalHooks::At("checkpoint:tmp_written");
  const std::string ckpt_path = dir_ + "/" + CheckpointName(n);
  if (io()->Rename(tmp_path.c_str(), ckpt_path.c_str()) != 0) {
    Status err = ErrnoStatus("rename", tmp_path);
    (void)io()->Unlink(tmp_path.c_str());
    return err;
  }
  XCQL_RETURN_NOT_OK(SyncDir(dir_));
  WalHooks::At("checkpoint:after_rename");
  // GC: everything the checkpoint subsumes. The active segment is fully
  // covered too, so it is replaced with a fresh one based at n.
  if (!old_ckpt.empty()) (void)io()->Unlink(old_ckpt.c_str());
  for (const std::string& path : sealed_) (void)io()->Unlink(path.c_str());
  sealed_.clear();
  io()->Close(fd_);
  fd_ = -1;
  (void)io()->Unlink(active_path_.c_str());
  XCQL_RETURN_NOT_OK(OpenActiveSegment(n, /*create=*/true));
  WalHooks::At("checkpoint:after_gc");
  checkpointed_ = n;
  ++stats_.checkpoints;
  return Status::OK();
}

bool Wal::broken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return broken_;
}

int64_t Wal::checkpointed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpointed_;
}

int64_t Wal::base_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_;
}

Status Wal::Close() {
  std::thread flusher;
  {
    std::lock_guard<std::mutex> lock(mu_);
    flusher_stop_ = true;
    flusher.swap(flusher_);
  }
  flush_cv_.notify_all();
  if (flusher.joinable()) flusher.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::OK();
  // A broken handle closes without syncing (fsyncgate — see SyncLocked);
  // a healthy one flushes its tail.
  Status st = broken_ ? Status::OK() : SyncLocked();
  io()->Close(fd_);
  fd_ = -1;
  return st;
}

Status Wal::Rearm(
    int64_t base_seq,
    const std::vector<std::shared_ptr<const std::string>>& records) {
  // Park the interval flusher first (it may have already exited after a
  // background fsync failure): it must not observe the directory rebuild,
  // and a healed wal needs a fresh one anyway.
  std::thread flusher;
  {
    std::lock_guard<std::mutex> lock(mu_);
    flusher_stop_ = true;
    flusher.swap(flusher_);
  }
  flush_cv_.notify_all();
  if (flusher.joinable()) flusher.join();

  std::lock_guard<std::mutex> lock(mu_);
  flusher_stop_ = false;
  // Until the rebuild completes, the handle counts as broken: any early
  // return below leaves it refusing appends, and Rearm can be retried.
  broken_ = true;
  dirty_ = false;
  // fsyncgate: the active descriptor's last fsync may have failed, so it
  // is closed and never fsync'd again — every record that matters is
  // re-written below through fresh descriptors.
  if (fd_ >= 0) {
    io()->Close(fd_);
    fd_ = -1;
  }
  // Wipe the old generation: record files first, manifest last (by
  // overwrite), so a crash mid-wipe can never leave records beside a
  // missing or stale manifest. Records-without-manifest is poison;
  // manifest-without-records re-initializes cleanly at the marked base.
  XCQL_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  for (const std::string& name : names) {
    const bool ours =
        EndsWith(name, kTmpSuffix) ||
        ParseNumberedName(name, kSegmentPrefix, kSegmentSuffix) >= 0 ||
        ParseNumberedName(name, kCheckpointPrefix, kCheckpointSuffix) >= 0;
    if (!ours) continue;  // foreign files (e.g. queries.reg) are not ours
    const std::string path = dir_ + "/" + name;
    if (io()->Unlink(path.c_str()) != 0) {
      return ErrnoStatus("unlink", path);
    }
  }
  XCQL_RETURN_NOT_OK(SyncDir(dir_));
  sealed_.clear();
  // New identity: a fresh epoch — subscribers must discard every resume
  // point minted against the degraded incarnation — and the caller's
  // frame-log base riding in the manifest as a kReplayFrom marker.
  epoch_ = MintEpoch();
  base_ = base_seq;
  XCQL_ASSIGN_OR_RETURN(
      std::string manifest,
      EncodeManifest(epoch_, stream_name_, ts_xml_, base_seq));
  XCQL_RETURN_NOT_OK(WriteFileSynced(dir_ + "/" + kManifestName, manifest));
  XCQL_RETURN_NOT_OK(SyncDir(dir_));
  // Checkpoint the live in-memory stream into the fresh generation: tmp +
  // fsync + rename, like any checkpoint, through a fresh descriptor.
  const int64_t n = base_seq + static_cast<int64_t>(records.size());
  if (!records.empty()) {
    const std::string ckpt_path = dir_ + "/" + CheckpointName(n);
    const std::string tmp_path = ckpt_path + kTmpSuffix;
    int tmp =
        io()->Open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (tmp < 0) return ErrnoStatus("open", tmp_path);
    Status st = Status::OK();
    for (const auto& record : records) {
      if (record == nullptr) {
        st = Status::Internal("rearm: null frame in the record snapshot");
        break;
      }
      size_t off = 0;
      while (off < record->size()) {
        ssize_t w =
            io()->Write(tmp, record->data() + off, record->size() - off);
        if (w < 0) {
          if (errno == EINTR) continue;
          st = ErrnoStatus("write", tmp_path);
          break;
        }
        off += static_cast<size_t>(w);
      }
      if (!st.ok()) break;
    }
    if (st.ok()) st = SyncFd(tmp, tmp_path);
    io()->Close(tmp);
    if (!st.ok()) {
      (void)io()->Unlink(tmp_path.c_str());
      return st;
    }
    if (io()->Rename(tmp_path.c_str(), ckpt_path.c_str()) != 0) {
      Status err = ErrnoStatus("rename", tmp_path);
      (void)io()->Unlink(tmp_path.c_str());
      return err;
    }
    XCQL_RETURN_NOT_OK(SyncDir(dir_));
  }
  next_seq_ = n;
  checkpointed_ = n;  // == base_seq when records is empty
  XCQL_RETURN_NOT_OK(OpenActiveSegment(n, /*create=*/true));
  active_bytes_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  broken_ = false;
  ++stats_.rearms;
  if (opts_.fsync == FsyncPolicy::kInterval) StartFlusher();
  return Status::OK();
}

Status RestoreStream(const WalRecovery& recovery,
                     stream::StreamServer* server) {
  if (server->history_size() != 0) {
    return Status::InvalidArgument(
        "RestoreStream needs a freshly constructed server (history must "
        "be empty)");
  }
  if (!recovery.ts_xml.empty() &&
      TagStructureHash(server->tag_structure()) !=
          CanonicalTsHash(recovery.ts_xml)) {
    return Status::InvalidArgument(
        "recovered stream's tag structure differs from the server's");
  }
  // A re-armed generation starts past seq 0: seed the history base so the
  // server's next publish mints recovery.base_seq + records, not 0 —
  // otherwise the WAL (whose next_seq_ is already past it) would silently
  // skip every fresh append.
  if (recovery.base_seq > 0) {
    XCQL_RETURN_NOT_OK(server->SeedHistoryBase(recovery.base_seq));
  }
  for (const WalRecord& rec : recovery.records) {
    frag::WireCodec codec = (rec.flags & kFlagCompressedPayload)
                                ? frag::WireCodec::kTagCompressed
                                : frag::WireCodec::kPlainXml;
    auto fragment =
        frag::DecodeWirePayload(rec.payload, server->tag_structure(), codec);
    if (!fragment.ok()) {
      return Status::Internal(
          "wal poison: record seq " + std::to_string(rec.seq) +
          " does not decode: " + fragment.status().message());
    }
    XCQL_RETURN_NOT_OK(
        server->RestoreHistory(std::move(fragment).MoveValue()));
  }
  return Status::OK();
}

}  // namespace xcql::net
