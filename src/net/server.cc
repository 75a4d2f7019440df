#include "net/server.h"

#include <fcntl.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "common/io_env.h"
#include "net/query_channel.h"
#include "net/wal.h"

namespace xcql::net {

namespace {

// HEARTBEAT frames carry the count of frames published so far: a
// subscriber is caught up when its last seen seq is that count minus one.
Frame HeartbeatFrame(int64_t published) {
  Frame hb;
  hb.type = FrameType::kHeartbeat;
  hb.seq = static_cast<uint64_t>(published);
  return hb;
}

std::shared_ptr<const std::string> SharedBytes(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

// The QUERY_STATUS message a server without a query channel answers with.
constexpr const char kNoQueryChannel[] = "this server offers no query channel";

}  // namespace

FragmentServer::FragmentServer(stream::StreamServer* source,
                               FragmentServerOptions options)
    : source_(source), opts_(options) {}

FragmentServer::~FragmentServer() { Stop(); }

Status FragmentServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  ts_xml_ = source_->tag_structure().ToXml();
  ts_hash_ = TagStructureHash(ts_xml_);
  epoch_.store(opts_.wal != nullptr ? opts_.wal->epoch() : 0,
               std::memory_order_release);
  // Seed the frame log with everything the source published before the
  // network face existed, so late subscribers replay the full stream.
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    // A source whose history was already trimmed seeds a log that starts
    // at the same base: positions stay absolute publish seqs either way.
    log_base_ = source_->history_base();
    for (int64_t i = log_base_; i < source_->history_size(); ++i) {
      log_.push_back(
          EncodeEntry(source_->history_at(i), static_cast<uint64_t>(i)));
      filler_index_[log_.back().filler_id].push_back(
          static_cast<size_t>(i));
      retired_fillers_.erase(log_.back().filler_id);
      frame_log_bytes_ += EntryBytes(log_.back());
      max_valid_time_s_ =
          std::max(max_valid_time_s_, log_.back().valid_time_s);
      // Make the seed durable too. A history rebuilt *from* the WAL
      // re-appends seqs the WAL already holds, which Append skips.
      if (opts_.wal != nullptr) {
        const LogEntry& entry = log_.back();
        const std::shared_ptr<const std::string>& rec =
            entry.plain != nullptr ? entry.plain : entry.compressed;
        if (rec != nullptr) {
          XCQL_RETURN_NOT_OK(opts_.wal->Append(i, *rec));
        }
      }
      // The query channel replays the same history the subscribers do, so
      // recovered registrations rebuild their result logs byte-identical.
      // The channel must be Open()ed before Start() for mid-stream
      // registration positions to line up.
      if (opts_.query_channel != nullptr) {
        opts_.query_channel->OnFragment(source_->history_at(i));
      }
    }
    published_.store(log_base_ + static_cast<int64_t>(log_.size()));
  }
  XCQL_ASSIGN_OR_RETURN(listener_, ListenOn(opts_.port));
  XCQL_ASSIGN_OR_RETURN(port_, BoundPort(listener_));
  XCQL_RETURN_NOT_OK(listener_.SetNonBlocking());
  loop_ = std::make_unique<EventLoop>();
  XCQL_RETURN_NOT_OK(loop_->Init(opts_.backend));
  backend_ = loop_->backend();
  // Registering before the thread spawns is safe: thread creation orders
  // these writes before anything the loop thread does.
  XCQL_RETURN_NOT_OK(
      loop_->Add(listener_.fd(), &listener_tag_, /*want_read=*/true,
                 /*want_write=*/false));
  stopping_.store(false);
  loop_thread_ = std::thread([this] { LoopThread(); });
  source_->RegisterClient(this);
  if (opts_.wal != nullptr) {
    // Satellite of the degrade path: the interval flusher's background
    // fsync failure reaches DegradeDurability the moment it happens, not
    // at the next append. The callback runs on the flusher thread, which
    // holds no server lock — DegradeDurability is safe there.
    opts_.wal->SetFailureCallback(
        [this](const Status& why) { DegradeDurability(why); });
    if (opts_.durability.self_heal || opts_.durability.soft_free_bytes > 0 ||
        opts_.durability.hard_free_bytes > 0) {
      {
        std::lock_guard<std::mutex> lock(durability_mu_);
        durability_stop_ = false;
      }
      durability_thread_ = std::thread([this] { DurabilityLoop(); });
    }
  }
  started_ = true;
  return Status::OK();
}

void FragmentServer::Stop() {
  if (!started_) return;
  started_ = false;
  source_->UnregisterClient(this);
  if (opts_.wal != nullptr) {
    // Blocks until any in-flight flusher failure callback returns, so no
    // DegradeDurability can land on a server mid-teardown.
    opts_.wal->SetFailureCallback(nullptr);
  }
  {
    std::lock_guard<std::mutex> lock(durability_mu_);
    durability_stop_ = true;
  }
  durability_cv_.notify_all();
  if (durability_thread_.joinable()) durability_thread_.join();
  stopping_.store(true, std::memory_order_release);
  // Defensive: a publisher parked in a kBlock wait (there should be none —
  // Stop comes from the publisher thread) must not outlive the loop.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      conn->closing = true;
      conn->cv_space.notify_all();
    }
  }
  loop_->Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop thread tore down every connection (closing each socket
  // exactly once) on its way out; what's left is the listener and the
  // loop's own descriptors.
  listener_.Close();
  loop_.reset();
}

int64_t FragmentServer::next_seq() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_base_ + static_cast<int64_t>(log_.size());
}

int64_t FragmentServer::log_base() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_base_;
}

FragmentServer::LogEntry FragmentServer::EncodeEntry(
    const frag::Fragment& fragment, uint64_t seq) {
  metrics_.AddFragmentEncode();
  LogEntry entry;
  entry.filler_id = fragment.id;
  entry.valid_time_s = fragment.valid_time.seconds();
  entry.tsid = fragment.tsid;
  const frag::TagStructure& ts = source_->tag_structure();
  Frame frame;
  frame.type = FrameType::kFragment;
  frame.seq = seq;
  auto plain =
      frag::EncodeWirePayload(fragment, ts, frag::WireCodec::kPlainXml);
  if (plain.ok()) {
    frame.flags = 0;
    frame.payload = std::move(plain).MoveValue();
    auto bytes = EncodeFrame(frame);
    if (bytes.ok()) entry.plain = SharedBytes(std::move(bytes).MoveValue());
  }
  if (entry.plain == nullptr) metrics_.AddEncodeFailure();
  auto compressed =
      frag::EncodeWirePayload(fragment, ts, frag::WireCodec::kTagCompressed);
  if (compressed.ok()) {
    frame.flags = kFlagCompressedPayload;
    frame.payload = std::move(compressed).MoveValue();
    auto bytes = EncodeFrame(frame);
    if (bytes.ok()) {
      entry.compressed = SharedBytes(std::move(bytes).MoveValue());
    }
  }
  return entry;
}

void FragmentServer::OnFragment(const std::string& /*stream_name*/,
                                frag::Fragment fragment) {
  const LogEntry* stored = nullptr;
  int64_t seq = 0;
  {
    std::lock_guard<std::mutex> log_lock(log_mu_);
    seq = log_base_ + static_cast<int64_t>(log_.size());
    LogEntry entry = EncodeEntry(fragment, static_cast<uint64_t>(seq));
    // The seq is burned even for a fragment with no transportable form
    // (unreachable while the source enforces the wire payload limit at
    // publish): the log must stay aligned with the source's history
    // numbering, or resume after a restart skips or duplicates fragments.
    if (entry.plain != nullptr || entry.compressed != nullptr) {
      metrics_.AddFragmentOut();
    }
    // Write-ahead: the frame reaches the WAL before any subscriber queue,
    // so under FsyncPolicy::kAlways a subscriber can never hold a seq that
    // a restart would not recover. A failed append degrades durability but
    // not delivery — the stream must not stall on a full disk — at the
    // price of the durable epoch: see DegradeDurability.
    if (opts_.wal != nullptr &&
        !wal_degraded_.load(std::memory_order_acquire)) {
      const std::shared_ptr<const std::string>& rec =
          entry.plain != nullptr ? entry.plain : entry.compressed;
      if (rec != nullptr) {
        Status st = opts_.wal->Append(seq, *rec);
        if (!st.ok()) {
          metrics_.AddWalAppendFailure();
          DegradeDurability(st);
        }
      }
    }
    log_.push_back(std::move(entry));
    filler_index_[log_.back().filler_id].push_back(static_cast<size_t>(seq));
    // A re-published filler is live again: its EXPIRED tombstone (if any)
    // no longer describes the log.
    retired_fillers_.erase(log_.back().filler_id);
    frame_log_bytes_ += EntryBytes(log_.back());
    max_valid_time_s_ =
        std::max(max_valid_time_s_, log_.back().valid_time_s);
    published_.store(seq + 1);
    stored = &log_.back();  // deque: stable under later appends
  }
  // Wake before the fan-out: a kBlock wait below needs the loop draining
  // queues while we stand still, and the loop may be asleep right now.
  loop_->Wake();
  // Fan out without holding log_mu_ or conns_mu_: the snapshot keeps every
  // connection alive, and replay/live dedup is handled by next_live_seq
  // (set to log_.size() under log_mu_ at each conn's replay handover).
  std::vector<std::shared_ptr<Connection>> targets;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    targets = conns_;
  }
  for (auto& conn : targets) Enqueue(conn.get(), *stored, seq);
  loop_->Wake();
  // Tick the query channel after the fragment fan-out (same thread, so the
  // channel still sees fragments in exactly log order, and a query's
  // RESULT reaches each data queue after the fragment that caused it).
  // OnRepeat stays off this path — a retransmission is not a new fragment
  // and must not re-tick the engine.
  if (opts_.query_channel != nullptr) {
    opts_.query_channel->OnFragment(fragment);
    loop_->Wake();
  }
  // Retention rides the publish cadence (same thread, after the fan-out
  // and the channel tick, so every layer saw this fragment first). The
  // soft disk-space watermark jumps the cadence: the supervisor raised
  // the flag, but RunRetention is publisher-thread-only, so the pass
  // happens here, at the first publish after the dip.
  const bool emergency = emergency_retain_.exchange(
      false, std::memory_order_acq_rel);
  if (emergency) metrics_.AddEmergencyRetentionRun();
  if (emergency ||
      (opts_.retention.enabled() &&
       ++publishes_since_retain_ >=
           std::max<int64_t>(1, opts_.retention.check_every))) {
    publishes_since_retain_ = 0;
    RunRetention();
  }
}

void FragmentServer::DegradeDurability(const Status& why) {
  std::fprintf(stderr, "wal: durability failure at seq %lld: %s\n",
               static_cast<long long>(
                   published_.load(std::memory_order_acquire)),
               why.message().c_str());
  if (wal_degraded_.exchange(true, std::memory_order_acq_rel)) return;
  degraded_since_ms_.store(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_release);
  metrics_.SetDurabilityDegraded(true);
  // Every frame from here on is undurable, and the WAL's sequence chain
  // is broken: a restart would recover a shorter history and then mint
  // the *same* seq numbers for different fragments. Any subscriber still
  // holding (durable epoch, last_seq) would mis-splice the two histories
  // on resume. Durability cannot be restored on the broken handle, but
  // the epoch invariant can: retire the durable epoch for a fresh
  // volatile one and cut every connection. Each subscriber
  // re-handshakes, sees the epoch change, discards its resume state, and
  // replays from the (complete) in-memory log — so no resume point
  // minted after this moment can survive into the next incarnation.
  // With self-heal on, a later TryRearm mints the next *durable* epoch.
  const uint64_t retired = epoch_.load(std::memory_order_relaxed);
  epoch_.store(MintEpoch(), std::memory_order_release);
  std::fprintf(stderr,
               "net: durability degraded; epoch %llu retired, subscribers "
               "restarted on a volatile epoch\n",
               static_cast<unsigned long long>(retired));
  CutAllConnections();
  // Wake the supervisor so the first probe fires at probe_initial, not
  // at the tail of a full watermark interval.
  durability_cv_.notify_all();
}

void FragmentServer::CutAllConnections() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) CloseConnection(conn.get());
  }
  loop_->Wake();
}

int64_t FragmentServer::time_in_degraded_ms() const {
  int64_t total = metrics_.Snapshot().degraded_ms_total;
  if (wal_degraded_.load(std::memory_order_acquire)) {
    const int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    total += now_ms - degraded_since_ms_.load(std::memory_order_acquire);
  }
  return total;
}

Status FragmentServer::TryRearm() {
  if (opts_.wal == nullptr) {
    return Status::InvalidArgument("no WAL attached");
  }
  if (!wal_degraded_.load(std::memory_order_acquire)) {
    return Status::OK();  // nothing to heal
  }
  {
    // Publishing pauses for the duration of the rebuild: the snapshot,
    // the new generation's checkpoint and the resumption of durable
    // appends must see one consistent log. OnFragment blocks on log_mu_
    // and then appends durably into the fresh generation.
    std::lock_guard<std::mutex> log_lock(log_mu_);
    std::vector<std::shared_ptr<const std::string>> records;
    records.reserve(log_.size());
    for (const LogEntry& e : log_) {
      const std::shared_ptr<const std::string>& rec =
          e.plain != nullptr ? e.plain : e.compressed;
      if (rec == nullptr) {
        return Status::Internal(
            "rearm: a logged fragment has no encoded form");
      }
      records.push_back(rec);
    }
    XCQL_RETURN_NOT_OK(opts_.wal->Rearm(log_base_, records));
    // Publish the new durable epoch and resume durable appends while the
    // publisher is still blocked, so the first post-rearm fragment lands
    // in the new generation with no volatile window.
    epoch_.store(opts_.wal->epoch(), std::memory_order_release);
    wal_degraded_.store(false, std::memory_order_release);
  }
  const int64_t now_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  metrics_.AddDegradedMs(
      now_ms - degraded_since_ms_.load(std::memory_order_acquire));
  metrics_.SetDurabilityDegraded(false);
  metrics_.AddDurabilityRearm();
  std::fprintf(stderr,
               "net: durability re-armed on epoch %llu (covering %lld "
               "frames); subscribers restarted\n",
               static_cast<unsigned long long>(
                   epoch_.load(std::memory_order_acquire)),
               static_cast<long long>(
                   published_.load(std::memory_order_acquire)));
  // One cut per cycle: every subscriber re-handshakes onto the durable
  // epoch and replays from the retained log.
  CutAllConnections();
  return Status::OK();
}

bool FragmentServer::ProbeDisk(const std::string& dir) {
  IoEnv* io = IoEnv::Get();
  const std::string path = dir + "/.durability-probe";
  // A fresh descriptor per probe: fsyncgate forbids re-fsyncing any fd
  // whose fsync already failed, and the cheapest way to never do it is
  // to never reuse one.
  int fd = io->Open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;
  char block[4096];
  std::memset(block, 0xa5, sizeof(block));
  bool ok = true;
  size_t off = 0;
  while (off < sizeof(block)) {
    ssize_t n = io->Write(fd, block + off, sizeof(block) - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<size_t>(n);
  }
  if (ok) ok = io->Fsync(fd) == 0;
  io->Close(fd);
  (void)io->Unlink(path.c_str());
  return ok;
}

void FragmentServer::DurabilityLoop() {
  const DurabilityOptions& d = opts_.durability;
  std::chrono::milliseconds backoff = d.probe_initial;
  for (;;) {
    const bool degraded = wal_degraded_.load(std::memory_order_acquire);
    std::chrono::milliseconds wait = d.watermark_interval;
    if (degraded && d.self_heal) wait = std::min(wait, backoff);
    {
      std::unique_lock<std::mutex> lock(durability_mu_);
      // A degrade mid-wait must cut the healthy-tick sleep short (its
      // notify would otherwise read as spurious and the first probe
      // would wait out the full watermark interval).
      durability_cv_.wait_for(lock, wait, [this, degraded] {
        return durability_stop_ ||
               (!degraded &&
                wal_degraded_.load(std::memory_order_acquire));
      });
      if (durability_stop_) return;
    }
    const std::string& dir = opts_.wal->dir();
    // Watermarks: one statvfs per tick feeds the gauge; the hard mark
    // degrades while appends still succeed (no torn tail on a disk that
    // is about to fill), the soft mark schedules an emergency
    // checkpoint-then-trim pass on the publisher thread.
    int64_t free_bytes = -1;
    if (d.soft_free_bytes > 0 || d.hard_free_bytes > 0) {
      free_bytes = IoFreeBytes(dir);
      metrics_.SetDataDirFreeBytes(free_bytes);
      if (free_bytes >= 0) {
        if (d.hard_free_bytes > 0 && free_bytes < d.hard_free_bytes &&
            !wal_degraded_.load(std::memory_order_acquire)) {
          DegradeDurability(Status::Internal(
              "data dir free space below the hard watermark"));
        } else if (d.soft_free_bytes > 0 &&
                   free_bytes < d.soft_free_bytes) {
          emergency_retain_.store(true, std::memory_order_release);
        }
      }
    }
    if (!d.self_heal || !wal_degraded_.load(std::memory_order_acquire)) {
      backoff = d.probe_initial;
      continue;
    }
    // A re-arm below the hard watermark would degrade again immediately;
    // wait for space (emergency retention or an operator) instead.
    const bool above_hard =
        d.hard_free_bytes <= 0 ||
        (free_bytes < 0 ? true : free_bytes >= d.hard_free_bytes);
    if (above_hard && ProbeDisk(dir) && TryRearm().ok()) {
      backoff = d.probe_initial;
    } else {
      backoff = std::min(backoff * 2, d.probe_max);
    }
  }
}

void FragmentServer::RunRetention() {
  if (!opts_.retention.enabled()) return;
  // The refresh path below re-enters OnFragment, which may tick the
  // retention cadence again; one pass at a time (publisher thread only).
  if (retaining_) return;
  retaining_ = true;
  metrics_.AddRetentionRun();
  // "Now" is the stream's high-water validTime, not the wall clock: the
  // windows age with the data, so a replayed history compacts exactly the
  // way the original run did (determinism the result logs rely on).
  int64_t now_s;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    now_s = max_valid_time_s_;
  }
  const DateTime now(now_s);
  // The observability clamp: retention may only forget what no registered
  // query can still observe. An unbounded (or pending-recovery) query
  // pins the floor at Start() and nothing below it is ever compacted.
  DateTime observe_floor = DateTime::End();
  if (opts_.query_channel != nullptr) {
    observe_floor = opts_.query_channel->ObservableFloor(now);
  }
  // 1. Store compaction (the channel's mirror; serve-side consumer stores
  // compact with the same policy in their own loops).
  frag::RetentionPolicy policy;
  policy.max_age_s = opts_.retention.max_age_s;
  policy.max_versions = opts_.retention.max_versions;
  policy.max_fragments = opts_.retention.max_frames;
  if (policy.enabled() && opts_.query_channel != nullptr) {
    frag::CompactionStats stats =
        opts_.query_channel->CompactMirror(policy, now, observe_floor);
    if (stats.removed_fragments > 0) {
      metrics_.AddFragmentsCompacted(stats.removed_fragments);
    }
  }
  // 2. Frame-log trim target: the policy proposes (count/time windows),
  // the observability rule disposes — a prefix entry may go only when its
  // version's lifespan ended below the floor every query can still see
  // (successor-version rule, mirroring FragmentStore::Compact), so a NACK
  // for anything observable is always answerable from the retained log.
  const int64_t observe_floor_s = observe_floor.seconds();
  // A live version the windows want gone can pin the (prefix-trimmed)
  // frame log forever — the classic case is a root container published
  // once and never superseded. For snapshot tags the unpin is sound:
  // re-publish the identical version at the tail ("refresh"; replacement
  // semantics make it a state no-op), which makes the old entry
  // superseded and trimmable on the next pass. Temporal live versions
  // stay pinned by design — minting a successor would cap their open
  // lifespan and change query results.
  constexpr size_t kMaxRefreshPerRun = 32;
  constexpr int64_t kMaxScanPastBlock = 4096;
  std::vector<int64_t> refresh_seqs;
  int64_t desired = 0;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    const int64_t end = log_base_ + static_cast<int64_t>(log_.size());
    const int64_t count_target = opts_.retention.max_frames >= 0
                                     ? end - opts_.retention.max_frames
                                     : log_base_;
    const int64_t age_cutoff_s = opts_.retention.max_age_s >= 0
                                     ? now_s - opts_.retention.max_age_s
                                     : INT64_MIN;
    desired = log_base_;
    bool blocked = false;
    int64_t scanned_past_block = 0;
    for (int64_t s = log_base_; s < end; ++s) {
      const LogEntry& e = log_[static_cast<size_t>(s - log_base_)];
      const bool want = s < count_target || e.valid_time_s < age_cutoff_s;
      if (!want) break;
      if (blocked && (++scanned_past_block > kMaxScanPastBlock ||
                      refresh_seqs.size() >= kMaxRefreshPerRun)) {
        break;
      }
      // Lifespan check, mirroring FragmentStore::Compact: an event
      // version lives only at its validTime; a temporal version's
      // lifespan is capped by the next logged version of the same filler
      // (no successor = still open at now, never trimmed); a snapshot
      // version is dead the moment a successor replaced it.
      const auto* tag = source_->tag_structure().FindById(e.tsid);
      bool ended_below = false;
      if (tag == nullptr) {
        // unknown tsid: keep, conservatively
      } else if (tag->type == frag::TagType::kEvent) {
        ended_below = e.valid_time_s < observe_floor_s;
      } else {
        auto fit = filler_index_.find(e.filler_id);
        if (fit != filler_index_.end()) {
          auto succ = std::upper_bound(fit->second.begin(),
                                       fit->second.end(),
                                       static_cast<size_t>(s));
          if (succ != fit->second.end()) {
            if (tag->type == frag::TagType::kSnapshot) {
              ended_below = true;
            } else {
              const LogEntry& next =
                  log_[*succ - static_cast<size_t>(log_base_)];
              ended_below = next.valid_time_s <= observe_floor_s;
            }
          }
        }
        if (!ended_below && tag->type == frag::TagType::kSnapshot &&
            refresh_seqs.size() < kMaxRefreshPerRun) {
          refresh_seqs.push_back(s);
        }
      }
      if (!ended_below) {
        // The prefix stops here, but keep scanning the want-window for
        // more refreshable snapshots so one pass unpins them all.
        blocked = true;
        continue;
      }
      if (!blocked) desired = s + 1;
    }
  }
  // 3. Checkpoint-then-trim, in that order, with crash points at the
  // boundary: a kill anywhere here leaves every retired seq covered by a
  // durable checkpoint (never both GC'd and un-checkpointed).
  if (opts_.wal != nullptr) {
    if (!wal_degraded_.load(std::memory_order_acquire) &&
        desired > opts_.wal->checkpointed()) {
      Status st = opts_.wal->Checkpoint();
      if (!st.ok()) {
        std::fprintf(stderr, "retain: checkpoint failed: %s\n",
                     st.message().c_str());
      }
    }
    // Whatever the checkpoint covers bounds the trim — on failure the
    // frame log simply keeps its prefix until a later pass succeeds.
    // With durability degraded no new checkpoint may be cut, but the
    // last durable one is still valid coverage, so the clamp (not the
    // trim) is what must survive degradation: without it a retired seq
    // would be neither in memory nor durable anywhere.
    desired = std::min(desired, opts_.wal->checkpointed());
  }
  WalHooks::At("retain:before_trim");
  int64_t retired = 0;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    while (log_base_ < desired && !log_.empty()) {
      const LogEntry& e = log_.front();
      frame_log_bytes_ -= EntryBytes(e);
      auto fit = filler_index_.find(e.filler_id);
      if (fit != filler_index_.end()) {
        auto& positions = fit->second;
        if (!positions.empty() &&
            positions.front() == static_cast<size_t>(log_base_)) {
          positions.pop_front();
        }
        if (positions.empty()) {
          filler_index_.erase(fit);
          // Every logged frame of this filler is now retired: only such
          // ids may be answered EXPIRED — a NACK for an id the log never
          // held is real upstream loss and must stay silent.
          retired_fillers_.insert(e.filler_id);
        }
      }
      log_.pop_front();
      ++log_base_;
      ++retired;
    }
    metrics_.SetRetentionFloorSeq(log_base_);
    metrics_.SetFrameLogBytes(frame_log_bytes_);
  }
  if (retired > 0) metrics_.AddFramesRetired(retired);
  // The source's fragment history trims in lockstep: RepeatFiller and
  // late ReplayTo serve the retained suffix only.
  source_->TrimHistory(desired);
  WalHooks::At("retain:after_trim");
  // 4. Result logs last: their regeneration replays the (durable) frame
  // log, so they must never outlive the data that rebuilds them.
  if (opts_.query_channel != nullptr && opts_.retention.max_results >= 0) {
    const int64_t trimmed =
        opts_.query_channel->TrimResultLogs(opts_.retention.max_results);
    if (trimmed > 0) metrics_.AddResultLogTrimmed(trimmed);
  }
  if (opts_.query_channel != nullptr) {
    metrics_.SetFragmentStoreBytes(
        opts_.query_channel->mirror_store_bytes());
  }
  // 5. Refreshes last, outside every lock: each re-publish runs the whole
  // normal publish path (WAL append, fan-out, channel tick) and lands at
  // the tail, superseding the pinned head entry for the next pass.
  for (int64_t s : refresh_seqs) {
    if (s < source_->history_base() || s >= source_->history_size()) continue;
    const frag::Fragment& live = source_->history_at(s);
    frag::Fragment copy;
    copy.id = live.id;
    copy.tsid = live.tsid;
    copy.valid_time = live.valid_time;
    copy.content = live.content->Clone();
    Status st = source_->Publish(std::move(copy));
    if (!st.ok()) {
      std::fprintf(stderr, "retain: refresh of filler %lld failed: %s\n",
                   static_cast<long long>(live.id), st.message().c_str());
      break;
    }
    metrics_.AddFrameRefreshed();
  }
  retaining_ = false;
}

void FragmentServer::OnRepeat(const std::string& /*stream_name*/,
                              int64_t history_pos,
                              frag::Fragment /*fragment*/) {
  // A repeat is a wire-level retransmission: re-send the logged frame with
  // its original seq instead of minting a new one, so the log and the
  // source's history keep the same numbering across restarts.
  const LogEntry* stored = nullptr;
  {
    std::lock_guard<std::mutex> log_lock(log_mu_);
    // A position below log_base_ was retired by retention: nothing to
    // re-send (the repeat's audience NACKs it and gets an EXPIRED answer).
    if (history_pos < log_base_ ||
        history_pos >= log_base_ + static_cast<int64_t>(log_.size())) {
      return;
    }
    metrics_.AddRepeatOut();
    stored = &log_[static_cast<size_t>(history_pos - log_base_)];
  }
  std::vector<std::shared_ptr<Connection>> targets;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    targets = conns_;
  }
  for (auto& conn : targets) {
    Enqueue(conn.get(), *stored, history_pos, /*repeat=*/true);
  }
  loop_->Wake();
}

void FragmentServer::ServeRepeat(Connection* conn,
                                 const RepeatRequest& request) {
  bool expired = false;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    auto it = filler_index_.find(request.filler_id);
    if (it == filler_index_.end()) {
      // Absent from the index means never published — real upstream
      // loss, answered with silence so the repair budget reports it —
      // unless the retirement tombstones say every logged frame of it
      // was aged out by retention, which is answered "expired on
      // purpose" so the subscriber stops NACKing data that is gone by
      // policy, not by accident.
      expired = retired_fillers_.count(request.filler_id) != 0;
    } else {
      const std::unordered_set<int64_t> have(
          request.have_valid_times.begin(), request.have_valid_times.end());
      bool any_retained = false;
      for (size_t pos : it->second) {
        if (static_cast<int64_t>(pos) < log_base_) continue;  // retired
        any_retained = true;
        // Version-aware NACK: skip versions the subscriber already holds.
        // Granularity is the validTime — two versions sharing one are both
        // re-sent, and the subscriber's store dedups the one it has.
        const LogEntry& entry = log_[pos - static_cast<size_t>(log_base_)];
        if (!have.empty() && have.count(entry.valid_time_s) != 0) continue;
        metrics_.AddRepeatOut();
        // An explicitly requested filler is always re-sent, filter or not.
        Enqueue(conn, entry, static_cast<int64_t>(pos), /*repeat=*/true,
                /*bypass_filter=*/true);
      }
      expired = !any_retained && log_base_ > 0;
    }
  }
  if (expired) SendExpiredFiller(conn, request.filler_id);
}

void FragmentServer::SendExpiredFiller(Connection* conn, int64_t filler_id) {
  Expired expired;
  expired.kind = Expired::kFiller;
  expired.filler_id = filler_id;
  Frame frame;
  frame.type = FrameType::kExpired;
  frame.payload = EncodeExpired(expired);
  auto bytes = EncodeFrame(frame);
  if (!bytes.ok()) return;
  metrics_.AddExpiredOut();
  metrics_.AddFillerExpired();
  EnqueueCtrl(conn, SharedBytes(std::move(bytes).MoveValue()));
}

void FragmentServer::Enqueue(Connection* conn, const LogEntry& entry,
                             int64_t seq, bool repeat, bool bypass_filter) {
  const bool may_block = !OnLoopThread();
  std::unique_lock<std::mutex> lock(conn->mu);
  if (conn->closing || !conn->live) return;
  // Replay/live dedup: anything below next_live_seq was (or will be)
  // served by the replay cursor. Retransmissions are exempt — their whole
  // point is re-sending an old seq.
  if (!repeat && seq < conn->next_live_seq) return;
  // Preferred codec first, the other form as fallback: the flag in the
  // frame header (not the handshake) is authoritative for decoding, so
  // either form is decodable by any subscriber.
  const bool prefer_compressed =
      conn->codec == frag::WireCodec::kTagCompressed;
  const std::shared_ptr<const std::string>& primary =
      prefer_compressed ? entry.compressed : entry.plain;
  const std::shared_ptr<const std::string>& fallback =
      prefer_compressed ? entry.plain : entry.compressed;
  const std::shared_ptr<const std::string>& stored =
      primary != nullptr ? primary : fallback;
  if (stored == nullptr) return;  // unencodable in any form
  if (conn->filter_active && !bypass_filter &&
      conn->filter.count(entry.tsid) == 0) {
    metrics_.AddFrameFiltered(static_cast<int64_t>(stored->size()));
    // Live filtered seqs accumulate into one pending SKIP_TO; a filtered
    // retransmission is simply not re-sent (the subscriber holds the seq
    // or will NACK it explicitly).
    if (!repeat && !conn->skip_suppressed) {
      if (conn->pending_skip < 0) {
        conn->pending_skip_start = seq;
        conn->skip_deadline =
            std::chrono::steady_clock::now() + opts_.skip_flush_interval;
      }
      conn->pending_skip = seq;
    }
    return;
  }
  // A filtered run precedes this frame: its SKIP_TO must go out first and
  // in seq order (the data queue preserves both).
  if (!repeat && conn->pending_skip >= 0 && conn->pending_skip < seq) {
    if (!ReserveQueueSlot(conn, lock, may_block)) return;
    PushSkipLocked(conn);
  }
  if (!ReserveQueueSlot(conn, lock, may_block)) return;
  // The common path queues the logged buffer itself — zero copies, the
  // whole point of the refcounted log; only a retransmission allocates.
  conn->data.push_back(OutFrame{
      repeat ? SharedBytes(WithRepeatFlag(*stored)) : stored, false});
  ++conn->enqueued;
  metrics_.UpdateQueueHwm(static_cast<int64_t>(conn->data.size()));
}

bool FragmentServer::ReserveQueueSlot(Connection* conn,
                                      std::unique_lock<std::mutex>& lock,
                                      bool may_block) {
  if (conn->data.size() < opts_.queue_capacity) return true;
  switch (opts_.slow_consumer) {
    case SlowConsumerPolicy::kBlock:
      // The loop thread (the queue's only consumer) and callers under
      // QueryChannel::mu_ must never park here, or nothing can ever drain
      // the queue: overflowing the bound keeps them lossless instead.
      if (!may_block) return true;
      loop_->Wake();  // the drain side may be asleep; it runs while we wait
      conn->cv_space.wait(lock, [&] {
        return conn->data.size() < opts_.queue_capacity || conn->closing;
      });
      return !conn->closing;
    case SlowConsumerPolicy::kDropOldest: {
      bool dropped_data = false;
      while (conn->data.size() >= opts_.queue_capacity) {
        if (!conn->data.front().is_skip) dropped_data = true;
        conn->data.pop_front();
        ++conn->dropped;
        metrics_.AddDrop();
      }
      if (dropped_data) {
        // A SKIP_TO still queued (or pending) behind the eviction would
        // advance the subscriber's prefix past the dropped frame, masking
        // the loss. Purge them and stop skipping until the next replay
        // handover re-establishes a clean prefix; the subscriber then
        // sees the genuine gap and repairs it via REPLAY_FROM.
        for (auto it = conn->data.begin(); it != conn->data.end();) {
          if (it->is_skip) {
            ++conn->dropped;
            metrics_.AddDrop();
            it = conn->data.erase(it);
          } else {
            ++it;
          }
        }
        conn->pending_skip = -1;
        conn->pending_skip_start = -1;
        conn->skip_suppressed = true;
      }
      return true;
    }
    case SlowConsumerPolicy::kDisconnect:
      conn->closing = true;
      conn->sock.Shutdown();
      conn->cv_space.notify_all();
      metrics_.AddSlowDisconnect();
      loop_->Wake();  // let the loop observe the dead socket promptly
      return false;
  }
  return false;
}

void FragmentServer::PushSkipLocked(Connection* conn) {
  if (conn->pending_skip < 0 || conn->skip_suppressed) return;
  Frame skip;
  skip.type = FrameType::kSkipTo;
  skip.seq = static_cast<uint64_t>(conn->pending_skip);
  skip.payload = EncodeSkipTo(conn->pending_skip_start);
  auto bytes = EncodeFrame(skip);
  if (!bytes.ok()) return;  // fixed 8-byte payload: cannot actually fail
  conn->data.push_back(OutFrame{SharedBytes(std::move(bytes).MoveValue()),
                                /*is_skip=*/true});
  ++conn->enqueued;
  conn->pending_skip = -1;
  conn->pending_skip_start = -1;
  metrics_.AddSkipOut();
  metrics_.UpdateQueueHwm(static_cast<int64_t>(conn->data.size()));
}

void FragmentServer::EnqueueEncoded(
    Connection* conn, const std::shared_ptr<const std::string>& frame) {
  std::unique_lock<std::mutex> lock(conn->mu);
  // Only `closing` gates this path, not `live`: a QUERY may directly
  // follow the HELLO, and its backlog replay must not wait for a
  // REPLAY_FROM the subscriber may never send.
  if (conn->closing) return;
  // Never block: RESULT delivery runs under QueryChannel::mu_, which the
  // loop thread needs to drain anything.
  if (!ReserveQueueSlot(conn, lock, /*may_block=*/false)) return;
  conn->data.push_back(OutFrame{frame, false});
  ++conn->enqueued;
  metrics_.UpdateQueueHwm(static_cast<int64_t>(conn->data.size()));
  metrics_.AddResultFrameOut();
}

void FragmentServer::EnqueueCtrl(Connection* conn,
                                 std::shared_ptr<const std::string> frame) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->closing) return;
  // Control frames ride the unbounded queue and stay out of the
  // enqueued/sent counters, exactly like the old direct sends did.
  conn->ctrl.push_back(OutFrame{std::move(frame), false});
}

void FragmentServer::CloseConnection(Connection* conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->closing = true;
  conn->sock.Shutdown();
  conn->cv_space.notify_all();
}

// --- event-loop thread -----------------------------------------------------

void FragmentServer::LoopThread() {
  loop_tid_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  std::vector<LoopEvent> events;
  // When the next O(conns) maintenance sweep is due: the earliest
  // heartbeat/skip-flush deadline recorded by the previous sweep. Keeping
  // the sweep off the per-event path is what makes the loop O(ready):
  // with N idle connections a per-pass sweep costs O(N) and the passes
  // themselves arrive at O(N / heartbeat_interval) — quadratic in N.
  auto next_sweep =
      std::chrono::steady_clock::now() + opts_.heartbeat_interval;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Sleep until readiness, a Wake(), or the next maintenance sweep.
    const auto now = std::chrono::steady_clock::now();
    const auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(
                           next_sweep - now)
                           .count();
    const int timeout_ms =
        delta <= 0 ? 0
                   : static_cast<int>(std::min<int64_t>(delta, 60000)) + 1;
    auto waited = loop_->Wait(&events, timeout_ms);
    if (!waited.ok()) break;  // backend failure: unrecoverable
    if (stopping_.load(std::memory_order_acquire)) break;
    for (const LoopEvent& ev : events) {
      if (ev.tag == &listener_tag_) {
        HandleAccept();
        continue;
      }
      auto* conn = static_cast<Connection*>(ev.tag);
      if (conn->dead) continue;  // torn down earlier in this batch
      if (ev.error) {
        DestroyConnection(conn);
        continue;
      }
      if (ev.readable) HandleReadable(conn);
      if (conn->dead) continue;
      // A readable event may have queued replies (HELLO ack, query
      // status) or kicked off a replay: push them now rather than
      // waiting for the next sweep.
      if (ev.writable || (ev.readable && !conn->want_write)) {
        PumpWrites(conn);
      }
    }
    // The O(conns) maintenance sweep, run only when the publisher woke
    // the loop (enqueues arrive with a Wake, not an fd event: every
    // connection not already parked on EPOLLOUT gets a chance to drain)
    // or a heartbeat deadline arrived — never on plain fd traffic.
    const auto tick = std::chrono::steady_clock::now();
    if (loop_->took_wake() || tick >= next_sweep) {
      auto earliest = tick + opts_.heartbeat_interval;
      for (size_t i = 0; i < loop_conns_.size(); ++i) {
        Connection* conn = loop_conns_[i].get();
        if (conn->dead) continue;
        if (!conn->want_write) PumpWrites(conn);
        if (conn->dead) continue;
        const auto next = HeartbeatTick(conn, tick);
        if (next < earliest) earliest = next;
      }
      // The minimum stays valid until it fires: new connections start a
      // full interval out (see HandleAccept), and a skip run started by a
      // publisher between sweeps arrives with the Wake that announces the
      // publish, which itself triggers the next sweep.
      next_sweep = earliest;
    }
    // Sweep: forget connections destroyed in this iteration.
    if (dead_pending_) {
      dead_pending_ = false;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.erase(
            std::remove_if(conns_.begin(), conns_.end(),
                           [](const std::shared_ptr<Connection>& c) {
                             return c->dead;
                           }),
            conns_.end());
      }
      loop_conns_.erase(
          std::remove_if(loop_conns_.begin(), loop_conns_.end(),
                         [](const std::shared_ptr<Connection>& c) {
                           return c->dead;
                         }),
          loop_conns_.end());
    }
  }
  // Teardown, on the owning thread, exactly once per socket.
  for (auto& conn : loop_conns_) {
    if (!conn->dead) DestroyConnection(conn.get());
  }
  loop_conns_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  loop_->Remove(listener_.fd());
}

void FragmentServer::HandleAccept() {
  for (;;) {
    auto accepted = Accept(listener_);
    if (!accepted.ok()) return;  // drained (EAGAIN) or transient error
    metrics_.AddConnectionAccepted();
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(accepted).MoveValue();
    if (!conn->sock.SetNonBlocking().ok()) continue;
    conn->hb_deadline =
        std::chrono::steady_clock::now() + opts_.heartbeat_interval;
    if (!loop_->Add(conn->sock.fd(), conn.get(), /*want_read=*/true,
                    /*want_write=*/false)
             .ok()) {
      continue;
    }
    // Visible to OnFragment before the handshake can finish: otherwise a
    // fragment published between the end of a replay and the insertion
    // would never be enqueued (a silent gap).
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    loop_conns_.push_back(std::move(conn));
  }
}

void FragmentServer::HandleReadable(Connection* conn) {
  char buf[64 * 1024];
  for (;;) {
    bool would_block = false;
    auto n = conn->sock.RecvNonBlocking(buf, sizeof(buf), &would_block);
    if (!n.ok()) {
      DestroyConnection(conn);
      return;
    }
    if (would_block) return;
    if (n.value() == 0) {  // orderly EOF
      DestroyConnection(conn);
      return;
    }
    conn->reader.Feed(buf, n.value());
    for (;;) {
      auto next = conn->reader.Next();
      if (!next.ok()) {
        // A peer speaking another frame version gets a clean BYE, which
        // it reads as a handshake rejection; any other malformed stream
        // is cut.
        if (!conn->handshaken &&
            next.status().code() == StatusCode::kUnsupported) {
          metrics_.AddHandshakeFailure();
          RejectHandshake(conn);
          PumpWrites(conn);
        } else {
          DestroyConnection(conn);
        }
        return;
      }
      if (!next.value().has_value()) break;
      const Frame& frame = *next.value();
      metrics_.AddFrameIn(
          static_cast<int64_t>(kFrameHeaderSize + frame.payload.size()));
      if (!frame.crc_ok) {
        // Client→server traffic is all control; a corrupt request is the
        // client's to retry. Count it and move on — except a mangled
        // HELLO, which leaves nothing to serve: cut the connection
        // without a BYE (that would read as a semantic rejection) so
        // the subscriber redials with a clean one.
        metrics_.AddFrameCorrupt();
        if (!conn->handshaken) {
          metrics_.AddHandshakeFailure();
          DestroyConnection(conn);
          return;
        }
        continue;
      }
      if (!HandleFrame(conn, frame)) {
        DestroyConnection(conn);
        return;
      }
      // A semantic rejection queued a BYE: stop consuming input and let
      // PumpWrites close once the queues drain.
      if (conn->close_after_flush) {
        PumpWrites(conn);
        return;
      }
    }
  }
}

bool FragmentServer::HandleFrame(Connection* conn, const Frame& frame) {
  if (!conn->handshaken) {
    Status st = Status::InvalidArgument("first frame must be HELLO");
    if (frame.type == FrameType::kHello) {
      auto hello = DecodeHello(frame.payload);
      if (!hello.ok()) {
        // Garbage HELLO payload (line noise, a mangled frame): count it
        // and just cut the connection. A BYE here would be wrong — the
        // subscriber reads BYE-at-handshake as a semantic rejection
        // (wrong stream/schema) and gives up for good, while a retried
        // clean HELLO may well succeed.
        metrics_.AddBadControlFrame();
        metrics_.AddHandshakeFailure();
        return false;
      }
      st = HandleHello(conn, hello.value());
    }
    if (!st.ok()) {
      metrics_.AddHandshakeFailure();
      RejectHandshake(conn);
      return true;  // with a BYE queued, close after the flush
    }
    conn->handshaken = true;
    return true;
  }
  switch (frame.type) {
    case FrameType::kReplayFrom: {
      auto from = DecodeReplayFrom(frame.payload);
      if (!from.ok()) {
        // A well-framed, checksum-valid request whose payload doesn't
        // decode: count it and drop it. Killing the session would let
        // one buggy (or chaos-injected) control frame take down a live
        // subscriber; the framing itself survived, so the stream stays
        // parseable.
        metrics_.AddBadControlFrame();
        break;
      }
      metrics_.AddReplayServed();
      std::lock_guard<std::mutex> lock(conn->mu);
      // A catch-up REPLAY_FROM on a live connection drops back to the
      // cursor; anything already queued becomes a harmless duplicate
      // (the subscriber discards seqs it has seen).
      conn->live = false;
      conn->replaying = true;
      conn->replay_next =
          static_cast<size_t>(std::max<int64_t>(0, from.value() + 1));
      conn->pending_skip = -1;
      conn->pending_skip_start = -1;
      conn->skip_suppressed = false;
      break;
    }
    case FrameType::kRepeatRequest: {
      auto request = DecodeRepeatRequest(frame.payload);
      if (!request.ok()) {
        metrics_.AddBadControlFrame();
        break;
      }
      metrics_.AddRepeatRequestIn();
      ServeRepeat(conn, request.value());
      break;
    }
    case FrameType::kSubscribe:
      HandleSubscribe(conn, frame);
      break;
    case FrameType::kQuery:
      HandleQuery(conn, frame);
      break;
    case FrameType::kUnquery:
      HandleUnquery(conn, frame);
      break;
    case FrameType::kBye:
      return false;
    default:
      break;  // HEARTBEAT and anything else: ignore
  }
  return true;
}

void FragmentServer::RejectHandshake(Connection* conn) {
  Frame bye;
  bye.type = FrameType::kBye;
  auto bytes = EncodeFrame(bye);
  if (bytes.ok()) EnqueueCtrl(conn, SharedBytes(std::move(bytes).MoveValue()));
  conn->close_after_flush = true;
  (void)loop_->Update(conn->sock.fd(), /*want_read=*/false,
                      /*want_write=*/true);
}

Status FragmentServer::HandleHello(Connection* conn, const Hello& hello) {
  if (hello.stream_name != source_->name()) {
    return Status::NotFound("unknown stream '" + hello.stream_name +
                            "' (serving '" + source_->name() + "')");
  }
  if (hello.ts_hash != 0 && hello.ts_hash != ts_hash_) {
    return Status::InvalidArgument(
        "tag-structure hash mismatch: subscriber holds a different schema");
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->codec = hello.codec;
  }
  Hello ack;
  ack.stream_name = source_->name();
  ack.codec = hello.codec;
  ack.ts_hash = ts_hash_;
  ack.tag_structure_xml = ts_xml_;
  Frame out;
  out.type = FrameType::kHello;
  // The stream epoch rides in the ack's (otherwise unused) seq field: a
  // subscriber resuming with seq numbers from a different epoch knows its
  // resume point is meaningless and restarts from scratch. 0 = no epoch
  // (an in-memory server, or one predating durability). After a WAL
  // append failure this is the volatile replacement epoch, which the next
  // incarnation can never advertise — forcing a clean restart then.
  out.seq = epoch_.load(std::memory_order_acquire);
  out.payload = EncodeHello(ack);
  XCQL_ASSIGN_OR_RETURN(std::string bytes, EncodeFrame(out));
  EnqueueCtrl(conn, SharedBytes(std::move(bytes)));
  return Status::OK();
}

void FragmentServer::HandleSubscribe(Connection* conn, const Frame& frame) {
  auto tsids = DecodeSubscribe(frame.payload);
  if (!tsids.ok()) {
    metrics_.AddBadControlFrame();
    return;
  }
  std::unordered_set<int> closure = ExpandTsidClosure(tsids.value());
  std::lock_guard<std::mutex> lock(conn->mu);
  if (tsids.value().empty()) {
    // Empty SUBSCRIBE = deliver everything again. A pending skip for
    // already-filtered seqs stays pending: those frames were not sent.
    conn->filter_active = false;
    conn->filter.clear();
  } else {
    conn->filter_active = true;
    conn->filter = std::move(closure);
  }
}

std::unordered_set<int> FragmentServer::ExpandTsidClosure(
    const std::vector<int>& ids) const {
  std::unordered_set<int> out;
  const frag::TagStructure& ts = source_->tag_structure();
  std::vector<const frag::TagNode*> stack;
  for (int id : ids) {
    // Unknown ids are kept literally: the filter simply never matches
    // them, and a schema evolution race stays a no-op instead of an error.
    out.insert(id);
    const frag::TagNode* node = ts.FindById(id);
    if (node == nullptr) continue;
    stack.push_back(node);
    while (!stack.empty()) {
      const frag::TagNode* n = stack.back();
      stack.pop_back();
      out.insert(n->id);
      for (const auto& child : n->children) stack.push_back(child.get());
    }
  }
  return out;
}

void FragmentServer::SendQueryStatus(Connection* conn,
                                     const QueryStatus& status) {
  Frame frame;
  frame.type = FrameType::kQueryStatus;
  frame.payload = EncodeQueryStatus(status);
  auto bytes = EncodeFrame(frame);
  if (!bytes.ok()) return;
  EnqueueCtrl(conn, SharedBytes(std::move(bytes).MoveValue()));
}

void FragmentServer::HandleQuery(Connection* conn, const Frame& frame) {
  auto decoded = DecodeQuery(frame.payload);
  if (!decoded.ok()) {
    metrics_.AddBadControlFrame();
    return;
  }
  RemoteQuerySpec spec = std::move(decoded).MoveValue();
  // kQueryFlagAutoFilter is transport-level: strip it before registration
  // so identical queries (with and without the bit) share one canonical
  // key, one engine query and one result log.
  const bool auto_filter = (spec.flags & kQueryFlagAutoFilter) != 0;
  spec.flags &= static_cast<uint8_t>(~kQueryFlagAutoFilter);
  QueryStatus status;
  status.token = spec.token;
  if (opts_.query_channel == nullptr) {
    // A clean control-plane refusal, not a cut connection: the fragment
    // stream keeps flowing.
    status.code = kQueryStatusRejected;
    status.message = kNoQueryChannel;
    metrics_.AddQueryRejected();
    SendQueryStatus(conn, status);
    return;
  }
  bool rejected_by_limit = false;
  auto id = opts_.query_channel->Register(spec, &rejected_by_limit);
  if (!id.ok()) {
    status.code =
        rejected_by_limit ? kQueryStatusRejected : kQueryStatusInvalid;
    status.message = id.status().message();
    metrics_.AddQueryRejected();
    SendQueryStatus(conn, status);
    return;
  }
  // The per-connection limit must not count a re-send of a query this
  // connection already subscribes to: the subscriber's handshake re-send
  // can race its first send, and rejecting the duplicate would overwrite
  // the ok status client-side. Register is idempotent for identical
  // specs, so probing the id first is free.
  const bool already =
      std::find(conn->query_subs.begin(), conn->query_subs.end(),
                id.value()) != conn->query_subs.end();
  if (!already && opts_.max_queries_per_conn > 0 &&
      static_cast<int>(conn->query_subs.size()) >=
          opts_.max_queries_per_conn) {
    status.code = kQueryStatusRejected;
    status.message = "connection query limit reached (" +
                     std::to_string(opts_.max_queries_per_conn) + ")";
    metrics_.AddQueryRejected();
    SendQueryStatus(conn, status);
    // If this refusal is what registered the query, release it; with
    // sinks still attached elsewhere Unregister keeps the registration.
    (void)opts_.query_channel->Unregister(id.value());
    return;
  }
  metrics_.AddQueryRegistered();
  // The query registered, so it compiles: fold its relevance into the
  // connection's subscription filter when asked. An unbounded query (or
  // one touching a different stream than expected) needs everything —
  // the filter comes off entirely.
  if (auto_filter) {
    auto relevance = opts_.query_channel->AnalyzeSpec(spec);
    if (relevance.ok()) {
      auto it = relevance.value().streams.find(source_->name());
      if (relevance.value().unbounded ||
          it == relevance.value().streams.end()) {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->filter_active = false;
        conn->filter.clear();
      } else {
        std::vector<int> ids(it->second.begin(), it->second.end());
        std::unordered_set<int> closure = ExpandTsidClosure(ids);
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->filter_active) {
          conn->filter.insert(closure.begin(), closure.end());
        } else {
          conn->filter_active = true;
          conn->filter = std::move(closure);
        }
      }
    }
  }
  status.query_id = id.value();
  status.code = kQueryStatusOk;
  // Ack before subscribing: the backlog replay enqueues RESULT frames
  // that may go out immediately, and the subscriber needs the token→id
  // mapping before the first one lands. Both ride queues, and ctrl
  // drains before data, so the order holds on the wire too.
  SendQueryStatus(conn, status);
  if (already) return;  // duplicate QUERY within one session: ack only
  Status sub = opts_.query_channel->Subscribe(
      id.value(), spec.last_result_seq, conn,
      [this, conn](const std::shared_ptr<const std::string>& bytes) {
        EnqueueEncoded(conn, bytes);
      });
  if (!sub.ok()) {
    // Raced a concurrent UNQUERY between Register and Subscribe: retract
    // the ok with an UnknownId status; the subscriber re-issues the QUERY.
    status.code = kQueryStatusUnknownId;
    status.message = sub.message();
    SendQueryStatus(conn, status);
    return;
  }
  conn->query_subs.push_back(id.value());
}

void FragmentServer::HandleUnquery(Connection* conn, const Frame& frame) {
  auto id = DecodeUnquery(frame.payload);
  if (!id.ok()) {
    metrics_.AddBadControlFrame();
    return;
  }
  QueryStatus status;
  status.query_id = id.value();
  auto it = std::find(conn->query_subs.begin(), conn->query_subs.end(),
                      id.value());
  if (opts_.query_channel == nullptr) {
    status.code = kQueryStatusRejected;
    status.message = kNoQueryChannel;
  } else if (it == conn->query_subs.end()) {
    status.code = kQueryStatusUnknownId;
    status.message = "query not subscribed on this connection";
  } else {
    conn->query_subs.erase(it);
    opts_.query_channel->Unsubscribe(id.value(), conn);
    (void)opts_.query_channel->Unregister(id.value());
    status.code = kQueryStatusOk;
  }
  SendQueryStatus(conn, status);
}

std::shared_ptr<const std::string> FragmentServer::NextFrame(
    Connection* conn) {
  // 1. Control frames (acks, statuses, heartbeats, BYE).
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->ctrl.empty()) {
      auto frame = std::move(conn->ctrl.front().bytes);
      conn->ctrl.pop_front();
      return frame;
    }
  }
  // 2. A replay frame stashed behind its preceding SKIP_TO.
  if (conn->replay_stash != nullptr) return std::move(conn->replay_stash);
  // 3. The replay cursor: history served straight from the log, one
  // bounded log_mu_ hold, never queued. `replaying` is written only on
  // this thread, so the unlocked pre-check cannot race.
  if (conn->replaying) {
    std::lock_guard<std::mutex> log_lock(log_mu_);
    std::unique_lock<std::mutex> lock(conn->mu);
    while (conn->replaying) {
      if (static_cast<int64_t>(conn->replay_next) < log_base_) {
        // The requested resume point was retired by retention. The WAL
        // checkpoint still holds it (a restarted server replays it), but
        // this incarnation's in-memory log starts at log_base_.
        const int64_t first = static_cast<int64_t>(conn->replay_next);
        conn->replay_next = static_cast<size_t>(log_base_);
        Expired expired;
        expired.kind = Expired::kRange;
        expired.first_seq = first;
        Frame f;
        f.type = FrameType::kExpired;
        f.seq = static_cast<uint64_t>(log_base_ - 1);
        f.payload = EncodeExpired(expired);
        auto bytes = EncodeFrame(f);
        if (bytes.ok()) {
          ++conn->enqueued;
          ++conn->sent;
          metrics_.AddExpiredOut();
          return SharedBytes(std::move(bytes).MoveValue());
        }
        continue;  // encode failure (cannot actually happen): fall through
      }
      if (conn->replay_next >=
          static_cast<size_t>(log_base_) + log_.size()) {
        // Handover, under log_mu_ + conn->mu: the live path owns every
        // seq from the log end on, so replay and fan-out are exactly-once
        // even though the publisher fans out lock-free.
        conn->replaying = false;
        conn->live = true;
        conn->next_live_seq = log_base_ + static_cast<int64_t>(log_.size());
        conn->skip_suppressed = false;
        if (conn->pending_skip >= 0) PushSkipLocked(conn);
        break;
      }
      const LogEntry& entry =
          log_[conn->replay_next - static_cast<size_t>(log_base_)];
      const int64_t seq = static_cast<int64_t>(conn->replay_next);
      ++conn->replay_next;
      const bool prefer_compressed =
          conn->codec == frag::WireCodec::kTagCompressed;
      const std::shared_ptr<const std::string>& primary =
          prefer_compressed ? entry.compressed : entry.plain;
      const std::shared_ptr<const std::string>& fallback =
          prefer_compressed ? entry.plain : entry.compressed;
      const std::shared_ptr<const std::string>& stored =
          primary != nullptr ? primary : fallback;
      if (stored == nullptr) continue;
      if (conn->filter_active && conn->filter.count(entry.tsid) == 0) {
        metrics_.AddFrameFiltered(static_cast<int64_t>(stored->size()));
        if (conn->pending_skip < 0) {
          conn->pending_skip_start = seq;
          conn->skip_deadline =
              std::chrono::steady_clock::now() + opts_.skip_flush_interval;
        }
        conn->pending_skip = seq;
        continue;
      }
      // Replay frames are never queued: count them enqueued+sent at the
      // pull, keeping enqueued == sent + dropped + queue_depth exact.
      ++conn->enqueued;
      ++conn->sent;
      if (conn->pending_skip >= 0 && !conn->skip_suppressed) {
        // The filtered run before this frame gets its SKIP_TO first.
        Frame skip;
        skip.type = FrameType::kSkipTo;
        skip.seq = static_cast<uint64_t>(conn->pending_skip);
        skip.payload = EncodeSkipTo(conn->pending_skip_start);
        auto skip_bytes = EncodeFrame(skip);
        conn->pending_skip = -1;
        conn->pending_skip_start = -1;
        if (skip_bytes.ok()) {
          ++conn->enqueued;
          ++conn->sent;
          metrics_.AddSkipOut();
          conn->replay_stash = stored;
          return SharedBytes(std::move(skip_bytes).MoveValue());
        }
      }
      return stored;
    }
  }
  // 4. The bounded data queue (live fragments, RESULTs, SKIP_TOs).
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->data.empty()) {
      auto frame = std::move(conn->data.front().bytes);
      conn->data.pop_front();
      ++conn->sent;
      conn->cv_space.notify_one();
      return frame;
    }
  }
  return nullptr;
}

void FragmentServer::PumpWrites(Connection* conn) {
  for (;;) {
    if (conn->cur == nullptr) {
      conn->cur = NextFrame(conn);
      conn->cur_off = 0;
      if (conn->cur == nullptr) break;  // fully drained
    }
    bool would_block = false;
    auto n = conn->sock.SendNonBlocking(conn->cur->data() + conn->cur_off,
                                        conn->cur->size() - conn->cur_off,
                                        &would_block);
    if (!n.ok()) {
      DestroyConnection(conn);
      return;
    }
    if (would_block) break;
    conn->cur_off += n.value();
    if (conn->cur_off < conn->cur->size()) continue;
    metrics_.AddFrameOut(static_cast<int64_t>(conn->cur->size()));
    conn->cur.reset();
    conn->cur_off = 0;
    // Any completed send proves liveness: push the heartbeat out.
    conn->hb_deadline =
        std::chrono::steady_clock::now() + opts_.heartbeat_interval;
  }
  const bool pending = conn->cur != nullptr;
  // cur == null here means NextFrame found nothing: ctrl, stash, replay
  // and data are all empty — the flush point close_after_flush waits for.
  if (!pending && conn->close_after_flush) {
    DestroyConnection(conn);
    return;
  }
  if (pending != conn->want_write) {
    conn->want_write = pending;
    (void)loop_->Update(conn->sock.fd(),
                        /*want_read=*/!conn->close_after_flush,
                        /*want_write=*/pending);
  }
}

void FragmentServer::FlushPendingSkip(Connection* conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->closing || !conn->live) return;
  PushSkipLocked(conn);
}

std::chrono::steady_clock::time_point FragmentServer::HeartbeatTick(
    Connection* conn, std::chrono::steady_clock::time_point now) {
  bool live;
  bool idle;
  bool has_skip;
  std::chrono::steady_clock::time_point skip_deadline;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    live = conn->live;
    has_skip = conn->pending_skip >= 0 && !conn->skip_suppressed;
    skip_deadline = conn->skip_deadline;
    idle = conn->ctrl.empty() && conn->data.empty() && !conn->replaying;
  }
  if (live && has_skip && now >= skip_deadline) {
    // A run of filtered frames with no matching frame behind it to carry
    // the SKIP_TO out: flush it so the subscriber's contiguous prefix
    // keeps advancing. Cadenced by skip_flush_interval, not the (much
    // coarser) heartbeat clock — a filtered slice should not wait a full
    // liveness interval to learn the stream moved on.
    FlushPendingSkip(conn);
    PumpWrites(conn);
    // The flush is itself a completed send in the common case; PumpWrites
    // already pushed hb_deadline out. Re-read below for the return value.
    has_skip = false;
  }
  if (now >= conn->hb_deadline) {
    conn->hb_deadline = now + opts_.heartbeat_interval;
    if (conn->handshaken && live && idle && !has_skip &&
        conn->cur == nullptr && conn->replay_stash == nullptr) {
      auto hb = EncodeFrame(HeartbeatFrame(published_.load()));
      if (hb.ok()) {  // empty payload: cannot actually fail
        EnqueueCtrl(conn, SharedBytes(std::move(hb).MoveValue()));
        PumpWrites(conn);
      }
    }
  }
  // When this connection next needs the clock: its heartbeat, or sooner
  // if a (possibly freshly started) skip run is waiting on its deadline.
  auto next = conn->hb_deadline;
  if (live) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->pending_skip >= 0 && !conn->skip_suppressed &&
        conn->skip_deadline < next) {
      next = conn->skip_deadline;
    }
  }
  return next;
}

void FragmentServer::DestroyConnection(Connection* conn) {
  if (conn->dead) return;
  conn->dead = true;
  dead_pending_ = true;  // loop thread reaps on its next pass
  // Detach result sinks before the conn can be reaped. A disconnect does
  // not UNQUERY: the registration (and its result log) stays for the
  // subscriber's reconnect.
  if (opts_.query_channel != nullptr && !conn->query_subs.empty()) {
    opts_.query_channel->DropSink(conn);
  }
  loop_->Remove(conn->sock.fd());
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->closing = true;
  conn->sock.Close();
  conn->cv_space.notify_all();
}

// --- introspection ---------------------------------------------------------

MetricsSnapshot FragmentServer::metrics() const {
  MetricsSnapshot s = metrics_.Snapshot();
  s.connections_active = active_connections();
  return s;
}

int FragmentServer::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  int active = 0;
  for (const auto& conn : conns_) {
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    if (!conn->closing) ++active;
  }
  return active;
}

std::vector<ConnectionStats> FragmentServer::connection_stats() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::vector<ConnectionStats> out;
  out.reserve(conns_.size());
  for (const auto& conn : conns_) {
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    ConnectionStats stats;
    stats.enqueued = conn->enqueued;
    stats.sent = conn->sent;
    stats.dropped = conn->dropped;
    stats.queue_depth = static_cast<int64_t>(conn->data.size());
    stats.live = conn->live;
    stats.closing = conn->closing;
    stats.filtered = conn->filter_active;
    out.push_back(stats);
  }
  return out;
}

}  // namespace xcql::net
