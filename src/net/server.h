// net::FragmentServer — the networked face of a stream::StreamServer.
//
// The server registers itself as one more StreamClient on the in-process
// multicast, encodes every published fragment exactly once per supported
// codec into an append-only frame log (seq = publish position), and fans
// the *same immutable buffers* out to any number of TCP subscribers: a
// connection's outbound queue holds refcounted views of log entries, never
// copies, so publishing to 10k subscribers costs one encode and N queue
// pushes. Late and resuming subscribers catch up from the frame log via
// REPLAY_FROM.
//
// I/O model: a single event-loop thread (net::EventLoop — epoll on Linux,
// poll elsewhere) owns every socket: it accepts, reads control frames,
// and drains the per-connection outbound queues through non-blocking
// writes with a per-connection partial-write offset. There are no
// per-connection threads. The publisher thread only encodes, appends,
// pushes queue entries and wakes the loop.
//
// Per-connection send order: control frames (HELLO ack, QUERY_STATUS,
// heartbeats, BYE) first, then the replay cursor (history served straight
// from the log, no queueing), then the data queue (live fragments,
// RESULTs, SKIP_TOs, repeats). The replay→live handover happens under
// log_mu_, so every seq reaches a subscriber exactly once.
//
// Each connection may carry a per-tsid subscription filter (SUBSCRIBE
// frame, or derived from a registered query via kQueryFlagAutoFilter):
// only fragments whose tsid falls in the filter's subtree closure are
// delivered, and skipped runs are covered by SKIP_TO frames so the
// subscriber's contiguous-prefix tracking never sees a false gap.
//
// What happens when a bounded data queue fills is the configurable
// SlowConsumerPolicy; the conservation law
//   enqueued == sent + dropped + queue_depth
// holds for every connection at every instant.
//
// Threading: the core engine stays single-threaded — Start(), Stop() and
// the publishes that reach OnFragment() must come from the same
// (publisher) thread. Everything socket-side happens on the loop thread.
#ifndef XCQL_NET_SERVER_H_
#define XCQL_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/metrics.h"
#include "net/socket.h"
#include "stream/transport.h"

namespace xcql::net {

/// \brief What to do when a subscriber's outbound queue is full.
enum class SlowConsumerPolicy {
  kBlock,       // publisher waits for space (lossless, stalls the stream)
  kDropOldest,  // evict the oldest queued frame, counting the drop; the
                // subscriber can recover the gap later via REPLAY_FROM
  kDisconnect,  // cut the connection; the subscriber's reconnect+replay
                // machinery refetches what it missed
};

class Wal;
class QueryChannel;

/// \brief Bounded-memory forever-run knobs (docs/RETENTION.md). The server
/// unions the enabled windows into a retention floor, clamps it by the
/// registered queries' minimal observable windows and by the WAL's
/// checkpoint coverage, and then — in this order — compacts the fragment
/// stores, drops the frame-log prefix, and trims the result logs. An
/// expired seq range is still replayable from the WAL checkpoint; live
/// subscribers resuming below the floor get an EXPIRED frame.
struct RetentionOptions {
  /// Compact store versions whose lifespan ended more than this many
  /// seconds before the stream's high-water validTime. -1 = no time window.
  int64_t max_age_s = -1;
  /// Keep at most this many superseded versions per filler id in the
  /// stores. -1 = no version window.
  int max_versions = -1;
  /// Keep at most this many frames in the in-memory frame log (and
  /// fragments in the stores). -1 = no count window.
  int64_t max_frames = -1;
  /// Keep at most this many RESULT frames per query result log. -1 = no
  /// result window.
  int64_t max_results = -1;
  /// Run the retention driver every this many publishes (>= 1).
  int64_t check_every = 256;
  bool enabled() const {
    return max_age_s >= 0 || max_versions >= 0 || max_frames >= 0 ||
           max_results >= 0;
  }
};

/// \brief Self-healing durability knobs (docs/DURABILITY.md, "Degraded
/// mode and re-arm"). Active only with a WAL attached: a supervisor
/// thread probes a degraded disk with exponential backoff and, once a
/// probe write+fsync round-trips, re-arms — checkpoints the live
/// in-memory frame log into a fresh WAL generation under a new durable
/// epoch and cuts every subscriber exactly once so no resume point
/// spans the volatile gap. Disk-space watermarks (statvfs on the WAL's
/// data dir) act before the disk actually fails: below the soft mark
/// the next publish runs an emergency retention pass; below the hard
/// mark durability degrades preemptively, while appends would still
/// succeed, so the stream never tears a half-written record on ENOSPC.
struct DurabilityOptions {
  /// Re-arm automatically after a degrade. Off = degraded is terminal
  /// for the process (the pre-existing behavior).
  bool self_heal = true;
  /// Probe cadence while degraded: starts at probe_initial, doubles per
  /// failed probe up to probe_max.
  std::chrono::milliseconds probe_initial{100};
  std::chrono::milliseconds probe_max{2000};
  /// Soft watermark: data-dir free bytes below which the server forces a
  /// retention pass (checkpoint-then-trim) at the next publish.
  /// 0 = disabled.
  int64_t soft_free_bytes = 0;
  /// Hard watermark: free bytes below which durability degrades
  /// preemptively — and below which a re-arm is refused. 0 = disabled.
  int64_t hard_free_bytes = 0;
  /// How often the supervisor samples statvfs while healthy.
  std::chrono::milliseconds watermark_interval{1000};
};

struct FragmentServerOptions {
  uint16_t port = 0;  // 0 = pick an ephemeral port (see port())
  size_t queue_capacity = 1024;  // outbound data frames per connection
  SlowConsumerPolicy slow_consumer = SlowConsumerPolicy::kBlock;
  std::chrono::milliseconds heartbeat_interval{1000};
  /// How long a pending SKIP_TO run may sit before the loop flushes it
  /// even though no matching frame arrived to carry it out. Bounds a
  /// filtered subscriber's prefix-advance latency independently of the
  /// (much coarser) heartbeat/liveness cadence.
  std::chrono::milliseconds skip_flush_interval{50};
  /// Readiness backend for the I/O thread (kDefault = epoll on Linux,
  /// poll elsewhere). kPoll stays selectable on Linux so the portable
  /// path is exercised by the same test suite.
  EventBackend backend = EventBackend::kDefault;
  /// Durability: every published frame is appended here *before* any
  /// subscriber sees it, so with FsyncPolicy::kAlways no subscriber can
  /// ever be ahead of what a restart recovers. Not owned; must outlive
  /// the server. The WAL's epoch rides in the HELLO ack so resuming
  /// subscribers detect a reset data dir. If an append ever fails, the
  /// server keeps delivering but retires the durable epoch (minting a
  /// volatile one and restarting every subscriber) so no resume point
  /// outlives the process — see FragmentServer::DegradeDurability.
  /// nullptr = in-memory only.
  Wal* wal = nullptr;
  /// Remote query channel: fed every log-appended fragment and serving
  /// QUERY/UNQUERY registrations, with RESULT frames fanned out through
  /// the same per-connection queues as fragments. Not owned; must outlive
  /// the server. nullptr = queries are not offered (every QUERY and
  /// UNQUERY is answered with kQueryStatusRejected).
  QueryChannel* query_channel = nullptr;
  /// Admission limit: active query subscriptions per connection
  /// (<= 0 = unlimited). The channel-wide cap lives in
  /// QueryChannelOptions::max_queries.
  int max_queries_per_conn = 8;
  /// Retention windows; disabled by default (nothing is ever forgotten).
  RetentionOptions retention;
  /// Self-healing durability; a no-op without a WAL.
  DurabilityOptions durability;
};

/// \brief Per-connection counters, exposed so tests and tools can verify
/// the conservation law enqueued == sent + dropped + queue_depth.
struct ConnectionStats {
  int64_t enqueued = 0;
  int64_t sent = 0;
  int64_t dropped = 0;
  int64_t queue_depth = 0;
  bool live = false;     // handshake + replay done, receiving live frames
  bool closing = false;
  bool filtered = false; // a per-tsid subscription filter is active
};

class FragmentServer : public stream::StreamClient {
 public:
  explicit FragmentServer(stream::StreamServer* source,
                          FragmentServerOptions options = {});
  ~FragmentServer() override;

  FragmentServer(const FragmentServer&) = delete;
  FragmentServer& operator=(const FragmentServer&) = delete;

  /// \brief Seeds the frame log from the source's already-published
  /// history, registers with the source, binds and starts the I/O thread.
  Status Start();

  /// \brief Unregisters, stops the event loop (closing every socket on
  /// the loop thread, exactly once) and joins it. Idempotent; leaks no
  /// file descriptors.
  void Stop();

  /// \brief The bound TCP port (after Start()).
  uint16_t port() const { return port_; }

  /// \brief Sequence number the next published fragment will carry.
  int64_t next_seq() const;

  /// \brief The stream epoch advertised in HELLO acks: the WAL's epoch
  /// when one is attached, 0 (no epoch) otherwise. After a WAL append
  /// failure this becomes a freshly minted *volatile* epoch (see
  /// DegradeDurability), never the durable one again.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// \brief True while the server runs without durability: a WAL append
  /// or background fsync failed and the durable epoch was retired.
  /// Frames published while degraded survive only in memory — until a
  /// re-arm (DurabilityOptions::self_heal) makes them durable again.
  bool wal_degraded() const {
    return wal_degraded_.load(std::memory_order_acquire);
  }

  /// \brief Cumulative wall time spent degraded, current stretch
  /// included (the degraded_ms_total metric only accumulates on re-arm).
  int64_t time_in_degraded_ms() const;

  /// \brief One degraded→durable transition, callable directly by tests
  /// and operators (the supervisor calls it after a successful probe):
  /// snapshots the live frame log under log_mu_, rebuilds the WAL into a
  /// fresh generation starting at the log's base (Wal::Rearm), publishes
  /// the new durable epoch, resumes durable appends, and cuts every
  /// subscriber once so each re-handshakes onto the new epoch. On
  /// failure the WAL stays broken/degraded and the call may be retried.
  Status TryRearm();

  /// \brief StreamClient hook: called by the source on the publisher
  /// thread for every multicast fragment. Encodes once, appends to the
  /// log (WAL first), enqueues refcounted views to every live
  /// connection, then wakes the I/O thread.
  void OnFragment(const std::string& stream_name,
                  frag::Fragment fragment) override;

  /// \brief StreamClient hook for RepeatFiller retransmissions: re-sends
  /// the logged frame at `history_pos` with its original sequence number.
  /// No new seq is minted, so the frame log stays aligned with the
  /// source's history numbering (subscribers that already hold the seq
  /// discard the duplicate).
  void OnRepeat(const std::string& stream_name, int64_t history_pos,
                frag::Fragment fragment) override;

  MetricsSnapshot metrics() const;
  std::vector<ConnectionStats> connection_stats() const;
  int active_connections() const;

  /// \brief Oldest seq the in-memory frame log still holds (the retention
  /// floor; 0 until retention ever trims). Seqs below it are replayable
  /// only from the WAL checkpoint; a live resume below it is answered
  /// with an EXPIRED run.
  int64_t log_base() const;

  /// \brief Runs one retention pass now (publisher thread only — the same
  /// thread that calls the publishes reaching OnFragment). OnFragment
  /// calls this automatically every retention.check_every publishes; tests
  /// and idle-loop callers invoke it directly to trim without traffic.
  void RunRetention();

  /// \brief The readiness backend the I/O thread actually runs on.
  EventBackend backend() const { return backend_; }

 private:
  /// One queued outbound frame: a refcounted view of an immutable buffer
  /// (shared with the log and with every other subscriber's queue on the
  /// common path) plus nothing else — the partial-write offset lives on
  /// the connection, since only one frame is in flight per socket.
  struct OutFrame {
    std::shared_ptr<const std::string> bytes;
    bool is_skip = false;  // a SKIP_TO (evicted alongside dropped data)
  };

  struct Connection {
    Socket sock;

    std::mutex mu;                     // guards everything below
    std::condition_variable cv_space;  // data queue gained room / closing
    std::deque<OutFrame> ctrl;  // unbounded: acks, statuses, BYE
    std::deque<OutFrame> data;  // bounded: fragments, results, skips
    frag::WireCodec codec = frag::WireCodec::kPlainXml;
    bool live = false;
    bool closing = false;
    /// A BYE sits in ctrl: close once both queues and cur have flushed.
    bool close_after_flush = false;
    int64_t enqueued = 0;
    int64_t sent = 0;
    int64_t dropped = 0;
    /// Replay cursor: history is pulled straight from the log (one brief
    /// log_mu_ hold per frame), never queued, so a kBlock loop thread can
    /// not deadlock against itself and the bounded queue only ever holds
    /// live traffic.
    bool replaying = false;
    size_t replay_next = 0;
    /// First seq the live path owns; the handover sets it to log_.size()
    /// under log_mu_, so replay and live delivery are exactly-once even
    /// though the publisher fans out without holding log_mu_.
    int64_t next_live_seq = 0;
    /// Per-tsid subscription filter (subtree closure; empty + inactive =
    /// deliver everything).
    bool filter_active = false;
    std::unordered_set<int> filter;
    /// Highest filtered-out seq not yet covered by a SKIP_TO (-1 = none),
    /// and the first seq of that run (the SKIP_TO payload — subscribers
    /// verify the run continues their contiguous prefix exactly).
    int64_t pending_skip = -1;
    int64_t pending_skip_start = -1;
    /// When the current pending run must be flushed (stamped as the run
    /// starts); meaningful only while pending_skip >= 0.
    std::chrono::steady_clock::time_point skip_deadline;
    /// A data-queue eviction may have dropped a fragment that queued
    /// SKIP_TOs would otherwise mask: stop emitting skips until the next
    /// replay handover re-establishes a clean prefix.
    bool skip_suppressed = false;

    // --- loop-thread-only state (no lock needed) ---
    FrameReader reader;
    bool handshaken = false;
    std::vector<uint64_t> query_subs;  // query ids subscribed on this conn
    std::shared_ptr<const std::string> cur;  // frame being written
    size_t cur_off = 0;
    bool want_write = false;  // current backend interest
    std::chrono::steady_clock::time_point hb_deadline;
    /// Replay pulled a deliverable frame but a SKIP_TO for the filtered
    /// run before it must go out first: the frame waits here one turn.
    std::shared_ptr<const std::string> replay_stash;
    bool dead = false;  // torn down; skip in loop sweeps until erased
  };

  // One published fragment, encoded once per codec the server offers, as
  // refcounted immutable buffers shared by every queue that delivers them.
  struct LogEntry {
    std::shared_ptr<const std::string> plain;  // FRAGMENT frame, plain XML
    std::shared_ptr<const std::string> compressed;  // §4.1 payload (null
                                                    // if incompressible)
    int64_t filler_id = 0;   // the fragment's filler id (NACK index key)
    int64_t valid_time_s = 0;  // the version's validTime (epoch seconds),
                               // so a version-aware NACK can skip versions
                               // the subscriber already holds
    int tsid = 0;  // the fragment's tag-structure id (filter key)
  };

  LogEntry EncodeEntry(const frag::Fragment& fragment, uint64_t seq);
  static int64_t EntryBytes(const LogEntry& entry) {
    return (entry.plain != nullptr
                ? static_cast<int64_t>(entry.plain->size())
                : 0) +
           (entry.compressed != nullptr
                ? static_cast<int64_t>(entry.compressed->size())
                : 0);
  }

  // --- event-loop thread ---
  void LoopThread();
  void HandleAccept();
  void HandleReadable(Connection* conn);
  bool HandleFrame(Connection* conn, const Frame& frame);  // false = cut
  Status HandleHello(Connection* conn, const Hello& hello);
  /// \brief Queues a BYE and closes the connection once it flushes: the
  /// subscriber reads a BYE at handshake as a rejection.
  void RejectHandshake(Connection* conn);
  void HandleSubscribe(Connection* conn, const Frame& frame);
  /// \brief Serves a QUERY frame: admission checks (connection cap, then
  /// the channel's), registration, status ack, and result-stream
  /// subscription from the spec's resume seq. kQueryFlagAutoFilter is
  /// stripped before registration and folded into the connection filter.
  void HandleQuery(Connection* conn, const Frame& frame);
  void HandleUnquery(Connection* conn, const Frame& frame);
  void SendQueryStatus(Connection* conn, const QueryStatus& status);
  /// \brief Serves a REPEAT_REQUEST (NACK): re-enqueues the logged frames
  /// of the request's filler — original seqs, kFlagRepeat set — to `conn`
  /// only, skipping versions whose validTime the request says the
  /// subscriber already holds. Bypasses the subscription filter: an
  /// explicitly requested filler is always re-sent.
  void ServeRepeat(Connection* conn, const RepeatRequest& request);
  /// \brief Drains this connection's sendable frames (ctrl → replay
  /// cursor → data) through non-blocking writes; parks on EPOLLOUT when
  /// the kernel buffer fills.
  void PumpWrites(Connection* conn);
  /// \brief Pulls the next frame to send, or null. Advances the replay
  /// cursor (and performs the live handover) as a side effect.
  std::shared_ptr<const std::string> NextFrame(Connection* conn);
  void FlushPendingSkip(Connection* conn);
  /// \brief Per-connection clock work: flushes a skip run past its
  /// deadline, emits an idle heartbeat past hb_deadline. Returns when
  /// this connection next needs the clock (feeds the loop's next sweep).
  std::chrono::steady_clock::time_point HeartbeatTick(
      Connection* conn, std::chrono::steady_clock::time_point now);
  /// \brief Loop-thread teardown: drop query sinks, deregister from the
  /// backend, close the socket, wake blocked publishers, forget the conn.
  void DestroyConnection(Connection* conn);

  // --- any thread ---
  /// \brief Appends a refcounted view of a logged fragment frame to the
  /// connection's data queue, applying the subscription filter and the
  /// slow-consumer policy. With `repeat` the frame goes out flagged as a
  /// retransmission; `bypass_filter` serves NACKs.
  void Enqueue(Connection* conn, const LogEntry& entry, int64_t seq,
               bool repeat = false, bool bypass_filter = false);
  /// \brief Queues an already-encoded frame (a RESULT from the query
  /// channel), applying the same slow-consumer policy as Enqueue. Unlike
  /// fragments it does not wait for `live`: a QUERY may directly follow
  /// the HELLO.
  void EnqueueEncoded(Connection* conn,
                      const std::shared_ptr<const std::string>& frame);
  void EnqueueCtrl(Connection* conn,
                   std::shared_ptr<const std::string> frame);
  /// \brief The slow-consumer policy body shared by the enqueue paths:
  /// returns true when a data-queue slot is available (possibly after
  /// blocking or evicting), false when the frame must be abandoned.
  /// `may_block` = false makes kBlock overflow the bound instead of
  /// waiting: enqueues from the loop thread (the queue's only consumer)
  /// and from under QueryChannel::mu_ must never park, or the drain side
  /// deadlocks; overflowing keeps them lossless.
  bool ReserveQueueSlot(Connection* conn, std::unique_lock<std::mutex>& lock,
                        bool may_block);
  /// \brief Appends a per-connection SKIP_TO(pending_skip) to the data
  /// queue. Caller holds conn->mu.
  void PushSkipLocked(Connection* conn);
  /// \brief Expands tag-structure ids to their schema subtree closure.
  std::unordered_set<int> ExpandTsidClosure(const std::vector<int>& ids)
      const;
  /// \brief Marks the connection closing and shuts the socket down; the
  /// loop thread observes the dead socket and destroys the connection.
  void CloseConnection(Connection* conn);
  /// \brief Called when a WAL append fails (publisher thread, log_mu_
  /// held), a background fsync fails (the WAL flusher's failure
  /// callback) or the hard disk-space watermark trips (the durability
  /// supervisor): retires the durable epoch for a volatile one and cuts
  /// every connection, so no subscriber keeps a resume point that a
  /// restart could mis-splice. Never touches log_ — callers may or may
  /// not hold log_mu_. Concurrent calls collapse into one degrade.
  void DegradeDurability(const Status& why);
  /// \brief Cuts every connection (each subscriber re-handshakes and
  /// observes the current epoch) and wakes the loop.
  void CutAllConnections();
  /// \brief The durability supervisor body: samples the data-dir free
  /// bytes on watermark_interval while healthy; while degraded, probes
  /// the disk with exponential backoff and re-arms when it heals.
  void DurabilityLoop();
  /// \brief One probe round-trip on the WAL's data dir: create, write
  /// 4KiB, fsync, close, unlink — through the IoEnv seam and always on a
  /// FRESH descriptor (a probe must never re-fsync a failed one).
  bool ProbeDisk(const std::string& dir);

  /// \brief Enqueues an EXPIRED(kFiller) answer for a NACK whose filler
  /// was compacted by retention — "aged out on purpose", so the
  /// subscriber resolves the repair instead of burning its retry budget.
  void SendExpiredFiller(Connection* conn, int64_t filler_id);

  bool OnLoopThread() const {
    return std::this_thread::get_id() ==
           loop_tid_.load(std::memory_order_relaxed);
  }

  stream::StreamServer* source_;
  FragmentServerOptions opts_;
  std::string ts_xml_;
  uint64_t ts_hash_ = 0;
  // Advertised in every HELLO ack; rewritten by DegradeDurability (any
  // thread) and TryRearm while the loop thread serves handshakes, hence
  // atomic.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<bool> wal_degraded_{false};
  /// steady_clock ms at the moment of the last degrade (meaningful while
  /// wal_degraded_); feeds degraded-time accounting on re-arm.
  std::atomic<int64_t> degraded_since_ms_{0};
  /// Set by the supervisor when free space dips below the soft
  /// watermark; the next OnFragment consumes it and runs retention.
  std::atomic<bool> emergency_retain_{false};
  // The durability supervisor (started with the WAL in Start, joined
  // first in Stop). durability_mu_ guards only the stop flag + cv; it is
  // never held while taking any other lock.
  std::thread durability_thread_;
  std::mutex durability_mu_;
  std::condition_variable durability_cv_;
  bool durability_stop_ = false;
  uint16_t port_ = 0;
  bool started_ = false;
  EventBackend backend_ = EventBackend::kDefault;

  Socket listener_;
  int listener_tag_ = 0;  // address marks the listener in loop events
  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;
  // Set by the loop thread on entry; read by enqueue paths on any thread.
  std::atomic<std::thread::id> loop_tid_{};
  std::atomic<bool> stopping_{false};

  // Frame log. Lock order: log_mu_ -> conns_mu_ -> Connection::mu.
  // The publisher holds log_mu_ only while encoding/appending — never
  // across the fan-out — so the loop thread's replay cursor can always
  // make progress while a kBlock publisher waits for queue space.
  mutable std::mutex log_mu_;
  std::deque<LogEntry> log_;  // deque: stable references under append
  /// Absolute seq of log_.front(): retention drops the log prefix and
  /// advances the base, so seq s lives at log_[s - log_base_] and seqs
  /// never renumber. Guarded by log_mu_.
  int64_t log_base_ = 0;
  /// Encoded bytes held by log_ (both codec forms). Guarded by log_mu_;
  /// published to the frame_log_bytes gauge by the retention driver.
  int64_t frame_log_bytes_ = 0;
  /// Publishes since the last retention pass (publisher thread only).
  int64_t publishes_since_retain_ = 0;
  /// Re-entrancy latch for RunRetention (publisher thread only): the
  /// snapshot-refresh path re-enters OnFragment, whose cadence check must
  /// not start a nested pass.
  bool retaining_ = false;
  /// High-water validTime across logged fragments (epoch seconds): the
  /// retention driver's "now". Guarded by log_mu_.
  int64_t max_valid_time_s_ = 0;
  // Log positions (absolute seqs) per filler id, so a NACK replays all of
  // a filler's frames without scanning the log. Deque: retention pops the
  // front position per retired frame, which must stay O(1) under log_mu_
  // for fillers with many logged versions. Guarded by log_mu_.
  std::unordered_map<int64_t, std::deque<size_t>> filler_index_;
  /// Filler ids whose every logged frame was retired by retention (and
  /// that have not been re-published since): exactly the ids a NACK may
  /// answer EXPIRED — anything else absent from filler_index_ is genuine
  /// upstream loss and stays silent so the subscriber's repair budget
  /// still reports it lost. One id each, the same tombstone shape the
  /// stores keep (FragmentStore::expired_). Guarded by log_mu_.
  std::unordered_set<int64_t> retired_fillers_;
  // log_.size(), readable without log_mu_. Heartbeats use this: the loop
  // thread must never need log_mu_ just to report progress.
  std::atomic<int64_t> published_{0};

  // Shared connection registry (publisher fan-out, stats). The loop
  // thread keeps its own loop_conns_ so it never waits on conns_mu_
  // while a publisher is parked in ReserveQueueSlot.
  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::shared_ptr<Connection>> loop_conns_;  // loop thread only
  // Set by DestroyConnection so the loop's reap pass runs only when a
  // connection actually died, not O(conns) every iteration. Loop thread
  // only — DestroyConnection is owner-thread-only by contract.
  bool dead_pending_ = false;

  mutable Metrics metrics_;
};

}  // namespace xcql::net

#endif  // XCQL_NET_SERVER_H_
