// net::FragmentSubscriber — the client end of the fragment transport.
//
// A receive thread connects, handshakes (learning the stream's Tag
// Structure from the server if it doesn't hold one), asks for a replay
// from the last sequence number it has seen (-1 the first time: the late
// subscriber's full catch-up), and decodes FRAGMENT frames into
// frag::Fragments. Decoded fragments accumulate behind a mutex; the
// application drains them into its FragmentStore / StreamManager from its
// own thread with DrainInto() — the locked handoff that keeps the core
// engine single-threaded. On disconnect the thread reconnects with
// exponential backoff and resumes via REPLAY_FROM, so a subscriber that
// missed frames (restart, drop-oldest gap, network blip) converges back to
// the full stream.
//
// Fault handling (docs/ROBUSTNESS.md):
//  * a frame failing its checksum is counted (frames_corrupt) and treated
//    as a gap — the session ends and resumes via REPLAY_FROM;
//  * a connection with no bytes for liveness_timeout is declared half-dead
//    (liveness_timeouts) and re-dialed with backoff;
//  * a heartbeat showing the server ahead of our contiguous prefix with no
//    frames arriving doubles as a loss detector: after two consecutive
//    lagging heartbeats an in-session REPLAY_FROM (catchup_replays) pulls
//    the missing range without waiting for the next live frame;
//  * a checksum-valid FRAGMENT whose payload fails the codec is poison,
//    not loss: it is quarantined (bounded log, poison_quarantined) and the
//    stream continues past it;
//  * RepairMissing() NACKs the store's unfilled hole ids upstream
//    (REPEAT_REQUEST) with a per-filler retry budget and timeout, after
//    which the filler is declared lost (fillers_repaired / fillers_lost).
#ifndef XCQL_NET_SUBSCRIBER_H_
#define XCQL_NET_SUBSCRIBER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "frag/fragment_store.h"
#include "net/frame.h"
#include "net/metrics.h"
#include "net/socket.h"

namespace xcql::net {

/// Consecutive handshake rejections (a BYE, a mismatching ack, or a frame
/// in another wire version) after which the subscriber gives up for good.
inline constexpr int kHandshakeRejectLimit = 3;

struct FragmentSubscriberOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string stream;  // stream name to subscribe to
  frag::WireCodec codec = frag::WireCodec::kPlainXml;
  std::chrono::milliseconds backoff_initial{50};
  std::chrono::milliseconds backoff_max{2000};
  /// Known Tag Structure XML; empty = accept the server's at handshake.
  /// When set, its hash travels in HELLO and a mismatching server is
  /// rejected (fatal, no reconnect).
  std::string tag_structure_xml;
  /// Reconnect when no bytes (frame or heartbeat) arrive for this long —
  /// a half-dead link otherwise blocks the recv loop forever. Should be a
  /// few multiples of the server's heartbeat interval; 0 disables.
  std::chrono::milliseconds liveness_timeout{10000};
  /// RepairMissing(): NACK attempts per missing filler before it is
  /// declared lost.
  int repair_retry_budget = 4;
  /// RepairMissing(): minimum wait between NACKs of the same filler, and
  /// the grace period after the final attempt before declaring it lost.
  std::chrono::milliseconds repair_retry_interval{500};
  /// Resume state from a previous subscriber's life (e.g. across an
  /// application restart whose store was persisted): the last contiguous
  /// seq already held (-1 = nothing) and the server epoch it came from
  /// (0 = unknown). If the server's epoch differs, the resume point is
  /// discarded and the subscription restarts from scratch.
  int64_t initial_last_seq = -1;
  uint64_t known_epoch = 0;
  /// Per-tsid subscription filter: when non-empty, a SUBSCRIBE frame
  /// carrying these tag-structure ids goes out after every handshake
  /// (before REPLAY_FROM, so replays are filtered too). The server expands
  /// each id to its schema subtree and delivers only matching fragments,
  /// covering the filtered runs with SKIP_TO frames so the contiguous
  /// prefix still advances.
  std::vector<int> filter_tsids;
};

/// \brief Outcome of one RepairMissing() sweep.
struct RepairSummary {
  int missing = 0;         // unfilled hole ids the store reported
  int nacks_sent = 0;      // REPEAT_REQUESTs sent this sweep
  int repaired_total = 0;  // fillers ever recovered after a NACK
  int lost_total = 0;      // fillers ever declared lost (budget exhausted)
  int expired_total = 0;   // fillers the server reported retention-expired
};

/// \brief One quarantined poison fragment (checksum-valid frame whose
/// payload failed the codec).
struct PoisonRecord {
  int64_t seq = 0;
  std::string error;
  size_t payload_bytes = 0;
};

/// \brief One decoded RESULT frame, as drained by DrainResults().
struct RemoteQueryResult {
  uint32_t token = 0;  // which AddRemoteQuery registration it belongs to
  int64_t seq = -1;    // per-query result sequence number
  ResultDelta delta;
};

/// \brief Point-in-time state of one remote query registration.
struct RemoteQueryState {
  bool active = false;       // server acked and the result stream is live
  uint64_t query_id = 0;     // server-assigned id (0 until acked)
  int64_t last_result_seq = -1;  // contiguous prefix of the result stream
  uint32_t last_code = 0;        // last QUERY_STATUS code received
  std::string last_message;      // last QUERY_STATUS message
};

class FragmentSubscriber {
 public:
  explicit FragmentSubscriber(FragmentSubscriberOptions options);
  ~FragmentSubscriber();

  FragmentSubscriber(const FragmentSubscriber&) = delete;
  FragmentSubscriber& operator=(const FragmentSubscriber&) = delete;

  /// \brief Spawns the receive thread (which owns connecting, handshaking,
  /// reconnecting). Fails if already started.
  Status Start();

  /// \brief Stops the receive thread and closes the connection. Idempotent.
  void Stop();

  /// \brief Moves every fragment received since the previous drain into
  /// `store`, in arrival order, on the caller's thread. Returns how many.
  Result<int> DrainInto(frag::FragmentStore* store);

  /// \brief Like DrainInto, into a plain vector.
  int Drain(std::vector<frag::Fragment>* out);

  /// \brief One repair sweep against `store` (call from the draining
  /// thread): NACKs each missing filler that still has retry budget and is
  /// past its retry interval, marks fillers repaired once the store no
  /// longer misses them, and declares the budget-exhausted ones lost.
  Result<RepairSummary> RepairMissing(const frag::FragmentStore& store);

  /// \brief Version-aware NACK for one filler the caller believes is only
  /// partially delivered (some versions present, so MissingFillers() can't
  /// see it). Sends a REPEAT_REQUEST carrying the validTimes the store
  /// already holds; the server re-sends only the other versions, and the
  /// repeats are admitted like any requested repair. Resolution is
  /// observed by RepairMissing() sweeps once the store's version count for
  /// the filler has grown. Call again (after repair_retry_interval) to
  /// retry; the per-filler retry budget applies.
  Status RepairVersions(int64_t filler_id, const frag::FragmentStore& store);

  /// \brief Highest *contiguously* received FRAGMENT sequence number (-1
  /// before the first). A frame beyond a sequence gap is never admitted:
  /// the subscriber kills the connection and resumes via
  /// REPLAY_FROM(last_seq) instead, so the gap is refetched, not skipped.
  int64_t last_seq() const;

  /// \brief Blocks until last_seq() >= seq (true) or the timeout expires
  /// (false).
  bool WaitForSeq(int64_t seq, std::chrono::milliseconds timeout) const;

  /// \brief Blocks until a handshake completes (true), or the timeout
  /// expires or the subscription failed fatally (false).
  bool WaitConnected(std::chrono::milliseconds timeout) const;

  bool connected() const;

  /// \brief True once the server rejected the handshake (wrong stream,
  /// schema hash or frame version) kHandshakeRejectLimit times in a row;
  /// the subscriber has given up reconnecting.
  bool handshake_failed() const;

  /// \brief The stream epoch the server advertised at the last handshake
  /// (0 until then, or against a pre-epoch server). When this changes
  /// across a reconnect the subscriber has already discarded its resume
  /// state (metrics().epoch_resets counts it); the application should
  /// likewise rebuild its store — the old epoch's history is gone.
  uint64_t server_epoch() const;

  /// \brief The stream's Tag Structure XML as learned at the handshake
  /// (or as configured). Errors before the first successful handshake.
  Result<std::string> TagStructureXml() const;

  /// \brief The most recent quarantined poison fragments (bounded).
  std::vector<PoisonRecord> poison_log() const;

  MetricsSnapshot metrics() const;

  /// \brief Registers a remote continuous query: the spec travels to the
  /// server in a QUERY frame on the current session and on every
  /// reconnect, resuming each time from the last contiguous result seq so
  /// the accumulated result stream never gaps or duplicates. The
  /// spec's token and resume seq are overwritten; the returned token
  /// identifies the registration in DrainResults() / query_state().
  /// Callable before Start() and from any thread.
  Result<uint32_t> AddRemoteQuery(RemoteQuerySpec spec);

  /// \brief Deregisters: sends UNQUERY for the server-assigned id (when
  /// active) and forgets the registration and its undrained results.
  Status RemoveRemoteQuery(uint32_t token);

  /// \brief Moves every decoded RESULT frame received since the previous
  /// drain into `out`, in arrival order. Returns how many.
  int DrainResults(std::vector<RemoteQueryResult>* out);

  /// \brief Blocks until the server acks the registration (true) or the
  /// timeout expires (false).
  bool WaitQueryActive(uint32_t token, std::chrono::milliseconds timeout) const;

  /// \brief Blocks until the query's contiguous result prefix reaches
  /// `seq` (true) or the timeout expires (false).
  bool WaitForResultSeq(uint32_t token, int64_t seq,
                        std::chrono::milliseconds timeout) const;

  Result<RemoteQueryState> query_state(uint32_t token) const;

  /// \brief Severs the current connection (as a network fault would),
  /// exercising the reconnect + REPLAY_FROM path. Test/chaos hook.
  void KillConnection();

 private:
  struct RepairState {
    int attempts = 0;
    std::chrono::steady_clock::time_point last_sent{};
    bool lost = false;
    bool resolved = false;
    /// The server answered the NACK with EXPIRED: the filler was
    /// compacted below the retention floor on purpose. Not a loss — the
    /// repair stops retrying without burning the budget, and queries see
    /// the hole as expired (HolePolicy), not missing.
    bool expired = false;
    /// RepairVersions() only: how many versions the store held when the
    /// NACK went out. The repair resolves when the count grows, not when
    /// the filler stops being "missing" (it never was).
    int versions_at_request = -1;
  };

  struct RemoteQuery {
    RemoteQuerySpec spec;  // token = ours; last_result_seq = resume point
    RemoteQueryState state;
  };

  void Run();
  // One connect→handshake→receive cycle; returns when the connection dies.
  void Session();
  /// Re-sends every registered QUERY on a fresh session, each resuming
  /// from its own contiguous result seq. Receive thread, post-handshake.
  void ResendQueries();
  /// Builds and sends one QUERY frame for `q` (caller holds no locks).
  Status SendQuery(RemoteQuerySpec spec);
  bool SleepBackoff(std::chrono::milliseconds delay);
  /// Serialized post-handshake send on the current socket (receive thread
  /// and RepairMissing callers share it).
  Status SendFrame(const Frame& frame);
  /// Counts one handshake rejection; the kHandshakeRejectLimit-th in a row
  /// is fatal. Receive thread only.
  void RejectHandshake();
  /// Whether a repeat-flagged frame for `filler_id` was actually NACKed
  /// (anything else is an unsolicited retransmission to discard).
  bool RepairRequested(int64_t filler_id) const;
  void QuarantinePoison(int64_t seq, const Status& error,
                        size_t payload_bytes);

  FragmentSubscriberOptions opts_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex state_mu_;
  mutable std::condition_variable state_cv_;
  bool connected_ = false;
  bool fatal_ = false;
  bool ever_connected_ = false;
  std::string ts_xml_;  // set at first handshake (or from options)
  Socket sock_;         // guarded by state_mu_; owned by the receive thread

  // Receive-thread-only: the parsed schema used to decode payloads.
  std::unique_ptr<frag::TagStructure> ts_;
  // Receive-thread-only: consecutive handshake rejections. A single BYE
  // can be a transiently mangled HELLO (chaos, line noise) rather than a
  // real stream/schema mismatch, so fatal_ is only declared after a few
  // rejections in a row; any successful handshake resets the count.
  int handshake_rejects_ = 0;

  mutable std::mutex pending_mu_;
  mutable std::condition_variable pending_cv_;
  std::vector<frag::Fragment> pending_;
  int64_t last_seq_ = -1;  // contiguous prefix; written by receive thread
  uint64_t epoch_ = 0;     // server epoch as of the last handshake
  std::deque<PoisonRecord> poison_log_;  // bounded, newest at the back
  // Remote query registrations and their undrained results. Guarded by
  // pending_mu_ (they share the drain/wait machinery with fragments).
  std::map<uint32_t, RemoteQuery> queries_;
  std::map<uint64_t, uint32_t> query_by_id_;  // server id → our token
  std::vector<RemoteQueryResult> results_;
  uint32_t next_token_ = 1;

  // NACK bookkeeping per missing filler id. Guarded by repair_mu_.
  mutable std::mutex repair_mu_;
  std::map<int64_t, RepairState> repairs_;

  mutable Metrics metrics_;
};

}  // namespace xcql::net

#endif  // XCQL_NET_SUBSCRIBER_H_
