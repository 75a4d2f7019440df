// net::QueryChannel — the server side of remote continuous queries
// (protocol v3): evaluate once, fan out to N.
//
// The channel owns a mirror of the served stream (its own StreamHub /
// FragmentStore / SimClock) plus an incremental ContinuousQueryEngine.
// The FragmentServer feeds it every log-appended fragment, in seq order;
// the channel inserts the fragment into the mirror store, advances the
// clock to the store's high-water validTime, and ticks the engine — one
// tick per appended fragment, so the result stream of every query is a
// deterministic function of the (durable) fragment log. Each query's
// per-tick delta is encoded as a seq-numbered RESULT frame, appended to
// that query's in-memory result log, and delivered to every subscribed
// sink. Identical registrations (same XCQL text and options) share one
// engine query and one result log: the evaluate-once half of the design.
//
// Durability: with a registry path configured, each first-time
// registration appends a v2-encoded QUERY frame (and each final
// deregistration an UNQUERY tombstone) to an fsync'd append-only file.
// Open() replays it, so registered queries survive a crash; the result
// logs themselves are *not* persisted — recovery re-registers the
// queries and the server's history feed regenerates them byte-identical
// (determinism above). The registration's log position rides in the
// record so a query registered mid-stream re-attaches at the same
// position and its result seqs line up with the previous incarnation.
//
// Threading: all entry points lock the channel mutex. The server calls
// OnFragment on the publisher thread (holding its log_mu_) and
// Register/Subscribe/DropSink from connection reader threads; sink
// delivery happens under the channel mutex, so a sink's view of one
// query's result log is totally ordered. Lock order:
// FragmentServer::log_mu_ → QueryChannel::mu_ → Connection::mu.
#ifndef XCQL_NET_QUERY_CHANNEL_H_
#define XCQL_NET_QUERY_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "frag/fragment.h"
#include "frag/fragment_store.h"
#include "frag/tag_structure.h"
#include "net/frame.h"
#include "stream/clock.h"
#include "stream/continuous.h"
#include "stream/registry.h"
#include "xcql/translator.h"

namespace xcql::net {

struct QueryChannelOptions {
  /// Maximum distinct queries registered at once (UNQUERY frees
  /// capacity); <= 0 = unlimited. The per-connection cap lives in
  /// FragmentServerOptions::max_queries_per_conn.
  int max_queries = 64;
  /// Append-only registry file ("" = registrations are in-memory only):
  /// QUERY/UNQUERY frames, fsync'd per record, replayed by Open().
  std::string registry_path;
  /// Engine evaluation workers; -1 = engine default. Worker count never
  /// changes the emitted delta stream (callbacks fire in query-id order).
  int engine_workers = -1;
};

/// \brief Point-in-time channel counters.
struct QueryChannelStats {
  int active_queries = 0;     // distinct queries currently registered
  int active_sinks = 0;       // subscriber attachments across all queries
  int pending_queries = 0;    // recovered, waiting for their log position
  int64_t result_frames = 0;  // RESULT frames appended across all queries
  int64_t fragments_fed = 0;  // fragments ticked through the engine
  int64_t recovered_queries = 0;  // registrations replayed by Open()
  int64_t encode_failures = 0;    // deltas that failed to frame (oversize)
  int64_t result_log_trimmed = 0;  // RESULT frames dropped by retention
  int64_t result_log_bytes = 0;    // encoded bytes retained across logs
};

class QueryChannel {
 public:
  /// Sink delivery: one encoded v2 RESULT frame, called under the channel
  /// mutex (keep it non-blocking toward channel re-entry; enqueueing to a
  /// connection's outbound queue is the intended body). The frame buffer
  /// is shared — sinks queue the refcounted pointer, never a copy.
  using Deliver =
      std::function<void(const std::shared_ptr<const std::string>& frame)>;

  QueryChannel(std::string stream_name, frag::TagStructure ts,
               QueryChannelOptions options = {});
  ~QueryChannel();

  QueryChannel(const QueryChannel&) = delete;
  QueryChannel& operator=(const QueryChannel&) = delete;

  /// \brief Replays the durable registry (no-op without a registry path).
  /// Call once, before any fragment is fed — recovered mid-stream
  /// registrations re-attach only if their log position is still ahead.
  Status Open();

  /// \brief Validates and admits a query registration. An identical
  /// registration (same text + options) returns the existing id without
  /// consuming capacity. On a capacity refusal the status is not OK and
  /// *rejected_by_limit (when given) is set, so the caller can answer
  /// with kQueryStatusRejected rather than kQueryStatusInvalid.
  Result<uint64_t> Register(const RemoteQuerySpec& spec,
                            bool* rejected_by_limit = nullptr);

  /// \brief Explicit UNQUERY: deregisters the query if no sink is still
  /// attached (and tombstones it in the registry); with sinks remaining
  /// the registration stays and OK is returned. Disconnects do NOT
  /// deregister — a reconnecting subscriber resumes the same result log.
  Status Unregister(uint64_t query_id);

  /// \brief Attaches a sink to a query's result stream: replays every
  /// logged RESULT frame after `last_seq` through `deliver` and then
  /// keeps delivering live frames, with no gap (both happen under the
  /// channel mutex). `handle` identifies the sink for removal. A resume
  /// below the retained log base opens with an EXPIRED(kResultRange)
  /// frame covering the trimmed run.
  Status Subscribe(uint64_t query_id, int64_t last_seq, const void* handle,
                   Deliver deliver);

  /// \brief Detaches one sink from one query (absent = no-op).
  void Unsubscribe(uint64_t query_id, const void* handle);

  /// \brief Detaches `handle` from every query (connection teardown).
  void DropSink(const void* handle);

  /// \brief Feed one appended fragment (in log order): mirror-insert,
  /// advance the clock, tick the engine, append + fan out result frames.
  void OnFragment(const frag::Fragment& fragment);

  QueryChannelStats stats() const;

  /// \brief Number of RESULT frames logged for `query_id` (0 if unknown),
  /// retention-trimmed frames included: the seq the next EmitDelta mints.
  int64_t result_log_size(uint64_t query_id) const;

  /// \brief Oldest retained result seq for `query_id` (0 if unknown or
  /// never trimmed). Subscribes below this get an EXPIRED marker first.
  int64_t result_log_base(uint64_t query_id) const;

  /// \brief Retention: bounds every query's result log to the newest
  /// `max_results` frames (older ones are only replayable via the WAL
  /// checkpoint — a rebuilt channel regenerates them). Returns the number
  /// of frames dropped across all logs. <= 0 keeps everything.
  int64_t TrimResultLogs(int64_t max_results);

  /// \brief The earliest validTime any registered query can still observe
  /// at `now` — the union of per-query minimal windows (see
  /// lang::ObservableWindow). DateTime::Start() ⇔ some query pins
  /// retention (unbounded window, or recovered-and-pending so its window
  /// is unknown); its ids are appended to *pinning when given.
  /// DateTime::End() ⇔ no query constrains retention.
  DateTime ObservableFloor(DateTime now,
                           std::vector<uint64_t>* pinning = nullptr) const;

  /// \brief Compacts the channel's mirror store with the same policy/floor
  /// the server applied to its own store, so the two stay in lockstep and
  /// the mirror's memory is bounded too. Safe for results by the
  /// ObservableWindow contract: only versions no registered query can
  /// observe are removed. Returns what the compaction removed.
  frag::CompactionStats CompactMirror(const frag::RetentionPolicy& policy,
                                      DateTime now, DateTime observe_floor);

  /// \brief Approximate heap footprint of the mirror store (the
  /// fragment_store_bytes gauge).
  int64_t mirror_store_bytes() const;

  /// \brief Compiles `spec` against this channel's schema and returns its
  /// relevance summary (which tsids can affect the result). Lock-free: the
  /// schema is immutable after construction, and the throwaway executor
  /// reads only the store's tag structure, never its fragments. Used by
  /// the server to derive per-tsid subscription filters
  /// (kQueryFlagAutoFilter).
  Result<lang::QueryRelevance> AnalyzeSpec(const RemoteQuerySpec& spec) const;

 private:
  struct Sink {
    const void* handle = nullptr;
    Deliver deliver;
  };
  struct QueryState {
    RemoteQuerySpec spec;  // canonical: token / resume seq zeroed
    int engine_id = 0;
    /// Fragments already fed when the query registered: its first tick
    /// observes the mirror store at exactly this position.
    int64_t register_pos = 0;
    /// Seq of log[0]: retention drops a prefix by erasing entries and
    /// advancing the base, so seqs stay stable across trims.
    int64_t log_base = 0;
    // Encoded v2 RESULT frames; seq = log_base + index. Refcounted so
    // fan-out and replay enqueue views of one buffer.
    std::vector<std::shared_ptr<const std::string>> log;
    std::vector<Sink> sinks;
  };

  static std::string CanonicalKey(const RemoteQuerySpec& spec);
  static Status ValidateSpec(const RemoteQuerySpec& spec);
  static stream::ContinuousQueryOptions ToEngineOptions(
      const RemoteQuerySpec& spec);

  /// Registers `spec` into the engine under mu_, wiring the delta
  /// callback that encodes/logs/delivers RESULT frames.
  Result<uint64_t> AdmitLocked(const RemoteQuerySpec& spec,
                               int64_t register_pos, uint64_t forced_id,
                               bool persist, bool* rejected_by_limit);
  /// Activates recovered registrations whose log position has been
  /// reached by the fragment feed.
  void ActivatePendingLocked();
  /// Appends one record (a QUERY or UNQUERY frame) to the registry file,
  /// fsync'd, bracketed by the queryreg WalHooks crash points. On any
  /// failure the partial record is truncated away (through a FRESH
  /// descriptor when the fsync failed — never re-fsync a descriptor whose
  /// fsync already failed) so the file ends on a record boundary and
  /// later successful appends cannot bury a torn record mid-file. When
  /// even that repair fails, the registry is marked broken and every
  /// subsequent persist is refused: a QUERY that cannot be made durable
  /// is rejected, never acked-durable-but-volatile.
  Status PersistLocked(FrameType type, const std::string& payload,
                       uint64_t id);
  void EmitDelta(uint64_t id, const xq::Sequence& added,
                 const std::vector<std::string>& removed, DateTime at);

  const std::string stream_name_;
  const QueryChannelOptions opts_;

  mutable std::mutex mu_;
  stream::SimClock clock_;
  stream::StreamHub hub_;
  stream::ContinuousQueryEngine engine_;
  frag::FragmentStore* store_ = nullptr;  // owned by hub_

  std::map<std::string, uint64_t> by_key_;  // canonical key → query id
  std::map<uint64_t, QueryState> queries_;
  /// Recovered registrations waiting for the feed to reach their
  /// registration position (keyed by id; spec.last_result_seq unused).
  std::map<uint64_t, QueryState> pending_;
  uint64_t next_id_ = 1;
  int64_t fragments_fed_ = 0;
  int64_t result_frames_ = 0;
  int64_t result_log_trimmed_ = 0;
  int64_t recovered_queries_ = 0;
  int64_t encode_failures_ = 0;
  int registry_fd_ = -1;
  /// Registry bytes known durable (== file size at the last record
  /// boundary); the truncation target when an append fails part-way.
  int64_t registry_bytes_ = 0;
  /// Set when a failed append could not be repaired: the on-disk registry
  /// may end in a torn record, so no further record may be appended.
  bool registry_broken_ = false;
};

}  // namespace xcql::net

#endif  // XCQL_NET_QUERY_CHANNEL_H_
