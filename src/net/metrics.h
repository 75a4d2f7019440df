// Transport observability: lock-free counters updated by the I/O threads,
// copied out as a plain snapshot for logging, benches and tests.
#ifndef XCQL_NET_METRICS_H_
#define XCQL_NET_METRICS_H_

#include <atomic>
#include <cstdint>

namespace xcql::net {

/// \brief A point-in-time copy of one endpoint's counters. Fields that only
/// make sense on one side stay zero on the other.
struct MetricsSnapshot {
  int64_t frames_out = 0;
  int64_t bytes_out = 0;
  int64_t frames_in = 0;
  int64_t bytes_in = 0;
  int64_t fragments_out = 0;       // FRAGMENT frames published (server)
  int64_t fragments_in = 0;        // FRAGMENT frames decoded (subscriber)
  int64_t queue_depth_hwm = 0;     // deepest any outbound queue ever got
  int64_t drops = 0;               // frames dropped by kDropOldest
  int64_t slow_disconnects = 0;    // connections cut by kDisconnect
  int64_t reconnects = 0;          // successful re-handshakes (subscriber)
  int64_t handshake_failures = 0;
  int64_t replays_served = 0;      // REPLAY_FROM requests honored (server)
  int64_t replays_requested = 0;   // REPLAY_FROM frames sent (subscriber)
  int64_t connections_accepted = 0;
  int64_t connections_active = 0;
  int64_t encode_failures = 0;     // fragments that failed wire encoding
  int64_t repeats_out = 0;         // logged frames re-sent by RepeatFiller
  int64_t gaps_detected = 0;       // seq gaps that forced a reconnect
  int64_t frames_corrupt = 0;      // frames failing their checksum
  int64_t liveness_timeouts = 0;   // recv deadlines that forced a reconnect
  int64_t catchup_replays = 0;     // heartbeat-lag REPLAY_FROMs (subscriber)
  int64_t nacks_sent = 0;          // REPEAT_REQUEST frames sent (subscriber)
  int64_t repeat_requests_in = 0;  // REPEAT_REQUEST frames served (server)
  int64_t fillers_repaired = 0;    // missing fillers recovered via NACK
  int64_t fillers_lost = 0;        // missing fillers past their retry budget
  int64_t poison_quarantined = 0;  // checksum-valid frames whose payload
                                   // failed the codec and were skipped
  int64_t epoch_resets = 0;        // server epoch changed under a resume:
                                   // subscriber restarted from scratch
  int64_t bad_control_frames = 0;  // well-framed client requests whose
                                   // payload didn't decode (dropped, server)
  int64_t wal_append_failures = 0; // published frames the WAL rejected
                                   // (durability degraded, server)
  int64_t queries_registered = 0;  // QUERY frames admitted (server)
  int64_t queries_rejected = 0;    // QUERY frames refused: admission limit,
                                   // bad spec, or no query channel
  int64_t result_frames_out = 0;   // RESULT frames enqueued to subscribers
  int64_t fragment_encodes = 0;    // distinct wire encodings of published
                                   // fragments — fan-out shares buffers, so
                                   // this tracks publishes, not deliveries
  int64_t frames_filtered = 0;     // FRAGMENT deliveries suppressed by a
                                   // per-tsid subscription filter (server)
  int64_t filtered_bytes_saved = 0;// wire bytes those deliveries would have
                                   // cost
  int64_t skips_out = 0;           // SKIP_TO frames sent (server)
  int64_t skips_in = 0;            // SKIP_TO frames applied (subscriber)
  // --- retention (docs/RETENTION.md) ---
  int64_t retention_runs = 0;      // retention driver passes (server)
  int64_t frames_retired = 0;      // frame-log entries dropped by retention
  int64_t frames_refreshed = 0;    // live snapshot versions re-published at
                                   // the tail to unpin the frame-log head
  int64_t fragments_compacted = 0; // store versions removed by Compact
  int64_t result_log_trimmed = 0;  // RESULT frames dropped by retention
  int64_t expired_out = 0;         // EXPIRED frames sent (server)
  int64_t expired_in = 0;          // EXPIRED frames applied (subscriber)
  int64_t fillers_expired = 0;     // NACKed fillers answered/resolved as
                                   // retention-expired, not lost
  // --- durability self-healing (docs/DURABILITY.md) ---
  int64_t durability_rearms = 0;   // degraded→durable re-arm cycles (server)
  int64_t emergency_retention_runs = 0;  // retention passes forced by the
                                         // soft disk-space watermark
  // Gauges (latest value, not monotone):
  int64_t retention_floor_seq = 0; // oldest retained frame-log seq
  int64_t fragment_store_bytes = 0;  // approx store footprint (server side:
                                     // the query channel's mirror store)
  int64_t frame_log_bytes = 0;       // encoded bytes held by the frame log
  int64_t durability_degraded = 0;   // 1 while appends are volatile
  int64_t degraded_ms_total = 0;     // cumulative wall time spent degraded
  int64_t data_dir_free_bytes = 0;   // last statvfs reading of the data dir
                                     // (-1 = never sampled / unavailable)
};

/// \brief The live counters. Relaxed atomics: each counter is independent
/// and snapshots need no cross-field consistency.
class Metrics {
 public:
  void AddFrameOut(int64_t bytes) {
    frames_out_.fetch_add(1, std::memory_order_relaxed);
    bytes_out_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void AddFrameIn(int64_t bytes) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void AddFragmentOut() { fragments_out_.fetch_add(1, std::memory_order_relaxed); }
  void AddFragmentIn() { fragments_in_.fetch_add(1, std::memory_order_relaxed); }
  void AddDrop() { drops_.fetch_add(1, std::memory_order_relaxed); }
  void AddSlowDisconnect() {
    slow_disconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddReconnect() { reconnects_.fetch_add(1, std::memory_order_relaxed); }
  void AddHandshakeFailure() {
    handshake_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddReplayServed() {
    replays_served_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddReplayRequested() {
    replays_requested_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddConnectionAccepted() {
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddEncodeFailure() {
    encode_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddRepeatOut() { repeats_out_.fetch_add(1, std::memory_order_relaxed); }
  void AddGapDetected() {
    gaps_detected_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddFrameCorrupt() {
    frames_corrupt_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddLivenessTimeout() {
    liveness_timeouts_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddCatchupReplay() {
    catchup_replays_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddNackSent() { nacks_sent_.fetch_add(1, std::memory_order_relaxed); }
  void AddRepeatRequestIn() {
    repeat_requests_in_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddFillerRepaired() {
    fillers_repaired_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddFillerLost() {
    fillers_lost_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddPoisonQuarantined() {
    poison_quarantined_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddEpochReset() {
    epoch_resets_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddBadControlFrame() {
    bad_control_frames_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddWalAppendFailure() {
    wal_append_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddQueryRegistered() {
    queries_registered_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddQueryRejected() {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddResultFrameOut() {
    result_frames_out_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddFragmentEncode() {
    fragment_encodes_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddFrameFiltered(int64_t bytes_saved) {
    frames_filtered_.fetch_add(1, std::memory_order_relaxed);
    filtered_bytes_saved_.fetch_add(bytes_saved, std::memory_order_relaxed);
  }
  void AddSkipOut() { skips_out_.fetch_add(1, std::memory_order_relaxed); }
  void AddSkipIn() { skips_in_.fetch_add(1, std::memory_order_relaxed); }
  void AddRetentionRun() {
    retention_runs_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddFramesRetired(int64_t n) {
    frames_retired_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddFrameRefreshed() {
    frames_refreshed_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddFragmentsCompacted(int64_t n) {
    fragments_compacted_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddResultLogTrimmed(int64_t n) {
    result_log_trimmed_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddExpiredOut() {
    expired_out_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddExpiredIn() { expired_in_.fetch_add(1, std::memory_order_relaxed); }
  void AddFillerExpired() {
    fillers_expired_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddDurabilityRearm() {
    durability_rearms_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddEmergencyRetentionRun() {
    emergency_retention_runs_.fetch_add(1, std::memory_order_relaxed);
  }
  void SetDurabilityDegraded(bool degraded) {
    durability_degraded_.store(degraded ? 1 : 0, std::memory_order_relaxed);
  }
  void AddDegradedMs(int64_t ms) {
    degraded_ms_total_.fetch_add(ms, std::memory_order_relaxed);
  }
  void SetDataDirFreeBytes(int64_t bytes) {
    data_dir_free_bytes_.store(bytes, std::memory_order_relaxed);
  }
  void SetRetentionFloorSeq(int64_t seq) {
    retention_floor_seq_.store(seq, std::memory_order_relaxed);
  }
  void SetFragmentStoreBytes(int64_t bytes) {
    fragment_store_bytes_.store(bytes, std::memory_order_relaxed);
  }
  void SetFrameLogBytes(int64_t bytes) {
    frame_log_bytes_.store(bytes, std::memory_order_relaxed);
  }
  void ConnectionOpened() {
    connections_active_.fetch_add(1, std::memory_order_relaxed);
  }
  void ConnectionClosed() {
    connections_active_.fetch_sub(1, std::memory_order_relaxed);
  }

  void UpdateQueueHwm(int64_t depth) {
    int64_t cur = queue_depth_hwm_.load(std::memory_order_relaxed);
    while (depth > cur && !queue_depth_hwm_.compare_exchange_weak(
                              cur, depth, std::memory_order_relaxed)) {
    }
  }

  MetricsSnapshot Snapshot() const {
    MetricsSnapshot s;
    s.frames_out = frames_out_.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
    s.frames_in = frames_in_.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
    s.fragments_out = fragments_out_.load(std::memory_order_relaxed);
    s.fragments_in = fragments_in_.load(std::memory_order_relaxed);
    s.queue_depth_hwm = queue_depth_hwm_.load(std::memory_order_relaxed);
    s.drops = drops_.load(std::memory_order_relaxed);
    s.slow_disconnects = slow_disconnects_.load(std::memory_order_relaxed);
    s.reconnects = reconnects_.load(std::memory_order_relaxed);
    s.handshake_failures =
        handshake_failures_.load(std::memory_order_relaxed);
    s.replays_served = replays_served_.load(std::memory_order_relaxed);
    s.replays_requested =
        replays_requested_.load(std::memory_order_relaxed);
    s.connections_accepted =
        connections_accepted_.load(std::memory_order_relaxed);
    s.connections_active =
        connections_active_.load(std::memory_order_relaxed);
    s.encode_failures = encode_failures_.load(std::memory_order_relaxed);
    s.repeats_out = repeats_out_.load(std::memory_order_relaxed);
    s.gaps_detected = gaps_detected_.load(std::memory_order_relaxed);
    s.frames_corrupt = frames_corrupt_.load(std::memory_order_relaxed);
    s.liveness_timeouts = liveness_timeouts_.load(std::memory_order_relaxed);
    s.catchup_replays = catchup_replays_.load(std::memory_order_relaxed);
    s.nacks_sent = nacks_sent_.load(std::memory_order_relaxed);
    s.repeat_requests_in =
        repeat_requests_in_.load(std::memory_order_relaxed);
    s.fillers_repaired = fillers_repaired_.load(std::memory_order_relaxed);
    s.fillers_lost = fillers_lost_.load(std::memory_order_relaxed);
    s.poison_quarantined =
        poison_quarantined_.load(std::memory_order_relaxed);
    s.epoch_resets = epoch_resets_.load(std::memory_order_relaxed);
    s.bad_control_frames =
        bad_control_frames_.load(std::memory_order_relaxed);
    s.wal_append_failures =
        wal_append_failures_.load(std::memory_order_relaxed);
    s.queries_registered =
        queries_registered_.load(std::memory_order_relaxed);
    s.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
    s.result_frames_out =
        result_frames_out_.load(std::memory_order_relaxed);
    s.fragment_encodes = fragment_encodes_.load(std::memory_order_relaxed);
    s.frames_filtered = frames_filtered_.load(std::memory_order_relaxed);
    s.filtered_bytes_saved =
        filtered_bytes_saved_.load(std::memory_order_relaxed);
    s.skips_out = skips_out_.load(std::memory_order_relaxed);
    s.skips_in = skips_in_.load(std::memory_order_relaxed);
    s.retention_runs = retention_runs_.load(std::memory_order_relaxed);
    s.frames_retired = frames_retired_.load(std::memory_order_relaxed);
    s.frames_refreshed = frames_refreshed_.load(std::memory_order_relaxed);
    s.fragments_compacted =
        fragments_compacted_.load(std::memory_order_relaxed);
    s.result_log_trimmed =
        result_log_trimmed_.load(std::memory_order_relaxed);
    s.expired_out = expired_out_.load(std::memory_order_relaxed);
    s.expired_in = expired_in_.load(std::memory_order_relaxed);
    s.fillers_expired = fillers_expired_.load(std::memory_order_relaxed);
    s.durability_rearms =
        durability_rearms_.load(std::memory_order_relaxed);
    s.emergency_retention_runs =
        emergency_retention_runs_.load(std::memory_order_relaxed);
    s.durability_degraded =
        durability_degraded_.load(std::memory_order_relaxed);
    s.degraded_ms_total =
        degraded_ms_total_.load(std::memory_order_relaxed);
    s.data_dir_free_bytes =
        data_dir_free_bytes_.load(std::memory_order_relaxed);
    s.retention_floor_seq =
        retention_floor_seq_.load(std::memory_order_relaxed);
    s.fragment_store_bytes =
        fragment_store_bytes_.load(std::memory_order_relaxed);
    s.frame_log_bytes = frame_log_bytes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<int64_t> frames_out_{0}, bytes_out_{0};
  std::atomic<int64_t> frames_in_{0}, bytes_in_{0};
  std::atomic<int64_t> fragments_out_{0}, fragments_in_{0};
  std::atomic<int64_t> queue_depth_hwm_{0}, drops_{0}, slow_disconnects_{0};
  std::atomic<int64_t> reconnects_{0}, handshake_failures_{0};
  std::atomic<int64_t> replays_served_{0}, replays_requested_{0};
  std::atomic<int64_t> connections_accepted_{0}, connections_active_{0};
  std::atomic<int64_t> encode_failures_{0};
  std::atomic<int64_t> repeats_out_{0}, gaps_detected_{0};
  std::atomic<int64_t> frames_corrupt_{0}, liveness_timeouts_{0};
  std::atomic<int64_t> catchup_replays_{0}, nacks_sent_{0};
  std::atomic<int64_t> repeat_requests_in_{0};
  std::atomic<int64_t> fillers_repaired_{0}, fillers_lost_{0};
  std::atomic<int64_t> poison_quarantined_{0};
  std::atomic<int64_t> epoch_resets_{0}, bad_control_frames_{0};
  std::atomic<int64_t> wal_append_failures_{0};
  std::atomic<int64_t> queries_registered_{0}, queries_rejected_{0};
  std::atomic<int64_t> result_frames_out_{0};
  std::atomic<int64_t> fragment_encodes_{0};
  std::atomic<int64_t> frames_filtered_{0}, filtered_bytes_saved_{0};
  std::atomic<int64_t> skips_out_{0}, skips_in_{0};
  std::atomic<int64_t> retention_runs_{0}, frames_retired_{0};
  std::atomic<int64_t> frames_refreshed_{0};
  std::atomic<int64_t> fragments_compacted_{0}, result_log_trimmed_{0};
  std::atomic<int64_t> expired_out_{0}, expired_in_{0};
  std::atomic<int64_t> fillers_expired_{0};
  std::atomic<int64_t> durability_rearms_{0};
  std::atomic<int64_t> emergency_retention_runs_{0};
  std::atomic<int64_t> durability_degraded_{0};
  std::atomic<int64_t> degraded_ms_total_{0};
  std::atomic<int64_t> data_dir_free_bytes_{-1};
  std::atomic<int64_t> retention_floor_seq_{0};
  std::atomic<int64_t> fragment_store_bytes_{0}, frame_log_bytes_{0};
};

}  // namespace xcql::net

#endif  // XCQL_NET_METRICS_H_
