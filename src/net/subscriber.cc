#include "net/subscriber.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>

namespace xcql::net {

namespace {

// Quarantine log depth: enough to diagnose a poisoning publisher, bounded
// so a hostile stream cannot grow subscriber memory.
constexpr size_t kMaxPoisonLog = 16;

// Consecutive lagging heartbeats (same stalled last_seq) before the loss
// detector trusts the lag. One heartbeat can race the publish that bumped
// the server's published counter before the frame was enqueued; two in a
// row with zero progress means the frames are not coming.
constexpr int kHeartbeatLagThreshold = 2;

}  // namespace

FragmentSubscriber::FragmentSubscriber(FragmentSubscriberOptions options)
    : opts_(std::move(options)) {
  last_seq_ = opts_.initial_last_seq;
  epoch_ = opts_.known_epoch;
  if (!opts_.tag_structure_xml.empty()) {
    auto ts = frag::TagStructure::Parse(opts_.tag_structure_xml);
    if (ts.ok()) {
      ts_ = std::make_unique<frag::TagStructure>(std::move(ts).MoveValue());
      ts_xml_ = opts_.tag_structure_xml;
    }
  }
}

FragmentSubscriber::~FragmentSubscriber() { Stop(); }

Status FragmentSubscriber::Start() {
  if (started_) return Status::InvalidArgument("subscriber already started");
  if (opts_.stream.empty()) {
    return Status::InvalidArgument("subscriber needs a stream name");
  }
  stopping_.store(false);
  thread_ = std::thread([this] { Run(); });
  started_ = true;
  return Status::OK();
}

void FragmentSubscriber::Stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    sock_.Shutdown();
    state_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

bool FragmentSubscriber::SleepBackoff(std::chrono::milliseconds delay) {
  std::unique_lock<std::mutex> lock(state_mu_);
  state_cv_.wait_for(lock, delay, [this] { return stopping_.load(); });
  return !stopping_.load();
}

void FragmentSubscriber::Run() {
  auto delay = opts_.backoff_initial;
  while (!stopping_.load()) {
    auto sock = ConnectTo(opts_.host, opts_.port);
    if (sock.ok()) {
      bool bail;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        // Stop() may have shut down the *previous* socket while we were
        // inside ConnectTo; entering Session() on the fresh one would
        // block Stop()'s join for as long as the server keeps talking.
        bail = stopping_.load();
        if (!bail) sock_ = std::move(sock).MoveValue();
      }
      if (bail) break;
      Session();
      bool was_connected;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        was_connected = connected_;
        connected_ = false;
        sock_.Close();
        state_cv_.notify_all();
      }
      if (fatal_ || stopping_.load()) break;
      if (was_connected) delay = opts_.backoff_initial;
    }
    if (!SleepBackoff(delay)) break;
    delay = std::min(delay * 2, opts_.backoff_max);
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  connected_ = false;
  state_cv_.notify_all();
}

Status FragmentSubscriber::SendFrame(const Frame& frame) {
  // state_mu_ both validates the socket (Run() swaps it between sessions)
  // and serializes writers: the receive thread's in-session REPLAY_FROM
  // and an application thread's NACK must not interleave on the fd.
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!sock_.valid() || !connected_) {
    return Status::Internal("subscriber not connected");
  }
  XCQL_ASSIGN_OR_RETURN(std::string bytes, EncodeFrame(frame));
  XCQL_RETURN_NOT_OK(sock_.SendAll(bytes.data(), bytes.size()));
  metrics_.AddFrameOut(static_cast<int64_t>(bytes.size()));
  return Status::OK();
}

void FragmentSubscriber::RejectHandshake() {
  // A genuine wrong-stream/wrong-schema/wrong-version rejection repeats
  // every time, so fatal still surfaces within a few backoff rounds; a
  // HELLO mangled in flight (control-plane chaos) gets retried instead of
  // wedging forever.
  metrics_.AddHandshakeFailure();
  if (++handshake_rejects_ >= kHandshakeRejectLimit) {
    std::lock_guard<std::mutex> lock(state_mu_);
    fatal_ = true;
    state_cv_.notify_all();
  }
}

bool FragmentSubscriber::RepairRequested(int64_t filler_id) const {
  std::lock_guard<std::mutex> lock(repair_mu_);
  auto it = repairs_.find(filler_id);
  // A late repeat for an already-lost filler still heals the store, so
  // `lost` does not bar admission; `resolved` fillers need nothing more.
  return it != repairs_.end() && it->second.attempts > 0 &&
         !it->second.resolved;
}

void FragmentSubscriber::QuarantinePoison(int64_t seq, const Status& error,
                                          size_t payload_bytes) {
  metrics_.AddPoisonQuarantined();
  std::lock_guard<std::mutex> lock(pending_mu_);
  if (poison_log_.size() >= kMaxPoisonLog) poison_log_.pop_front();
  PoisonRecord rec;
  rec.seq = seq;
  rec.error = error.message();
  rec.payload_bytes = payload_bytes;
  poison_log_.push_back(std::move(rec));
}

void FragmentSubscriber::Session() {
  Hello hello;
  hello.stream_name = opts_.stream;
  hello.codec = opts_.codec;
  hello.ts_hash = ts_xml_.empty() ? 0 : TagStructureHash(ts_xml_);
  Frame out;
  out.type = FrameType::kHello;
  out.payload = EncodeHello(hello);
  auto hello_bytes = EncodeFrame(out);
  if (!hello_bytes.ok()) return;
  const std::string& bytes = hello_bytes.value();
  if (!sock_.SendAll(bytes.data(), bytes.size()).ok()) return;
  metrics_.AddFrameOut(static_cast<int64_t>(bytes.size()));

  FrameReader reader;
  char buf[64 * 1024];
  bool handshaken = false;
  // Heartbeat loss detector state: the last_seq a lagging heartbeat saw,
  // and how many lagging heartbeats in a row saw it unchanged.
  int64_t lag_have = -2;
  int lag_count = 0;
  auto last_rx = std::chrono::steady_clock::now();
  for (;;) {
    if (stopping_.load()) return;
    size_t got = 0;
    if (opts_.liveness_timeout.count() > 0) {
      auto deadline = last_rx + opts_.liveness_timeout;
      auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        metrics_.AddLivenessTimeout();
        return;  // half-dead link: reconnect with backoff
      }
      bool timed_out = false;
      auto n = sock_.RecvTimeout(
          buf, sizeof(buf),
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now),
          &timed_out);
      if (!n.ok()) return;
      if (timed_out) {
        metrics_.AddLivenessTimeout();
        return;
      }
      if (n.value() == 0) return;
      got = n.value();
    } else {
      auto n = sock_.Recv(buf, sizeof(buf));
      if (!n.ok() || n.value() == 0) return;
      got = n.value();
    }
    last_rx = std::chrono::steady_clock::now();
    reader.Feed(buf, got);
    for (;;) {
      auto next = reader.Next();
      if (!next.ok()) {
        // A server speaking another frame version can never complete the
        // handshake: that is a rejection. Anything else malformed is a
        // damaged stream to drop and redial.
        if (!handshaken &&
            next.status().code() == StatusCode::kUnsupported) {
          RejectHandshake();
        }
        return;
      }
      if (!next.value().has_value()) break;
      Frame frame = std::move(*next.value());
      metrics_.AddFrameIn(
          static_cast<int64_t>(kFrameHeaderSize + frame.payload.size()));
      if (!frame.crc_ok) {
        // Bits flipped in flight. The frame's content is untrusted, so
        // treat it exactly like a gap: end the session and resume via
        // REPLAY_FROM(last contiguous seq) — the server still holds it.
        metrics_.AddFrameCorrupt();
        return;
      }
      if (!handshaken) {
        // The server answers HELLO with HELLO, or BYE on rejection.
        if (frame.type != FrameType::kHello) {
          RejectHandshake();
          return;
        }
        auto ack = DecodeHello(frame.payload);
        bool ok = ack.ok() && ack.value().stream_name == opts_.stream;
        if (ok && ts_ == nullptr) {
          auto ts = frag::TagStructure::Parse(ack.value().tag_structure_xml);
          if (ts.ok() &&
              TagStructureHash(ack.value().tag_structure_xml) ==
                  ack.value().ts_hash) {
            ts_ = std::make_unique<frag::TagStructure>(
                std::move(ts).MoveValue());
          } else {
            ok = false;
          }
        } else if (ok && TagStructureHash(ts_xml_) != ack.value().ts_hash) {
          ok = false;
        }
        if (!ok) {
          RejectHandshake();
          return;
        }
        handshaken = true;
        handshake_rejects_ = 0;
        {
          std::lock_guard<std::mutex> lock(state_mu_);
          if (ts_xml_.empty()) ts_xml_ = ack.value().tag_structure_xml;
          connected_ = true;
          if (ever_connected_) metrics_.AddReconnect();
          ever_connected_ = true;
          state_cv_.notify_all();
        }
        // The ack's seq carries the stream epoch. A different epoch than
        // the one our resume state came from means the server's data dir
        // was reset (or replaced): its history is a different stream, and
        // resuming our seq numbers into it would silently mis-splice two
        // histories. Discard the resume point and restart from scratch.
        {
          const uint64_t srv_epoch = frame.seq;
          bool reset = false;
          {
            std::lock_guard<std::mutex> lock(pending_mu_);
            if (srv_epoch != 0 && epoch_ != 0 && epoch_ != srv_epoch) {
              reset = true;
              last_seq_ = -1;
              // Undrained fragments belong to the dead epoch's history;
              // admitting them into the new one would mix the streams.
              pending_.clear();
              // Likewise the result streams: the new epoch's fragment
              // history is a different stream, so every query's result
              // log restarts from seq 0.
              results_.clear();
              query_by_id_.clear();
              for (auto& [token, q] : queries_) {
                q.state = RemoteQueryState{};
              }
            }
            if (srv_epoch != 0) epoch_ = srv_epoch;
          }
          if (reset) {
            metrics_.AddEpochReset();
            std::lock_guard<std::mutex> lock(repair_mu_);
            repairs_.clear();
          }
        }
        // Install the subscription filter before asking for the replay,
        // so the catch-up itself is already filtered (and SKIP_TO-covered).
        if (!opts_.filter_tsids.empty()) {
          Frame sub;
          sub.type = FrameType::kSubscribe;
          sub.payload = EncodeSubscribe(opts_.filter_tsids);
          if (!SendFrame(sub).ok()) return;
        }
        // Resume from where we left off (-1 the first time = everything:
        // the late subscriber's catch-up).
        Frame replay;
        replay.type = FrameType::kReplayFrom;
        replay.payload = EncodeReplayFrom(last_seq());
        if (!SendFrame(replay).ok()) return;
        metrics_.AddReplayRequested();
        // Re-register every remote query on the fresh session, each
        // resuming from its own contiguous result seq.
        ResendQueries();
        continue;
      }
      switch (frame.type) {
        case FrameType::kFragment: {
          frag::WireCodec codec = (frame.flags & kFlagCompressedPayload)
                                      ? frag::WireCodec::kTagCompressed
                                      : frag::WireCodec::kPlainXml;
          if (frame.flags & kFlagRepeat) {
            // A retransmission (RepeatFiller broadcast or our own NACK
            // being answered). It re-uses its original seq, so it never
            // advances the contiguous prefix; admit it only when we asked
            // for its filler, otherwise it is a duplicate to discard.
            auto fragment =
                frag::DecodeWirePayload(frame.payload, *ts_, codec);
            if (!fragment.ok()) break;  // corrupt repeat: the NACK retries
            if (!RepairRequested(fragment.value().id)) break;
            metrics_.AddFragmentIn();
            std::lock_guard<std::mutex> lock(pending_mu_);
            pending_.push_back(std::move(fragment).MoveValue());
            pending_cv_.notify_all();
            break;
          }
          // last_seq_ tracks the *contiguous* prefix, and only the
          // receive thread writes it, so reading it via the locked getter
          // and advancing later cannot race.
          const int64_t seq = static_cast<int64_t>(frame.seq);
          const int64_t have = last_seq();
          if (seq <= have) break;  // retransmission of a frame we hold
          if (seq > have + 1) {
            // Frames between have and seq are gone (kDropOldest eviction
            // ahead of the replay): cut the connection and resume from
            // the last contiguous seq — silently skipping the gap would
            // permanently lose the dropped fragments.
            metrics_.AddGapDetected();
            return;
          }
          auto fragment = frag::DecodeWirePayload(frame.payload, *ts_, codec);
          if (!fragment.ok()) {
            // The checksum held, so these are the bytes the server sent:
            // retrying cannot fix a malformed payload. Quarantine it and
            // keep the stream alive instead of reconnecting forever into
            // the same poison frame.
            QuarantinePoison(seq, fragment.status(), frame.payload.size());
            std::lock_guard<std::mutex> lock(pending_mu_);
            last_seq_ = seq;
            pending_cv_.notify_all();
            break;
          }
          metrics_.AddFragmentIn();
          std::lock_guard<std::mutex> lock(pending_mu_);
          pending_.push_back(std::move(fragment).MoveValue());
          last_seq_ = seq;
          pending_cv_.notify_all();
          break;
        }
        case FrameType::kHeartbeat: {
          // The heartbeat's `published` count doubles as a loss detector:
          // the server claims seqs up to published-1 exist, frames ahead
          // of a heartbeat arrive before it (TCP ordering), so a stalled
          // contiguous prefix below that with nothing in flight means the
          // frames were evicted before we ever got them. Two consecutive
          // lagging heartbeats with zero progress confirm it (one can
          // race the publish that bumped the counter); then pull the
          // range now instead of waiting for the next live frame to
          // reveal the gap.
          const int64_t published = static_cast<int64_t>(frame.seq);
          const int64_t have = last_seq();
          if (published - 1 > have) {
            if (lag_have == have) {
              ++lag_count;
            } else {
              lag_have = have;
              lag_count = 1;
            }
            if (lag_count >= kHeartbeatLagThreshold) {
              lag_count = 0;
              Frame replay;
              replay.type = FrameType::kReplayFrom;
              replay.payload = EncodeReplayFrom(have);
              if (!SendFrame(replay).ok()) return;
              metrics_.AddCatchupReplay();
              metrics_.AddReplayRequested();
            }
          } else {
            lag_have = -2;
            lag_count = 0;
          }
          break;
        }
        case FrameType::kQueryStatus: {
          auto status = DecodeQueryStatus(frame.payload);
          if (!status.ok()) break;  // mangled ack: WaitQueryActive times out
          std::lock_guard<std::mutex> lock(pending_mu_);
          auto it = queries_.find(status.value().token);
          if (it == queries_.end()) break;  // removed while in flight
          RemoteQuery& q = it->second;
          q.state.last_code = status.value().code;
          q.state.last_message = status.value().message;
          if (status.value().code == kQueryStatusOk) {
            q.state.active = true;
            q.state.query_id = status.value().query_id;
            query_by_id_[status.value().query_id] = it->first;
          } else {
            // Rejection — or the server retracting an earlier ok (it
            // raced an UNQUERY). Either way the stream is not coming.
            if (q.state.query_id != 0) query_by_id_.erase(q.state.query_id);
            q.state.active = false;
            q.state.query_id = 0;
          }
          pending_cv_.notify_all();
          break;
        }
        case FrameType::kResult: {
          auto delta = DecodeResultDelta(frame.payload);
          if (!delta.ok()) {
            // Checksum-valid but undecodable: poison, not loss. Skipping
            // it would silently drop a delta, so treat it like a gap.
            metrics_.AddGapDetected();
            return;
          }
          const int64_t seq = static_cast<int64_t>(frame.seq);
          std::unique_lock<std::mutex> lock(pending_mu_);
          auto by_id = query_by_id_.find(delta.value().query_id);
          if (by_id == query_by_id_.end()) break;  // unknown/removed query
          RemoteQuery& q = queries_[by_id->second];
          if (seq <= q.state.last_result_seq) break;  // replayed duplicate
          if (seq > q.state.last_result_seq + 1) {
            // A RESULT frame was lost (drop-oldest eviction): cut the
            // connection and resume — the reconnect's QUERY carries our
            // contiguous seq and the server replays from its result log.
            metrics_.AddGapDetected();
            return;
          }
          q.state.last_result_seq = seq;
          RemoteQueryResult out_result;
          out_result.token = by_id->second;
          out_result.seq = seq;
          out_result.delta = std::move(delta).MoveValue();
          results_.push_back(std::move(out_result));
          pending_cv_.notify_all();
          break;
        }
        case FrameType::kSkipTo: {
          // Everything in [payload start, header seq] was filtered out by
          // our own subscription: advance the contiguous prefix without
          // data, so gap detection and catch-up replays stay exact.
          const int64_t seq = static_cast<int64_t>(frame.seq);
          if (seq <= last_seq()) break;  // stale skip (overlapping replay)
          auto start = DecodeSkipTo(frame.payload);
          if (!start.ok()) {
            // Checksum-valid but malformed: the run bounds are untrusted,
            // so treat it like a gap rather than guess.
            metrics_.AddGapDetected();
            return;
          }
          if (start.value() != last_seq() + 1) {
            // The skipped run does not continue our prefix: a reordered
            // skip would otherwise jump past deliverable frames that are
            // still in flight (or already lost). Cut and replay — same
            // contract as a data-frame seq gap.
            metrics_.AddGapDetected();
            return;
          }
          metrics_.AddSkipIn();
          lag_have = -2;  // prefix progress: reset the loss detector
          lag_count = 0;
          std::lock_guard<std::mutex> lock(pending_mu_);
          last_seq_ = seq;
          pending_cv_.notify_all();
          break;
        }
        case FrameType::kExpired: {
          auto expired = DecodeExpired(frame.payload);
          if (!expired.ok()) {
            // Checksum-valid but malformed: the run bounds are untrusted.
            metrics_.AddGapDetected();
            return;
          }
          metrics_.AddExpiredIn();
          switch (expired.value().kind) {
            case Expired::kRange: {
              // Frame-log seqs [first_seq, header seq] were retired below
              // the retention floor (durable in a WAL checkpoint server-
              // side): advance the contiguous prefix over the run without
              // data, with exactly SKIP_TO's continuity check — an
              // expired run that does not continue our prefix would skip
              // past frames that were lost, not retired.
              const int64_t seq = static_cast<int64_t>(frame.seq);
              if (seq <= last_seq()) break;  // stale (overlapping replay)
              if (expired.value().first_seq != last_seq() + 1) {
                metrics_.AddGapDetected();
                return;
              }
              lag_have = -2;  // prefix progress: reset the loss detector
              lag_count = 0;
              std::lock_guard<std::mutex> lock(pending_mu_);
              last_seq_ = seq;
              pending_cv_.notify_all();
              break;
            }
            case Expired::kFiller: {
              // Our NACK's filler was compacted on purpose: stop
              // retrying, and count it expired — not lost.
              std::lock_guard<std::mutex> lock(repair_mu_);
              auto it = repairs_.find(expired.value().filler_id);
              if (it == repairs_.end() || it->second.expired ||
                  it->second.resolved) {
                break;
              }
              it->second.expired = true;
              metrics_.AddFillerExpired();
              break;
            }
            case Expired::kResultRange: {
              // Result-log seqs [first_seq, header seq] of one query were
              // trimmed: advance that query's contiguous result prefix
              // over the run (the deltas are regenerable server-side from
              // the checkpoint, but this subscriber chose a window that
              // no longer covers them).
              const int64_t seq = static_cast<int64_t>(frame.seq);
              std::lock_guard<std::mutex> lock(pending_mu_);
              auto by_id = query_by_id_.find(expired.value().query_id);
              if (by_id == query_by_id_.end()) break;
              RemoteQuery& q = queries_[by_id->second];
              if (seq <= q.state.last_result_seq) break;  // stale
              if (expired.value().first_seq > q.state.last_result_seq + 1) {
                // The expired run starts past our prefix: the frames
                // between were lost, not retired.
                metrics_.AddGapDetected();
                return;
              }
              q.state.last_result_seq = seq;
              pending_cv_.notify_all();
              break;
            }
            default:
              break;  // unknown kind from a newer server: ignore
          }
          break;
        }
        case FrameType::kBye:
          return;  // server going away; reconnect with backoff
        default:
          break;
      }
    }
  }
}

Status FragmentSubscriber::SendQuery(RemoteQuerySpec spec) {
  Frame frame;
  frame.type = FrameType::kQuery;
  frame.payload = EncodeQuery(spec);
  return SendFrame(frame);
}

void FragmentSubscriber::ResendQueries() {
  std::vector<RemoteQuerySpec> to_send;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    to_send.reserve(queries_.size());
    for (auto& [token, q] : queries_) {
      RemoteQuerySpec spec = q.spec;
      spec.last_result_seq = q.state.last_result_seq;
      to_send.push_back(std::move(spec));
    }
  }
  for (auto& spec : to_send) {
    if (!SendQuery(std::move(spec)).ok()) return;
  }
}

Result<uint32_t> FragmentSubscriber::AddRemoteQuery(RemoteQuerySpec spec) {
  if (spec.text.empty()) {
    return Status::InvalidArgument("remote query needs XCQL text");
  }
  uint32_t token;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    token = next_token_++;
    spec.token = token;
    spec.last_result_seq = -1;
    RemoteQuery q;
    q.spec = spec;
    queries_[token] = std::move(q);
  }
  // Already connected: register now rather than at the next reconnect. A
  // failure is not fatal — no session, or a dying one, and the next
  // handshake's ResendQueries covers it.
  (void)SendQuery(std::move(spec));
  return token;
}

Status FragmentSubscriber::RemoveRemoteQuery(uint32_t token) {
  uint64_t query_id = 0;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = queries_.find(token);
    if (it == queries_.end()) {
      return Status::NotFound("no remote query with token " +
                              std::to_string(token));
    }
    if (it->second.state.active) query_id = it->second.state.query_id;
    if (it->second.state.query_id != 0) {
      query_by_id_.erase(it->second.state.query_id);
    }
    queries_.erase(it);
    // Undrained results for the token are already decoupled (they carry
    // the token); leave them for the application to drain or ignore.
  }
  if (query_id != 0) {
    Frame frame;
    frame.type = FrameType::kUnquery;
    frame.payload = EncodeUnquery(query_id);
    (void)SendFrame(frame);  // disconnected = server keeps it; acceptable
  }
  return Status::OK();
}

int FragmentSubscriber::DrainResults(std::vector<RemoteQueryResult>* out) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  int n = static_cast<int>(results_.size());
  if (out->empty()) {
    out->swap(results_);
  } else {
    std::move(results_.begin(), results_.end(), std::back_inserter(*out));
    results_.clear();
  }
  return n;
}

bool FragmentSubscriber::WaitQueryActive(
    uint32_t token, std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(pending_mu_);
  return pending_cv_.wait_for(lock, timeout, [&] {
    auto it = queries_.find(token);
    return it != queries_.end() && it->second.state.active;
  });
}

bool FragmentSubscriber::WaitForResultSeq(
    uint32_t token, int64_t seq, std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(pending_mu_);
  return pending_cv_.wait_for(lock, timeout, [&] {
    auto it = queries_.find(token);
    return it != queries_.end() && it->second.state.last_result_seq >= seq;
  });
}

Result<RemoteQueryState> FragmentSubscriber::query_state(
    uint32_t token) const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  auto it = queries_.find(token);
  if (it == queries_.end()) {
    return Status::NotFound("no remote query with token " +
                            std::to_string(token));
  }
  return it->second.state;
}

Result<int> FragmentSubscriber::DrainInto(frag::FragmentStore* store) {
  std::vector<frag::Fragment> batch;
  Drain(&batch);
  int n = static_cast<int>(batch.size());
  XCQL_RETURN_NOT_OK(store->InsertAll(std::move(batch)));
  return n;
}

int FragmentSubscriber::Drain(std::vector<frag::Fragment>* out) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  int n = static_cast<int>(pending_.size());
  if (out->empty()) {
    out->swap(pending_);
  } else {
    std::move(pending_.begin(), pending_.end(), std::back_inserter(*out));
    pending_.clear();
  }
  return n;
}

Result<RepairSummary> FragmentSubscriber::RepairMissing(
    const frag::FragmentStore& store) {
  RepairSummary sum;
  std::vector<int64_t> missing = store.MissingFillers();
  sum.missing = static_cast<int>(missing.size());
  std::unordered_set<int64_t> missing_set(missing.begin(), missing.end());
  const auto now = std::chrono::steady_clock::now();
  std::vector<int64_t> to_nack;
  {
    std::lock_guard<std::mutex> lock(repair_mu_);
    // Anything we NACKed that the store no longer misses got repaired
    // (via the repeat path or an overlapping replay — either counts). A
    // version repair (RepairVersions) was never "missing": it resolves
    // when the store's version count for the filler has grown instead.
    for (auto& [id, st] : repairs_) {
      if (st.attempts == 0 || st.resolved) continue;
      if (st.versions_at_request >= 0) {
        if (static_cast<int>(store.VersionTimes(id).size()) >
            st.versions_at_request) {
          st.resolved = true;
          metrics_.AddFillerRepaired();
        }
        continue;
      }
      if (missing_set.count(id) == 0) {
        st.resolved = true;
        metrics_.AddFillerRepaired();
      }
    }
    for (int64_t id : missing) {
      RepairState& st = repairs_[id];
      if (st.lost) continue;
      // Retention-expired upstream: the server will answer every further
      // NACK with EXPIRED, so stop asking (and never call it lost).
      if (st.expired) continue;
      const bool interval_passed =
          st.attempts == 0 ||
          now - st.last_sent >= opts_.repair_retry_interval;
      if (!interval_passed) continue;
      if (st.attempts >= opts_.repair_retry_budget) {
        // Budget burned and the grace interval after the last attempt
        // expired with the filler still missing: declare it lost. The
        // hole stays in the store; HolePolicy decides what queries do.
        st.lost = true;
        metrics_.AddFillerLost();
        continue;
      }
      to_nack.push_back(id);
    }
    for (const auto& [id, st] : repairs_) {
      if (st.resolved) ++sum.repaired_total;
      if (st.lost) ++sum.lost_total;
      if (st.expired) ++sum.expired_total;
    }
  }
  for (int64_t id : to_nack) {
    // Register the attempt BEFORE the NACK goes out: on loopback the
    // repeat can land on the receive thread before SendFrame returns, and
    // repeats are only admitted for fillers already marked requested.
    {
      std::lock_guard<std::mutex> lock(repair_mu_);
      RepairState& rs = repairs_[id];
      ++rs.attempts;
      rs.last_sent = now;
    }
    Frame nack;
    nack.type = FrameType::kRepeatRequest;
    nack.payload = EncodeRepeatRequest(id);
    Status st = SendFrame(nack);
    if (st.ok()) {
      metrics_.AddNackSent();
      ++sum.nacks_sent;
      continue;
    }
    {
      // The NACK never left; undo so the next sweep retries immediately
      // and `attempts` keeps counting NACKs actually sent.
      std::lock_guard<std::mutex> lock(repair_mu_);
      --repairs_[id].attempts;
    }
  }
  return sum;
}

Status FragmentSubscriber::RepairVersions(int64_t filler_id,
                                          const frag::FragmentStore& store) {
  std::vector<int64_t> have = store.VersionTimes(filler_id);
  {
    std::lock_guard<std::mutex> lock(repair_mu_);
    RepairState& rs = repairs_[filler_id];
    if (rs.lost) {
      return Status::NotFound("filler repair budget exhausted");
    }
    if (rs.attempts >= opts_.repair_retry_budget) {
      rs.lost = true;
      metrics_.AddFillerLost();
      return Status::NotFound("filler repair budget exhausted");
    }
    if (rs.attempts > 0 && std::chrono::steady_clock::now() - rs.last_sent <
                               opts_.repair_retry_interval) {
      return Status::InvalidArgument(
          "previous repair attempt still within its retry interval");
    }
    // Register before sending (repeats are only admitted for registered
    // fillers, and on loopback they can arrive before SendFrame returns);
    // keep the *first* attempt's version count as the resolution baseline
    // so a retry can't erase an unmet goal.
    ++rs.attempts;
    rs.last_sent = std::chrono::steady_clock::now();
    if (rs.versions_at_request < 0) {
      rs.versions_at_request = static_cast<int>(have.size());
    }
  }
  Frame nack;
  nack.type = FrameType::kRepeatRequest;
  RepeatRequest request;
  request.filler_id = filler_id;
  request.have_valid_times = std::move(have);
  nack.payload = EncodeRepeatRequest(request);
  Status st = SendFrame(nack);
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(repair_mu_);
    --repairs_[filler_id].attempts;
    return st;
  }
  metrics_.AddNackSent();
  return Status::OK();
}

int64_t FragmentSubscriber::last_seq() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return last_seq_;
}

uint64_t FragmentSubscriber::server_epoch() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return epoch_;
}

bool FragmentSubscriber::WaitForSeq(int64_t seq,
                                    std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(pending_mu_);
  return pending_cv_.wait_for(lock, timeout,
                              [&] { return last_seq_ >= seq; });
}

bool FragmentSubscriber::WaitConnected(
    std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(state_mu_);
  state_cv_.wait_for(lock, timeout,
                     [this] { return connected_ || fatal_; });
  return connected_;
}

bool FragmentSubscriber::connected() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return connected_;
}

bool FragmentSubscriber::handshake_failed() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return fatal_;
}

Result<std::string> FragmentSubscriber::TagStructureXml() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (ts_xml_.empty()) {
    return Status::NotFound("no handshake completed yet");
  }
  return ts_xml_;
}

std::vector<PoisonRecord> FragmentSubscriber::poison_log() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return std::vector<PoisonRecord>(poison_log_.begin(), poison_log_.end());
}

MetricsSnapshot FragmentSubscriber::metrics() const {
  return metrics_.Snapshot();
}

void FragmentSubscriber::KillConnection() {
  std::lock_guard<std::mutex> lock(state_mu_);
  sock_.Shutdown();
}

}  // namespace xcql::net
