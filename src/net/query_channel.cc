#include "net/query_channel.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/file_util.h"
#include "common/io_env.h"
#include "common/string_util.h"
#include "net/wal.h"
#include "xcql/executor.h"

namespace xcql::net {

namespace {

Status ErrnoStatus(const char* what, const std::string& path) {
  return Status::Internal(StringPrintf("%s(%s) failed: %s", what,
                                       path.c_str(), std::strerror(errno)));
}

constexpr uint8_t kKnownQueryFlags =
    kQueryFlagPaperFaithful | kQueryFlagIndexedFillers | kQueryFlagNoDedup |
    kQueryFlagTrackRemovals;

}  // namespace

QueryChannel::QueryChannel(std::string stream_name, frag::TagStructure ts,
                           QueryChannelOptions options)
    : stream_name_(std::move(stream_name)),
      opts_(std::move(options)),
      engine_(&hub_, &clock_) {
  auto store = hub_.AddLocalStream(stream_name_, std::move(ts));
  if (store.ok()) store_ = store.value();  // fresh hub: cannot collide
  if (opts_.engine_workers >= 0) engine_.set_workers(opts_.engine_workers);
}

QueryChannel::~QueryChannel() {
  if (registry_fd_ >= 0) IoEnv::Get()->Close(registry_fd_);
}

std::string QueryChannel::CanonicalKey(const RemoteQuerySpec& spec) {
  std::string key = spec.text;
  key.push_back('\0');
  key.push_back(static_cast<char>(spec.method));
  key.push_back(static_cast<char>(spec.hole_policy));
  key.push_back(static_cast<char>(spec.tick_policy));
  key.push_back(static_cast<char>(spec.flags));
  return key;
}

Status QueryChannel::ValidateSpec(const RemoteQuerySpec& spec) {
  if (spec.text.empty()) {
    return Status::InvalidArgument("QUERY carries no XCQL text");
  }
  if (spec.method > static_cast<uint8_t>(lang::ExecMethod::kQaCPlus)) {
    return Status::InvalidArgument(
        StringPrintf("unknown exec method %u", spec.method));
  }
  if (spec.hole_policy > static_cast<uint8_t>(xq::HolePolicy::kKeepHole)) {
    return Status::InvalidArgument(
        StringPrintf("unknown hole policy %u", spec.hole_policy));
  }
  if (spec.tick_policy >
      static_cast<uint8_t>(stream::TickPolicy::kDataDriven)) {
    return Status::InvalidArgument(
        StringPrintf("unknown tick policy %u", spec.tick_policy));
  }
  if ((spec.flags & ~kKnownQueryFlags) != 0) {
    return Status::InvalidArgument(
        StringPrintf("unknown QUERY flag bits 0x%02x",
                     spec.flags & ~kKnownQueryFlags));
  }
  if ((spec.flags & kQueryFlagPaperFaithful) &&
      (spec.flags & kQueryFlagIndexedFillers)) {
    return Status::InvalidArgument(
        "QUERY sets both the paper-faithful and indexed filler-lookup bits");
  }
  return Status::OK();
}

stream::ContinuousQueryOptions QueryChannel::ToEngineOptions(
    const RemoteQuerySpec& spec) {
  stream::ContinuousQueryOptions opts;
  opts.method = static_cast<lang::ExecMethod>(spec.method);
  opts.hole_policy = static_cast<xq::HolePolicy>(spec.hole_policy);
  opts.tick_policy = static_cast<stream::TickPolicy>(spec.tick_policy);
  opts.dedup = (spec.flags & kQueryFlagNoDedup) == 0;
  opts.track_removals = (spec.flags & kQueryFlagTrackRemovals) != 0;
  if (spec.flags & kQueryFlagPaperFaithful) {
    opts.linear_get_fillers = true;
  } else if (spec.flags & kQueryFlagIndexedFillers) {
    opts.linear_get_fillers = false;
  }
  return opts;
}

Status QueryChannel::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  if (opts_.registry_path.empty()) return Status::OK();
  // Replay whatever a previous incarnation persisted. A torn final record
  // (crash between write and fsync) is truncated away — the client that
  // sent it never got an ack and will re-register on reconnect.
  struct stat st;
  if (::stat(opts_.registry_path.c_str(), &st) == 0 && st.st_size > 0) {
    XCQL_ASSIGN_OR_RETURN(std::string bytes,
                          ReadFileToString(opts_.registry_path));
    FrameReader reader;
    reader.Feed(bytes.data(), bytes.size());
    size_t valid = 0;
    for (;;) {
      auto next = reader.Next();
      if (!next.ok() || !next.value().has_value()) break;
      const Frame& frame = *next.value();
      valid = bytes.size() - reader.buffered();
      if (!frame.crc_ok) {
        // A registry record is written in one append; a failed checksum
        // can only be an unflushed tail. Stop replay here and truncate.
        valid -= kFrameHeaderSize + frame.payload.size();
        break;
      }
      if (frame.type == FrameType::kQuery) {
        auto spec = DecodeQuery(frame.payload);
        if (!spec.ok()) continue;  // unreadable record: skip, keep going
        const uint64_t id = frame.seq;
        QueryState state;
        state.spec = spec.value();
        state.register_pos = state.spec.last_result_seq;  // repurposed slot
        state.spec.token = 0;
        state.spec.last_result_seq = 0;
        pending_[id] = std::move(state);
        if (id >= next_id_) next_id_ = id + 1;
        ++recovered_queries_;
      } else if (frame.type == FrameType::kUnquery) {
        auto id = DecodeUnquery(frame.payload);
        if (id.ok()) pending_.erase(id.value());
      }
    }
    if (valid < bytes.size()) {
      std::fprintf(stderr,
                   "queryreg: truncating %zu torn byte(s) at the tail of "
                   "%s\n",
                   bytes.size() - valid, opts_.registry_path.c_str());
      if (IoEnv::Get()->Truncate(opts_.registry_path.c_str(),
                                 static_cast<off_t>(valid)) != 0) {
        return ErrnoStatus("truncate", opts_.registry_path);
      }
    }
    registry_bytes_ = static_cast<int64_t>(valid);
  }
  registry_fd_ = IoEnv::Get()->Open(opts_.registry_path.c_str(),
                                    O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (registry_fd_ < 0) return ErrnoStatus("open", opts_.registry_path);
  // Registrations made when the log was empty are live immediately; the
  // rest re-attach as the server's history feed reaches their position.
  ActivatePendingLocked();
  return Status::OK();
}

Status QueryChannel::PersistLocked(FrameType type, const std::string& payload,
                                   uint64_t id) {
  if (registry_fd_ < 0) return Status::OK();
  if (registry_broken_) {
    return Status::Internal("query registry is broken (an earlier append "
                            "failed and could not be repaired); restart to "
                            "recover");
  }
  Frame frame;
  frame.type = type;
  frame.seq = id;
  frame.payload = payload;
  XCQL_ASSIGN_OR_RETURN(std::string bytes, EncodeFrame(frame));
  WalHooks::At("queryreg:before_write");
  IoEnv* io = IoEnv::Get();
  Status st = Status::OK();
  bool fsync_failed = false;
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        io->Write(registry_fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      st = ErrnoStatus("write", opts_.registry_path);
      break;
    }
    off += static_cast<size_t>(n);
  }
  if (st.ok()) {
    if (io->Fsync(registry_fd_) != 0) {
      st = ErrnoStatus("fsync", opts_.registry_path);
      fsync_failed = true;
    }
  }
  if (st.ok()) {
    registry_bytes_ += static_cast<int64_t>(bytes.size());
    WalHooks::At("queryreg:after_write");
    return Status::OK();
  }
  // Repair: cut the file back to the last record boundary so a later
  // successful append cannot bury this torn record mid-file (Open()'s
  // torn-tail truncation only heals the final record). After a FAILED
  // FSYNC the descriptor may hold pages the kernel already dropped, so it
  // is closed and never fsync'd again (fsyncgate); the truncate below goes
  // through the path, and the registry continues on a fresh descriptor.
  if (fsync_failed) {
    io->Close(registry_fd_);
    registry_fd_ = -1;
  }
  bool repaired =
      io->Truncate(opts_.registry_path.c_str(),
                   static_cast<off_t>(registry_bytes_)) == 0;
  if (repaired && registry_fd_ < 0) {
    registry_fd_ = io->Open(opts_.registry_path.c_str(),
                            O_CREAT | O_WRONLY | O_APPEND, 0644);
    repaired = registry_fd_ >= 0;
  }
  if (!repaired) {
    registry_broken_ = true;
    std::fprintf(stderr,
                 "queryreg: append failed AND the partial record could not "
                 "be truncated away; registry %s is now read-only until "
                 "restart (%s)\n",
                 opts_.registry_path.c_str(), st.message().c_str());
  }
  return st;
}

Result<uint64_t> QueryChannel::AdmitLocked(const RemoteQuerySpec& spec,
                                           int64_t register_pos,
                                           uint64_t forced_id, bool persist,
                                           bool* rejected_by_limit) {
  if (opts_.max_queries > 0 &&
      static_cast<int>(queries_.size() + pending_.size()) >=
          opts_.max_queries) {
    if (rejected_by_limit != nullptr) *rejected_by_limit = true;
    return Status::InvalidArgument(StringPrintf(
        "query limit reached (%d registered)", opts_.max_queries));
  }
  const uint64_t id = forced_id != 0 ? forced_id : next_id_++;
  if (forced_id != 0 && forced_id >= next_id_) next_id_ = forced_id + 1;
  QueryState state;
  state.spec = spec;
  state.spec.token = 0;
  state.spec.last_result_seq = 0;
  state.register_pos = register_pos;
  auto engine_id = engine_.RegisterDelta(
      state.spec.text,
      [this, id](const xq::Sequence& added,
                 const std::vector<std::string>& removed, DateTime at) {
        EmitDelta(id, added, removed, at);
      },
      ToEngineOptions(state.spec));
  if (!engine_id.ok()) return engine_id.status();
  state.engine_id = engine_id.value();
  if (persist) {
    // The persisted record carries the registration position in the
    // resume-seq slot, so recovery re-attaches the query at the same
    // point of the fragment log and its result seqs line up.
    RemoteQuerySpec record = state.spec;
    record.last_result_seq = register_pos;
    Status st = PersistLocked(FrameType::kQuery, EncodeQuery(record), id);
    if (!st.ok()) {
      (void)engine_.Unregister(state.engine_id);
      return st;
    }
  }
  by_key_[CanonicalKey(state.spec)] = id;
  queries_[id] = std::move(state);
  return id;
}

void QueryChannel::ActivatePendingLocked() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.register_pos > fragments_fed_) {
      ++it;
      continue;
    }
    const uint64_t id = it->first;
    QueryState state = std::move(it->second);
    it = pending_.erase(it);
    auto admitted = AdmitLocked(state.spec, state.register_pos, id,
                                /*persist=*/false, nullptr);
    if (!admitted.ok()) {
      // The environment no longer compiles this query (schema drift);
      // drop it rather than wedge recovery. The registry record stays —
      // harmless, and a fixed environment revives it next restart.
      std::fprintf(stderr, "queryreg: dropping recovered query %llu: %s\n",
                   static_cast<unsigned long long>(id),
                   admitted.status().message().c_str());
    }
  }
}

Result<uint64_t> QueryChannel::Register(const RemoteQuerySpec& spec,
                                        bool* rejected_by_limit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rejected_by_limit != nullptr) *rejected_by_limit = false;
  XCQL_RETURN_NOT_OK(ValidateSpec(spec));
  ActivatePendingLocked();
  RemoteQuerySpec canonical = spec;
  canonical.token = 0;
  canonical.last_result_seq = 0;
  const std::string key = CanonicalKey(canonical);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) return it->second;  // evaluate once, fan out
  // A recovered registration whose position the (shorter-than-registry)
  // recovered log never reached: re-admit it now, at the current feed
  // position, keeping its id stable for the returning subscriber.
  for (auto pit = pending_.begin(); pit != pending_.end(); ++pit) {
    if (CanonicalKey(pit->second.spec) == key) {
      const uint64_t id = pit->first;
      pending_.erase(pit);
      return AdmitLocked(canonical, fragments_fed_, id, /*persist=*/false,
                         rejected_by_limit);
    }
  }
  return AdmitLocked(canonical, fragments_fed_, 0, /*persist=*/true,
                     rejected_by_limit);
}

Status QueryChannel::Unregister(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    if (pending_.erase(query_id) != 0) {
      return PersistLocked(FrameType::kUnquery, EncodeUnquery(query_id),
                           query_id);
    }
    return Status::NotFound(StringPrintf(
        "no registered query %llu",
        static_cast<unsigned long long>(query_id)));
  }
  if (!it->second.sinks.empty()) return Status::OK();  // others still read
  (void)engine_.Unregister(it->second.engine_id);
  by_key_.erase(CanonicalKey(it->second.spec));
  Status st = PersistLocked(FrameType::kUnquery, EncodeUnquery(query_id),
                            query_id);
  queries_.erase(it);
  return st;
}

Status QueryChannel::Subscribe(uint64_t query_id, int64_t last_seq,
                               const void* handle, Deliver deliver) {
  std::lock_guard<std::mutex> lock(mu_);
  ActivatePendingLocked();
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "no registered query %llu",
        static_cast<unsigned long long>(query_id)));
  }
  QueryState& state = it->second;
  // Replay the backlog and attach under one lock hold: OnFragment cannot
  // interleave, so the sink sees every result seq exactly once, in order.
  int64_t from = last_seq < 0 ? 0 : last_seq + 1;
  if (from < state.log_base) {
    // Retention dropped [from, log_base): tell the subscriber the range
    // was aged out on purpose (not lost) so it advances its result cursor
    // cleanly instead of waiting for seqs that will never arrive.
    Expired expired;
    expired.kind = Expired::kResultRange;
    expired.query_id = query_id;
    expired.first_seq = from;
    Frame frame;
    frame.type = FrameType::kExpired;
    frame.seq = static_cast<uint64_t>(state.log_base - 1);
    frame.payload = EncodeExpired(expired);
    auto bytes = EncodeFrame(frame);
    if (!bytes.ok()) return bytes.status();
    deliver(
        std::make_shared<const std::string>(std::move(bytes).MoveValue()));
    from = state.log_base;
  }
  for (int64_t seq = from;
       seq < state.log_base + static_cast<int64_t>(state.log.size()); ++seq) {
    deliver(state.log[static_cast<size_t>(seq - state.log_base)]);
  }
  Sink sink;
  sink.handle = handle;
  sink.deliver = std::move(deliver);
  state.sinks.push_back(std::move(sink));
  return Status::OK();
}

void QueryChannel::Unsubscribe(uint64_t query_id, const void* handle) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  auto& sinks = it->second.sinks;
  for (auto sit = sinks.begin(); sit != sinks.end();) {
    sit = sit->handle == handle ? sinks.erase(sit) : sit + 1;
  }
}

void QueryChannel::DropSink(const void* handle) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, state] : queries_) {
    auto& sinks = state.sinks;
    for (auto sit = sinks.begin(); sit != sinks.end();) {
      sit = sit->handle == handle ? sinks.erase(sit) : sit + 1;
    }
  }
}

void QueryChannel::OnFragment(const frag::Fragment& fragment) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ == nullptr) return;
  // Recovered mid-stream registrations re-attach exactly where they were
  // registered: before this fragment is fed, not after.
  ActivatePendingLocked();
  hub_.OnFragment(stream_name_, fragment);
  ++fragments_fed_;
  clock_.AdvanceTo(store_->max_valid_time());
  // One tick per appended fragment: the schedule — and with it every
  // query's result stream — is a pure function of the fragment log, which
  // is what makes the logs rebuildable after a restart. A tick error is
  // per-query state (QueryStats), not a channel failure.
  (void)engine_.Tick();
}

void QueryChannel::EmitDelta(uint64_t id, const xq::Sequence& added,
                             const std::vector<std::string>& removed,
                             DateTime at) {
  // Runs inside engine_.Tick() on the feeding thread: mu_ is already held
  // by OnFragment, so the state maps are safe to touch (and must not be
  // re-locked).
  auto it = queries_.find(id);
  if (it == queries_.end()) return;
  QueryState& state = it->second;
  ResultDelta delta;
  delta.query_id = id;
  delta.eval_time_s = at.seconds();
  delta.added.reserve(added.size());
  for (const xq::Item& item : added) {
    delta.added.push_back(stream::SerializeResultItem(item));
  }
  delta.removed = removed;
  auto payload = EncodeResultDelta(delta);
  if (!payload.ok()) {
    ++encode_failures_;  // oversize delta: the seq is not burned
    return;
  }
  Frame frame;
  frame.type = FrameType::kResult;
  frame.seq =
      static_cast<uint64_t>(state.log_base + static_cast<int64_t>(state.log.size()));
  frame.payload = std::move(payload).MoveValue();
  auto bytes = EncodeFrame(frame);
  if (!bytes.ok()) {
    ++encode_failures_;
    return;
  }
  state.log.push_back(
      std::make_shared<const std::string>(std::move(bytes).MoveValue()));
  ++result_frames_;
  for (const Sink& sink : state.sinks) sink.deliver(state.log.back());
}

QueryChannelStats QueryChannel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryChannelStats s;
  s.active_queries = static_cast<int>(queries_.size());
  for (const auto& [id, state] : queries_) {
    s.active_sinks += static_cast<int>(state.sinks.size());
  }
  s.pending_queries = static_cast<int>(pending_.size());
  s.result_frames = result_frames_;
  s.fragments_fed = fragments_fed_;
  s.recovered_queries = recovered_queries_;
  s.encode_failures = encode_failures_;
  s.result_log_trimmed = result_log_trimmed_;
  for (const auto& [id, state] : queries_) {
    for (const auto& frame : state.log) {
      s.result_log_bytes += static_cast<int64_t>(frame->size());
    }
  }
  return s;
}

int64_t QueryChannel::TrimResultLogs(int64_t max_results) {
  if (max_results <= 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (auto& [id, state] : queries_) {
    const int64_t excess =
        static_cast<int64_t>(state.log.size()) - max_results;
    if (excess <= 0) continue;
    state.log.erase(state.log.begin(), state.log.begin() + excess);
    state.log_base += excess;
    dropped += excess;
  }
  result_log_trimmed_ += dropped;
  return dropped;
}

DateTime QueryChannel::ObservableFloor(
    DateTime now, std::vector<uint64_t>* pinning) const {
  std::lock_guard<std::mutex> lock(mu_);
  DateTime floor = DateTime::End();  // no query: nothing constrains
  for (const auto& [id, state] : queries_) {
    auto stats = engine_.QueryStats(state.engine_id);
    DateTime q_floor = stats.ok() ? stats.value().window.FloorAt(now)
                                  : DateTime::Start();
    if (q_floor == DateTime::Start() && pinning != nullptr) {
      pinning->push_back(id);
    }
    floor = std::min(floor, q_floor);
  }
  // Recovered registrations not yet re-attached: their window is unknown
  // until they compile, so they pin retention rather than risk compacting
  // data they will need.
  for (const auto& [id, state] : pending_) {
    if (pinning != nullptr) pinning->push_back(id);
    floor = DateTime::Start();
  }
  return floor;
}

frag::CompactionStats QueryChannel::CompactMirror(
    const frag::RetentionPolicy& policy, DateTime now,
    DateTime observe_floor) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ == nullptr || !policy.enabled()) return {};
  auto stats = store_->Compact(policy, now, observe_floor);
  return stats.ok() ? stats.value() : frag::CompactionStats{};
}

int64_t QueryChannel::mirror_store_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_ == nullptr ? 0 : store_->ApproxBytes();
}

Result<lang::QueryRelevance> QueryChannel::AnalyzeSpec(
    const RemoteQuerySpec& spec) const {
  if (store_ == nullptr) {
    return Status::Internal("query channel has no mirror store");
  }
  XCQL_RETURN_NOT_OK(ValidateSpec(spec));
  // A throwaway executor: Prepare only parses/translates/analyzes, so the
  // cost is one compile, and touching no fragments keeps this lock-free
  // against the feeding thread.
  lang::QueryExecutor exec;
  XCQL_RETURN_NOT_OK(exec.RegisterStream(store_));
  XCQL_ASSIGN_OR_RETURN(
      lang::PreparedQuery prepared,
      exec.Prepare(spec.text, static_cast<lang::ExecMethod>(spec.method)));
  return prepared.relevance;
}

int64_t QueryChannel::result_log_size(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(query_id);
  return it == queries_.end()
             ? 0
             : it->second.log_base +
                   static_cast<int64_t>(it->second.log.size());
}

int64_t QueryChannel::result_log_base(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(query_id);
  return it == queries_.end() ? 0 : it->second.log_base;
}

}  // namespace xcql::net
