// End-to-end benchmark of the stream server: publish→delivery and
// publish→RESULT latency, sustainable publish rate, restart and catch-up
// time, and memory, on three named workloads (see perfbench/README.md).
//
// The whole serving stack runs in this one process through public APIs
// only: stream::StreamServer behind net::FragmentServer, a net::Wal on the
// real disk, a net::QueryChannel with a durable registry, and two
// net::FragmentSubscriber clients over loopback TCP. Load comes from one
// publisher thread (this one) and one collector thread.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --data-root DIR [--spans-out FILE]
//   e2e_bench --selftest --data-root DIR
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1). A failed output check exits 1.
#include <malloc.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "frag/codec.h"
#include "frag/fragment_store.h"
#include "frag/fragmenter.h"
#include "net/frame.h"
#include "net/query_channel.h"
#include "net/server.h"
#include "net/subscriber.h"
#include "net/wal.h"
#include "stream/continuous.h"
#include "stream/registry.h"
#include "stream/transport.h"
#include "trace.h"
#include "xcql/executor.h"
#include "xmark/generator.h"

namespace {

using namespace xcql;  // NOLINT
using perfbench::Mean;
using perfbench::NowUs;
using perfbench::Percentile;
using perfbench::Tracer;
namespace fs = std::filesystem;

constexpr const char* kStream = "auction";
// XMark scale of the published document (the paper's §7 data, small).
constexpr double kXmarkScale = 0.005;
// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 3;
// Closed-loop publishes at the end of every set-up, before any timing.
constexpr int kWarmup = 500;
// Restart cycles after each life of a workload whose lives are set-ups;
// spreading them over the run keeps a slow stretch of the machine from
// owning the median.
constexpr int kCyclesPerLife = 2;
// Fragments replayed through each inner layer in the traced run.
constexpr size_t kReplaySample = 2000;
// How long the collector may wait for the tail of a phase to arrive
// before the rest counts as failed.
constexpr double kDrainTimeoutS = 15;
// Default heartbeat interval of FragmentServerOptions, in µs: a delivery
// whose wire time is at least half of it was paced by the heartbeat sweep.
constexpr double kHeartbeatUs = 1e6;

// ---- the benchmark's queries ------------------------------------------------

// Windowed QaC+ queries (xcql_tail's default method). Each access sits
// under a `now - duration` projection, so every observable window is
// bounded and no query pins retention. They return the `rev` stamp, so
// every new version is a new result item and dedup does not collapse them.
struct QueryDef {
  const char* name;
  const char* text;
};
constexpr QueryDef kQueries[] = {
    {"qa",
     "for $c in stream(\"auction\")//closed_auction?[now - \"PT300S\", now] "
     "return string($c/@rev)"},
    {"qs",
     "for $o in stream(\"auction\")//open_auction?[now - \"PT120S\", now] "
     "return string($o/@rev)"},
    {"qb",
     "for $p in stream(\"auction\")//person?[now - \"PT600S\", now] "
     "return string($p/@rev)"},
};
constexpr int kNumQueries = 3;

net::RemoteQuerySpec SpecFor(int q) {
  net::RemoteQuerySpec spec;
  spec.text = kQueries[q].text;
  spec.method = static_cast<uint8_t>(lang::ExecMethod::kQaCPlus);
  return spec;
}

// The engine options QueryChannel derives from SpecFor's spec: QaC+, the
// default hole and tick policies, dedup on, no removal tracking.
stream::ContinuousQueryOptions EngineOptionsFor() {
  stream::ContinuousQueryOptions opts;
  opts.method = lang::ExecMethod::kQaCPlus;
  return opts;
}

// ---- workloads ----------------------------------------------------------------

struct Workload {
  std::string name;
  net::FsyncPolicy fsync = net::FsyncPolicy::kAlways;
  double rate = 1000;  // nominal open-loop publishes/s
  frag::WireCodec codec[2] = {frag::WireCodec::kPlainXml,
                              frag::WireCodec::kPlainXml};
  std::vector<int> queries[2];  // kQueries indices, per subscriber
  net::RetentionOptions retention;
  int history = 0;          // extra closed-loop publishes written in set-up
  double live_share = 0.8;  // share of --seconds in the live phases
  int saturation = 2000;    // closed-loop publishes, over all lives
  // Fresh server lives per run; the timed phases are split evenly across
  // them. With restart_lives each life is a restart of the set-up snapshot
  // (a restart cycle followed by live traffic); otherwise each life is a
  // full set-up, and restart cycles follow the lives.
  int lives = 6;
  bool restart_lives = false;
};

Result<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "ingest_durable") {
    // WAL append+fsync, encode, loop writes and decode carry the work.
    // The one light query exists so publish→RESULT is measured here too.
    w.fsync = net::FsyncPolicy::kAlways;
    w.rate = 1000;
    w.codec[1] = frag::WireCodec::kTagCompressed;
    w.queries[0] = {0};
    w.saturation = 4000;
  } else if (name == "query_window") {
    // The channel tick and the retention pass carry the work.
    w.fsync = net::FsyncPolicy::kInterval;
    w.rate = 500;
    w.queries[0] = {0, 1};
    w.queries[1] = {1, 2};
    w.retention.max_age_s = 600;
    w.retention.max_versions = 4;
    w.retention.max_frames = 4096;
    w.retention.max_results = 1024;
    w.saturation = 2000;
  } else if (name == "restart_catchup") {
    // Recovery, frame-log replay and the channel re-feed carry the work.
    w.fsync = net::FsyncPolicy::kAlways;
    w.rate = 500;
    w.queries[0] = {1};
    w.queries[1] = {2};
    w.history = 1000;
    w.live_share = 0.5;
    w.saturation = 2000;
    w.lives = 8;
    w.restart_lives = true;
  } else {
    return Status::InvalidArgument("unknown workload " + name);
  }
  return w;
}

// ---- seeded inputs ------------------------------------------------------------

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
uint64_t Fnv(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}
uint64_t FnvU64(uint64_t h, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  return Fnv(h, std::string_view(b, 8));
}

// One update: a new version of a document filler with a strictly later
// validTime and a fresh `rev` stamp.
struct Update {
  int32_t base = 0;  // index into Inputs::doc
  int64_t valid_s = 0;
  int64_t rev = 0;
};

// Everything the stack is fed: one fixed XMark document (the paper's §7
// data) and an update schedule generated from the seed alone.
struct Inputs {
  std::string ts_xml;
  std::vector<frag::Fragment> doc;  // the fragmented document, publish order
  std::unordered_map<int64_t, int32_t> doc_index;  // filler id → doc index
  std::vector<Update> updates;
  uint64_t hash = 0;  // over the document and the whole schedule
};

frag::Fragment CopyFragment(const frag::Fragment& f) {
  frag::Fragment c;
  c.id = f.id;
  c.tsid = f.tsid;
  c.valid_time = f.valid_time;
  c.content = f.content->Clone();
  return c;
}

frag::Fragment Materialize(const Inputs& in, const Update& u) {
  const frag::Fragment& base = in.doc[static_cast<size_t>(u.base)];
  frag::Fragment f = CopyFragment(base);
  f.valid_time = DateTime(u.valid_s);
  f.content->SetAttr("rev", std::to_string(u.rev));
  return f;
}

Result<Inputs> Generate(uint64_t seed, size_t n_updates) {
  Inputs in;
  in.ts_xml = xmark::AuctionTagStructureXml();
  XCQL_ASSIGN_OR_RETURN(frag::TagStructure ts,
                        frag::TagStructure::Parse(in.ts_xml));
  xmark::XMarkOptions gen;  // the default XMark seed: one fixed document
  gen.scale = kXmarkScale;
  XCQL_ASSIGN_OR_RETURN(NodePtr doc, xmark::GenerateAuctionDoc(gen));
  frag::Fragmenter fragmenter(&ts);
  XCQL_ASSIGN_OR_RETURN(in.doc, fragmenter.Split(*doc));
  std::vector<int32_t> bases;
  int64_t t = 0;
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < in.doc.size(); ++i) {
    const frag::Fragment& f = in.doc[i];
    in.doc_index[f.id] = static_cast<int32_t>(i);
    const auto* tag = ts.FindById(f.tsid);
    if (tag != nullptr && tag->fragmented()) {
      bases.push_back(static_cast<int32_t>(i));
    }
    t = std::max(t, f.valid_time.seconds());
    h = Fnv(h, f.ToXml());
  }
  if (bases.empty()) return Status::Internal("document has no fillers");
  // Stratified draws keep every seed's schedule statistically alike (so
  // runs on different seeds measure the same workload): the fillers are
  // visited in a fresh random order each round, and every block of 60
  // validTime gaps is a random order of 1..60 s.
  Random rng(seed * 0x9E3779B97F4A7C15ull + 1);
  auto shuffle = [&rng](auto* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
    }
  };
  std::vector<int64_t> gaps(60);
  in.updates.resize(n_updates);
  for (size_t i = 0; i < n_updates; ++i) {
    if (i % bases.size() == 0) shuffle(&bases);
    if (i % gaps.size() == 0) {
      for (size_t g = 0; g < gaps.size(); ++g) {
        gaps[g] = static_cast<int64_t>(g) + 1;
      }
      shuffle(&gaps);
    }
    Update& u = in.updates[i];
    u.base = bases[i % bases.size()];
    t += gaps[i % gaps.size()];
    u.valid_s = t;
    u.rev = static_cast<int64_t>(i) + 1;
    h = FnvU64(FnvU64(FnvU64(h, static_cast<uint64_t>(u.base)),
                      static_cast<uint64_t>(u.valid_s)),
               static_cast<uint64_t>(u.rev));
  }
  in.hash = h;
  return in;
}

// ---- the serving stack ----------------------------------------------------------

// A StreamClient that stamps the time of every multicast it sees. It is
// registered when the source's history ends at `next`, so its k-th call is
// the fragment at publish position next + k.
class Probe : public stream::StreamClient {
 public:
  Probe(std::vector<double>* times, size_t next)
      : times_(times), next_(next) {}
  void OnFragment(const std::string&, frag::Fragment) override {
    const double t = NowUs();
    if (next_ < times_->size()) (*times_)[next_] = t;
    ++next_;
  }

 private:
  std::vector<double>* times_;
  size_t next_;
};

struct OpenTimes {
  double wal_open_ms = 0;
  double restore_ms = 0;
  double channel_open_ms = 0;
  double start_ms = 0;
};

// Wal → StreamServer (+ RestoreStream) → QueryChannel → FragmentServer, as
// xcql_serve wires them; optional probes around FragmentServer::OnFragment.
class Stack {
 public:
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { Close(); }

  Status Open(const Workload& w, const Inputs& in, const std::string& dir,
              size_t probe_capacity, OpenTimes* times) {
    const double t0 = NowUs();
    net::WalOptions wal_opts;
    wal_opts.fsync = w.fsync;
    net::WalRecovery rec;
    XCQL_ASSIGN_OR_RETURN(
        wal_, net::Wal::Open(dir, kStream, in.ts_xml, wal_opts, &rec));
    const double t1 = NowUs();
    XCQL_ASSIGN_OR_RETURN(frag::TagStructure ts,
                          frag::TagStructure::Parse(in.ts_xml));
    source_ = std::make_unique<stream::StreamServer>(kStream, std::move(ts));
    if (!rec.records.empty() || rec.base_seq > 0) {
      XCQL_RETURN_NOT_OK(net::RestoreStream(rec, source_.get()));
    }
    const double t2 = NowUs();
    XCQL_ASSIGN_OR_RETURN(frag::TagStructure channel_ts,
                          frag::TagStructure::Parse(in.ts_xml));
    net::QueryChannelOptions ch_opts;
    ch_opts.registry_path = dir + "/queries.reg";
    channel_ = std::make_unique<net::QueryChannel>(
        kStream, std::move(channel_ts), ch_opts);
    XCQL_RETURN_NOT_OK(channel_->Open());
    const double t3 = NowUs();
    if (probe_capacity > 0) {
      probe1_times.assign(probe_capacity, 0);
      probe2_times.assign(probe_capacity, 0);
      const auto next = static_cast<size_t>(source_->history_size());
      probe1_ = std::make_unique<Probe>(&probe1_times, next);
      probe2_ = std::make_unique<Probe>(&probe2_times, next);
      source_->RegisterClient(probe1_.get());
    }
    net::FragmentServerOptions opts;
    opts.wal = wal_.get();
    opts.query_channel = channel_.get();
    opts.retention = w.retention;
    server_ = std::make_unique<net::FragmentServer>(source_.get(), opts);
    XCQL_RETURN_NOT_OK(server_->Start());
    if (probe2_ != nullptr) source_->RegisterClient(probe2_.get());
    const double t4 = NowUs();
    if (times != nullptr) {
      times->wal_open_ms = (t1 - t0) / 1e3;
      times->restore_ms = (t2 - t1) / 1e3;
      times->channel_open_ms = (t3 - t2) / 1e3;
      times->start_ms = (t4 - t3) / 1e3;
    }
    return Status::OK();
  }

  void Close() {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    channel_.reset();
    source_.reset();
    if (wal_ != nullptr) (void)wal_->Close();
    wal_.reset();
  }

  stream::StreamServer* source() { return source_.get(); }
  net::FragmentServer* server() { return server_.get(); }
  net::QueryChannel* channel() { return channel_.get(); }

  std::vector<double> probe1_times;  // before FragmentServer::OnFragment
  std::vector<double> probe2_times;  // after it

 private:
  std::unique_ptr<net::Wal> wal_;
  std::unique_ptr<stream::StreamServer> source_;
  std::unique_ptr<net::QueryChannel> channel_;
  std::unique_ptr<Probe> probe1_;
  std::unique_ptr<Probe> probe2_;
  std::unique_ptr<net::FragmentServer> server_;
};

// One subscriber connection and its running output digests.
struct Sub {
  std::unique_ptr<net::FragmentSubscriber> sub;
  std::vector<int> queries;                 // kQueries indices
  std::vector<uint32_t> tokens;             // parallel to queries
  std::map<uint32_t, uint64_t> qid_of;      // token → server query id
  uint64_t frag_digest = kFnvBasis;
  int64_t frags = 0;
  std::map<uint64_t, uint64_t> result_digest;  // qid → digest
  std::map<uint64_t, int64_t> result_count;    // qid → RESULTs drained
};

Status StartSub(Sub* s, uint16_t port, frag::WireCodec codec) {
  net::FragmentSubscriberOptions opts;
  opts.port = port;
  opts.stream = kStream;
  opts.codec = codec;
  s->sub = std::make_unique<net::FragmentSubscriber>(opts);
  XCQL_RETURN_NOT_OK(s->sub->Start());
  if (!s->sub->WaitConnected(std::chrono::seconds(30))) {
    return Status::Internal("subscriber did not connect");
  }
  return Status::OK();
}

Status RegisterQueries(Sub* s, const std::vector<int>& queries) {
  s->queries = queries;
  for (int q : queries) {
    XCQL_ASSIGN_OR_RETURN(uint32_t token, s->sub->AddRemoteQuery(SpecFor(q)));
    s->tokens.push_back(token);
  }
  for (uint32_t token : s->tokens) {
    if (!s->sub->WaitQueryActive(token, std::chrono::seconds(30))) {
      return Status::Internal("query registration was not acknowledged");
    }
    XCQL_ASSIGN_OR_RETURN(net::RemoteQueryState st,
                          s->sub->query_state(token));
    s->qid_of[token] = st.query_id;
  }
  return Status::OK();
}

void FoldResult(Sub* s, uint64_t qid, const net::ResultDelta& delta) {
  auto bytes = net::EncodeResultDelta(delta);
  uint64_t& d = s->result_digest.try_emplace(qid, kFnvBasis).first->second;
  d = Fnv(d, bytes.ok() ? bytes.value() : std::string("<bad>"));
  ++s->result_count[qid];
}

void FoldFragments(Sub* s, const std::vector<frag::Fragment>& frags) {
  for (const frag::Fragment& f : frags) {
    s->frag_digest = Fnv(s->frag_digest, f.ToXml());
    ++s->frags;
  }
}

// ---- one life of the stack: its publishes and its seq bookkeeping ----------

// What each seq of a life carries: >= 0 an update index; < 0 the document
// fragment -(tag + 1) (its first publish, or a retention refresh of it).
struct Life {
  Stack stack;
  std::array<Sub, 2> subs;
  std::vector<int32_t> seq_source;
  std::vector<double> due_us, entry_us, ret_us;  // per seq; 0 = not timed
  std::unordered_map<int64_t, int64_t> seq_of_valid;  // update validTime
  std::atomic<int64_t> published{0};  // seqs published so far
  size_t next_update = 0;
  int64_t publish_errors = 0;
  int64_t doc_end = 0;             // seqs of the document publish
  std::vector<uint64_t> qids;      // distinct query ids, registration order
  std::vector<int> qid_query;      // parallel: kQueries index
  std::map<uint64_t, int> registrants;  // qid → subscribers registering it
};

size_t SeqCapacity(const Inputs& in) {
  // Retention refreshes add at most 32 re-publishes per pass of 256.
  return (in.doc.size() + in.updates.size()) * 9 / 8 + 4096;
}

// Publishes one fragment on the calling (publisher) thread and records
// which seqs it consumed: the fragment itself plus any retention refreshes
// its OnFragment ran. Returns the fragment's seq, or -1 on failure.
int64_t PublishOne(Life* life, const Inputs& in, frag::Fragment f,
                   int32_t tag, double due_us) {
  stream::StreamServer* src = life->stack.source();
  const int64_t seq = src->history_size();
  if (static_cast<size_t>(seq) + 64 >= life->seq_source.size()) {
    ++life->publish_errors;
    return -1;
  }
  const int64_t valid_s = f.valid_time.seconds();
  const double entry = NowUs();
  Status st = src->Publish(std::move(f));
  const double ret = NowUs();
  if (!st.ok()) {
    std::fprintf(stderr, "publish failed: %s\n", st.ToString().c_str());
    ++life->publish_errors;
    return -1;
  }
  const int64_t end = src->history_size();
  life->seq_source[static_cast<size_t>(seq)] = tag;
  life->due_us[static_cast<size_t>(seq)] = due_us;
  life->entry_us[static_cast<size_t>(seq)] = entry;
  life->ret_us[static_cast<size_t>(seq)] = ret;
  if (tag >= 0) life->seq_of_valid[valid_s] = seq;
  for (int64_t s = seq + 1; s < end && static_cast<size_t>(s) <
                                           life->seq_source.size(); ++s) {
    auto it = in.doc_index.find(src->history_at(s).id);
    life->seq_source[static_cast<size_t>(s)] =
        it == in.doc_index.end() ? std::numeric_limits<int32_t>::min()
                                 : -(it->second + 1);
  }
  life->published.store(end, std::memory_order_release);
  return seq;
}

int64_t PublishNextUpdate(Life* life, const Inputs& in, double due_us) {
  if (life->next_update >= in.updates.size()) {
    ++life->publish_errors;
    return -1;
  }
  const size_t k = life->next_update++;
  return PublishOne(life, in, Materialize(in, in.updates[k]),
                    static_cast<int32_t>(k), due_us);
}

frag::Fragment ExpectedAt(const Inputs& in, const Life& life, int64_t seq) {
  const int32_t tag = life.seq_source[static_cast<size_t>(seq)];
  if (tag >= 0) return Materialize(in, in.updates[static_cast<size_t>(tag)]);
  if (tag == std::numeric_limits<int32_t>::min()) return frag::Fragment{};
  return CopyFragment(in.doc[static_cast<size_t>(-tag - 1)]);
}

// Digest of what every subscriber must have drained for seqs [0, end).
uint64_t ExpectedDigest(const Inputs& in, const Life& life, int64_t end) {
  uint64_t h = kFnvBasis;
  for (int64_t s = 0; s < end; ++s) {
    frag::Fragment f = ExpectedAt(in, life, s);
    h = Fnv(h, f.content == nullptr ? std::string("<unknown>") : f.ToXml());
  }
  return h;
}

// ---- the collector ------------------------------------------------------------

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long pages_total = 0, pages_rss = 0;
  const int n = std::fscanf(f, "%lld %lld", &pages_total, &pages_rss);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(pages_rss) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Watches both subscribers from one thread: stamps the instant every
// subscriber holds each seq, drains RESULTs (stamping when every
// registrant of the query has drained each one), folds both into the
// output digests, and samples RSS.
class Collector {
 public:
  struct ResultArrival {
    int count = 0;
    double last_us = 0;
    int64_t eval_time_s = 0;
  };

  Collector(Life* life, size_t capacity) : life_(life) {
    delivered_us.assign(capacity, 0);
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;
  ~Collector() { Stop(); }

  void Start() {
    stop_ = false;
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    thread_.join();
    // Whatever arrived after the last loop turn still counts for digests.
    Poll(/*drain_all=*/true);
  }

  // Blocks until every subscriber holds seqs < end and has drained at
  // least the server's logged RESULTs of each of its queries, or until
  // the timeout. Returns true when complete.
  bool WaitComplete(int64_t end, double timeout_s) {
    std::map<std::pair<int, uint64_t>, int64_t> targets;
    for (int i = 0; i < 2; ++i) {
      for (const auto& [token, qid] : life_->subs[static_cast<size_t>(i)]
                                          .qid_of) {
        targets[{i, qid}] = life_->stack.channel()->result_log_size(qid);
      }
    }
    const double deadline = NowUs() + timeout_s * 1e6;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      bool done = covered_ >= end - 1;
      for (const auto& [key, want] : targets) {
        auto it = drained_.find(key);
        if (it == drained_.end() ? want > 0 : it->second < want) done = false;
      }
      if (done) return true;
      if (NowUs() >= deadline) return false;
      cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
  }

  // Undrained RESULTs against the server's logs (call after Stop).
  int64_t MissingResults() {
    int64_t missing = 0;
    for (int i = 0; i < 2; ++i) {
      const Sub& s = life_->subs[static_cast<size_t>(i)];
      for (const auto& [token, qid] : s.qid_of) {
        const int64_t want = life_->stack.channel()->result_log_size(qid);
        auto it = s.result_count.find(qid);
        const int64_t got = it == s.result_count.end() ? 0 : it->second;
        missing += std::max<int64_t>(0, want - got);
      }
    }
    return missing;
  }

  double peak_rss_mb() {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_rss_mb_;
  }

  std::vector<double> delivered_us;  // per seq: every subscriber holds it
  std::unordered_map<uint64_t, ResultArrival> results;  // (qid, rseq) key
  std::vector<double> drain_us;      // per Drain() call that moved frames

  static uint64_t Key(uint64_t qid, int64_t rseq) {
    return (qid << 40) | static_cast<uint64_t>(rseq);
  }

 private:
  void Loop() {
    double next_rss = 0;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
      }
      // Subscribers offer no sub-millisecond wait that also wakes on a
      // RESULT, so the collector polls; an idle turn sleeps ~100µs, which
      // bounds the stamping error of both latencies.
      if (!Poll(/*drain_all=*/false)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      const double now = NowUs();
      if (now >= next_rss) {
        const double mb = RssMb();
        std::lock_guard<std::mutex> lock(mu_);
        peak_rss_mb_ = std::max(peak_rss_mb_, mb);
        next_rss = now + 10e3;
      }
    }
  }

  // One pass over both subscribers; true when anything new arrived.
  bool Poll(bool drain_all) {
    const double now = NowUs();
    bool progress = false;
    const int64_t covered = std::min(life_->subs[0].sub->last_seq(),
                                     life_->subs[1].sub->last_seq());
    for (int64_t s = next_; s <= covered &&
                            static_cast<size_t>(s) < delivered_us.size();
         ++s) {
      delivered_us[static_cast<size_t>(s)] = now;
    }
    if (covered + 1 > next_) progress = true;
    next_ = std::max(next_, covered + 1);
    std::map<std::pair<int, uint64_t>, int64_t> drained_now;
    for (int i = 0; i < 2; ++i) {
      Sub& s = life_->subs[static_cast<size_t>(i)];
      if (s.qid_of.empty()) continue;
      results_buf_.clear();
      if (s.sub->DrainResults(&results_buf_) > 0) progress = true;
      for (const net::RemoteQueryResult& r : results_buf_) {
        auto q = s.qid_of.find(r.token);
        if (q == s.qid_of.end()) continue;
        const uint64_t qid = q->second;
        ResultArrival& a = results[Key(qid, r.seq)];
        ++a.count;
        a.last_us = now;
        a.eval_time_s = r.delta.eval_time_s;
        FoldResult(&s, qid, r.delta);
        drained_now[{i, qid}] = s.result_count[qid];
      }
    }
    // Fragment digests cost a serialization each: fold them only when the
    // subscribers are level with the publisher (or a backlog built up), so
    // the hashing does not delay the next delivery stamp.
    const int64_t published = life_->published.load(std::memory_order_acquire);
    const bool level = covered >= published - 1;
    for (int i = 0; i < 2; ++i) {
      Sub& s = life_->subs[static_cast<size_t>(i)];
      if (!(drain_all || level ||
            s.sub->last_seq() - (s.frags - 1) > 512)) {
        continue;
      }
      const double t0 = NowUs();
      frags_buf_.clear();
      const int n = s.sub->Drain(&frags_buf_);
      if (n > 0) drain_us.push_back((NowUs() - t0) / n);
      FoldFragments(&s, frags_buf_);
    }
    std::lock_guard<std::mutex> lock(mu_);
    covered_ = std::max(covered_, covered);
    for (const auto& [key, n] : drained_now) drained_[key] = n;
    cv_.notify_all();
    return progress;
  }

  Life* life_;
  std::thread thread_;
  int64_t next_ = 0;
  std::vector<net::RemoteQueryResult> results_buf_;
  std::vector<frag::Fragment> frags_buf_;

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  bool stop_ = false;
  int64_t covered_ = -1;
  std::map<std::pair<int, uint64_t>, int64_t> drained_;
  double peak_rss_mb_ = 0;
};

// ---- result logs --------------------------------------------------------------

// Every logged RESULT frame of `qid`, as the channel replays it to a new
// sink.
std::vector<std::string> ResultLog(net::QueryChannel* channel, uint64_t qid) {
  std::vector<std::string> frames;
  int handle = 0;
  Status st = channel->Subscribe(
      qid, -1, &handle,
      [&frames](const std::shared_ptr<const std::string>& f) {
        frames.push_back(*f);
      });
  channel->Unsubscribe(qid, &handle);
  if (!st.ok()) frames.clear();
  return frames;
}

// Digest of the payloads of encoded RESULT frames, in order.
uint64_t PayloadDigest(const std::vector<std::string>& frames) {
  uint64_t h = kFnvBasis;
  for (const std::string& bytes : frames) {
    net::FrameReader reader;
    reader.Feed(bytes.data(), bytes.size());
    auto next = reader.Next();
    if (!next.ok() || !next.value().has_value()) return 0;
    h = Fnv(h, next.value()->payload);
  }
  return h;
}

// ---- the run ------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_root;
  std::string spans_out;
  bool selftest = false;
};

// Metrics and counters a run accumulates.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Mismatch(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "output check failed: %s\n", what.c_str());
  }
};

void RemoveAll(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Measures write+fsync of one 4 KiB block in the data directory.
std::vector<double> MeasureFsync(const std::string& dir) {
  std::vector<double> us;
  const std::string path = dir + "/fsync-probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return us;
  std::string block(4096, 'x');
  for (int i = 0; i < 200; ++i) {
    const double t0 = NowUs();
    if (::write(fd, block.data(), block.size()) !=
            static_cast<ssize_t>(block.size()) ||
        ::fsync(fd) != 0) {
      break;
    }
    us.push_back(NowUs() - t0);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return us;
}

// A local ContinuousQueryEngine fed the life's exact fragment sequence with
// the queries registered where the channel registered them: the reference
// the RESULT streams must match byte for byte.
struct Reference {
  stream::StreamHub hub;
  stream::SimClock clock;
  std::unique_ptr<stream::ContinuousQueryEngine> engine;
  frag::FragmentStore* store = nullptr;
  std::map<uint64_t, uint64_t> digest;  // qid → digest of RESULT payloads
  std::map<uint64_t, int64_t> count;    // qid → RESULTs
  std::vector<int> engine_ids;
  std::vector<double> tick_us;  // per tick after the queries registered
};

Status RunReference(const Inputs& in, const Life& life, int workers,
                    Reference* ref) {
  XCQL_ASSIGN_OR_RETURN(frag::TagStructure ts,
                        frag::TagStructure::Parse(in.ts_xml));
  XCQL_ASSIGN_OR_RETURN(ref->store,
                        ref->hub.AddLocalStream(kStream, std::move(ts)));
  ref->engine =
      std::make_unique<stream::ContinuousQueryEngine>(&ref->hub, &ref->clock);
  if (workers >= 0) ref->engine->set_workers(workers);
  const int64_t end = life.published.load();
  for (int64_t s = 0; s < end; ++s) {
    if (s == life.doc_end) {
      for (size_t k = 0; k < life.qids.size(); ++k) {
        const uint64_t qid = life.qids[k];
        XCQL_ASSIGN_OR_RETURN(
            int id,
            ref->engine->RegisterDelta(
                kQueries[life.qid_query[k]].text,
                [ref, qid](const xq::Sequence& added,
                           const std::vector<std::string>& removed,
                           DateTime at) {
                  net::ResultDelta delta;
                  delta.query_id = qid;
                  delta.eval_time_s = at.seconds();
                  for (const xq::Item& item : added) {
                    delta.added.push_back(stream::SerializeResultItem(item));
                  }
                  delta.removed = removed;
                  auto bytes = net::EncodeResultDelta(delta);
                  uint64_t& d =
                      ref->digest.try_emplace(qid, kFnvBasis).first->second;
                  d = Fnv(d, bytes.ok() ? bytes.value() : std::string());
                  ++ref->count[qid];
                },
                EngineOptionsFor()));
        ref->engine_ids.push_back(id);
      }
    }
    frag::Fragment f = ExpectedAt(in, life, s);
    if (f.content == nullptr) return Status::Internal("unknown seq source");
    ref->hub.OnFragment(kStream, f);
    ref->clock.AdvanceTo(ref->store->max_valid_time());
    const double t0 = NowUs();
    XCQL_RETURN_NOT_OK(ref->engine->Tick());
    if (s >= life.doc_end) ref->tick_us.push_back(NowUs() - t0);
  }
  return Status::OK();
}

class Bench {
 public:
  Bench(Options opt, Workload w) : opt_(std::move(opt)), w_(std::move(w)) {}

  int Run();

 private:
  struct LiveStats {
    std::vector<double> publish_ms, deliver_ms, result_ms, late_ms;
    std::vector<double> pre_us, on_fragment_us, wire_us;
    int64_t sweep_paced = 0;
    std::vector<double> stall_onsets_s;  // per traced life that stalled
    int64_t live_publishes = 0;
    int64_t saturation_publishes = 0;
    double saturation_s = 0;  // summed over lives that completed theirs
    int64_t undelivered = 0;
    int64_t results_missing = 0;
    int64_t publish_errors = 0;
    double peak_rss_mb = 0;
    int64_t probe_order_violations = 0;
  };
  struct CycleStats {
    std::vector<double> restart_s, catchup_s;
    std::vector<OpenTimes> open;
    int64_t cycles = 0;
    int64_t failed = 0;
  };
  // What a restarted life starts from: the data dir copied at the end of a
  // set-up, the seq bookkeeping up to there, and the result logs then.
  struct Snapshot {
    std::string dir;
    int64_t end = 0;
    std::vector<int32_t> seq_source;
    size_t next_update = 0;
    int64_t doc_end = 0;
    std::vector<uint64_t> qids;
    std::vector<int> qid_query;
    std::map<uint64_t, int> registrants;
    uint64_t digest = 0;  // expected fragment digest of seqs [0, end)
    std::map<uint64_t, std::vector<std::string>> logs;  // qid → RESULT frames
  };

  // Builds a fresh life: stack, subscribers, the document, the queries,
  // the history and the warm-up. Returns the seconds it took.
  Result<double> Setup(Life* life, bool probes);
  // `n` closed-loop publishes, then a wait until all of them (and their
  // RESULTs) arrived. `published_us` gets the instant the last one returned.
  Status WarmUp(Life* life, int n, double* published_us);
  Status TakeSnapshot(Life* life);
  // Restarts a life from the snapshot (timed: restart, then late
  // subscribers catching up) and checks it rebuilt the snapshot exactly.
  Status Restore(Life* life, bool probes, CycleStats* st);
  void Teardown(Life* life);
  // Open-loop phase of `seconds`, then `saturation` closed-loop publishes.
  Status LivePhase(Life* life, double seconds, int saturation,
                   LiveStats* st);
  Status VerifyLife(const Life& life);
  void PerLayerReplays(const Life& life, Report* report);

  Options opt_;
  Workload w_;
  Inputs in_;
  Report report_;
  Tracer tracer_;
  Snapshot snap_;
  std::vector<double> drain_us_;
  // Reference runs by the hash of the fed sequence: lives that publish the
  // same sequence share one.
  std::map<uint64_t, std::unique_ptr<Reference>> references_;
  const Reference* last_reference_ = nullptr;
  int64_t live_first_ = 0;  // first timed seq of the last life
  int cycle_ = 0;
  double peak_rss_mb_ = 0;
};

Result<double> Bench::Setup(Life* life, bool probes) {
  const double t0 = NowUs();
  // Input generation is part of every set-up.
  const int lives = std::max(1, w_.lives);
  const size_t n_updates =
      static_cast<size_t>(w_.history + 2 * kWarmup + w_.saturation / lives) +
      static_cast<size_t>(
          std::ceil(w_.rate * opt_.seconds * w_.live_share / lives)) +
      64;
  XCQL_ASSIGN_OR_RETURN(in_, Generate(opt_.seed, n_updates));
  const std::string dir = opt_.data_root + "/live";
  RemoveAll(dir);
  fs::create_directories(dir);
  const size_t cap = SeqCapacity(in_);
  life->seq_source.assign(cap, 0);
  life->due_us.assign(cap, 0);
  life->entry_us.assign(cap, 0);
  life->ret_us.assign(cap, 0);
  XCQL_RETURN_NOT_OK(
      life->stack.Open(w_, in_, dir, probes ? cap : 0, nullptr));
  const uint16_t port = life->stack.server()->port();
  for (int i = 0; i < 2; ++i) {
    XCQL_RETURN_NOT_OK(
        StartSub(&life->subs[static_cast<size_t>(i)], port, w_.codec[i]));
  }
  for (size_t k = 0; k < in_.doc.size(); ++k) {
    if (PublishOne(life, in_, CopyFragment(in_.doc[k]),
                   -static_cast<int32_t>(k + 1), 0) < 0) {
      return Status::Internal("document publish failed");
    }
  }
  // The channel is fed inside Publish, so queries registered now attach
  // right behind the document whether or not it reached the subscribers.
  life->doc_end = life->published.load();
  for (int i = 0; i < 2; ++i) {
    Sub& s = life->subs[static_cast<size_t>(i)];
    XCQL_RETURN_NOT_OK(RegisterQueries(&s, w_.queries[i]));
    for (size_t k = 0; k < s.tokens.size(); ++k) {
      const uint64_t qid = s.qid_of[s.tokens[k]];
      if (life->registrants[qid]++ == 0) {
        life->qids.push_back(qid);
        life->qid_query.push_back(s.queries[k]);
      }
    }
  }
  std::vector<uint64_t> pinning;
  (void)life->stack.channel()->ObservableFloor(
      DateTime(std::numeric_limits<int64_t>::max() / 2), &pinning);
  for (uint64_t id : pinning) {
    for (size_t k = 0; k < life->qids.size(); ++k) {
      if (life->qids[k] == id) {
        return Status::Internal(std::string("query ") +
                                kQueries[life->qid_query[k]].name +
                                " pins the retention floor");
      }
    }
    return Status::Internal("a query pins the retention floor");
  }
  // History and warm-up, closed loop. Set-up ends with the last publish;
  // waiting for its delivery is left out, because how long that takes
  // depends on whether the lost wakeup already struck.
  double published_us = 0;
  XCQL_RETURN_NOT_OK(WarmUp(life, w_.history + kWarmup, &published_us));
  return (published_us - t0) / 1e6;
}

Status Bench::WarmUp(Life* life, int n, double* published_us) {
  Collector collector(life, life->seq_source.size());
  collector.Start();
  for (int k = 0; k < n; ++k) {
    if (PublishNextUpdate(life, in_, 0) < 0) {
      return Status::Internal("warm-up publish failed");
    }
  }
  if (published_us != nullptr) *published_us = NowUs();
  const bool complete =
      collector.WaitComplete(life->published.load(), kDrainTimeoutS * 4);
  collector.Stop();
  if (!complete) return Status::Internal("warm-up publishes never arrived");
  return Status::OK();
}

Status Bench::TakeSnapshot(Life* life) {
  snap_.dir = opt_.data_root + "/snapshot";
  RemoveAll(snap_.dir);
  std::error_code ec;
  fs::copy(opt_.data_root + "/live", snap_.dir, fs::copy_options::recursive,
           ec);
  if (ec) return Status::Internal("snapshot copy failed: " + ec.message());
  snap_.end = life->published.load();
  snap_.seq_source = life->seq_source;
  snap_.next_update = life->next_update;
  snap_.doc_end = life->doc_end;
  snap_.qids = life->qids;
  snap_.qid_query = life->qid_query;
  snap_.registrants = life->registrants;
  snap_.digest = ExpectedDigest(in_, *life, snap_.end);
  snap_.logs.clear();
  for (uint64_t qid : life->qids) {
    snap_.logs[qid] = ResultLog(life->stack.channel(), qid);
  }
  return Status::OK();
}

Status Bench::Restore(Life* life, bool probes, CycleStats* st) {
  const int cycle = cycle_++;
  const std::string dir = opt_.data_root + "/cycle";
  RemoveAll(dir);
  std::error_code ec;
  fs::copy(snap_.dir, dir, fs::copy_options::recursive, ec);
  if (ec) return Status::Internal("snapshot restore failed: " + ec.message());
  ++st->cycles;
  const size_t cap = snap_.seq_source.size();
  life->seq_source = snap_.seq_source;
  life->due_us.assign(cap, 0);
  life->entry_us.assign(cap, 0);
  life->ret_us.assign(cap, 0);
  life->next_update = snap_.next_update;
  life->doc_end = snap_.doc_end;
  life->qids = snap_.qids;
  life->qid_query = snap_.qid_query;
  life->registrants = snap_.registrants;
  life->published.store(snap_.end);

  OpenTimes ot;
  const double t0 = NowUs();
  Status opened = life->stack.Open(w_, in_, dir, probes ? cap : 0, &ot);
  const double t1 = NowUs();
  if (!opened.ok()) {
    ++st->failed;
    return opened;
  }
  // Late subscribers: from seq -1, re-registering their queries.
  bool ok = true;
  for (int i = 0; i < 2; ++i) {
    Sub& s = life->subs[static_cast<size_t>(i)];
    net::FragmentSubscriberOptions opts;
    opts.port = life->stack.server()->port();
    opts.stream = kStream;
    opts.codec = w_.codec[i];
    s.sub = std::make_unique<net::FragmentSubscriber>(opts);
    for (int q : w_.queries[i]) {
      auto token = s.sub->AddRemoteQuery(SpecFor(q));
      ok = ok && token.ok();
      if (token.ok()) {
        s.queries.push_back(q);
        s.tokens.push_back(token.value());
      }
    }
    ok = ok && s.sub->Start().ok();
  }
  auto logged = [this](int q) -> int64_t {
    for (size_t k = 0; k < snap_.qids.size(); ++k) {
      if (snap_.qid_query[k] == q) {
        return static_cast<int64_t>(snap_.logs[snap_.qids[k]].size());
      }
    }
    return 0;
  };
  for (Sub& s : life->subs) {
    ok = ok && s.sub->WaitForSeq(snap_.end - 1, std::chrono::seconds(60));
    for (size_t k = 0; k < s.tokens.size(); ++k) {
      ok = ok && s.sub->WaitForResultSeq(s.tokens[k], logged(s.queries[k]) - 1,
                                         std::chrono::seconds(60));
    }
  }
  const double t2 = NowUs();
  if (!ok) {
    ++st->failed;
    return Status::Internal("restart cycle: catch-up incomplete");
  }
  st->restart_s.push_back((t1 - t0) / 1e6);
  st->catchup_s.push_back((t2 - t1) / 1e6);
  st->open.push_back(ot);
  const int64_t root = tracer_.Add("restart.cycle", -1, cycle, t0, t2);
  double at = t0;
  const std::pair<const char*, double> parts[] = {
      {"net.wal.open", ot.wal_open_ms},
      {"net.restore", ot.restore_ms},
      {"net.query_channel.open", ot.channel_open_ms},
      {"net.server.start", ot.start_ms}};
  for (const auto& [name, ms] : parts) {
    tracer_.Add(name, root, cycle, at, at + ms * 1e3);
    at += ms * 1e3;
  }
  tracer_.Add("net.catchup_replay", root, cycle, t1, t2);
  peak_rss_mb_ = std::max(peak_rss_mb_, RssMb());

  // The restarted server must rebuild the pre-restart result logs, and the
  // late subscribers must hold exactly the pre-restart stream.
  const std::string where = "restart cycle " + std::to_string(cycle) + ": ";
  for (uint64_t qid : snap_.qids) {
    if (ResultLog(life->stack.channel(), qid) != snap_.logs[qid]) {
      report_.Mismatch(where + "result log of query " + std::to_string(qid) +
                       " not rebuilt byte-identical");
    }
  }
  for (Sub& s : life->subs) {
    for (uint32_t token : s.tokens) {
      auto state = s.sub->query_state(token);
      if (state.ok()) s.qid_of[token] = state.value().query_id;
    }
    std::vector<frag::Fragment> frags;
    s.sub->Drain(&frags);
    FoldFragments(&s, frags);
    if (s.frags != snap_.end || s.frag_digest != snap_.digest) {
      report_.Mismatch(where + "late subscriber stream differs");
    }
    std::vector<net::RemoteQueryResult> results;
    s.sub->DrainResults(&results);
    for (const auto& r : results) FoldResult(&s, s.qid_of[r.token], r.delta);
    for (const auto& [token, qid] : s.qid_of) {
      if (s.result_digest.try_emplace(qid, kFnvBasis).first->second !=
          PayloadDigest(snap_.logs[qid])) {
        report_.Mismatch(where + "late subscriber RESULTs of query " +
                         std::to_string(qid) + " differ");
      }
    }
  }
  return Status::OK();
}

void Bench::Teardown(Life* life) {
  for (auto& s : life->subs) {
    if (s.sub != nullptr) s.sub->Stop();
  }
  life->stack.Close();
}

Status Bench::LivePhase(Life* life, double seconds, int saturation,
                        LiveStats* st) {
  const size_t cap = life->seq_source.size();
  Collector collector(life, cap);
  const int64_t first = life->published.load();
  // Everything before this phase already arrived; stamp it as such.
  for (int64_t s = 0; s < first; ++s) {
    collector.delivered_us[static_cast<size_t>(s)] = 1;
  }
  collector.Start();
  const int64_t n = static_cast<int64_t>(std::llround(w_.rate * seconds));
  const double period_us = 1e6 / w_.rate;
  const double start = NowUs() + 2000;
  std::vector<int64_t> live_seqs;
  live_seqs.reserve(static_cast<size_t>(n));
  for (int64_t k = 0; k < n; ++k) {
    if (life->next_update >= in_.updates.size()) break;
    frag::Fragment f =
        Materialize(in_, in_.updates[life->next_update]);
    const double due = start + static_cast<double>(k) * period_us;
    for (double now = NowUs(); now < due; now = NowUs()) {
      if (due - now > 300) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(due - now - 200)));
      } else {
        std::this_thread::yield();
      }
    }
    const size_t k_update = life->next_update++;
    const int64_t seq = PublishOne(life, in_, std::move(f),
                                   static_cast<int32_t>(k_update), due);
    if (seq >= 0) live_seqs.push_back(seq);
  }
  st->live_publishes += n;
  const int64_t live_end = life->published.load();
  if (!collector.WaitComplete(live_end, kDrainTimeoutS)) {
    std::fprintf(stderr, "live phase: tail still undelivered after %.0fs\n",
                 kDrainTimeoutS);
  }
  st->peak_rss_mb = std::max(st->peak_rss_mb, collector.peak_rss_mb());
  if (saturation > 0) {
    const double t0 = NowUs();
    for (int k = 0; k < saturation; ++k) {
      if (PublishNextUpdate(life, in_, 0) < 0) break;
    }
    const int64_t end = life->published.load();
    const bool complete = collector.WaitComplete(end, kDrainTimeoutS);
    const double t1 = NowUs();
    if (complete) {
      st->saturation_publishes += saturation;
      st->saturation_s += (t1 - t0) / 1e6;
    } else {
      std::fprintf(stderr, "saturation phase never completed\n");
    }
  }
  collector.Stop();
  // Delivery and publish latency of the timed (open-loop) publishes.
  const double phase_start = start;
  double onset_s = -1;
  for (int64_t seq : live_seqs) {
    const size_t s = static_cast<size_t>(seq);
    const double due = life->due_us[s];
    st->publish_ms.push_back((life->ret_us[s] - life->entry_us[s]) / 1e3);
    st->late_ms.push_back((life->entry_us[s] - due) / 1e3);
    if (collector.delivered_us[s] <= 0) {
      ++st->undelivered;
      continue;
    }
    st->deliver_ms.push_back((collector.delivered_us[s] - due) / 1e3);
    // The lost-wakeup signature: a delivery paced by the heartbeat sweep
    // (its wire time when probes ran, else its whole latency).
    const double paced = life->stack.probe2_times.empty()
                             ? collector.delivered_us[s] - due
                             : collector.delivered_us[s] -
                                   life->stack.probe2_times[s];
    if (paced >= kHeartbeatUs / 2 && onset_s < 0) {
      onset_s = (due - phase_start) / 1e6;
    }
    if (!life->stack.probe1_times.empty()) {
      const double p1 = life->stack.probe1_times[s];
      const double p2 = life->stack.probe2_times[s];
      if (!(life->entry_us[s] <= p1 && p1 <= p2 && p2 <= life->ret_us[s])) {
        ++st->probe_order_violations;
      }
      const double wire = collector.delivered_us[s] - p2;
      st->pre_us.push_back(p1 - life->entry_us[s]);
      st->on_fragment_us.push_back(p2 - p1);
      st->wire_us.push_back(wire);
      if (wire >= kHeartbeatUs / 2) ++st->sweep_paced;
      const int64_t root = tracer_.Add("e2e.deliver", -1, seq, due,
                                       collector.delivered_us[s]);
      tracer_.Add("gen.late", root, seq, due, life->entry_us[s]);
      const int64_t pub = tracer_.Add("stream.publish", root, seq,
                                      life->entry_us[s], life->ret_us[s]);
      tracer_.Add("stream.publish_pre", pub, seq, life->entry_us[s], p1);
      tracer_.Add("net.server.on_fragment", pub, seq, p1, p2);
      tracer_.Add("net.deliver_wire", root, seq, p2,
                  collector.delivered_us[s]);
    }
  }
  // RESULT latency: the delta's eval time names the publish that caused
  // it; only deltas caused by timed publishes have a due time.
  std::set<int64_t> live_set(live_seqs.begin(), live_seqs.end());
  for (const auto& [key, a] : collector.results) {
    const uint64_t qid = key >> 40;
    auto v = life->seq_of_valid.find(a.eval_time_s);
    if (v == life->seq_of_valid.end() || live_set.count(v->second) == 0) {
      continue;
    }
    if (a.count < life->registrants[qid]) continue;  // counted as missing
    st->result_ms.push_back(
        (a.last_us - life->due_us[static_cast<size_t>(v->second)]) / 1e3);
  }
  if (onset_s >= 0) st->stall_onsets_s.push_back(onset_s);
  const int64_t end = life->published.load();
  for (int64_t s = first; s < end; ++s) {
    if (collector.delivered_us[static_cast<size_t>(s)] <= 0 &&
        life->seq_source[static_cast<size_t>(s)] >= 0 &&
        life->due_us[static_cast<size_t>(s)] <= 0) {
      ++st->undelivered;  // a saturation publish that never arrived
    }
  }
  st->results_missing += collector.MissingResults();
  drain_us_.insert(drain_us_.end(), collector.drain_us.begin(),
                   collector.drain_us.end());
  return Status::OK();
}

Status Bench::VerifyLife(const Life& life) {
  const int64_t end = life.published.load();
  const uint64_t want = ExpectedDigest(in_, life, end);
  for (int i = 0; i < 2; ++i) {
    const Sub& s = life.subs[static_cast<size_t>(i)];
    if (s.frags != end || s.frag_digest != want) {
      report_.Mismatch("subscriber " + std::to_string(i) + " drained " +
                       std::to_string(s.frags) + " fragments of " +
                       std::to_string(end) + " or different content");
    }
  }
  uint64_t key = FnvU64(kFnvBasis, static_cast<uint64_t>(life.doc_end));
  for (int64_t s = 0; s < end; ++s) {
    key = FnvU64(key, static_cast<uint64_t>(
                          static_cast<int64_t>(life.seq_source[static_cast<size_t>(s)])));
  }
  auto& ref = references_[key];
  if (ref == nullptr) {
    ref = std::make_unique<Reference>();
    XCQL_RETURN_NOT_OK(RunReference(in_, life, -1, ref.get()));
  }
  last_reference_ = ref.get();
  for (int i = 0; i < 2; ++i) {
    const Sub& s = life.subs[static_cast<size_t>(i)];
    for (const auto& [token, qid] : s.qid_of) {
      auto d = s.result_digest.find(qid);
      auto c = s.result_count.find(qid);
      const uint64_t got_d = d == s.result_digest.end() ? kFnvBasis : d->second;
      const int64_t got_c = c == s.result_count.end() ? 0 : c->second;
      auto rd = ref->digest.find(qid);
      auto rc = ref->count.find(qid);
      const uint64_t ref_d = rd == ref->digest.end() ? kFnvBasis : rd->second;
      const int64_t ref_c = rc == ref->count.end() ? 0 : rc->second;
      if (got_d != ref_d || got_c != ref_c) {
        report_.Mismatch("subscriber " + std::to_string(i) + " query " +
                         std::to_string(qid) + ": " + std::to_string(got_c) +
                         " RESULTs vs " + std::to_string(ref_c) +
                         " from the reference engine, or different bytes");
      }
    }
  }
  return Status::OK();
}

// The traced run's isolated replays: the run's recorded fragments through
// each inner layer's public entry point on its own.
void Bench::PerLayerReplays(const Life& life, Report* r) {
  auto ts_or = frag::TagStructure::Parse(in_.ts_xml);
  if (!ts_or.ok()) return;
  const frag::TagStructure ts = std::move(ts_or).MoveValue();
  // The sample: the first fragments of the timed phase, in publish order.
  std::vector<frag::Fragment> sample;
  for (int64_t s = live_first_;
       s < life.published.load() && sample.size() < kReplaySample; ++s) {
    frag::Fragment f = ExpectedAt(in_, life, s);
    if (f.content != nullptr) sample.push_back(std::move(f));
  }
  const double n = static_cast<double>(std::max<size_t>(1, sample.size()));

  // Codec.
  std::vector<double> enc_plain, enc_comp, dec;
  double bytes_plain = 0, bytes_comp = 0;
  std::vector<std::string> plain_payloads;
  for (const frag::Fragment& f : sample) {
    double t0 = NowUs();
    auto p = frag::EncodeWirePayload(f, ts, frag::WireCodec::kPlainXml);
    double t1 = NowUs();
    auto c = frag::EncodeWirePayload(f, ts, frag::WireCodec::kTagCompressed);
    double t2 = NowUs();
    if (!p.ok() || !c.ok()) continue;
    enc_plain.push_back(t1 - t0);
    enc_comp.push_back(t2 - t1);
    bytes_plain += static_cast<double>(p.value().size());
    bytes_comp += static_cast<double>(c.value().size());
    t0 = NowUs();
    auto d = frag::DecodeWirePayload(p.value(), ts, frag::WireCodec::kPlainXml);
    dec.push_back(NowUs() - t0);
    plain_payloads.push_back(std::move(p).MoveValue());
  }
  r->Set("frag.encode_us.plain", Percentile(enc_plain, 50), "us");
  r->Set("frag.encode_us.compressed", Percentile(enc_comp, 50), "us");
  r->Set("frag.decode_us", Percentile(dec, 50), "us");
  r->Set("frag.wire_bytes.plain", bytes_plain / n, "bytes");
  r->Set("frag.wire_bytes.compressed", bytes_comp / n, "bytes");

  // WAL: the recorded frames through Wal::Append on a fresh dir with the
  // same options, then one checkpoint over them.
  std::vector<double> append_us;
  double syncs_per_append = 0, checkpoint_ms = 0;
  {
    const std::string dir = opt_.data_root + "/replay-wal";
    RemoveAll(dir);
    net::WalOptions wal_opts;
    wal_opts.fsync = w_.fsync;
    net::WalRecovery rec;
    auto wal = net::Wal::Open(dir, kStream, in_.ts_xml, wal_opts, &rec);
    if (wal.ok()) {
      int64_t seq = 0;
      for (const std::string& payload : plain_payloads) {
        net::Frame frame;
        frame.type = net::FrameType::kFragment;
        frame.seq = static_cast<uint64_t>(seq);
        frame.payload = payload;
        auto bytes = net::EncodeFrame(frame);
        if (!bytes.ok()) continue;
        const double t0 = NowUs();
        if (wal.value()->Append(seq, bytes.value()).ok()) {
          append_us.push_back(NowUs() - t0);
          ++seq;
        }
      }
      const double t0 = NowUs();
      (void)wal.value()->Checkpoint();
      checkpoint_ms = (NowUs() - t0) / 1e3;
      const net::WalStats ws = wal.value()->stats();
      syncs_per_append = ws.appends > 0 ? static_cast<double>(ws.syncs) /
                                              static_cast<double>(ws.appends)
                                        : 0;
      (void)wal.value()->Close();
    }
    RemoveAll(dir);
  }
  r->Set("net.wal.append_us.p50", Percentile(append_us, 50), "us");
  r->Set("net.wal.append_us.p99", Percentile(append_us, 99), "us");
  r->Set("net.wal.syncs_per_append", syncs_per_append, "ratio");
  r->Set("net.wal.checkpoint_ms", checkpoint_ms, "ms");

  // Query channel: a fresh channel with the same registrations, fed the
  // life's sequence; the sample's feeds are timed.
  std::vector<double> channel_us;
  double result_frames_per_publish = 0;
  {
    auto cts = frag::TagStructure::Parse(in_.ts_xml);
    net::QueryChannel channel(kStream, std::move(cts).MoveValue());
    (void)channel.Open();
    const int64_t stop = live_first_ + static_cast<int64_t>(sample.size());
    int64_t frames_before = 0;
    for (int64_t s = 0; s < stop; ++s) {
      if (s == life.doc_end) {
        for (size_t k = 0; k < life.qids.size(); ++k) {
          (void)channel.Register(SpecFor(life.qid_query[k]));
        }
      }
      if (s == live_first_) frames_before = channel.stats().result_frames;
      frag::Fragment f = ExpectedAt(in_, life, s);
      if (f.content == nullptr) continue;
      const double t0 = NowUs();
      channel.OnFragment(f);
      if (s >= live_first_) channel_us.push_back(NowUs() - t0);
    }
    result_frames_per_publish =
        static_cast<double>(channel.stats().result_frames - frames_before) / n;
  }
  r->Set("net.query_channel.on_fragment_us.p50", Percentile(channel_us, 50),
         "us");
  r->Set("net.query_channel.on_fragment_us.p99", Percentile(channel_us, 99),
         "us");
  r->Set("net.query_channel.result_frames_per_publish",
         result_frames_per_publish, "ratio");

  // Continuous engine: the reference run (default workers) and a
  // single-threaded baseline over the same sequence.
  {
    const Reference& ref = *last_reference_;
    int64_t fallback = 0;
    for (int id : ref.engine_ids) {
      auto qs = ref.engine->QueryStats(id);
      if (qs.ok()) fallback += qs.value().fallback_evals;
    }
    const double ticks = static_cast<double>(std::max<int64_t>(
        1, static_cast<int64_t>(ref.tick_us.size())));
    const double evals = static_cast<double>(ref.engine->evaluations());
    const double skips = static_cast<double>(ref.engine->skips());
    r->Set("stream.continuous.tick_us.p50", Percentile(ref.tick_us, 50), "us");
    r->Set("stream.continuous.tick_us.p99", Percentile(ref.tick_us, 99), "us");
    r->Set("stream.continuous.evals_per_tick", evals / ticks, "ratio");
    r->Set("stream.continuous.skip_pct",
           evals + skips > 0 ? 100.0 * skips / (evals + skips) : 0, "%");
    r->Set("stream.continuous.fallback_evals", static_cast<double>(fallback),
           "count");
    Reference single;
    Status st = RunReference(in_, life, 0, &single);
    if (!st.ok() || single.digest != ref.digest) {
      report_.Mismatch("single-worker engine emitted a different stream");
    }
    r->Set("stream.continuous.tick_us_1worker", Percentile(single.tick_us, 50),
           "us");
    // Each benchmark query, prepared once and executed over the
    // end-of-run store.
    lang::QueryExecutor exec;
    (void)exec.RegisterStream(ref.store);
    for (int q = 0; q < kNumQueries; ++q) {
      std::vector<double> us;
      auto prepared = exec.Prepare(kQueries[q].text, lang::ExecMethod::kQaCPlus);
      if (prepared.ok()) {
        lang::ExecOptions eo;
        eo.now = ref.store->max_valid_time();
        for (int rep = 0; rep < 21; ++rep) {
          const double t0 = NowUs();
          auto res = exec.ExecutePrepared(prepared.value(), eo);
          if (res.ok()) us.push_back(NowUs() - t0);
        }
      }
      r->Set(std::string("xcql.execute_us.") + kQueries[q].name,
             Percentile(us, 50), "us");
    }
  }

  // Store: inserts of the document plus the sample into a fresh store,
  // then one compaction with the query_window retention windows.
  {
    auto sts = frag::TagStructure::Parse(in_.ts_xml);
    frag::FragmentStore store(std::move(sts).MoveValue(), kStream);
    std::vector<double> insert_us;
    for (const frag::Fragment& f : in_.doc) (void)store.Insert(CopyFragment(f));
    for (const frag::Fragment& f : sample) {
      frag::Fragment c = CopyFragment(f);
      const double t0 = NowUs();
      (void)store.Insert(std::move(c));
      insert_us.push_back(NowUs() - t0);
    }
    frag::RetentionPolicy policy;
    policy.max_age_s = 600;
    policy.max_versions = 4;
    policy.max_fragments = 4096;
    const DateTime now = store.max_valid_time();
    const double t0 = NowUs();
    (void)store.Compact(policy, now, DateTime(now.seconds() - 600));
    r->Set("frag.store_insert_us", Percentile(insert_us, 50), "us");
    r->Set("frag.compact_ms", (NowUs() - t0) / 1e3, "ms");
  }
}

void EmitJson(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    double v = vu.first;
    if (!std::isfinite(v)) v = 0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), v, vu.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

int Bench::Run() {
  fs::create_directories(opt_.data_root);
  const std::vector<double> fsync_us = MeasureFsync(opt_.data_root);
  const int lives = std::max(1, w_.lives);
  const double segment_s = opt_.seconds * w_.live_share / lives;
  const int saturation = w_.saturation / lives;

  std::vector<double> setup_s;
  LiveStats traced, untraced;  // in a traced run, odd lives carry probes
  CycleStats cycles;
  net::MetricsSnapshot server_metrics;
  double mirror_bytes = 0;
  int64_t published_seqs = 0, logged_results = 0, reconnects = 0, gaps = 0;
  std::unique_ptr<Life> last;
  // A restart-lives workload sets up (and snapshots) before its lives.
  const int setups = w_.restart_lives ? kSetupRepeats : 0;
  for (int k = 0; k < setups + lives; ++k) {
    auto life = std::make_unique<Life>();
    const bool is_life = k >= setups;
    const int index = k - setups;
    const bool probes = opt_.trace && is_life && index % 2 == 1;
    if (w_.restart_lives && is_life) {
      Status st = Restore(life.get(), probes, &cycles);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        Teardown(life.get());
        continue;
      }
    } else {
      auto took = Setup(life.get(), probes);
      if (!took.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     took.status().ToString().c_str());
        return 2;
      }
      setup_s.push_back(took.value());
      if (k == setups - 1 || (!w_.restart_lives && index == 0)) {
        Status st = TakeSnapshot(life.get());
        if (!st.ok()) {
          std::fprintf(stderr, "%s\n", st.ToString().c_str());
          return 2;
        }
      }
    }
    if (!is_life) {
      Teardown(life.get());
      continue;
    }
    if (w_.restart_lives) {
      // A restarted life warms up like a set-up one before its segment.
      Status st = WarmUp(life.get(), kWarmup, nullptr);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 2;
      }
    }
    LiveStats* stats = probes ? &traced : &untraced;
    const int64_t first = life->published.load();
    Status st = LivePhase(life.get(), segment_s, saturation, stats);
    if (!st.ok()) {
      std::fprintf(stderr, "live phase failed: %s\n", st.ToString().c_str());
      return 2;
    }
    stats->publish_errors += life->publish_errors;
    for (const auto& [qid, n] : life->registrants) {
      logged_results += life->stack.channel()->result_log_size(qid) * n;
    }
    for (const Sub& s : life->subs) {
      const net::MetricsSnapshot m = s.sub->metrics();
      reconnects += m.reconnects;
      gaps += m.gaps_detected;
    }
    if (index == lives - 1) {
      server_metrics = life->stack.server()->metrics();
      mirror_bytes =
          static_cast<double>(life->stack.channel()->mirror_store_bytes());
      published_seqs = life->published.load();
      live_first_ = first;
    }
    Teardown(life.get());
    st = VerifyLife(*life);
    if (!st.ok()) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   st.ToString().c_str());
      return 2;
    }
    last = std::move(life);
    ::malloc_trim(0);
    for (int c = 0; !w_.restart_lives && c < kCyclesPerLife; ++c) {
      Life cycle;
      st = Restore(&cycle, false, &cycles);
      if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
      Teardown(&cycle);
    }
  }
  if (last == nullptr) {
    std::fprintf(stderr, "no life completed\n");
    return 2;
  }
  std::printf("# env {\"workload\": \"%s\", \"seed\": %llu, "
              "\"schedule_hash\": \"%016llx\", \"nproc\": %u, "
              "\"env.fsync_p50_us\": %.1f, \"env.fsync_p99_us\": %.1f, "
              "\"document_fragments\": %zu}\n",
              w_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
              static_cast<unsigned long long>(FnvU64(
                  in_.hash, static_cast<uint64_t>(w_.rate * 1000))),
              std::thread::hardware_concurrency(), Percentile(fsync_us, 50),
              Percentile(fsync_us, 99), in_.doc.size());

  // Untraced lives give the end-to-end figures; in a traced run the traced
  // lives give the layer figures and the untraced ones the overhead base.
  const LiveStats& live = opt_.trace ? traced : untraced;
  Report& r = report_;
  for (const LiveStats* l : {&traced, &untraced}) {
    r.attempted += l->live_publishes + l->saturation_publishes;
    r.failed += l->publish_errors + l->undelivered + l->results_missing;
  }
  r.attempted += logged_results + cycles.cycles;
  r.failed += cycles.failed;
  const double peak_rss =
      std::max({peak_rss_mb_, traced.peak_rss_mb, untraced.peak_rss_mb});
  std::printf("# samples {\"lives\": %d, \"publishes\": %zu, "
              "\"deliveries\": %zu, \"results\": %zu, "
              "\"restart_cycles\": %zu, \"publish_errors\": %lld, "
              "\"undelivered\": %lld, \"results_missing\": %lld, "
              "\"stalled_lives\": %zu}\n",
              lives, live.publish_ms.size(), live.deliver_ms.size(),
              live.result_ms.size(), cycles.restart_s.size(),
              static_cast<long long>(live.publish_errors),
              static_cast<long long>(live.undelivered),
              static_cast<long long>(live.results_missing),
              live.stall_onsets_s.size());

  const double max_rate =
      live.saturation_s > 0
          ? static_cast<double>(live.saturation_publishes) / live.saturation_s
          : 0;
  std::printf("# cycles {\"restart_s\": [");
  for (size_t i = 0; i < cycles.restart_s.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : ", ", cycles.restart_s[i]);
  }
  std::printf("], \"catchup_s\": [");
  for (size_t i = 0; i < cycles.catchup_s.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : ", ", cycles.catchup_s[i]);
  }
  std::printf("]}\n");
  if (!opt_.trace) {
    // Reported but not gated (see README.md): the lost wakeup in
    // EventLoop::DrainWakePipe stalls a server for good at a random moment,
    // so medians and the closed-loop rate depend on how much of a run came
    // after the stall; under fsync=always the publish ack is the disk's
    // fsync latency; and restart and catch-up times follow the CPU
    // contention of a shared machine. The last two drift between runs.
    std::printf("# extra {\"publish_p50_ms\": {\"value\": %.6g, \"unit\": "
                "\"ms\"}, \"deliver_p50_ms\": {\"value\": %.6g, \"unit\": "
                "\"ms\"}, \"result_p50_ms\": {\"value\": %.6g, \"unit\": "
                "\"ms\"}, \"max_rate\": {\"value\": %.6g, \"unit\": "
                "\"publishes/s\"}, \"restart_s\": {\"value\": %.6g, "
                "\"unit\": \"s\"}, \"catchup_s\": {\"value\": %.6g, "
                "\"unit\": \"s\"}}\n",
                Percentile(live.publish_ms, 50), Percentile(live.deliver_ms, 50),
                Percentile(live.result_ms, 50), max_rate,
                Median(cycles.restart_s), Median(cycles.catchup_s));
    r.Set("setup_s", Median(setup_s), "s");
    r.Set("deliver_p99_ms", Percentile(live.deliver_ms, 99), "ms");
    r.Set("result_p99_ms", Percentile(live.result_ms, 99), "ms");
    r.Set("peak_rss_mb", peak_rss, "MB");
    r.Set("ok_pct",
          r.attempted > 0
              ? 100.0 * static_cast<double>(r.attempted - r.failed) /
                    static_cast<double>(r.attempted)
              : 0,
          "%");
  } else {
    if (live.probe_order_violations > 0) {
      r.Mismatch(std::to_string(live.probe_order_violations) +
                 " publishes whose probes fired out of order");
    }
    const double onf50 = Percentile(live.on_fragment_us, 50);
    r.Set("cycle.restart_s", Median(cycles.restart_s), "s");
    r.Set("cycle.catchup_s", Median(cycles.catchup_s), "s");
    r.Set("live.publish_p50_ms", Percentile(live.publish_ms, 50), "ms");
    r.Set("live.deliver_p50_ms", Percentile(live.deliver_ms, 50), "ms");
    r.Set("live.result_p50_ms", Percentile(live.result_ms, 50), "ms");
    r.Set("live.max_rate", max_rate, "publishes/s");
    r.Set("stream.publish_pre_us.p50", Percentile(live.pre_us, 50), "us");
    r.Set("stream.publish_pre_us.p99", Percentile(live.pre_us, 99), "us");
    r.Set("net.server.on_fragment_us.p50", onf50, "us");
    r.Set("net.server.on_fragment_us.p99",
          Percentile(live.on_fragment_us, 99), "us");
    r.Set("net.deliver_wire_us.p50", Percentile(live.wire_us, 50), "us");
    r.Set("net.deliver_wire_us.p99", Percentile(live.wire_us, 99), "us");
    r.Set("net.loop.sweep_paced_pct",
          live.wire_us.empty()
              ? 0
              : 100.0 * static_cast<double>(live.sweep_paced) /
                    static_cast<double>(live.wire_us.size()),
          "%");
    // Median over the traced lives that stalled; a life in which no
    // delivery was sweep-paced counts as stalling at the end of its segment.
    std::vector<double> onsets = live.stall_onsets_s;
    const int traced_lives = lives / 2;
    while (static_cast<int>(onsets.size()) < traced_lives) {
      onsets.push_back(segment_s);
    }
    r.Set("net.loop.stall_onset_s", Median(onsets), "s");
    r.Set("net.loop.stalled_lives",
          static_cast<double>(live.stall_onsets_s.size()), "count");
    const double seqs =
        static_cast<double>(std::max<int64_t>(1, published_seqs));
    r.Set("net.server.encodes_per_publish",
          static_cast<double>(server_metrics.fragment_encodes) / seqs,
          "ratio");
    r.Set("net.server.bytes_out_per_frame",
          server_metrics.frames_out > 0
              ? static_cast<double>(server_metrics.bytes_out) /
                    static_cast<double>(server_metrics.frames_out)
              : 0,
          "bytes");
    r.Set("net.server.queue_depth_hwm",
          static_cast<double>(server_metrics.queue_depth_hwm), "count");
    r.Set("net.server.drops", static_cast<double>(server_metrics.drops),
          "count");
    r.Set("net.server.frame_log_bytes",
          static_cast<double>(server_metrics.frame_log_bytes), "bytes");
    r.Set("net.server.frames_retired",
          static_cast<double>(server_metrics.frames_retired), "count");
    r.Set("net.query_channel.mirror_store_bytes", mirror_bytes, "bytes");
    PerLayerReplays(*last, &r);
    std::vector<double> wal_open, restore, channel_open, start, catchup_ms;
    for (const OpenTimes& ot : cycles.open) {
      wal_open.push_back(ot.wal_open_ms);
      restore.push_back(ot.restore_ms);
      channel_open.push_back(ot.channel_open_ms);
      start.push_back(ot.start_ms);
    }
    for (double s : cycles.catchup_s) catchup_ms.push_back(s * 1e3);
    const double restart_ms = Median(cycles.restart_s) * 1e3;
    r.Set("net.wal.open_ms", Median(wal_open), "ms");
    r.Set("net.restore_ms", Median(restore), "ms");
    r.Set("net.query_channel.open_ms", Median(channel_open), "ms");
    r.Set("net.server.start_ms", Median(start), "ms");
    r.Set("net.catchup_replay_ms", Median(catchup_ms), "ms");
    r.Set("net.subscriber.drain_us", Percentile(drain_us_, 50), "us");
    r.Set("net.subscriber.reconnects", static_cast<double>(reconnects),
          "count");
    r.Set("net.subscriber.gaps", static_cast<double>(gaps), "count");
    r.Set("gen.late_p99_ms", Percentile(live.late_ms, 99), "ms");
    r.Set("gen.late_max_ms", Percentile(live.late_ms, 100), "ms");
    const double base_pub = Percentile(untraced.publish_ms, 50);
    r.Set("trace.overhead_pct",
          base_pub > 0
              ? 100.0 * (Percentile(live.publish_ms, 50) - base_pub) / base_pub
              : 0,
          "%");
    r.Set("env.fsync_p50_us", Percentile(fsync_us, 50), "us");
    r.Set("env.fsync_p99_us", Percentile(fsync_us, 99), "us");
    // The premise breakdowns: the WAL and channel-tick shares of the
    // server's per-publish span, and the re-feed share of a restart.
    double wal50 = 0, tick50 = 0;
    for (const auto& [name, vu] : r.metrics) {
      if (name == "net.wal.append_us.p50") wal50 = vu.first;
      if (name == "net.query_channel.on_fragment_us.p50") tick50 = vu.first;
    }
    r.Set("breakdown.wal_share_pct", onf50 > 0 ? 100 * wal50 / onf50 : 0, "%");
    r.Set("breakdown.tick_share_pct", onf50 > 0 ? 100 * tick50 / onf50 : 0,
          "%");
    r.Set("breakdown.refeed_share_pct",
          restart_ms > 0 ? 100 * Median(start) / restart_ms : 0, "%");
    const auto self = tracer_.SelfTimesUs();
    for (const char* name :
         {"gen.late", "stream.publish", "stream.publish_pre",
          "net.server.on_fragment", "net.deliver_wire", "restart.cycle",
          "net.wal.open", "net.restore", "net.query_channel.open",
          "net.server.start", "net.catchup_replay"}) {
      auto it = self.find(name);
      r.Set(std::string("trace.self_us.") + name,
            it == self.end() ? 0 : Mean(it->second), "us");
    }
    if (!opt_.spans_out.empty() && !tracer_.WriteJsonl(opt_.spans_out)) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   opt_.spans_out.c_str());
    }
  }
  RemoveAll(opt_.data_root);
  EmitJson(r);
  return r.correct ? 0 : 1;
}

// The benchmark's own test: the schedule is a pure function of the seed,
// and the two probes bracket FragmentServer::OnFragment for every publish.
int SelfTest(const Options& opt) {
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };
  auto a = Generate(7, 1000);
  auto b = Generate(7, 1000);
  auto c = Generate(8, 1000);
  check(a.ok() && b.ok() && c.ok(), "schedule generation");
  if (!a.ok() || !b.ok() || !c.ok()) return 1;
  check(a.value().hash == b.value().hash, "same seed, same schedule hash");
  check(a.value().hash != c.value().hash,
        "different seed, different schedule hash");
  bool increasing = true;
  for (size_t i = 1; i < a.value().updates.size(); ++i) {
    increasing = increasing && a.value().updates[i].valid_s >
                                   a.value().updates[i - 1].valid_s;
  }
  check(increasing, "validTimes strictly increase");

  auto w = FindWorkload("query_window");
  const std::string dir = opt.data_root + "/selftest";
  RemoveAll(dir);
  fs::create_directories(dir);
  Life life;
  const size_t cap = SeqCapacity(a.value());
  life.seq_source.assign(cap, 0);
  life.due_us.assign(cap, 0);
  life.entry_us.assign(cap, 0);
  life.ret_us.assign(cap, 0);
  Status st = life.stack.Open(w.value(), a.value(), dir, cap, nullptr);
  check(st.ok(), "stack opens with probes");
  if (!st.ok()) return 1;
  for (size_t k = 0; k < a.value().doc.size(); ++k) {
    PublishOne(&life, a.value(), CopyFragment(a.value().doc[k]),
               -static_cast<int32_t>(k + 1), 0);
  }
  for (int k = 0; k < 600; ++k) PublishNextUpdate(&life, a.value(), 0);
  int64_t bad = 0;
  const int64_t end = life.published.load();
  for (int64_t s = 0; s < end; ++s) {
    const size_t i = static_cast<size_t>(s);
    const double p1 = life.stack.probe1_times[i];
    const double p2 = life.stack.probe2_times[i];
    // Retention refreshes run inside the publish that triggered them, so
    // only the probes' own order is checked for those.
    const bool own = life.entry_us[i] > 0;
    if (!(p1 > 0 && p1 <= p2 &&
          (!own || (life.entry_us[i] <= p1 && p2 <= life.ret_us[i])))) {
      ++bad;
    }
  }
  check(life.publish_errors == 0, "every publish succeeded");
  check(bad == 0, "first probe fires before the second for every publish");
  life.stack.Close();
  RemoveAll(dir);
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --data-root DIR [--spans-out FILE]\n"
               "       e2e_bench --selftest --data-root DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--selftest") {
      opt.selftest = true;
      continue;
    }
    if (v == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else if (arg == "--data-root") {
      opt.data_root = v;
    } else if (arg == "--spans-out") {
      opt.spans_out = v;
    } else {
      return Usage();
    }
  }
  if (opt.data_root.empty()) return Usage();
  if (opt.selftest) return SelfTest(opt);
  auto w = FindWorkload(opt.workload);
  if (!w.ok() || opt.seconds <= 0) return Usage();
  Bench bench(opt, std::move(w).MoveValue());
  return bench.Run();
}
