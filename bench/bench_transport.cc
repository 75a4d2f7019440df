// Transport ablation: throughput and wire cost of the networked fragment
// transport (src/net/) over loopback TCP, plain XML vs §4.1 tag-compressed
// frames, across three XMark document granularities. Each iteration
// publishes a batch of update fragments through a StreamServer fronted by
// a FragmentServer and waits until a FragmentSubscriber has decoded every
// one — i.e. it measures the full pipeline: encode, frame, TCP, deframe,
// decode.
//
//   ./build/bench/bench_transport [--benchmark_format=json]
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/io_env.h"
#include "common/random.h"
#include "frag/fragment_store.h"
#include "net/chaos.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/query_channel.h"
#include "net/server.h"
#include "net/subscriber.h"
#include "net/wal.h"
#include "stream/clock.h"
#include "stream/continuous.h"
#include "stream/registry.h"
#include "stream/transport.h"
#include "xmark/generator.h"

namespace {

using namespace std::chrono_literals;

void BM_Transport(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 1000.0;
  const bool compressed = state.range(1) != 0;

  auto ts = xcql::frag::TagStructure::Parse(
      xcql::xmark::AuctionTagStructureXml());
  if (!ts.ok()) {
    state.SkipWithError(ts.status().ToString().c_str());
    return;
  }
  xcql::stream::StreamServer source("auction", std::move(ts).MoveValue());
  if (compressed) source.EnableWireCompression();
  xcql::net::FragmentServerOptions server_opts;
  server_opts.queue_capacity = 2048;
  xcql::net::FragmentServer server(&source, server_opts);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  xcql::net::FragmentSubscriberOptions sub_opts;
  sub_opts.port = server.port();
  sub_opts.stream = "auction";
  sub_opts.codec = compressed ? xcql::frag::WireCodec::kTagCompressed
                              : xcql::frag::WireCodec::kPlainXml;
  xcql::net::FragmentSubscriber sub(sub_opts);
  if (!sub.Start().ok() || !sub.WaitConnected(10s)) {
    state.SkipWithError("subscriber failed to connect");
    return;
  }

  xcql::xmark::XMarkOptions gen;
  gen.scale = scale;
  auto doc = xcql::xmark::GenerateAuctionDoc(gen);
  if (!doc.ok() || !source.PublishDocument(*doc.value()).ok()) {
    state.SkipWithError("document publish failed");
    return;
  }
  const int64_t doc_frags = source.history_size();
  sub.WaitForSeq(server.next_seq() - 1, 60s);

  // Updates replace random fragmented fillers of the initial document.
  std::vector<int64_t> candidates;
  for (int64_t i = 0; i < doc_frags; ++i) {
    const auto* tag =
        source.tag_structure().FindById(source.history_at(i).tsid);
    if (tag != nullptr && tag->fragmented()) candidates.push_back(i);
  }
  xcql::Random rng(5);
  int64_t t = source.history_at(doc_frags - 1).valid_time.seconds();
  int rev = 0;

  constexpr int kBatch = 200;
  std::vector<xcql::frag::Fragment> sink;
  for (auto _ : state) {
    const int64_t target = server.next_seq() + kBatch - 1;
    for (int k = 0; k < kBatch; ++k) {
      const auto& base = source.history_at(static_cast<int64_t>(
          candidates[rng.Uniform(candidates.size())]));
      xcql::frag::Fragment f;
      f.id = base.id;
      f.tsid = base.tsid;
      t += 1 + static_cast<int64_t>(rng.Uniform(30));
      f.valid_time = xcql::DateTime(t);
      f.content = base.content->Clone();
      f.content->SetAttr("rev", std::to_string(++rev));
      if (!source.Publish(std::move(f)).ok()) {
        state.SkipWithError("publish failed");
        return;
      }
    }
    if (!sub.WaitForSeq(target, 60s)) {
      state.SkipWithError("subscriber fell behind");
      return;
    }
    sink.clear();
    sub.Drain(&sink);
  }

  state.SetItemsProcessed(state.iterations() * kBatch);
  auto m = sub.metrics();
  if (m.fragments_in > 0) {
    state.counters["wire_bytes_per_frag"] =
        static_cast<double>(m.bytes_in) /
        static_cast<double>(m.fragments_in);
  }
  state.counters["doc_fragments"] = static_cast<double>(doc_frags);
  sub.Stop();
  server.Stop();
}

void CollectHoleIds(const xcql::Node& n, std::vector<int64_t>* out) {
  if (xcql::frag::IsHoleElement(n)) {
    auto id = xcql::frag::HoleId(n);
    if (id.ok()) out->push_back(id.value());
    return;
  }
  for (const auto& c : n.children()) CollectHoleIds(*c, out);
}

// Same pipeline as BM_Transport, but routed through a ChaosLink that drops
// and corrupts data-plane frames at the configured loss rate. The timed
// loop measures end-to-end recovery: every published batch must fully
// arrive despite faults (via CRC rejection, reconnect + REPLAY_FROM, and
// heartbeat-lag catch-up). After the loop, two fillers are withheld from
// the local store and recovered via the NACK/repeat path; the repair
// round-trip is reported as `repair_ms`.
void BM_TransportChaos(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 1000.0;

  auto ts = xcql::frag::TagStructure::Parse(
      xcql::xmark::AuctionTagStructureXml());
  auto store_ts = xcql::frag::TagStructure::Parse(
      xcql::xmark::AuctionTagStructureXml());
  if (!ts.ok() || !store_ts.ok()) {
    state.SkipWithError(ts.status().ToString().c_str());
    return;
  }
  xcql::stream::StreamServer source("auction", std::move(ts).MoveValue());
  source.EnableWireCompression();
  xcql::net::FragmentServerOptions server_opts;
  server_opts.queue_capacity = 4096;
  server_opts.heartbeat_interval = std::chrono::milliseconds(100);
  xcql::net::FragmentServer server(&source, server_opts);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  xcql::net::ChaosLinkOptions chaos_opts;
  chaos_opts.upstream_port = server.port();
  chaos_opts.seed = 42 + static_cast<uint64_t>(state.range(0));
  chaos_opts.faults.drop = loss / 2;
  chaos_opts.faults.corrupt = loss / 2;
  xcql::net::ChaosLink chaos(chaos_opts);
  if (!chaos.Start().ok()) {
    state.SkipWithError("chaos link failed to start");
    return;
  }

  xcql::net::FragmentSubscriberOptions sub_opts;
  sub_opts.port = chaos.port();
  sub_opts.stream = "auction";
  sub_opts.codec = xcql::frag::WireCodec::kTagCompressed;
  sub_opts.backoff_initial = std::chrono::milliseconds(10);
  sub_opts.backoff_max = std::chrono::milliseconds(200);
  sub_opts.repair_retry_interval = std::chrono::milliseconds(25);
  sub_opts.repair_retry_budget = 100;
  xcql::net::FragmentSubscriber sub(sub_opts);
  if (!sub.Start().ok() || !sub.WaitConnected(10s)) {
    state.SkipWithError("subscriber failed to connect");
    return;
  }

  xcql::xmark::XMarkOptions gen;
  gen.scale = 0.0;
  auto doc = xcql::xmark::GenerateAuctionDoc(gen);
  if (!doc.ok() || !source.PublishDocument(*doc.value()).ok()) {
    state.SkipWithError("document publish failed");
    return;
  }
  const int64_t doc_frags = source.history_size();
  if (!sub.WaitForSeq(server.next_seq() - 1, 60s)) {
    state.SkipWithError("initial document never converged");
    return;
  }

  // Two hole referents become NACK-repair victims: withheld from the local
  // store and excluded from the update workload (repair is filler-id
  // granular, so a victim must be recoverable in one repeat).
  std::vector<int64_t> hole_ids;
  for (int64_t i = 0; i < doc_frags; ++i) {
    CollectHoleIds(*source.history_at(i).content, &hole_ids);
  }
  std::sort(hole_ids.begin(), hole_ids.end());
  hole_ids.erase(std::unique(hole_ids.begin(), hole_ids.end()),
                 hole_ids.end());
  if (hole_ids.size() < 2) {
    state.SkipWithError("document too small for repair victims");
    return;
  }
  const std::vector<int64_t> victims(hole_ids.begin(),
                                     hole_ids.begin() + 2);
  auto is_victim = [&](int64_t id) {
    return std::find(victims.begin(), victims.end(), id) != victims.end();
  };

  xcql::frag::FragmentStore store(std::move(store_ts).MoveValue(),
                                  "auction");
  std::vector<xcql::frag::Fragment> sink;
  auto drain_filtered = [&] {
    sink.clear();
    sub.Drain(&sink);
    for (auto& f : sink) {
      if (!is_victim(f.id)) (void)store.Insert(std::move(f));
    }
  };
  drain_filtered();

  std::vector<int64_t> candidates;
  for (int64_t i = 0; i < doc_frags; ++i) {
    const auto& base = source.history_at(i);
    const auto* tag = source.tag_structure().FindById(base.tsid);
    if (tag != nullptr && tag->fragmented() && !is_victim(base.id)) {
      candidates.push_back(i);
    }
  }
  xcql::Random rng(7);
  int64_t t = source.history_at(doc_frags - 1).valid_time.seconds();
  int rev = 0;

  constexpr int kBatch = 100;
  for (auto _ : state) {
    const int64_t target = server.next_seq() + kBatch - 1;
    for (int k = 0; k < kBatch; ++k) {
      const auto& base = source.history_at(static_cast<int64_t>(
          candidates[rng.Uniform(candidates.size())]));
      xcql::frag::Fragment f;
      f.id = base.id;
      f.tsid = base.tsid;
      t += 1 + static_cast<int64_t>(rng.Uniform(30));
      f.valid_time = xcql::DateTime(t);
      f.content = base.content->Clone();
      f.content->SetAttr("rev", std::to_string(++rev));
      if (!source.Publish(std::move(f)).ok()) {
        state.SkipWithError("publish failed");
        return;
      }
    }
    if (!sub.WaitForSeq(target, 60s)) {
      state.SkipWithError("subscriber never recovered the batch");
      return;
    }
    drain_filtered();
  }

  // NACK-repair round-trip: the store is missing exactly the victims;
  // sweep until the repeats land.
  const auto repair_start = std::chrono::steady_clock::now();
  const auto repair_deadline = repair_start + 30s;
  while (!store.MissingFillers().empty() &&
         std::chrono::steady_clock::now() < repair_deadline) {
    auto sweep = sub.RepairMissing(store);
    if (!sweep.ok()) {
      state.SkipWithError(sweep.status().ToString().c_str());
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    (void)sub.DrainInto(&store);
  }
  const double repair_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - repair_start)
          .count();
  if (!store.MissingFillers().empty()) {
    state.SkipWithError("repair never converged");
    return;
  }
  // One more sweep so the repaired fillers are accounted (a filler counts
  // as repaired on the first sweep that finds it no longer missing).
  (void)sub.RepairMissing(store);

  state.SetItemsProcessed(state.iterations() * kBatch);
  auto m = sub.metrics();
  auto cs = chaos.stats();
  state.counters["repair_ms"] = repair_ms;
  state.counters["fillers_repaired"] = static_cast<double>(
      m.fillers_repaired);
  state.counters["nacks_sent"] = static_cast<double>(m.nacks_sent);
  state.counters["reconnects"] = static_cast<double>(m.reconnects);
  state.counters["frames_corrupt"] = static_cast<double>(m.frames_corrupt);
  state.counters["catchup_replays"] = static_cast<double>(
      m.catchup_replays);
  state.counters["faults_injected"] = static_cast<double>(
      cs.dropped + cs.duplicated + cs.reordered + cs.corrupted +
      cs.truncated);
  sub.Stop();
  chaos.Stop();
  server.Stop();
}

// The --restart scenario (select with --benchmark_filter=Restart):
// crash/recovery latency of a WAL-backed server. Each timed iteration
// publishes a batch (durable, fsync=always), kills the server before the
// subscriber has converged, recovers the stream from disk (Wal::Open
// replay + RestoreStream), restarts on the same port, and waits until the
// subscriber's reconnect + REPLAY_FROM has caught back up to the pre-kill
// frontier. With fsync=always the on-disk state after Close() is
// byte-identical to a SIGKILL taken after the final append, so this
// measures the crash path without forking. `recover_ms` / `catchup_ms`
// split the cycle; `wal_records` is the history length the final recovery
// replayed (growing each iteration — checkpoints bound the replayed tail).
void BM_TransportRestart(benchmark::State& state) {
  const int64_t checkpoint_every = state.range(0);

  char tmpl[] = "/tmp/xcql_bench_wal_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const std::string root = tmpl;
  const std::string dir = root + "/wal";
  const std::string ts_xml = xcql::xmark::AuctionTagStructureXml();

  xcql::net::WalOptions wal_opts;
  wal_opts.fsync = xcql::net::FsyncPolicy::kAlways;
  wal_opts.checkpoint_every = checkpoint_every;

  struct Life {
    std::unique_ptr<xcql::net::Wal> wal;
    std::unique_ptr<xcql::stream::StreamServer> source;
    std::unique_ptr<xcql::net::FragmentServer> server;
  };
  auto start_life = [&](uint16_t port, xcql::net::WalRecovery* rec) {
    Life life;
    auto wal = xcql::net::Wal::Open(dir, "auction", ts_xml, wal_opts, rec);
    if (!wal.ok()) return life;
    life.wal = std::move(wal).MoveValue();
    auto ts = xcql::frag::TagStructure::Parse(ts_xml);
    if (!ts.ok()) return Life{};
    life.source = std::make_unique<xcql::stream::StreamServer>(
        "auction", std::move(ts).MoveValue());
    if (!rec->records.empty() &&
        !xcql::net::RestoreStream(*rec, life.source.get()).ok()) {
      return Life{};
    }
    xcql::net::FragmentServerOptions server_opts;
    server_opts.port = port;
    server_opts.queue_capacity = 4096;
    server_opts.wal = life.wal.get();
    life.server = std::make_unique<xcql::net::FragmentServer>(
        life.source.get(), server_opts);
    if (!life.server->Start().ok()) return Life{};
    return life;
  };

  xcql::net::WalRecovery rec;
  Life life = start_life(0, &rec);
  if (!life.server) {
    state.SkipWithError("initial life failed to start");
    return;
  }
  const uint16_t port = life.server->port();

  xcql::net::FragmentSubscriberOptions sub_opts;
  sub_opts.port = port;
  sub_opts.stream = "auction";
  sub_opts.backoff_initial = std::chrono::milliseconds(10);
  sub_opts.backoff_max = std::chrono::milliseconds(100);
  xcql::net::FragmentSubscriber sub(sub_opts);
  if (!sub.Start().ok() || !sub.WaitConnected(10s)) {
    state.SkipWithError("subscriber failed to connect");
    return;
  }

  xcql::xmark::XMarkOptions gen;
  gen.scale = 0.0;
  auto doc = xcql::xmark::GenerateAuctionDoc(gen);
  if (!doc.ok() || !life.source->PublishDocument(*doc.value()).ok()) {
    state.SkipWithError("document publish failed");
    return;
  }
  const int64_t doc_frags = life.source->history_size();
  if (!sub.WaitForSeq(life.server->next_seq() - 1, 60s)) {
    state.SkipWithError("initial document never converged");
    return;
  }

  std::vector<int64_t> candidates;
  for (int64_t i = 0; i < doc_frags; ++i) {
    const auto* tag = life.source->tag_structure().FindById(
        life.source->history_at(i).tsid);
    if (tag != nullptr && tag->fragmented()) candidates.push_back(i);
  }
  xcql::Random rng(11);
  int64_t t = life.source->history_at(doc_frags - 1).valid_time.seconds();
  int rev = 0;

  constexpr int kBatch = 200;
  double recover_ms_total = 0;
  double catchup_ms_total = 0;
  int64_t wal_records = 0;
  std::vector<xcql::frag::Fragment> sink;
  for (auto _ : state) {
    for (int k = 0; k < kBatch; ++k) {
      const auto& base = life.source->history_at(static_cast<int64_t>(
          candidates[rng.Uniform(candidates.size())]));
      xcql::frag::Fragment f;
      f.id = base.id;
      f.tsid = base.tsid;
      t += 1 + static_cast<int64_t>(rng.Uniform(30));
      f.valid_time = xcql::DateTime(t);
      f.content = base.content->Clone();
      f.content->SetAttr("rev", std::to_string(++rev));
      if (!life.source->Publish(std::move(f)).ok()) {
        state.SkipWithError("publish failed");
        return;
      }
    }
    // Kill the server with the batch durable but (mostly) undelivered.
    const int64_t frontier = life.server->next_seq() - 1;
    life.server->Stop();
    life.server.reset();
    life.source.reset();
    (void)life.wal->Close();
    life.wal.reset();

    const auto t0 = std::chrono::steady_clock::now();
    rec = xcql::net::WalRecovery();
    life = start_life(port, &rec);
    if (!life.server) {
      state.SkipWithError("recovered life failed to start");
      return;
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (!sub.WaitForSeq(frontier, 60s)) {
      state.SkipWithError("subscriber never caught up after restart");
      return;
    }
    const auto t2 = std::chrono::steady_clock::now();
    recover_ms_total +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    catchup_ms_total +=
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    wal_records = static_cast<int64_t>(rec.records.size());
    if (rec.report.torn_tail) {
      state.SkipWithError("unexpected torn tail on a synced close");
      return;
    }
    sink.clear();
    sub.Drain(&sink);
  }

  state.SetItemsProcessed(state.iterations() * kBatch);
  const double iters = static_cast<double>(state.iterations());
  state.counters["recover_ms"] = recover_ms_total / iters;
  state.counters["catchup_ms"] = catchup_ms_total / iters;
  state.counters["wal_records"] = static_cast<double>(wal_records);
  state.counters["reconnects"] =
      static_cast<double>(sub.metrics().reconnects);
  state.counters["epoch_resets"] =
      static_cast<double>(sub.metrics().epoch_resets);

  sub.Stop();
  if (life.server) life.server->Stop();
  life.server.reset();
  life.source.reset();
  if (life.wal) (void)life.wal->Close();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

// The remote-query ablation (protocol v3): one continuous query, eight
// consumers. server_side=1 registers the query once in the server's
// QueryChannel — one evaluation per tick, RESULT frames fanned out —
// while each subscriber merely decodes deltas. server_side=0 is the
// pre-v3 architecture: every subscriber pulls the raw fragment stream
// and runs its own ContinuousQueryEngine, so the same query evaluates
// eight times per tick. Each timed iteration publishes a batch and waits
// until all eight consumers hold the batch's full delta stream; the gap
// between the two modes is the evaluate-once dividend.
void BM_TransportQueryFanout(benchmark::State& state) {
  const bool server_side = state.range(0) != 0;
  constexpr int kSubs = 8;
  constexpr int kBatch = 100;
  constexpr const char* kTs = R"(
<tag type="snapshot" id="1" name="packets">
  <tag type="event" id="2" name="packet">
    <tag type="snapshot" id="3" name="id"/>
    <tag type="snapshot" id="4" name="srcIP"/>
  </tag>
</tag>)";
  constexpr const char* kQuery =
      "for $p in stream(\"pkts\")//packet return string($p/id)";

  auto parse_ts = [&] {
    auto r = xcql::frag::TagStructure::Parse(kTs);
    return std::move(r).MoveValue();
  };
  xcql::stream::StreamServer source("pkts", parse_ts());
  xcql::net::QueryChannel channel("pkts", parse_ts());
  if (!channel.Open().ok()) {
    state.SkipWithError("channel failed to open");
    return;
  }
  xcql::net::FragmentServerOptions server_opts;
  server_opts.queue_capacity = 4096;
  if (server_side) server_opts.query_channel = &channel;
  xcql::net::FragmentServer server(&source, server_opts);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  // Client-side consumers each own a full local engine; server-side ones
  // only track their remote token.
  struct Consumer {
    std::unique_ptr<xcql::net::FragmentSubscriber> sub;
    uint32_t token = 0;
    // client-side only:
    std::unique_ptr<xcql::stream::StreamHub> hub;
    std::unique_ptr<xcql::stream::SimClock> clock;
    std::unique_ptr<xcql::stream::ContinuousQueryEngine> engine;
    xcql::frag::FragmentStore* store = nullptr;
    int64_t deltas = 0;
  };
  std::vector<Consumer> consumers(kSubs);
  for (auto& c : consumers) {
    xcql::net::FragmentSubscriberOptions sub_opts;
    sub_opts.port = server.port();
    sub_opts.stream = "pkts";
    c.sub = std::make_unique<xcql::net::FragmentSubscriber>(sub_opts);
    if (server_side) {
      xcql::net::RemoteQuerySpec spec;
      spec.text = kQuery;
      spec.method =
          static_cast<uint8_t>(xcql::lang::ExecMethod::kQaCPlus);
      auto token = c.sub->AddRemoteQuery(spec);
      if (!token.ok()) {
        state.SkipWithError("AddRemoteQuery failed");
        return;
      }
      c.token = token.value();
    } else {
      c.hub = std::make_unique<xcql::stream::StreamHub>();
      c.clock = std::make_unique<xcql::stream::SimClock>();
      auto store = c.hub->AddLocalStream("pkts", parse_ts());
      if (!store.ok()) {
        state.SkipWithError("AddLocalStream failed");
        return;
      }
      c.store = store.value();
      c.engine = std::make_unique<xcql::stream::ContinuousQueryEngine>(
          c.hub.get(), c.clock.get());
      auto* deltas = &c.deltas;
      auto id = c.engine->RegisterDelta(
          kQuery,
          [deltas](const xcql::xq::Sequence&,
                   const std::vector<std::string>&,
                   xcql::DateTime) { ++*deltas; },
          {});
      if (!id.ok()) {
        state.SkipWithError("RegisterDelta failed");
        return;
      }
    }
    if (!c.sub->Start().ok() || !c.sub->WaitConnected(10s)) {
      state.SkipWithError("subscriber failed to connect");
      return;
    }
    if (server_side && !c.sub->WaitQueryActive(c.token, 10s)) {
      state.SkipWithError("remote query never activated");
      return;
    }
  }

  // Root first, so packet fillers splice under it; it emits no delta.
  xcql::frag::Fragment root;
  root.id = 0;
  root.tsid = 1;
  root.valid_time = xcql::DateTime(999);
  root.content = xcql::Node::Element("packets");
  if (!source.Publish(std::move(root)).ok()) {
    state.SkipWithError("root publish failed");
    return;
  }

  xcql::Random rng(13);
  int64_t t = 1000;
  int next_val = 0;
  std::vector<xcql::frag::Fragment> sink;
  std::vector<xcql::net::RemoteQueryResult> results;
  for (auto _ : state) {
    for (int k = 0; k < kBatch; ++k) {
      xcql::frag::Fragment f;
      f.id = 1 + static_cast<int64_t>(rng.Uniform(16));
      f.tsid = 2;
      t += 1 + static_cast<int64_t>(rng.Uniform(9));
      f.valid_time = xcql::DateTime(t);
      f.content = xcql::Node::Element("packet");
      xcql::NodePtr pid = xcql::Node::Element("id");
      pid->AddChild(xcql::Node::Text(std::to_string(++next_val)));
      f.content->AddChild(std::move(pid));
      if (!source.Publish(std::move(f)).ok()) {
        state.SkipWithError("publish failed");
        return;
      }
    }
    // Every distinct packet value is one delta; the root tick emits none.
    const int64_t result_target = next_val - 1;
    const int64_t frag_target = server.next_seq() - 1;
    for (auto& c : consumers) {
      if (server_side) {
        if (!c.sub->WaitForResultSeq(c.token, result_target, 60s)) {
          state.SkipWithError("result stream fell behind");
          return;
        }
        results.clear();
        c.sub->DrainResults(&results);
      } else {
        if (!c.sub->WaitForSeq(frag_target, 60s)) {
          state.SkipWithError("fragment stream fell behind");
          return;
        }
        sink.clear();
        c.sub->Drain(&sink);
        for (auto& f : sink) {
          c.hub->OnFragment("pkts", f);
          c.clock->AdvanceTo(c.store->max_valid_time());
          if (!c.engine->Tick().ok()) {
            state.SkipWithError("client tick failed");
            return;
          }
        }
        if (c.deltas != next_val) {
          state.SkipWithError("client-side delta stream diverged");
          return;
        }
      }
    }
  }

  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["subscribers"] = kSubs;
  if (server_side) {
    // One evaluation's frames, fanned out: log size vs frames sent.
    state.counters["result_frames_logged"] =
        static_cast<double>(channel.stats().result_frames);
    state.counters["result_frames_sent"] =
        static_cast<double>(server.metrics().result_frames_out);
  } else {
    int64_t evals = 0;
    for (auto& c : consumers) evals += c.engine->evaluations();
    state.counters["client_evaluations"] = static_cast<double>(evals);
  }
  for (auto& c : consumers) c.sub->Stop();
  server.Stop();
}

// ---- Retention (bounded-memory forever-run) --------------------------------
//
// The same publish→deliver pipeline with the retention driver active
// (docs/RETENTION.md): a registered continuous query with a sliding
// 600-second observable window, a frame-count window on the log, version
// windows on the fragment stores, and bounded result logs. retain_frames=0
// is the unbounded baseline. The emitted counters land in
// BENCH_transport.json: `frame_log_bytes` / `fragment_store_bytes` /
// `retention_floor_seq` show the steady state, `frames_retired` /
// `result_log_trimmed` the cumulative GC volume.

constexpr const char* kRetentionTs = R"(
<tag type="snapshot" id="1" name="packets">
  <tag type="event" id="2" name="packet">
    <tag type="snapshot" id="3" name="id"/>
  </tag>
</tag>)";
// Sliding window: the projection's static lower bound (now - 600s) is what
// lang::AnalyzeRelevance turns into the query's observable window, so
// retention may compact everything older.
constexpr const char* kRetentionQuery =
    "for $p in stream(\"pkts\")//packet?[now - \"PT600S\", now] "
    "return string($p/id)";

xcql::frag::TagStructure ParseRetentionTs() {
  auto r = xcql::frag::TagStructure::Parse(kRetentionTs);
  return std::move(r).MoveValue();
}

void BM_TransportRetention(benchmark::State& state) {
  const int64_t retain_frames = state.range(0);
  constexpr int kBatch = 256;

  xcql::stream::StreamServer source("pkts", ParseRetentionTs());
  xcql::net::QueryChannel channel("pkts", ParseRetentionTs());
  if (!channel.Open().ok()) {
    state.SkipWithError("channel failed to open");
    return;
  }
  xcql::net::FragmentServerOptions server_opts;
  server_opts.queue_capacity = 4096;
  server_opts.query_channel = &channel;
  if (retain_frames > 0) {
    server_opts.retention.max_frames = retain_frames;
    server_opts.retention.max_versions = 4;
    server_opts.retention.max_results = 512;
    server_opts.retention.check_every = 64;
  }
  xcql::net::FragmentServer server(&source, server_opts);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  xcql::net::FragmentSubscriberOptions sub_opts;
  sub_opts.port = server.port();
  sub_opts.stream = "pkts";
  xcql::net::FragmentSubscriber sub(sub_opts);
  xcql::net::RemoteQuerySpec spec;
  spec.text = kRetentionQuery;
  spec.method = static_cast<uint8_t>(xcql::lang::ExecMethod::kQaCPlus);
  auto token = sub.AddRemoteQuery(spec);
  if (!token.ok()) {
    state.SkipWithError("AddRemoteQuery failed");
    return;
  }
  if (!sub.Start().ok() || !sub.WaitConnected(10s)) {
    state.SkipWithError("subscriber failed to connect");
    return;
  }
  if (!sub.WaitQueryActive(token.value(), 10s)) {
    state.SkipWithError("remote query never activated");
    return;
  }

  xcql::frag::Fragment root;
  root.id = 0;
  root.tsid = 1;
  root.valid_time = xcql::DateTime(999);
  root.content = xcql::Node::Element("packets");
  if (!source.Publish(std::move(root)).ok()) {
    state.SkipWithError("root publish failed");
    return;
  }

  xcql::Random rng(17);
  int64_t t = 1000;
  int next_val = 0;
  std::vector<xcql::frag::Fragment> sink;
  std::vector<xcql::net::RemoteQueryResult> results;
  for (auto _ : state) {
    const int64_t target = server.next_seq() + kBatch - 1;
    for (int k = 0; k < kBatch; ++k) {
      xcql::frag::Fragment f;
      f.id = 1 + static_cast<int64_t>(rng.Uniform(32));
      f.tsid = 2;
      t += 1 + static_cast<int64_t>(rng.Uniform(9));
      f.valid_time = xcql::DateTime(t);
      f.content = xcql::Node::Element("packet");
      xcql::NodePtr pid = xcql::Node::Element("id");
      pid->AddChild(xcql::Node::Text(std::to_string(++next_val)));
      f.content->AddChild(std::move(pid));
      if (!source.Publish(std::move(f)).ok()) {
        state.SkipWithError("publish failed");
        return;
      }
    }
    if (!sub.WaitForSeq(target, 60s)) {
      state.SkipWithError("subscriber fell behind");
      return;
    }
    sink.clear();
    sub.Drain(&sink);
    results.clear();
    sub.DrainResults(&results);
  }

  state.SetItemsProcessed(state.iterations() * kBatch);
  const auto m = server.metrics();
  state.counters["retain_frames"] = static_cast<double>(retain_frames);
  state.counters["retention_runs"] = static_cast<double>(m.retention_runs);
  state.counters["frames_retired"] = static_cast<double>(m.frames_retired);
  state.counters["fragments_compacted"] =
      static_cast<double>(m.fragments_compacted);
  state.counters["result_log_trimmed"] =
      static_cast<double>(m.result_log_trimmed);
  state.counters["retention_floor_seq"] =
      static_cast<double>(m.retention_floor_seq);
  state.counters["frame_log_bytes"] =
      static_cast<double>(m.frame_log_bytes);
  state.counters["fragment_store_bytes"] =
      static_cast<double>(m.fragment_store_bytes);
  state.counters["expired_out"] = static_cast<double>(m.expired_out);
  sub.Stop();
  server.Stop();
}

// ---- Event-loop fan-out ----------------------------------------------------
//
// One publisher, `conns` raw framed-TCP subscribers serviced by a single
// bench-side EventLoop. The real FragmentSubscriber spins one thread per
// instance — which is exactly the architecture the server-side event loop
// replaced; mirroring it at 10k clients would bench the client threads,
// not the server. A raw client instead pipelines its whole handshake
// (HELLO + SUBSCRIBE + REPLAY_FROM(-1), processed in arrival order) into
// one blocking write, then goes non-blocking and only tracks the
// contiguous prefix: FRAGMENT seqs plus SKIP_TO advances.
//
// filtered=1 is the disjoint-slice scenario: client i subscribes exactly
// one of the 64 event tsids, so every published frame is delivered to
// conns/64 clients and suppressed (covered by SKIP_TO runs) for the rest.
// Either way the server must encode each published fragment exactly once
// (`encodes_per_pub` is asserted == 1) and every (client, frame) pair must
// be accounted delivered-or-filtered; the filtered rows show the
// delivery-bytes dividend in `wire_mb`.

constexpr int kFanTsids = 64;

std::string FanTagStructureXml() {
  std::string xml = "<tag type=\"snapshot\" id=\"1\" name=\"fan\">\n";
  for (int i = 0; i < kFanTsids; ++i) {
    xml += "  <tag type=\"event\" id=\"" + std::to_string(2 + i) +
           "\" name=\"t" + std::to_string(i) + "\"/>\n";
  }
  xml += "</tag>";
  return xml;
}

// Raises the soft fd limit toward the hard one; false when even that
// cannot cover `needed`.
bool EnsureFdLimit(rlim_t needed) {
  struct rlimit rl {};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return false;
  if (rl.rlim_cur >= needed) return true;
  rl.rlim_cur =
      rl.rlim_max == RLIM_INFINITY ? needed : std::min(rl.rlim_max, needed);
  if (::setrlimit(RLIMIT_NOFILE, &rl) != 0) return false;
  return rl.rlim_cur >= needed;
}

struct FanClient {
  int fd = -1;
  xcql::net::FrameReader reader;
  int64_t last_seq = -1;     // contiguous prefix: data frames + skips
  int64_t data_frames = 0;   // FRAGMENT frames received
  int64_t bytes_in = 0;
};

class FanOutHarness {
 public:
  ~FanOutHarness() {
    for (auto& c : clients_) {
      if (c->fd >= 0) {
        loop_.Remove(c->fd);
        ::close(c->fd);
      }
    }
    clients_.clear();
    if (server_) server_->Stop();
  }

  // Empty string on success, the failure reason otherwise (throughout).
  std::string Setup(int conns, bool filtered) {
    auto ts = xcql::frag::TagStructure::Parse(FanTagStructureXml());
    if (!ts.ok()) return ts.status().ToString();
    source_ = std::make_unique<xcql::stream::StreamServer>(
        "fan", std::move(ts).MoveValue());
    xcql::net::FragmentServerOptions opts;
    // Must exceed the largest batch: the bench thread alternates between
    // publishing and draining clients, so kBlock must never engage (it
    // would deadlock against the drain that only this thread performs).
    opts.queue_capacity = 4096;
    // Relaxed at scale: idle heartbeats are per-connection encode+send
    // work on the one loop thread, and even 250ms x 8k connections (32k
    // frames/s) starves accepts during setup. The batch drain does not
    // rely on heartbeats — SKIP_TO tails flush on their own (much
    // shorter) skip_flush_interval cadence.
    opts.heartbeat_interval =
        std::chrono::milliseconds(conns >= 1024 ? 5000 : 25);
    opts.skip_flush_interval = std::chrono::milliseconds(20);
    server_ =
        std::make_unique<xcql::net::FragmentServer>(source_.get(), opts);
    if (auto s = server_->Start(); !s.ok()) return s.ToString();
    // Client and server share this process, so every connection costs two
    // fds (the client socket and the server's accepted one).
    if (!EnsureFdLimit(2 * static_cast<rlim_t>(conns) + 128)) {
      return "RLIMIT_NOFILE too low for " + std::to_string(conns) +
             " connections";
    }
    if (auto s = loop_.Init(); !s.ok()) return s.ToString();
    clients_.reserve(static_cast<size_t>(conns));
    for (int i = 0; i < conns; ++i) {
      auto err = ConnectClient(i, filtered);
      if (!err.empty()) {
        return "client " + std::to_string(i) + ": " + err;
      }
    }
    return "";
  }

  std::string PublishBatchAndWait(int batch, std::chrono::seconds timeout) {
    for (int k = 0; k < batch; ++k) {
      const int slot = static_cast<int>(published_ % kFanTsids);
      xcql::frag::Fragment f;
      f.id = 1'000'000 + published_;
      f.tsid = 2 + slot;
      f.valid_time = xcql::DateTime(1'000 + published_);
      f.content = xcql::Node::Element("t" + std::to_string(slot));
      f.content->AddChild(xcql::Node::Text(std::to_string(published_)));
      if (auto s = source_->Publish(std::move(f)); !s.ok()) {
        return s.ToString();
      }
      ++published_;
    }
    const int64_t target = server_->next_seq() - 1;
    size_t pending = 0;
    for (const auto& c : clients_) {
      if (c->last_seq < target) ++pending;
    }
    std::vector<xcql::net::LoopEvent> events;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (pending > 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        return std::to_string(pending) + " clients never reached seq " +
               std::to_string(target);
      }
      auto n = loop_.Wait(&events, 100);
      if (!n.ok()) return n.status().ToString();
      for (const auto& e : events) {
        auto* c = static_cast<FanClient*>(e.tag);
        if (c == nullptr) continue;
        const bool was_done = c->last_seq >= target;
        auto err = Service(c);
        if (!err.empty()) return err;
        if (!was_done && c->last_seq >= target) --pending;
      }
    }
    return "";
  }

  xcql::net::MetricsSnapshot server_metrics() const {
    return server_->metrics();
  }
  int64_t published() const { return published_; }
  int64_t delivered() const {
    int64_t n = 0;
    for (const auto& c : clients_) n += c->data_frames;
    return n;
  }
  int64_t conns() const { return static_cast<int64_t>(clients_.size()); }

 private:
  std::string ConnectClient(int index, bool filtered) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return std::string("socket: ") + std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return "connect: " + err;
    }
    xcql::net::Hello hello;
    hello.stream_name = "fan";
    xcql::net::Frame h;
    h.type = xcql::net::FrameType::kHello;
    h.payload = xcql::net::EncodeHello(hello);
    auto out = xcql::net::EncodeFrame(h);
    if (!out.ok()) {
      ::close(fd);
      return out.status().ToString();
    }
    std::string bytes = std::move(out).MoveValue();
    if (filtered) {
      xcql::net::Frame sub;
      sub.type = xcql::net::FrameType::kSubscribe;
      sub.payload = xcql::net::EncodeSubscribe({2 + index % kFanTsids});
      auto enc = xcql::net::EncodeFrame(sub);
      if (!enc.ok()) {
        ::close(fd);
        return enc.status().ToString();
      }
      bytes += enc.value();
    }
    xcql::net::Frame replay;
    replay.type = xcql::net::FrameType::kReplayFrom;
    replay.payload = xcql::net::EncodeReplayFrom(-1);
    auto enc = xcql::net::EncodeFrame(replay);
    if (!enc.ok()) {
      ::close(fd);
      return enc.status().ToString();
    }
    bytes += enc.value();
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        ::close(fd);
        return "handshake send failed";
      }
      off += static_cast<size_t>(n);
    }
    const int fl = ::fcntl(fd, F_GETFL, 0);
    if (fl < 0 || ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) != 0) {
      ::close(fd);
      return "fcntl(O_NONBLOCK) failed";
    }
    auto c = std::make_unique<FanClient>();
    c->fd = fd;
    if (auto s = loop_.Add(fd, c.get(), /*want_read=*/true,
                           /*want_write=*/false);
        !s.ok()) {
      ::close(fd);
      return s.ToString();
    }
    clients_.push_back(std::move(c));
    return "";
  }

  std::string Service(FanClient* c) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n == 0) return "server closed a fan-out connection";
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return "";
        if (errno == EINTR) continue;
        return std::string("recv: ") + std::strerror(errno);
      }
      c->bytes_in += n;
      c->reader.Feed(buf, static_cast<size_t>(n));
      for (;;) {
        auto next = c->reader.Next();
        if (!next.ok()) return next.status().ToString();
        auto frame = std::move(next).MoveValue();
        if (!frame.has_value()) break;
        if (!frame->crc_ok) return "corrupt frame on loopback";
        if (frame->type == xcql::net::FrameType::kFragment) {
          ++c->data_frames;
          if (static_cast<int64_t>(frame->seq) > c->last_seq) {
            c->last_seq = static_cast<int64_t>(frame->seq);
          }
        } else if (frame->type == xcql::net::FrameType::kSkipTo) {
          if (static_cast<int64_t>(frame->seq) > c->last_seq) {
            c->last_seq = static_cast<int64_t>(frame->seq);
          }
        }
      }
    }
  }

  std::unique_ptr<xcql::stream::StreamServer> source_;
  std::unique_ptr<xcql::net::FragmentServer> server_;
  xcql::net::EventLoop loop_;
  std::vector<std::unique_ptr<FanClient>> clients_;
  int64_t published_ = 0;
};

void BM_TransportFanOut(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  const bool filtered = state.range(1) != 0;
  constexpr int kBatch = 512;

  FanOutHarness harness;
  if (auto err = harness.Setup(conns, filtered); !err.empty()) {
    state.SkipWithError(err.c_str());
    return;
  }
  for (auto _ : state) {
    if (auto err = harness.PublishBatchAndWait(kBatch, 120s);
        !err.empty()) {
      state.SkipWithError(err.c_str());
      return;
    }
  }

  const auto m = harness.server_metrics();
  if (m.fragment_encodes != harness.published()) {
    state.SkipWithError(("encode-once violated: " +
                         std::to_string(m.fragment_encodes) +
                         " encodes for " +
                         std::to_string(harness.published()) + " publishes")
                            .c_str());
    return;
  }
  if (harness.delivered() + m.frames_filtered !=
      harness.conns() * harness.published()) {
    state.SkipWithError("fan-out conservation violated");
    return;
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["conns"] = static_cast<double>(conns);
  state.counters["filtered"] = filtered ? 1 : 0;
  state.counters["encodes_per_pub"] =
      static_cast<double>(m.fragment_encodes) /
      static_cast<double>(harness.published());
  state.counters["wire_mb"] = static_cast<double>(m.bytes_out) / 1e6;
  state.counters["frames_delivered"] =
      static_cast<double>(harness.delivered());
  state.counters["frames_filtered"] =
      static_cast<double>(m.frames_filtered);
  state.counters["skips_out"] = static_cast<double>(m.skips_out);
  state.counters["drops"] = static_cast<double>(m.drops);
}

// --fan-out-soak: a fast single-pass fan-out run with the encode-once and
// conservation assertions, for sanitizer CI where the full benchmark suite
// is too slow. Prints one parseable line and exits nonzero on violation.
int RunFanOutSoak(int conns) {
  constexpr int kBatch = 256;
  FanOutHarness harness;
  std::string err = harness.Setup(conns, /*filtered=*/true);
  for (int i = 0; err.empty() && i < 2; ++i) {
    err = harness.PublishBatchAndWait(kBatch, std::chrono::seconds(60));
  }
  const auto m = harness.server_metrics();
  if (err.empty() && m.fragment_encodes != harness.published()) {
    err = "encode-once violated";
  }
  if (err.empty() && harness.delivered() + m.frames_filtered !=
                         harness.conns() * harness.published()) {
    err = "fan-out conservation violated";
  }
  std::printf(
      "fan-out-soak conns=%d published=%lld encodes=%lld delivered=%lld "
      "filtered=%lld skips=%lld status=%s\n",
      conns, static_cast<long long>(harness.published()),
      static_cast<long long>(m.fragment_encodes),
      static_cast<long long>(harness.delivered()),
      static_cast<long long>(m.frames_filtered),
      static_cast<long long>(m.skips_out),
      err.empty() ? "ok" : err.c_str());
  return err.empty() ? 0 : 1;
}

// --soak-retention [N [rss_ceiling_mb]]: a single-pass bounded-memory
// soak for sanitizer CI. Publishes N event fragments through the full
// server pipeline (frame log + query channel with a registered
// sliding-window query) with retention windows active, samples VmRSS as
// it goes, and fails if the frame log outgrows its window or the peak
// RSS (after warmup) exceeds the ceiling. Prints one parseable line.
int64_t ReadRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int64_t kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::atoll(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

int RunRetentionSoak(int64_t publishes, int64_t rss_ceiling_mb) {
  constexpr int64_t kRetainFrames = 8192;
  constexpr int64_t kCheckEvery = 512;

  xcql::stream::StreamServer source("pkts", ParseRetentionTs());
  xcql::net::QueryChannel channel("pkts", ParseRetentionTs());
  std::string err;
  if (!channel.Open().ok()) err = "channel failed to open";
  if (err.empty()) {
    xcql::net::RemoteQuerySpec spec;
    spec.text = kRetentionQuery;
    spec.method = static_cast<uint8_t>(xcql::lang::ExecMethod::kQaCPlus);
    if (!channel.Register(spec).ok()) err = "query registration failed";
  }
  xcql::net::FragmentServerOptions server_opts;
  server_opts.queue_capacity = 4096;
  server_opts.query_channel = &channel;
  server_opts.retention.max_frames = kRetainFrames;
  server_opts.retention.max_versions = 4;
  server_opts.retention.max_results = 1024;
  server_opts.retention.max_age_s = 3600;
  server_opts.retention.check_every = kCheckEvery;
  xcql::net::FragmentServer server(&source, server_opts);
  if (err.empty() && !server.Start().ok()) err = "server failed to start";

  if (err.empty()) {
    xcql::frag::Fragment root;
    root.id = 0;
    root.tsid = 1;
    root.valid_time = xcql::DateTime(999);
    root.content = xcql::Node::Element("packets");
    if (!source.Publish(std::move(root)).ok()) err = "root publish failed";
  }

  xcql::Random rng(23);
  int64_t t = 1000;
  int64_t rss_peak_kb = 0;
  const int64_t warmup = publishes / 10;
  for (int64_t i = 0; err.empty() && i < publishes; ++i) {
    xcql::frag::Fragment f;
    f.id = 1 + static_cast<int64_t>(rng.Uniform(32));
    f.tsid = 2;
    t += 1 + static_cast<int64_t>(rng.Uniform(9));
    f.valid_time = xcql::DateTime(t);
    f.content = xcql::Node::Element("packet");
    xcql::NodePtr pid = xcql::Node::Element("id");
    pid->AddChild(xcql::Node::Text(std::to_string(i)));
    f.content->AddChild(std::move(pid));
    if (!source.Publish(std::move(f)).ok()) {
      err = "publish failed";
      break;
    }
    if ((i & 0xFFFF) == 0xFFFF || i + 1 == publishes) {
      const int64_t kb = ReadRssKb();
      if (i >= warmup && kb > rss_peak_kb) rss_peak_kb = kb;
      std::fprintf(stderr,
                   "soak-retention: %lld/%lld published, rss %lld MB, "
                   "floor %lld\n",
                   static_cast<long long>(i + 1),
                   static_cast<long long>(publishes),
                   static_cast<long long>(kb / 1024),
                   static_cast<long long>(server.log_base()));
    }
  }

  const auto m = server.metrics();
  const int64_t live_frames = server.next_seq() - server.log_base();
  if (err.empty() && live_frames > kRetainFrames + 2 * kCheckEvery) {
    err = "frame log outgrew its retention window";
  }
  if (err.empty() && m.frames_retired <= 0) {
    err = "retention never retired a frame";
  }
  if (err.empty() && rss_ceiling_mb > 0 &&
      rss_peak_kb > rss_ceiling_mb * 1024) {
    err = "rss ceiling exceeded";
  }
  std::printf(
      "retention-soak published=%lld retired=%lld compacted=%lld "
      "result_trimmed=%lld floor=%lld live_frames=%lld "
      "frame_log_bytes=%lld fragment_store_bytes=%lld rss_peak_mb=%lld "
      "status=%s\n",
      static_cast<long long>(publishes),
      static_cast<long long>(m.frames_retired),
      static_cast<long long>(m.fragments_compacted),
      static_cast<long long>(m.result_log_trimmed),
      static_cast<long long>(m.retention_floor_seq),
      static_cast<long long>(live_frames),
      static_cast<long long>(m.frame_log_bytes),
      static_cast<long long>(m.fragment_store_bytes),
      static_cast<long long>(rss_peak_kb / 1024),
      err.empty() ? "ok" : err.c_str());
  server.Stop();
  return err.empty() ? 0 : 1;
}

// --fault-disk [cycles]: the degrade/re-arm timing soak for sanitizer CI
// and BENCH_transport.json. A FaultyIoEnv under the WAL fails one fsync
// per cycle (a disk hiccup), which degrades durability mid-stream; the
// self-healing supervisor probes and re-arms into a fresh durable
// generation. Per cycle the run times fault→re-armed (`rearm_ms`) and
// re-arm→subscriber-reconverged (`reconverge_ms`), then asserts the full
// contract: every cycle re-armed, the subscriber holds every published
// seq, and no descriptor was ever fsync'd after a failed fsync. Prints
// one parseable line and exits nonzero on violation.
int RunDiskFaultSoak(int cycles) {
  constexpr int kBatch = 64;
  char tmpl[] = "/tmp/xcql_bench_fault_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::printf("disk-fault-soak status=mkdtemp-failed\n");
    return 1;
  }
  const std::string root = tmpl;
  const std::string dir = root + "/wal";

  xcql::FaultyIoEnv env(19);
  xcql::IoEnv::Install(&env);
  std::string err;
  double rearm_ms_total = 0;
  double reconverge_ms_total = 0;
  int64_t published = 0;
  xcql::net::MetricsSnapshot m;
  {
    xcql::net::WalRecovery rec;
    auto wal = xcql::net::Wal::Open(dir, "pkts", kRetentionTs,
                                    xcql::net::WalOptions{}, &rec);
    if (!wal.ok()) err = "wal open failed";
    xcql::stream::StreamServer source("pkts", ParseRetentionTs());
    xcql::net::FragmentServerOptions server_opts;
    server_opts.queue_capacity = 4096;
    if (err.empty()) server_opts.wal = wal.value().get();
    server_opts.durability.self_heal = true;
    server_opts.durability.probe_initial = std::chrono::milliseconds(5);
    server_opts.durability.probe_max = std::chrono::milliseconds(50);
    xcql::net::FragmentServer server(&source, server_opts);
    if (err.empty() && !server.Start().ok()) err = "server failed to start";

    xcql::net::FragmentSubscriberOptions sub_opts;
    sub_opts.port = server.port();
    sub_opts.stream = "pkts";
    sub_opts.backoff_initial = std::chrono::milliseconds(5);
    sub_opts.backoff_max = std::chrono::milliseconds(50);
    xcql::net::FragmentSubscriber sub(sub_opts);
    if (err.empty() && (!sub.Start().ok() ||
                        !sub.WaitConnected(std::chrono::seconds(10)))) {
      err = "subscriber failed to connect";
    }

    auto publish_one = [&](int64_t t) {
      xcql::frag::Fragment f;
      f.id = 1 + published % 32;
      f.tsid = 2;
      f.valid_time = xcql::DateTime(1000 + t);
      f.content = xcql::Node::Element("packet");
      xcql::NodePtr pid = xcql::Node::Element("id");
      pid->AddChild(xcql::Node::Text(std::to_string(published)));
      f.content->AddChild(std::move(pid));
      ++published;
      return source.Publish(std::move(f));
    };
    if (err.empty()) {
      xcql::frag::Fragment rootf;
      rootf.id = 0;
      rootf.tsid = 1;
      rootf.valid_time = xcql::DateTime(999);
      rootf.content = xcql::Node::Element("packets");
      if (!source.Publish(std::move(rootf)).ok()) err = "root publish failed";
    }
    for (int k = 0; err.empty() && k < kBatch; ++k) {
      if (!publish_one(published).ok()) err = "warmup publish failed";
    }
    if (err.empty() &&
        !sub.WaitForSeq(server.next_seq() - 1, std::chrono::seconds(30))) {
      err = "warmup never converged";
    }

    for (int cycle = 1; err.empty() && cycle <= cycles; ++cycle) {
      xcql::FaultRule rule;
      rule.path_prefix = dir + "/wal-";
      rule.op = xcql::IoOp::kFsync;
      rule.err = EIO;
      env.AddRule(rule);
      const auto t0 = std::chrono::steady_clock::now();
      if (!publish_one(published).ok()) {
        err = "faulted publish failed";
        break;
      }
      const auto deadline = t0 + std::chrono::seconds(30);
      while (server.metrics().durability_rearms < cycle &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (server.metrics().durability_rearms < cycle ||
          server.wal_degraded()) {
        err = "cycle " + std::to_string(cycle) + " never re-armed";
        break;
      }
      const auto t1 = std::chrono::steady_clock::now();
      for (int k = 0; k < kBatch; ++k) {
        if (!publish_one(published).ok()) {
          err = "post-rearm publish failed";
          break;
        }
      }
      if (!err.empty()) break;
      if (!sub.WaitForSeq(server.next_seq() - 1,
                          std::chrono::seconds(30))) {
        err = "cycle " + std::to_string(cycle) + " never reconverged";
        break;
      }
      const auto t2 = std::chrono::steady_clock::now();
      rearm_ms_total +=
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      reconverge_ms_total +=
          std::chrono::duration<double, std::milli>(t2 - t1).count();
    }

    m = server.metrics();
    if (err.empty() && m.durability_rearms != cycles) {
      err = "re-arm count mismatch";
    }
    if (err.empty() && env.fsync_retry_violations() != 0) {
      err = "fsyncgate violated: a failed fsync was retried";
    }
    const auto sm = sub.metrics();
    sub.Stop();
    server.Stop();
    if (wal.ok()) (void)wal.value()->Close();
    std::printf(
        "disk-fault-soak cycles=%d published=%lld rearms=%lld "
        "degraded_ms=%lld mean_rearm_ms=%.2f mean_reconverge_ms=%.2f "
        "epoch_resets=%lld fsync_retry_violations=%lld status=%s\n",
        cycles, static_cast<long long>(published),
        static_cast<long long>(m.durability_rearms),
        static_cast<long long>(m.degraded_ms_total),
        cycles > 0 ? rearm_ms_total / cycles : 0.0,
        cycles > 0 ? reconverge_ms_total / cycles : 0.0,
        static_cast<long long>(sm.epoch_resets),
        static_cast<long long>(env.fsync_retry_violations()),
        err.empty() ? "ok" : err.c_str());
  }
  xcql::IoEnv::Install(nullptr);
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return err.empty() ? 0 : 1;
}

}  // namespace

// scale_permille: XMark scale factor x1000 (0 = minimal document);
// compressed: 0 = plain XML payloads, 1 = §4.1 tag-compressed payloads.
// Fixed iteration count keeps the replayable frame log (which grows with
// every published update) bounded.
BENCHMARK(BM_Transport)
    ->ArgNames({"scale_permille", "compressed"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({50, 0})
    ->Args({50, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(8);

// loss_permille: per-frame fault rate x1000, split evenly between drops
// and CRC-detectable corruption (0 = clean link, 10 = 1% loss, 50 = 5%).
BENCHMARK(BM_TransportChaos)
    ->ArgNames({"loss_permille"})
    ->Args({0})
    ->Args({10})
    ->Args({50})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

// checkpoint_every: WAL auto-checkpoint cadence in records (0 = never —
// recovery replays the whole history; 200 = every batch — recovery is
// checkpoint + short tail).
BENCHMARK(BM_TransportRestart)
    ->ArgNames({"checkpoint_every"})
    ->Args({0})
    ->Args({200})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

// server_side: 1 = one QueryChannel evaluation fanned out as RESULT
// frames to 8 subscribers; 0 = 8 client-side engines each evaluating the
// same query over the raw fragment stream.
BENCHMARK(BM_TransportQueryFanout)
    ->ArgNames({"server_side"})
    ->Args({0})
    ->Args({1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

// conns: concurrent subscriber connections on one server event loop;
// filtered: 0 = every client takes the full stream, 1 = disjoint slices
// (client i subscribes exactly one of the 64 event tsids). Encode-once is
// asserted either way; comparing the two 1024 rows' `wire_mb` shows the
// filter's delivery-bytes dividend at identical publish volume.
BENCHMARK(BM_TransportFanOut)
    ->ArgNames({"conns", "filtered"})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({8192, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// retain_frames: frame-log count window (0 = retention off — the
// unbounded baseline). Fixed iteration count: with the window active the
// log, stores, and result logs reach steady state well inside it.
BENCHMARK(BM_TransportRetention)
    ->ArgNames({"retain_frames"})
    ->Args({0})
    ->Args({1024})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(12);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--fan-out-soak") {
      return RunFanOutSoak(256);
    }
    if (std::string(argv[i]) == "--fault-disk") {
      int cycles = 10;
      if (i + 1 < argc) cycles = std::atoi(argv[i + 1]);
      return RunDiskFaultSoak(cycles > 0 ? cycles : 10);
    }
    if (std::string(argv[i]) == "--soak-retention") {
      int64_t publishes = 1'000'000;
      int64_t ceiling_mb = 1024;
      if (i + 1 < argc) publishes = std::atoll(argv[i + 1]);
      if (i + 2 < argc) ceiling_mb = std::atoll(argv[i + 2]);
      return RunRetentionSoak(publishes > 0 ? publishes : 1'000'000,
                              ceiling_mb);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
