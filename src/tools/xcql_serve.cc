// xcql_serve — publish a historical XML stream over TCP.
//
// Loads a Tag Structure plus an initial document (or generates an XMark
// auction document), serves it on a port through net::FragmentServer, and
// optionally keeps publishing timed update fragments — new versions of
// randomly chosen temporal/event fillers — so subscribers see a live
// stream. Pair with xcql_tail.
//
//   xcql_serve --port 7788 --xmark 0.01 --updates 1000 --interval-ms 50
//   xcql_serve --port 7788 --stream credit --structure credit.ts.xml
//              --document credit.xml [--compress] [--policy drop]
//
// With any --fault-* flag the stream is served through a deterministic
// fault-injection proxy (net::ChaosLink) on --port, with the real server
// on an ephemeral port behind it — for exercising subscriber recovery
// (docs/ROBUSTNESS.md):
//
//   xcql_serve --port 7788 --xmark 0.005 --updates 500 \
//              --fault-drop 0.02 --fault-corrupt 0.02 --fault-seed 42
//
// With --data-dir the server is durable (docs/DURABILITY.md): published
// frames append to a write-ahead log before any subscriber sees them, and
// a restart replays checkpoint + WAL tail so the same stream resumes with
// the same sequence numbers and epoch:
//
//   xcql_serve --port 7788 --xmark 0.01 --data-dir /var/lib/xcql/auction \
//              --fsync interval --fsync-interval-ms 25 --checkpoint-every 512
//
// With --monitor the server also runs a continuous XCQL query over its own
// stream (a local mirror store fed by the publish path) and prints newly
// appearing results as updates go out — server-side monitoring without a
// subscriber process:
//
//   xcql_serve --port 7788 --xmark 0.01 --updates 200 \
//              --monitor 'count(stream("auction")//item)' \
//              [--monitor-method caq|qac|qac+] [--paper-faithful]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/io_env.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/stream_manager.h"
#include "net/chaos.h"
#include "net/query_channel.h"
#include "net/server.h"
#include "net/wal.h"
#include "stream/clock.h"
#include "stream/continuous.h"
#include "stream/registry.h"
#include "stream/transport.h"
#include "xmark/generator.h"
#include "xml/parser.h"

namespace {

struct ServeOptions {
  uint16_t port = 7788;
  std::string stream = "auction";
  std::string structure_file;
  std::string document_file;
  double xmark_scale = -1;
  int updates = 0;
  int interval_ms = 100;
  int serve_ms = 0;  // after updates finish: 0 = serve until killed
  bool compress = false;
  xcql::net::SlowConsumerPolicy policy =
      xcql::net::SlowConsumerPolicy::kBlock;
  size_t queue = 1024;
  xcql::net::ChaosFaults faults;
  uint64_t fault_seed = 1;
  bool any_fault = false;
  std::string data_dir;  // empty = in-memory (no durability)
  xcql::net::WalOptions wal;
  // Server-side continuous monitoring query (empty = none).
  std::string monitor;
  xcql::lang::ExecMethod monitor_method = xcql::lang::ExecMethod::kQaCPlus;
  // Paper-faithful cost model for the monitor query: linear filler scans
  // instead of the default hash-indexed lookup.
  bool paper_faithful = false;
  // Remote query channel: admission limits. --no-queries turns the
  // channel off entirely (every QUERY is answered with a rejection).
  bool queries = true;
  int max_queries = 64;
  int max_queries_per_conn = 8;
  // Retention (docs/RETENTION.md): bounded-memory forever-run. Any
  // --retain-* flag enables the retention driver, which compacts the
  // fragment stores, trims the frame log (after a covering WAL
  // checkpoint), and bounds the result logs in lockstep.
  xcql::net::RetentionOptions retention;
  // Self-healing durability (docs/DURABILITY.md): probe/re-arm after a
  // disk fault, plus disk-space watermarks on the data dir.
  xcql::net::DurabilityOptions durability;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--stream NAME]\n"
      "          (--structure FILE --document FILE | --xmark SCALE)\n"
      "          [--updates N] [--interval-ms M] [--serve-ms M]\n"
      "          [--compress] [--policy block|drop|disconnect] [--queue N]\n"
      "          [--fault-drop P] [--fault-dup P] [--fault-reorder P]\n"
      "          [--fault-corrupt P] [--fault-truncate P]\n"
      "          [--fault-delay-ms M] [--fault-seed S]\n"
      "          [--data-dir PATH] [--fsync always|interval|never]\n"
      "          [--fsync-interval-ms M] [--segment-bytes N]\n"
      "          [--checkpoint-every N]\n"
      "          [--monitor XCQL] [--monitor-method caq|qac|qac+]\n"
      "          [--paper-faithful]\n"
      "          [--no-queries] [--max-queries N] [--max-queries-per-conn N]\n"
      "          [--retain-age-s N] [--retain-versions N]\n"
      "          [--retain-frames N] [--retain-results N]\n"
      "          [--retain-interval N]\n"
      "          [--no-self-heal] [--probe-ms M] [--probe-max-ms M]\n"
      "          [--disk-soft BYTES] [--disk-hard BYTES]\n",
      argv0);
  return 2;
}

bool ParseMethod(const char* s, xcql::lang::ExecMethod* out) {
  if (std::strcmp(s, "caq") == 0) {
    *out = xcql::lang::ExecMethod::kCaQ;
  } else if (std::strcmp(s, "qac") == 0) {
    *out = xcql::lang::ExecMethod::kQaC;
  } else if (std::strcmp(s, "qac+") == 0 || std::strcmp(s, "qacplus") == 0) {
    *out = xcql::lang::ExecMethod::kQaCPlus;
  } else {
    return false;
  }
  return true;
}

bool Fail(const xcql::Status& st) {
  if (st.ok()) return false;
  std::fprintf(stderr, "xcql_serve: %s\n", st.ToString().c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--stream") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.stream = v;
    } else if (arg == "--structure") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.structure_file = v;
    } else if (arg == "--document") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.document_file = v;
    } else if (arg == "--xmark") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.xmark_scale = std::atof(v);
    } else if (arg == "--updates") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.updates = std::atoi(v);
    } else if (arg == "--interval-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.interval_ms = std::atoi(v);
    } else if (arg == "--serve-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.serve_ms = std::atoi(v);
    } else if (arg == "--compress") {
      opt.compress = true;
    } else if (arg == "--queue") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.queue = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--fault-drop" || arg == "--fault-dup" ||
               arg == "--fault-reorder" || arg == "--fault-corrupt" ||
               arg == "--fault-truncate") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      double p = std::atof(v);
      opt.any_fault = true;
      if (arg == "--fault-drop") opt.faults.drop = p;
      if (arg == "--fault-dup") opt.faults.duplicate = p;
      if (arg == "--fault-reorder") opt.faults.reorder = p;
      if (arg == "--fault-corrupt") opt.faults.corrupt = p;
      if (arg == "--fault-truncate") opt.faults.truncate = p;
    } else if (arg == "--fault-delay-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.faults.delay = std::chrono::milliseconds(std::atoi(v));
      opt.any_fault = true;
    } else if (arg == "--fault-seed") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.fault_seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.data_dir = v;
    } else if (arg == "--fsync") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      auto policy = xcql::net::ParseFsyncPolicy(v);
      if (Fail(policy.status())) return Usage(argv[0]);
      opt.wal.fsync = policy.value();
    } else if (arg == "--fsync-interval-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.wal.fsync_interval = std::chrono::milliseconds(std::atoi(v));
    } else if (arg == "--segment-bytes") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.wal.segment_bytes = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--checkpoint-every") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.wal.checkpoint_every = std::atoll(v);
    } else if (arg == "--monitor") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.monitor = v;
    } else if (arg == "--monitor-method") {
      const char* v = next();
      if (v == nullptr || !ParseMethod(v, &opt.monitor_method)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--paper-faithful") {
      opt.paper_faithful = true;
    } else if (arg == "--no-queries") {
      opt.queries = false;
    } else if (arg == "--max-queries") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.max_queries = std::atoi(v);
    } else if (arg == "--max-queries-per-conn") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.max_queries_per_conn = std::atoi(v);
    } else if (arg == "--retain-age-s") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.retention.max_age_s = std::atoll(v);
    } else if (arg == "--retain-versions") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.retention.max_versions = std::atoi(v);
    } else if (arg == "--retain-frames") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.retention.max_frames = std::atoll(v);
    } else if (arg == "--retain-results") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.retention.max_results = std::atoll(v);
    } else if (arg == "--retain-interval") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.retention.check_every = std::atoll(v);
    } else if (arg == "--no-self-heal") {
      opt.durability.self_heal = false;
    } else if (arg == "--probe-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.durability.probe_initial = std::chrono::milliseconds(std::atoi(v));
    } else if (arg == "--probe-max-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.durability.probe_max = std::chrono::milliseconds(std::atoi(v));
    } else if (arg == "--disk-soft") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.durability.soft_free_bytes = std::atoll(v);
    } else if (arg == "--disk-hard") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.durability.hard_free_bytes = std::atoll(v);
    } else if (arg == "--policy") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::strcmp(v, "block") == 0) {
        opt.policy = xcql::net::SlowConsumerPolicy::kBlock;
      } else if (std::strcmp(v, "drop") == 0) {
        opt.policy = xcql::net::SlowConsumerPolicy::kDropOldest;
      } else if (std::strcmp(v, "disconnect") == 0) {
        opt.policy = xcql::net::SlowConsumerPolicy::kDisconnect;
      } else {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }

  // Assemble schema + document.
  std::string ts_xml;
  xcql::NodePtr doc;
  if (opt.xmark_scale >= 0) {
    ts_xml = xcql::xmark::AuctionTagStructureXml();
    xcql::xmark::XMarkOptions gen;
    gen.scale = opt.xmark_scale;
    auto d = xcql::xmark::GenerateAuctionDoc(gen);
    if (Fail(d.status())) return 1;
    doc = std::move(d).MoveValue();
  } else if (!opt.structure_file.empty()) {
    auto ts = xcql::ReadFileToString(opt.structure_file);
    if (Fail(ts.status())) return 1;
    ts_xml = std::move(ts).MoveValue();
    if (!opt.document_file.empty()) {
      auto xml = xcql::ReadFileToString(opt.document_file);
      if (Fail(xml.status())) return 1;
      auto d = xcql::ParseXml(xml.value());
      if (Fail(d.status())) return 1;
      doc = std::move(d).MoveValue();
    }
  } else {
    return Usage(argv[0]);
  }

  auto ts = xcql::frag::TagStructure::Parse(ts_xml);
  if (Fail(ts.status())) return 1;
  xcql::stream::StreamServer server(opt.stream, std::move(ts).MoveValue());
  if (opt.compress) server.EnableWireCompression();

  // Declared ahead of the monitor lambda so it can report the data dir's
  // health; opened further down, before the network face starts.
  std::unique_ptr<xcql::net::Wal> wal;

  // Server-side monitor: subscribe a local hub to our own server so every
  // published fragment mirrors into a FragmentStore, and run the --monitor
  // query continuously over it as updates go out. (Subscribing before any
  // publish means the mirror sees the initial document too; recovered
  // history is replanted without multicast and is replayed in below.)
  xcql::stream::StreamHub monitor_hub;
  xcql::stream::SimClock monitor_clock;
  std::unique_ptr<xcql::stream::ContinuousQueryEngine> monitor_engine;
  int monitor_qid = -1;
  if (!opt.monitor.empty()) {
    if (Fail(monitor_hub.Subscribe(&server))) return 1;
    monitor_engine = std::make_unique<xcql::stream::ContinuousQueryEngine>(
        &monitor_hub, &monitor_clock);
    xcql::stream::ContinuousQueryOptions q_opts;
    q_opts.method = opt.monitor_method;
    if (opt.paper_faithful) q_opts.linear_get_fillers = true;
    auto qid = monitor_engine->Register(
        opt.monitor,
        [](const xcql::xq::Sequence& delta, xcql::DateTime at) {
          for (const auto& item : delta) {
            std::printf("[monitor %s] %s\n", at.ToString().c_str(),
                        xcql::RenderResult({item}).c_str());
          }
          std::fflush(stdout);
        },
        q_opts);
    if (Fail(qid.status())) return 1;
    monitor_qid = qid.value();
  }
  // The monitor feed also carries disk health: one line at startup and
  // one whenever the durability state machine moves (degrade or re-arm),
  // so a watcher sees epoch changes inline with query results. The
  // network server is constructed further down; the pointer is planted
  // right after it starts.
  xcql::net::FragmentServer* monitor_durability_src = nullptr;
  bool monitor_durability_printed = false;
  bool monitor_last_degraded = false;
  long long monitor_last_rearms = 0;
  auto monitor_tick = [&]() -> bool {
    if (monitor_engine == nullptr) return true;
    if (monitor_durability_src != nullptr && wal != nullptr) {
      const bool degraded = monitor_durability_src->wal_degraded();
      const long long rearms = static_cast<long long>(
          monitor_durability_src->metrics().durability_rearms);
      if (!monitor_durability_printed || degraded != monitor_last_degraded ||
          rearms != monitor_last_rearms) {
        std::printf(
            "[monitor] durability %s, %lldms degraded, %lld re-arm(s), "
            "data dir free %lld bytes\n",
            degraded ? "DEGRADED (volatile epoch)" : "durable",
            static_cast<long long>(
                monitor_durability_src->time_in_degraded_ms()),
            rearms,
            static_cast<long long>(xcql::IoFreeBytes(wal->dir())));
        std::fflush(stdout);
        monitor_durability_printed = true;
        monitor_last_degraded = degraded;
        monitor_last_rearms = rearms;
      }
    }
    const xcql::frag::FragmentStore* mstore = monitor_hub.store(opt.stream);
    if (mstore != nullptr && mstore->size() > 0) {
      monitor_clock.AdvanceTo(mstore->max_valid_time());
    }
    return !Fail(monitor_engine->Tick());
  };

  // Durability: open (or initialize) the data dir before the network face
  // exists, and replant any recovered history so FragmentServer::Start()
  // seeds its frame log — same seqs, same epoch — from it.
  bool recovered = false;
  if (!opt.data_dir.empty()) {
    xcql::net::WalRecovery recovery;
    auto w = xcql::net::Wal::Open(opt.data_dir, opt.stream, ts_xml, opt.wal,
                                  &recovery);
    if (Fail(w.status())) return 1;
    wal = std::move(w).MoveValue();
    if (!recovery.report.warning.empty()) {
      std::fprintf(stderr, "xcql_serve: %s\n",
                   recovery.report.warning.c_str());
    }
    // Restore even with zero records: a re-armed generation's manifest
    // carries a nonzero base, and the server's history numbering must
    // start there or fresh publishes would collide with WAL seqs.
    if (!recovery.records.empty() || recovery.base_seq > 0) {
      if (Fail(xcql::net::RestoreStream(recovery, &server))) return 1;
      recovered = !recovery.records.empty();
    }
    std::printf(
        "data dir %s: epoch %llu, recovered %lld records "
        "(%lld checkpointed + %lld tail, %d segments%s), fsync=%s\n",
        wal->dir().c_str(), static_cast<unsigned long long>(wal->epoch()),
        static_cast<long long>(recovery.report.checkpoint_records +
                               recovery.report.tail_records),
        static_cast<long long>(recovery.report.checkpoint_records),
        static_cast<long long>(recovery.report.tail_records),
        recovery.report.segments_scanned,
        recovery.report.torn_tail ? ", torn tail truncated" : "",
        xcql::net::FsyncPolicyName(opt.wal.fsync));
  }

  // Remote query channel: opened (registry replayed) before the network
  // face starts, so recovered registrations line up with the seeded
  // history and their result streams resume byte-identical.
  std::unique_ptr<xcql::net::QueryChannel> channel;
  if (opt.queries) {
    auto channel_ts = xcql::frag::TagStructure::Parse(ts_xml);
    if (Fail(channel_ts.status())) return 1;
    xcql::net::QueryChannelOptions ch_opts;
    ch_opts.max_queries = opt.max_queries;
    if (!opt.data_dir.empty()) {
      ch_opts.registry_path = opt.data_dir + "/queries.reg";
    }
    channel = std::make_unique<xcql::net::QueryChannel>(
        opt.stream, std::move(channel_ts).MoveValue(), ch_opts);
    if (Fail(channel->Open())) return 1;
    auto cs = channel->stats();
    if (cs.recovered_queries > 0) {
      std::printf("query registry: %lld registrations recovered\n",
                  static_cast<long long>(cs.recovered_queries));
    }
  }

  xcql::net::FragmentServerOptions net_opts;
  net_opts.wal = wal.get();
  net_opts.query_channel = channel.get();
  net_opts.max_queries_per_conn = opt.max_queries_per_conn;
  net_opts.retention = opt.retention;
  net_opts.durability = opt.durability;
  if (wal != nullptr &&
      (opt.durability.soft_free_bytes > 0 ||
       opt.durability.hard_free_bytes > 0)) {
    std::printf(
        "disk watermarks: soft %lld bytes (emergency retention), hard %lld "
        "bytes (preemptive degrade)\n",
        static_cast<long long>(opt.durability.soft_free_bytes),
        static_cast<long long>(opt.durability.hard_free_bytes));
  }
  if (opt.retention.enabled()) {
    std::printf(
        "retention: age %llds, versions %d, frames %lld, results %lld "
        "(every %lld publishes)\n",
        static_cast<long long>(opt.retention.max_age_s),
        opt.retention.max_versions,
        static_cast<long long>(opt.retention.max_frames),
        static_cast<long long>(opt.retention.max_results),
        static_cast<long long>(opt.retention.check_every));
  }
  // With faults the chaos proxy owns the public port; the real server
  // hides behind it on an ephemeral one.
  net_opts.port = opt.any_fault ? 0 : opt.port;
  net_opts.slow_consumer = opt.policy;
  net_opts.queue_capacity = opt.queue;
  xcql::net::FragmentServer net_server(&server, net_opts);
  if (Fail(net_server.Start())) return 1;
  monitor_durability_src = &net_server;

  std::unique_ptr<xcql::net::ChaosLink> chaos;
  if (opt.any_fault) {
    xcql::net::ChaosLinkOptions chaos_opts;
    chaos_opts.listen_port = opt.port;
    chaos_opts.upstream_port = net_server.port();
    chaos_opts.seed = opt.fault_seed;
    chaos_opts.faults = opt.faults;
    chaos = std::make_unique<xcql::net::ChaosLink>(chaos_opts);
    if (Fail(chaos->Start())) return 1;
    std::printf(
        "serving stream \"%s\" on port %u through a chaos link (seed %llu; "
        "upstream port %u; %s wire accounting)\n",
        opt.stream.c_str(), chaos->port(),
        static_cast<unsigned long long>(opt.fault_seed), net_server.port(),
        xcql::frag::WireCodecName(server.wire_codec()));
  } else {
    std::printf("serving stream \"%s\" on port %u (%s wire accounting)\n",
                opt.stream.c_str(), net_server.port(),
                xcql::frag::WireCodecName(server.wire_codec()));
  }

  if (recovered) {
    // The initial document (if any) is already in the recovered history;
    // publishing it again would append duplicate versions.
    std::printf("resuming recovered stream: %lld fragments in history\n",
                static_cast<long long>(server.history_size()));
    // Recovery replants history without multicast; catch the monitor's
    // mirror store up explicitly.
    if (monitor_engine != nullptr) {
      if (Fail(server.ReplayTo(&monitor_hub).status())) return 1;
    }
  } else if (doc != nullptr) {
    if (Fail(server.PublishDocument(*doc))) return 1;
    std::printf("published initial document: %lld fragments\n",
                static_cast<long long>(server.fragments_sent()));
  }
  if (!monitor_tick()) return 1;

  // Timed updates: new versions of existing fragmented fillers.
  if (opt.updates > 0) {
    auto collect = [&](std::vector<int64_t>* out) {
      out->clear();
      for (int64_t i = server.history_base(); i < server.history_size();
           ++i) {
        const auto& f = server.history_at(i);
        const auto* tag = server.tag_structure().FindById(f.tsid);
        if (tag != nullptr && tag->fragmented()) out->push_back(i);
      }
    };
    std::vector<int64_t> candidates;
    collect(&candidates);
    if (candidates.empty()) {
      std::fprintf(stderr, "xcql_serve: no fragmented fillers to update\n");
      return 1;
    }
    xcql::Random rng(7);
    int64_t t = server.history_size() > server.history_base()
                    ? server.history_at(server.history_size() - 1)
                          .valid_time.seconds()
                    : 0;
    for (int u = 0; u < opt.updates; ++u) {
      // The retention driver runs on this publish path and may have
      // trimmed the history under us: positions below history_base() are
      // gone. Candidates are ascending, so dropping the dead prefix is a
      // bound search; refresh the whole set if it ran dry.
      const int64_t base_pos = server.history_base();
      if (!candidates.empty() && candidates.front() < base_pos) {
        candidates.erase(candidates.begin(),
                         std::lower_bound(candidates.begin(),
                                          candidates.end(), base_pos));
      }
      if (candidates.empty()) {
        collect(&candidates);
        if (candidates.empty()) break;  // everything expired: stop updating
      }
      int64_t pick = candidates[static_cast<size_t>(
          rng.Uniform(static_cast<int>(candidates.size())))];
      const auto& base = server.history_at(pick);
      xcql::frag::Fragment f;
      f.id = base.id;
      f.tsid = base.tsid;
      t += 1 + static_cast<int64_t>(rng.Uniform(60));
      f.valid_time = xcql::DateTime(t);
      f.content = base.content->Clone();
      f.content->SetAttr("rev", std::to_string(u + 1));
      if (Fail(server.Publish(std::move(f)))) return 1;
      if (!monitor_tick()) return 1;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opt.interval_ms));
    }
    std::printf("published %d updates\n", opt.updates);
  }

  if (opt.serve_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.serve_ms));
  } else {
    std::printf("serving until killed (ctrl-c)...\n");
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  }
  if (monitor_qid >= 0) {
    if (!monitor_tick()) return 1;  // final evaluation over the full stream
    auto qs = monitor_engine->QueryStats(monitor_qid);
    if (qs.ok()) {
      std::printf(
          "monitor (%s): %lld evaluations (%lld compiled / %lld "
          "interpreted), %lld skips, compile %lldus, arena high-water %zu "
          "bytes%s%s\n",
          xcql::lang::ExecMethodName(opt.monitor_method),
          static_cast<long long>(qs.value().evaluations),
          static_cast<long long>(qs.value().compiled_evals),
          static_cast<long long>(qs.value().fallback_evals),
          static_cast<long long>(qs.value().skips),
          static_cast<long long>(qs.value().compile_micros),
          qs.value().arena_high_water,
          qs.value().plan_fallback_reason.empty() ? "" : " — fallback: ",
          qs.value().plan_fallback_reason.c_str());
      if (opt.retention.enabled() && !qs.value().window.bounded) {
        std::printf(
            "monitor: query window is unbounded — it would pin retention "
            "if registered on the channel (see docs/RETENTION.md)\n");
      }
    }
  }
  auto m = net_server.metrics();
  std::printf(
      "frames out %lld, bytes out %lld, drops %lld, repeats served %lld, "
      "subscribers served %lld\n",
      static_cast<long long>(m.frames_out),
      static_cast<long long>(m.bytes_out), static_cast<long long>(m.drops),
      static_cast<long long>(m.repeat_requests_in),
      static_cast<long long>(m.connections_accepted));
  if (channel != nullptr) {
    auto cs = channel->stats();
    std::printf(
        "queries: %d active (%d pending), %lld registered, %lld rejected, "
        "%lld result frames over %lld fragments\n",
        cs.active_queries, cs.pending_queries,
        static_cast<long long>(m.queries_registered),
        static_cast<long long>(m.queries_rejected),
        static_cast<long long>(cs.result_frames),
        static_cast<long long>(cs.fragments_fed));
  }
  if (opt.retention.enabled()) {
    std::printf(
        "retention: %lld runs, %lld frames retired, %lld fragments "
        "compacted, %lld result frames trimmed, floor seq %lld, frame log "
        "%lld bytes, fragment store %lld bytes\n",
        static_cast<long long>(m.retention_runs),
        static_cast<long long>(m.frames_retired),
        static_cast<long long>(m.fragments_compacted),
        static_cast<long long>(m.result_log_trimmed),
        static_cast<long long>(m.retention_floor_seq),
        static_cast<long long>(m.frame_log_bytes),
        static_cast<long long>(m.fragment_store_bytes));
    if (channel != nullptr) {
      std::vector<uint64_t> pinning;
      (void)channel->ObservableFloor(
          xcql::DateTime(std::numeric_limits<int64_t>::max() / 2), &pinning);
      for (uint64_t id : pinning) {
        std::printf(
            "retention: query %llu has an unbounded observable window and "
            "pins the retention floor\n",
            static_cast<unsigned long long>(id));
      }
    }
  }
  if (chaos != nullptr) {
    auto cs = chaos->stats();
    std::printf(
        "chaos: %lld frames, dropped %lld, duplicated %lld, reordered "
        "%lld, corrupted %lld, truncated %lld\n",
        static_cast<long long>(cs.frames),
        static_cast<long long>(cs.dropped),
        static_cast<long long>(cs.duplicated),
        static_cast<long long>(cs.reordered),
        static_cast<long long>(cs.corrupted),
        static_cast<long long>(cs.truncated));
    chaos->Stop();
  }
  // Durability state is read before Stop() joins the supervisor, so the
  // numbers describe the serving window, not the teardown.
  const bool ended_degraded = net_server.wal_degraded();
  const long long degraded_ms = net_server.time_in_degraded_ms();
  net_server.Stop();
  if (wal != nullptr) {
    auto ws = wal->stats();
    std::printf(
        "wal: %lld appends, %lld syncs, %lld rotations, %lld checkpoints, "
        "%lld append failures, %lld checkpoint failures\n",
        static_cast<long long>(ws.appends), static_cast<long long>(ws.syncs),
        static_cast<long long>(ws.rotations),
        static_cast<long long>(ws.checkpoints),
        static_cast<long long>(ws.append_failures),
        static_cast<long long>(ws.checkpoint_failures));
    std::printf(
        "durability: %s, %lld re-arm(s), %lldms degraded, data dir free "
        "%lld bytes\n",
        ended_degraded ? "DEGRADED (volatile epoch)" : "durable",
        static_cast<long long>(m.durability_rearms), degraded_ms,
        static_cast<long long>(
            xcql::IoFreeBytes(wal->dir())));
    if (ended_degraded) {
      std::fprintf(stderr,
                   "wal: durability degraded at exit; frames published "
                   "since the last failure were not persisted\n");
    }
    if (Fail(wal->Close())) return 1;
  }
  return 0;
}
