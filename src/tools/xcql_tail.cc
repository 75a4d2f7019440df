// xcql_tail — subscribe to a networked fragment stream and run a
// continuous XCQL query against it.
//
// Connects to an xcql_serve endpoint, learns the stream's Tag Structure at
// the handshake, accumulates received fragments in a local FragmentStore,
// and re-evaluates the query as data arrives, printing newly appearing
// results. Without --query it prints arrival statistics instead.
//
//   xcql_tail --connect localhost:7788 --stream auction
//             --query 'count(stream("auction")//item)' [--compressed]
//
// With --remote the query is not evaluated here at all: it travels to the
// server in a QUERY frame (docs/REMOTE_QUERIES.md), the
// server's query channel evaluates it once per published fragment, and
// this process just prints the RESULT delta stream — added items as [+],
// removed as [-]. --method, --holes and --paper-faithful ride along in
// the frame, so the server evaluates with exactly the options a local
// engine would have used:
//
//   xcql_tail --connect localhost:7788 --stream auction --remote \
//             --query 'stream("auction")//item' --method qac+ --holes omit
//
// With any --fault-* flag the connection runs through a local
// deterministic fault-injection proxy (net::ChaosLink) and each drain
// sweep NACKs still-missing fillers upstream, so the full corruption →
// gap → repair loop can be exercised against any server
// (docs/ROBUSTNESS.md). --holes picks the degraded-mode behavior when a
// filler stays missing: omit (default), keep, or fail.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "core/stream_manager.h"
#include "net/chaos.h"
#include "net/subscriber.h"
#include "stream/continuous.h"
#include "stream/registry.h"

namespace {

struct TailOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 7788;
  std::string stream;
  std::string query;
  bool compressed = false;
  int interval_ms = 500;
  int duration_ms = 0;  // 0 = until killed
  // Paper-faithful cost model: linear filler scans instead of the default
  // hash-indexed lookup.
  bool paper_faithful = false;
  xcql::xq::HolePolicy holes = xcql::xq::HolePolicy::kOmit;
  // Server-side evaluation: ship the query in a QUERY frame and print the
  // RESULT delta stream instead of evaluating locally.
  bool remote = false;
  xcql::lang::ExecMethod method = xcql::lang::ExecMethod::kQaCPlus;
  xcql::net::ChaosFaults faults;
  uint64_t fault_seed = 1;
  bool any_fault = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect HOST:PORT --stream NAME [--query XCQL]\n"
               "          [--remote] [--method caq|qac|qac+]\n"
               "          [--compressed] [--interval-ms M] [--duration-ms M]\n"
               "          [--holes omit|keep|fail] [--paper-faithful]\n"
               "          [--fault-drop P] [--fault-dup P] [--fault-reorder "
               "P]\n"
               "          [--fault-corrupt P] [--fault-truncate P]\n"
               "          [--fault-delay-ms M] [--fault-seed S]\n",
               argv0);
  return 2;
}

bool Fail(const xcql::Status& st) {
  if (st.ok()) return false;
  std::fprintf(stderr, "xcql_tail: %s\n", st.ToString().c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  TailOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      std::string hp = v;
      size_t colon = hp.rfind(':');
      if (colon == std::string::npos) return Usage(argv[0]);
      opt.host = hp.substr(0, colon);
      opt.port = static_cast<uint16_t>(std::atoi(hp.c_str() + colon + 1));
    } else if (arg == "--stream") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.stream = v;
    } else if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.query = v;
    } else if (arg == "--compressed") {
      opt.compressed = true;
    } else if (arg == "--remote") {
      opt.remote = true;
    } else if (arg == "--method") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::strcmp(v, "caq") == 0) {
        opt.method = xcql::lang::ExecMethod::kCaQ;
      } else if (std::strcmp(v, "qac") == 0) {
        opt.method = xcql::lang::ExecMethod::kQaC;
      } else if (std::strcmp(v, "qac+") == 0 ||
                 std::strcmp(v, "qacplus") == 0) {
        opt.method = xcql::lang::ExecMethod::kQaCPlus;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--paper-faithful") {
      opt.paper_faithful = true;
    } else if (arg == "--interval-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.interval_ms = std::atoi(v);
    } else if (arg == "--duration-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opt.duration_ms = std::atoi(v);
    } else if (arg == "--holes") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::strcmp(v, "omit") == 0) {
        opt.holes = xcql::xq::HolePolicy::kOmit;
      } else if (std::strcmp(v, "keep") == 0) {
        opt.holes = xcql::xq::HolePolicy::kKeepHole;
      } else if (std::strcmp(v, "fail") == 0) {
        opt.holes = xcql::xq::HolePolicy::kFail;
      } else {
        return Usage(argv[0]);
      }
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
    } else {
      return Usage(argv[0]);
    }
  }
  if (opt.stream.empty()) return Usage(argv[0]);
  if (opt.remote && opt.query.empty()) {
    std::fprintf(stderr, "xcql_tail: --remote needs --query\n");
    return Usage(argv[0]);
  }

  // With faults the subscriber dials a local chaos proxy that relays (and
  // attacks) the upstream connection.
  std::unique_ptr<xcql::net::ChaosLink> chaos;
  if (opt.any_fault) {
    xcql::net::ChaosLinkOptions chaos_opts;
    chaos_opts.upstream_host = opt.host;
    chaos_opts.upstream_port = opt.port;
    chaos_opts.seed = opt.fault_seed;
    chaos_opts.faults = opt.faults;
    chaos = std::make_unique<xcql::net::ChaosLink>(chaos_opts);
    if (Fail(chaos->Start())) return 1;
    std::printf("chaos link on port %u → %s:%u (seed %llu)\n",
                chaos->port(), opt.host.c_str(), opt.port,
                static_cast<unsigned long long>(opt.fault_seed));
  }

  xcql::net::FragmentSubscriberOptions sub_opts;
  sub_opts.host = chaos != nullptr ? "127.0.0.1" : opt.host;
  sub_opts.port = chaos != nullptr ? chaos->port() : opt.port;
  sub_opts.stream = opt.stream;
  sub_opts.codec = opt.compressed ? xcql::frag::WireCodec::kTagCompressed
                                  : xcql::frag::WireCodec::kPlainXml;
  xcql::net::FragmentSubscriber subscriber(sub_opts);

  // Remote mode: register before Start() so the very first handshake
  // already carries the QUERY, plumbing --method / --holes /
  // --paper-faithful through the frame's option bytes.
  uint32_t query_token = 0;
  if (opt.remote) {
    xcql::net::RemoteQuerySpec spec;
    spec.text = opt.query;
    spec.method = static_cast<uint8_t>(opt.method);
    spec.hole_policy = static_cast<uint8_t>(opt.holes);
    if (opt.paper_faithful) spec.flags |= xcql::net::kQueryFlagPaperFaithful;
    auto token = subscriber.AddRemoteQuery(std::move(spec));
    if (Fail(token.status())) return 1;
    query_token = token.value();
  }

  if (Fail(subscriber.Start())) return 1;
  if (!subscriber.WaitConnected(std::chrono::seconds(10))) {
    std::fprintf(stderr, "xcql_tail: could not reach %s:%u (%s)\n",
                 opt.host.c_str(), opt.port,
                 subscriber.handshake_failed() ? "handshake rejected"
                                               : "timeout");
    return 1;
  }

  // The schema arrived with the handshake: build the local store the
  // received fragments feed and the continuous engine queries.
  auto ts_xml = subscriber.TagStructureXml();
  if (Fail(ts_xml.status())) return 1;
  auto ts = xcql::frag::TagStructure::Parse(ts_xml.value());
  if (Fail(ts.status())) return 1;
  xcql::stream::StreamHub hub;
  auto store_r = hub.AddLocalStream(opt.stream, std::move(ts).MoveValue());
  if (Fail(store_r.status())) return 1;
  xcql::frag::FragmentStore* store = store_r.value();
  xcql::stream::SimClock clock;
  xcql::stream::ContinuousQueryEngine engine(&hub, &clock);

  if (opt.remote) {
    // Wait for the server's answer: an ack activates the query, while a
    // QUERY_STATUS rejection (a server without a query channel, an
    // admission limit, bad XCQL) carries the reason.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    auto qs = subscriber.query_state(query_token);
    while (qs.ok() && !qs.value().active &&
           qs.value().last_code == xcql::net::kQueryStatusOk &&
           std::chrono::steady_clock::now() < deadline) {
      subscriber.WaitQueryActive(query_token, std::chrono::milliseconds(50));
      qs = subscriber.query_state(query_token);
    }
    if (!qs.ok() || !qs.value().active) {
      std::fprintf(stderr, "xcql_tail: remote query not admitted%s%s\n",
                   qs.ok() && !qs.value().last_message.empty() ? ": " : "",
                   qs.ok() ? qs.value().last_message.c_str() : "");
      return 1;
    }
    std::printf("remote query active (server id %llu)\n",
                static_cast<unsigned long long>(qs.value().query_id));
  }

  int query_id = -1;
  if (!opt.query.empty() && !opt.remote) {
    xcql::stream::ContinuousQueryOptions q_opts;
    q_opts.method = opt.method;
    q_opts.hole_policy = opt.holes;
    if (opt.paper_faithful) q_opts.linear_get_fillers = true;
    auto id = engine.Register(
        opt.query,
        [](const xcql::xq::Sequence& delta, xcql::DateTime at) {
          for (const auto& item : delta) {
            std::printf("[%s] %s\n", at.ToString().c_str(),
                        xcql::RenderResult({item}).c_str());
          }
          std::fflush(stdout);
        },
        q_opts);
    if (Fail(id.status())) return 1;
    query_id = id.value();
  }

  auto started = std::chrono::steady_clock::now();
  int64_t total = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
    auto drained = subscriber.DrainInto(store);
    if (Fail(drained.status())) return 1;
    // NACK any fillers whose holes are still dangling.
    auto repair = subscriber.RepairMissing(*store);
    if (repair.ok() && repair.value().nacks_sent > 0) {
      std::printf("repair: %d missing, %d NACKed (%d repaired, %d lost "
                  "so far)\n",
                  repair.value().missing, repair.value().nacks_sent,
                  repair.value().repaired_total, repair.value().lost_total);
    }
    if (opt.remote) {
      std::vector<xcql::net::RemoteQueryResult> results;
      subscriber.DrainResults(&results);
      for (const auto& r : results) {
        const std::string when =
            xcql::DateTime(r.delta.eval_time_s).ToString();
        for (const auto& item : r.delta.added) {
          std::printf("[%s #%lld +] %s\n", when.c_str(),
                      static_cast<long long>(r.seq), item.c_str());
        }
        for (const auto& item : r.delta.removed) {
          std::printf("[%s #%lld -] %s\n", when.c_str(),
                      static_cast<long long>(r.seq), item.c_str());
        }
      }
      if (!results.empty()) std::fflush(stdout);
    }
    if (drained.value() > 0) {
      total += drained.value();
      clock.AdvanceTo(store->max_valid_time());
      if (!opt.query.empty() && !opt.remote) {
        if (Fail(engine.Tick())) return 1;
      } else if (opt.query.empty()) {
        std::printf("received %d fragments (%lld total, seq %lld)\n",
                    drained.value(), static_cast<long long>(total),
                    static_cast<long long>(subscriber.last_seq()));
        std::fflush(stdout);
      }
    }
    if (opt.duration_ms > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::milliseconds(opt.duration_ms)) {
      break;
    }
  }
  if (query_id >= 0) {
    auto qs = engine.QueryStats(query_id);
    if (qs.ok()) {
      std::printf(
          "plan: compiled in %lldus, %lld compiled / %lld interpreted "
          "evaluations, arena high-water %zu bytes%s%s\n",
          static_cast<long long>(qs.value().compile_micros),
          static_cast<long long>(qs.value().compiled_evals),
          static_cast<long long>(qs.value().fallback_evals),
          qs.value().arena_high_water,
          qs.value().plan_fallback_reason.empty() ? "" : " — fallback: ",
          qs.value().plan_fallback_reason.c_str());
    }
  }
  if (opt.remote) {
    auto qs = subscriber.query_state(query_token);
    if (qs.ok()) {
      std::printf("remote query: last result seq %lld\n",
                  static_cast<long long>(qs.value().last_result_seq));
    }
  }
  auto m = subscriber.metrics();
  std::printf(
      "done: %lld fragments, %lld bytes in, %lld reconnects, last seq "
      "%lld\n",
      static_cast<long long>(m.fragments_in),
      static_cast<long long>(m.bytes_in),
      static_cast<long long>(m.reconnects),
      static_cast<long long>(subscriber.last_seq()));
  if (m.frames_corrupt + m.nacks_sent + m.fillers_repaired +
          m.fillers_lost + m.poison_quarantined + m.liveness_timeouts +
          m.catchup_replays >
      0) {
    std::printf(
        "faults: %lld corrupt frames, %lld liveness timeouts, %lld catchup "
        "replays, %lld NACKs (%lld repaired, %lld lost), %lld poison\n",
        static_cast<long long>(m.frames_corrupt),
        static_cast<long long>(m.liveness_timeouts),
        static_cast<long long>(m.catchup_replays),
        static_cast<long long>(m.nacks_sent),
        static_cast<long long>(m.fillers_repaired),
        static_cast<long long>(m.fillers_lost),
        static_cast<long long>(m.poison_quarantined));
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
  subscriber.Stop();
  return 0;
}
