// net::ChaosLink — a deterministic fault-injection TCP proxy between a
// FragmentSubscriber and a FragmentServer.
//
// The link listens on its own port and relays each accepted connection to
// the upstream server. Client→server bytes pass through untouched by
// default (the control channel: HELLO, REPLAY_FROM, NACKs); with
// fault_control set, that direction is also pumped frame-aware and each
// control frame rolls against the corrupt probability. Server→client
// traffic is re-framed on XFRM boundaries and each FRAGMENT frame (plus,
// optionally, each HEARTBEAT) rolls against the configured fault
// probabilities:
//
//   drop       the frame never arrives
//   duplicate  the frame arrives twice
//   reorder    the frame is held back and delivered after its successor
//   corrupt    1–3 payload bits flip (the frame checksum is what
//              detects this)
//   truncate   a prefix of the frame is sent and the connection is cut
//              mid-frame (the half-dead-link case)
//
// Faults draw from a seeded xcql::Random (seed + connection index), so a
// given seed replays the same fault schedule per connection. Control
// frames (HELLO, BYE, REPLAY_FROM) always pass clean: the chaos link
// attacks the data plane, not the handshake.
//
// Used by tests/net_test.cc (chaos soak), bench_transport --chaos, and
// the xcql_serve/xcql_tail --fault-* flags. See docs/ROBUSTNESS.md.
#ifndef XCQL_NET_CHAOS_H_
#define XCQL_NET_CHAOS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "net/socket.h"

namespace xcql::net {

/// \brief Per-frame fault probabilities (independent draws; at most one
/// fault fires per frame, checked in the order below).
struct ChaosFaults {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double corrupt = 0.0;
  double truncate = 0.0;
  /// Corruption probability for client→server control frames (only with
  /// fault_control; independent of `corrupt` so the control plane can be
  /// attacked while the data plane stays clean, and vice versa).
  double control_corrupt = 0.0;
  /// Extra latency before each forwarded frame (0 = none).
  std::chrono::milliseconds delay{0};
};

struct ChaosLinkOptions {
  uint16_t listen_port = 0;  // 0 = ephemeral, read back with port()
  std::string upstream_host = "127.0.0.1";
  uint16_t upstream_port = 0;
  uint64_t seed = 1;
  ChaosFaults faults;
  /// Also roll faults for HEARTBEAT frames (default: only FRAGMENTs, so
  /// the liveness/loss-detector channel stays reliable unless a test
  /// wants it attacked too).
  bool fault_heartbeats = false;
  /// Also attack the client→server control channel: the up direction is
  /// pumped frame-aware and each control frame (HELLO, REPLAY_FROM,
  /// REPEAT_REQUEST, BYE) rolls against `faults.control_corrupt`, flipping
  /// 1–3 payload bits. The server must count-and-drop the mangled request
  /// (frames_corrupt / bad_control_frames / handshake_failures) and the
  /// subscriber's retry + catch-up machinery must still converge. Only
  /// corruption applies: dropping or truncating control frames models a
  /// different failure (dead link) that the downstream faults already
  /// cover.
  bool fault_control = false;
};

struct ChaosStats {
  int64_t connections = 0;
  int64_t frames = 0;  // downstream frames seen (faulted or not)
  int64_t dropped = 0;
  int64_t duplicated = 0;
  int64_t reordered = 0;
  int64_t corrupted = 0;
  int64_t truncated = 0;
  int64_t control_frames = 0;     // upstream frames seen (fault_control)
  int64_t control_corrupted = 0;  // upstream frames mangled
};

class ChaosLink {
 public:
  explicit ChaosLink(ChaosLinkOptions options);
  ~ChaosLink();

  ChaosLink(const ChaosLink&) = delete;
  ChaosLink& operator=(const ChaosLink&) = delete;

  /// \brief Binds the listen port and starts proxying. Fails if the
  /// upstream port is unset.
  Status Start();

  /// \brief Closes every proxied connection and joins all threads.
  /// Idempotent.
  void Stop();

  /// \brief The port subscribers should dial (after Start()).
  uint16_t port() const { return port_; }

  ChaosStats stats() const;

 private:
  struct Conn {
    Socket client;
    Socket upstream;
    std::thread up;    // client → upstream, passthrough
    std::thread down;  // upstream → client, frame-aware faults
    std::atomic<bool> up_done{false};
    std::atomic<bool> down_done{false};
  };

  void AcceptLoop();
  void UpLoop(Conn* conn, uint64_t conn_seed);
  void DownLoop(Conn* conn, uint64_t conn_seed);
  /// Pumps src→dst re-framing on XFRM boundaries, calling `forward` for
  /// each complete frame; falls back to raw passthrough when framing is
  /// lost. `forward` returns false to kill the connection.
  void PumpFramed(Socket* src, Socket* dst,
                  const std::function<bool(std::string&&)>& forward);
  /// Applies one fault roll to `frame` and forwards it (and/or the held
  /// reordered frame). Returns false when the connection must die
  /// (truncation fired or a send failed).
  bool ForwardFrame(Conn* conn, std::string frame, Random* rng,
                    std::string* held);
  /// fault_control: rolls `faults.corrupt` against a client→server
  /// control frame and relays it upstream.
  bool ForwardControlFrame(Conn* conn, std::string frame, Random* rng);
  bool SendToClient(Conn* conn, const std::string& bytes);

  ChaosLinkOptions opts_;
  uint16_t port_ = 0;
  bool started_ = false;
  Socket listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  uint64_t next_conn_index_ = 0;  // accept thread only

  mutable std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;

  std::atomic<int64_t> connections_{0}, frames_{0}, dropped_{0},
      duplicated_{0}, reordered_{0}, corrupted_{0}, truncated_{0},
      control_frames_{0}, control_corrupted_{0};
};

}  // namespace xcql::net

#endif  // XCQL_NET_CHAOS_H_
