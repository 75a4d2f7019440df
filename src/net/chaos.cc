#include "net/chaos.h"

#include <thread>

#include "net/frame.h"

namespace xcql::net {

namespace {

uint32_t PeekU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

}  // namespace

ChaosLink::ChaosLink(ChaosLinkOptions options) : opts_(std::move(options)) {}

ChaosLink::~ChaosLink() { Stop(); }

Status ChaosLink::Start() {
  if (started_) return Status::InvalidArgument("chaos link already started");
  if (opts_.upstream_port == 0) {
    return Status::InvalidArgument("chaos link needs an upstream port");
  }
  XCQL_ASSIGN_OR_RETURN(listener_, ListenOn(opts_.listen_port));
  XCQL_ASSIGN_OR_RETURN(port_, BoundPort(listener_));
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void ChaosLink::Stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true);
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    conn->client.Shutdown();
    conn->upstream.Shutdown();
    if (conn->up.joinable()) conn->up.join();
    if (conn->down.joinable()) conn->down.join();
  }
}

ChaosStats ChaosLink::stats() const {
  ChaosStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.duplicated = duplicated_.load(std::memory_order_relaxed);
  s.reordered = reordered_.load(std::memory_order_relaxed);
  s.corrupted = corrupted_.load(std::memory_order_relaxed);
  s.truncated = truncated_.load(std::memory_order_relaxed);
  s.control_frames = control_frames_.load(std::memory_order_relaxed);
  s.control_corrupted = control_corrupted_.load(std::memory_order_relaxed);
  return s;
}

void ChaosLink::AcceptLoop() {
  while (!stopping_.load()) {
    auto accepted = Accept(listener_);
    if (!accepted.ok()) {
      if (stopping_.load()) break;
      continue;
    }
    auto upstream = ConnectTo(opts_.upstream_host, opts_.upstream_port);
    if (!upstream.ok()) continue;  // upstream down: drop the client
    connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    conn->client = std::move(accepted).MoveValue();
    conn->upstream = std::move(upstream).MoveValue();
    Conn* raw = conn.get();
    // Distinct deterministic schedule per connection: a reconnect after a
    // fault replays different rolls than the session that died.
    uint64_t conn_seed = opts_.seed + 1000003ull * (++next_conn_index_);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->up = std::thread([this, raw, conn_seed] {
      UpLoop(raw, conn_seed);
    });
    raw->down = std::thread([this, raw, conn_seed] {
      DownLoop(raw, conn_seed);
    });
    // Reap finished pairs so a long soak with many reconnects does not
    // accumulate dead threads.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* c = it->get();
      if (c->up_done.load() && c->down_done.load()) {
        if (c->up.joinable()) c->up.join();
        if (c->down.joinable()) c->down.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void ChaosLink::UpLoop(Conn* conn, uint64_t conn_seed) {
  if (opts_.fault_control) {
    // Distinct schedule from the down direction on the same connection.
    Random rng(conn_seed ^ 0x9e3779b97f4a7c15ull);
    PumpFramed(&conn->client, &conn->upstream,
               [this, conn, &rng](std::string&& frame) {
                 return ForwardControlFrame(conn, std::move(frame), &rng);
               });
  } else {
    char buf[16 * 1024];
    for (;;) {
      auto n = conn->client.Recv(buf, sizeof(buf));
      if (!n.ok() || n.value() == 0) break;
      if (!conn->upstream.SendAll(buf, n.value()).ok()) break;
    }
  }
  // One dead direction kills the pair, like a real connection would.
  conn->client.Shutdown();
  conn->upstream.Shutdown();
  conn->up_done.store(true);
}

bool ChaosLink::SendToClient(Conn* conn, const std::string& bytes) {
  return conn->client.SendAll(bytes.data(), bytes.size()).ok();
}

bool ChaosLink::ForwardControlFrame(Conn* conn, std::string frame,
                                    Random* rng) {
  control_frames_.fetch_add(1, std::memory_order_relaxed);
  // Only the corrupt fault applies to control frames (see ChaosLinkOptions):
  // the server's checksum is the detector under test. Bits flip in the
  // payload, so every mangled frame dies at the checksum.
  if (frame.size() > kFrameHeaderSize &&
      rng->NextDouble() < opts_.faults.control_corrupt) {
    control_corrupted_.fetch_add(1, std::memory_order_relaxed);
    int flips = 1 + static_cast<int>(rng->Uniform(3));
    for (int i = 0; i < flips; ++i) {
      size_t off = kFrameHeaderSize + static_cast<size_t>(rng->Uniform(
                                          frame.size() - kFrameHeaderSize));
      frame[off] = static_cast<char>(
          static_cast<uint8_t>(frame[off]) ^
          static_cast<uint8_t>(1u << rng->Uniform(8)));
    }
  }
  return conn->upstream.SendAll(frame.data(), frame.size()).ok();
}

bool ChaosLink::ForwardFrame(Conn* conn, std::string frame, Random* rng,
                             std::string* held) {
  frames_.fetch_add(1, std::memory_order_relaxed);
  const uint8_t type = static_cast<uint8_t>(frame[5]);
  const bool faultable =
      type == static_cast<uint8_t>(FrameType::kFragment) ||
      (opts_.fault_heartbeats &&
       type == static_cast<uint8_t>(FrameType::kHeartbeat));
  if (opts_.faults.delay.count() > 0) {
    std::this_thread::sleep_for(opts_.faults.delay);
  }
  if (faultable) {
    const ChaosFaults& f = opts_.faults;
    double roll = rng->NextDouble();
    if (roll < f.drop) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return true;  // never sent
    }
    roll -= f.drop;
    if (roll < f.duplicate) {
      duplicated_.fetch_add(1, std::memory_order_relaxed);
      if (!SendToClient(conn, frame)) return false;
      if (!SendToClient(conn, frame)) return false;
      return true;
    }
    roll -= f.duplicate;
    if (roll < f.reorder && held->empty()) {
      reordered_.fetch_add(1, std::memory_order_relaxed);
      *held = std::move(frame);  // delivered after the next frame
      return true;
    }
    roll -= f.reorder;
    if (roll < f.corrupt && frame.size() > kFrameHeaderSize) {
      // Flip payload bits only: the checksum (which covers them) is the
      // detector under test. Flipping header/length bytes would instead
      // desynchronize framing — a different fault class, closer to
      // truncation, that reconnect already covers.
      corrupted_.fetch_add(1, std::memory_order_relaxed);
      int flips = 1 + static_cast<int>(rng->Uniform(3));
      for (int i = 0; i < flips; ++i) {
        size_t off = kFrameHeaderSize +
                     static_cast<size_t>(
                         rng->Uniform(frame.size() - kFrameHeaderSize));
        frame[off] = static_cast<char>(
            static_cast<uint8_t>(frame[off]) ^
            static_cast<uint8_t>(1u << rng->Uniform(8)));
      }
      // falls through to the normal send below
    } else {
      roll -= f.corrupt;
      if (roll < f.truncate && frame.size() > 1) {
        truncated_.fetch_add(1, std::memory_order_relaxed);
        size_t cut = 1 + static_cast<size_t>(
                             rng->Uniform(frame.size() - 1));
        (void)conn->client.SendAll(frame.data(), cut);
        return false;  // cut the link mid-frame
      }
    }
  }
  if (!SendToClient(conn, frame)) return false;
  if (!held->empty()) {
    std::string h = std::move(*held);
    held->clear();
    if (!SendToClient(conn, h)) return false;
  }
  return true;
}

void ChaosLink::PumpFramed(
    Socket* src, Socket* dst,
    const std::function<bool(std::string&&)>& forward) {
  char buf[16 * 1024];
  std::string acc;  // unparsed source bytes
  bool alive = true;
  bool passthrough = false;  // lost framing: relay raw bytes
  while (alive) {
    auto n = src->Recv(buf, sizeof(buf));
    if (!n.ok() || n.value() == 0) break;
    if (passthrough) {
      if (!dst->SendAll(buf, n.value()).ok()) break;
      continue;
    }
    acc.append(buf, n.value());
    size_t pos = 0;
    while (alive) {
      if (acc.size() - pos < kFrameHeaderSize) break;
      const char* h = acc.data() + pos;
      if (PeekU32(h) != kFrameMagic) {
        // Not something we can frame (never happens against a real
        // peer): stop interfering and relay the rest verbatim.
        passthrough = true;
        alive = dst->SendAll(acc.data() + pos, acc.size() - pos).ok();
        pos = acc.size();
        break;
      }
      const uint32_t len = PeekU32(h + 16);
      if (acc.size() - pos < kFrameHeaderSize + len) break;
      std::string frame = acc.substr(pos, kFrameHeaderSize + len);
      pos += kFrameHeaderSize + len;
      alive = forward(std::move(frame));
    }
    acc.erase(0, pos);
  }
}

void ChaosLink::DownLoop(Conn* conn, uint64_t conn_seed) {
  Random rng(conn_seed);
  std::string held;  // reordered frame awaiting its successor
  PumpFramed(&conn->upstream, &conn->client,
             [this, conn, &rng, &held](std::string&& frame) {
               return ForwardFrame(conn, std::move(frame), &rng, &held);
             });
  if (!held.empty()) (void)SendToClient(conn, held);
  conn->client.Shutdown();
  conn->upstream.Shutdown();
  conn->down_done.store(true);
}

}  // namespace xcql::net
