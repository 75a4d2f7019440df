// net::EventLoop — a minimal readiness reactor for the fragment transport.
//
// One thread (the owner) calls Wait() in a loop and reacts to fd readiness;
// any thread may call Wake() to interrupt a sleeping Wait(). Registration
// (Add/Update/Remove) is owner-thread-only: the server's I/O thread owns
// every socket, so interest changes never race the poll itself.
//
// Two backends behind one interface:
//   kEpoll — epoll(7), level-triggered. The default on Linux; scales to
//            tens of thousands of fds with O(ready) wakeups.
//   kPoll  — poll(2) over a rebuilt pollfd array. Portable (macOS CI) and
//            kept runtime-selectable on Linux too, so the fallback path is
//            exercised by the same test suite instead of rotting.
//
// Wake() writes one byte into a self-pipe registered with the backend; the
// owner drains it inside Wait(). This is what lets the publisher thread
// hand frames to connection queues and nudge the I/O thread without ever
// touching epoll state from outside.
#ifndef XCQL_NET_EVENT_LOOP_H_
#define XCQL_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace xcql::net {

/// \brief Which readiness backend an EventLoop uses.
enum class EventBackend {
  kDefault,  // epoll on Linux, poll elsewhere
  kEpoll,    // fails Init() off Linux
  kPoll,
};

/// \brief One readiness report from Wait().
struct LoopEvent {
  void* tag = nullptr;  // caller's cookie from Add()
  bool readable = false;
  bool writable = false;
  /// Error/hangup on the fd. The owner should read it (to observe the
  /// error / EOF) and close; level-triggered backends re-report until then.
  bool error = false;
};

class EventLoop {
 public:
  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// \brief Creates the backend and the wake pipe. Call once.
  Status Init(EventBackend backend = EventBackend::kDefault);

  /// \brief Registers `fd` with an opaque `tag` echoed back in events.
  Status Add(int fd, void* tag, bool want_read, bool want_write);

  /// \brief Changes the interest set of a registered fd.
  Status Update(int fd, bool want_read, bool want_write);

  /// \brief Deregisters; must precede closing the fd.
  void Remove(int fd);

  /// \brief Blocks up to `timeout_ms` (-1 = forever) for readiness or a
  /// Wake(). Appends to `out` (cleared first) and returns the event count;
  /// 0 = timeout or spurious wake.
  Result<int> Wait(std::vector<LoopEvent>* out, int timeout_ms);

  /// \brief Interrupts a sleeping Wait(). Thread-safe, async-signal-unsafe.
  void Wake();

  /// \brief True when the last Wait() consumed a Wake() — the owner's cue
  /// that out-of-band work (e.g. publisher enqueues) arrived, as opposed
  /// to plain fd readiness. Owner thread only; reset by the next Wait().
  bool took_wake() const { return took_wake_; }

  EventBackend backend() const { return backend_; }

  /// \brief Registered fds, the wake pipe excluded (tests).
  size_t size() const { return interest_.size(); }

 private:
  struct Interest {
    void* tag = nullptr;
    bool want_read = false;
    bool want_write = false;
  };

  Result<int> WaitEpoll(std::vector<LoopEvent>* out, int timeout_ms);
  Result<int> WaitPoll(std::vector<LoopEvent>* out, int timeout_ms);
  void DrainWakePipe();

  EventBackend backend_ = EventBackend::kDefault;
  int epoll_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  // Coalesces Wake() storms: a sleeping loop needs one byte, not N.
  std::atomic<bool> wake_pending_{false};
  bool took_wake_ = false;  // owner thread only
  std::unordered_map<int, Interest> interest_;  // owner thread only
};

}  // namespace xcql::net

#endif  // XCQL_NET_EVENT_LOOP_H_
