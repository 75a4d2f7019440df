#include "net/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "common/string_util.h"

namespace xcql::net {

namespace {

Status Errno(const char* op) {
  return Status::Internal(StringPrintf("%s: %s", op, std::strerror(errno)));
}

Status SetNonBlockingFd(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::OK();
}

}  // namespace

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

Status EventLoop::Init(EventBackend backend) {
  if (wake_rd_ >= 0) return Status::InvalidArgument("loop already initialized");
  if (backend == EventBackend::kDefault) {
#ifdef __linux__
    backend = EventBackend::kEpoll;
#else
    backend = EventBackend::kPoll;
#endif
  }
#ifndef __linux__
  if (backend == EventBackend::kEpoll) {
    return Status::Unsupported("epoll backend requires Linux");
  }
#endif
  backend_ = backend;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Errno("pipe");
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  XCQL_RETURN_NOT_OK(SetNonBlockingFd(wake_rd_));
  XCQL_RETURN_NOT_OK(SetNonBlockingFd(wake_wr_));
#ifdef __linux__
  if (backend_ == EventBackend::kEpoll) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr tag = the wake pipe
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_rd_, &ev) != 0) {
      return Errno("epoll_ctl(ADD wake)");
    }
  }
#endif
  return Status::OK();
}

Status EventLoop::Add(int fd, void* tag, bool want_read, bool want_write) {
  if (tag == nullptr) {
    return Status::InvalidArgument("nullptr tag is reserved for the wake pipe");
  }
  Interest in;
  in.tag = tag;
  in.want_read = want_read;
  in.want_write = want_write;
#ifdef __linux__
  if (backend_ == EventBackend::kEpoll) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.ptr = tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Errno("epoll_ctl(ADD)");
    }
  }
#endif
  interest_[fd] = in;
  return Status::OK();
}

Status EventLoop::Update(int fd, bool want_read, bool want_write) {
  auto it = interest_.find(fd);
  if (it == interest_.end()) {
    return Status::NotFound(StringPrintf("fd %d not registered", fd));
  }
  if (it->second.want_read == want_read &&
      it->second.want_write == want_write) {
    return Status::OK();
  }
  it->second.want_read = want_read;
  it->second.want_write = want_write;
#ifdef __linux__
  if (backend_ == EventBackend::kEpoll) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.ptr = it->second.tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
      return Errno("epoll_ctl(MOD)");
    }
  }
#endif
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  if (interest_.erase(fd) == 0) return;
#ifdef __linux__
  if (backend_ == EventBackend::kEpoll) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
#endif
}

void EventLoop::Wake() {
  // One byte is enough to pop a sleeping poll/epoll; skip the write when a
  // previous wake has not been drained yet so a publish storm cannot fill
  // the pipe (a full pipe would make this call block).
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  char b = 1;
  ssize_t n;
  do {
    n = ::write(wake_wr_, &b, 1);
  } while (n < 0 && errno == EINTR);
}

void EventLoop::DrainWakePipe() {
  took_wake_ = true;
  // Empty the pipe first, then re-arm Wake(). In the other order a Wake()
  // landing between the two has its byte swallowed while the flag stays
  // set, and every later Wake() returns early: the loop would only run on
  // fd events and timeouts for the rest of the process. This way a Wake()
  // before the clear is covered by this very pass (took_wake_), and one
  // after it writes a fresh byte.
  char buf[64];
  while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
  }
  wake_pending_.exchange(false, std::memory_order_acq_rel);
}

Result<int> EventLoop::Wait(std::vector<LoopEvent>* out, int timeout_ms) {
  out->clear();
  took_wake_ = false;
#ifdef __linux__
  if (backend_ == EventBackend::kEpoll) return WaitEpoll(out, timeout_ms);
#endif
  return WaitPoll(out, timeout_ms);
}

#ifdef __linux__
Result<int> EventLoop::WaitEpoll(std::vector<LoopEvent>* out, int timeout_ms) {
  epoll_event events[256];
  int n = ::epoll_wait(epoll_fd_, events, 256, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    return Errno("epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    if (events[i].data.ptr == nullptr) {
      DrainWakePipe();
      continue;
    }
    LoopEvent ev;
    ev.tag = events[i].data.ptr;
    ev.readable = (events[i].events & EPOLLIN) != 0;
    ev.writable = (events[i].events & EPOLLOUT) != 0;
    ev.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out->push_back(ev);
  }
  return static_cast<int>(out->size());
}
#else
Result<int> EventLoop::WaitEpoll(std::vector<LoopEvent>*, int) {
  return Status::Unsupported("epoll backend requires Linux");
}
#endif

Result<int> EventLoop::WaitPoll(std::vector<LoopEvent>* out, int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.reserve(interest_.size() + 1);
  pollfd wake{};
  wake.fd = wake_rd_;
  wake.events = POLLIN;
  pfds.push_back(wake);
  std::vector<void*> tags;
  tags.reserve(interest_.size() + 1);
  tags.push_back(nullptr);
  for (const auto& [fd, in] : interest_) {
    pollfd p{};
    p.fd = fd;
    p.events = static_cast<short>((in.want_read ? POLLIN : 0) |
                                  (in.want_write ? POLLOUT : 0));
    pfds.push_back(p);
    tags.push_back(in.tag);
  }
  int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    return Errno("poll");
  }
  if (n == 0) return 0;
  for (size_t i = 0; i < pfds.size(); ++i) {
    if (pfds[i].revents == 0) continue;
    if (i == 0) {
      DrainWakePipe();
      continue;
    }
    LoopEvent ev;
    ev.tag = tags[i];
    ev.readable = (pfds[i].revents & POLLIN) != 0;
    ev.writable = (pfds[i].revents & POLLOUT) != 0;
    ev.error = (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    out->push_back(ev);
  }
  return static_cast<int>(out->size());
}

}  // namespace xcql::net
