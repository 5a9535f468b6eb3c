#include "daemon/sock_buffer.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <mutex>
#include <utility>
#include <vector>

namespace dbpc {

namespace {

using Clock = std::chrono::steady_clock;

long long RemainingMs(Clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                               Clock::now())
      .count();
}

/// Process-wide free list of session buffers. A daemon churning thousands
/// of short-lived sessions would otherwise allocate (and fault in) two
/// fresh buffers per connection; here a closed session's buffers are
/// handed to the next one. Bounded both in entry count and in per-buffer
/// capacity so a single huge payload cannot pin memory forever.
class BufferPool {
 public:
  static constexpr size_t kMaxEntries = 256;
  static constexpr size_t kMaxRecycledCapacity = 128 * 1024;

  static BufferPool& Instance() {
    static BufferPool* pool = new BufferPool();  // leaked: outlives sessions
    return *pool;
  }

  void Acquire(std::string* buffer) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pool_.empty()) return;
    *buffer = std::move(pool_.back());
    pool_.pop_back();
    buffer->clear();
  }

  void Release(std::string* buffer) {
    if (buffer->capacity() == 0 ||
        buffer->capacity() > kMaxRecycledCapacity) {
      return;
    }
    buffer->clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (pool_.size() >= kMaxEntries) return;
    pool_.push_back(std::move(*buffer));
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pool_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> pool_;
};

}  // namespace

void EnableTcpNoDelay(int fd) {
  int one = 1;
  // Fails harmlessly on AF_UNIX pairs (tests) — only TCP has Nagle.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

SockBuffer::SockBuffer(int fd, Limits limits) : fd_(fd), limits_(limits) {
  // The deadlines below are enforced by poll()/epoll; the fd must be
  // non-blocking so a send() larger than the socket buffer (or a recv()
  // racing a slow peer) returns EAGAIN instead of blocking past them.
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  BufferPool::Instance().Acquire(&buffer_);
  BufferPool::Instance().Acquire(&out_);
}

SockBuffer::~SockBuffer() {
  if (fd_ >= 0) ::close(fd_);
  BufferPool::Instance().Release(&buffer_);
  BufferPool::Instance().Release(&out_);
}

size_t SockBuffer::RecycledBufferPoolSize() {
  return BufferPool::Instance().Size();
}

void SockBuffer::MaybeResetInput() {
  if (head_ == buffer_.size()) {
    buffer_.clear();  // capacity retained for the next request
    head_ = 0;
  }
}

Result<SockBuffer::IoStep> SockBuffer::FillOnce() {
  // Consumed bytes are dropped before growing the buffer, so a long
  // session's input buffer stays bounded by one in-flight request.
  if (head_ > 0) {
    buffer_.erase(0, head_);
    head_ = 0;
  }
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return IoStep::kReady;
    }
    if (n == 0) return Status::Unavailable("connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStep::kNeedMore;
    return Status::Unavailable(std::string("recv: ") + strerror(errno));
  }
}

Status SockBuffer::DiscardInput() {
  char chunk[16384];
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) return Status::OK();
    if (n == 0) return Status::Unavailable("connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    return Status::Unavailable(std::string("recv: ") + strerror(errno));
  }
}

Result<SockBuffer::IoStep> SockBuffer::TryReadLine(std::string* line) {
  size_t pos = buffer_.find('\n', head_);
  if (pos == std::string::npos) {
    // No newline yet: a line longer than the limit is rejected before it
    // can grow without bound.
    if (buffer_.size() - head_ > limits_.max_line_bytes) {
      return Status::InvalidArgument(
          "line exceeds " + std::to_string(limits_.max_line_bytes) +
          " bytes");
    }
    return IoStep::kNeedMore;
  }
  line->assign(buffer_, head_, pos - head_);
  head_ = pos + 1;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  MaybeResetInput();
  return IoStep::kReady;
}

Result<SockBuffer::IoStep> SockBuffer::TryReadExact(size_t n,
                                                    std::string* out) {
  if (buffer_.size() - head_ < n) return IoStep::kNeedMore;
  out->assign(buffer_, head_, n);
  head_ += n;
  MaybeResetInput();
  return IoStep::kReady;
}

Status SockBuffer::FillBuffer(long long deadline_ms_remaining) {
  if (deadline_ms_remaining <= 0) {
    return Status::DeadlineExceeded(
        "read timed out after " + std::to_string(limits_.read_timeout_ms) +
        "ms");
  }
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  int rc = ::poll(&pfd, 1, static_cast<int>(deadline_ms_remaining));
  if (rc < 0) {
    if (errno == EINTR) return Status::OK();  // retry from the caller loop
    return Status::Internal(std::string("poll: ") + strerror(errno));
  }
  if (rc == 0) {
    return Status::DeadlineExceeded(
        "read timed out after " + std::to_string(limits_.read_timeout_ms) +
        "ms");
  }
  DBPC_ASSIGN_OR_RETURN(IoStep step, FillOnce());
  (void)step;  // kNeedMore after POLLIN is a spurious wakeup: just retry
  return Status::OK();
}

Result<std::string> SockBuffer::ReadLine() {
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(limits_.read_timeout_ms);
  for (;;) {
    std::string line;
    DBPC_ASSIGN_OR_RETURN(IoStep step, TryReadLine(&line));
    if (step == IoStep::kReady) return line;
    DBPC_RETURN_IF_ERROR(FillBuffer(RemainingMs(deadline)));
  }
}

Result<std::string> SockBuffer::ReadExact(size_t n) {
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(limits_.read_timeout_ms);
  for (;;) {
    std::string payload;
    DBPC_ASSIGN_OR_RETURN(IoStep step, TryReadExact(n, &payload));
    if (step == IoStep::kReady) return payload;
    DBPC_RETURN_IF_ERROR(FillBuffer(RemainingMs(deadline)));
  }
}

void SockBuffer::QueueWrite(std::string_view data) {
  // Compact lazily: a fully-sent buffer restarts from offset 0 (capacity
  // retained), so repeated queue/flush cycles do not shift bytes around.
  if (out_head_ == out_.size()) {
    out_.clear();
    out_head_ = 0;
  }
  out_.append(data);
}

Result<SockBuffer::IoStep> SockBuffer::FlushQueued() {
  while (out_head_ < out_.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-write yields EPIPE, not a
    // process-wide SIGPIPE.
    ssize_t n = ::send(fd_, out_.data() + out_head_, out_.size() - out_head_,
                       MSG_NOSIGNAL);
    if (n >= 0) {
      out_head_ += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStep::kNeedMore;
    return Status::Unavailable(std::string("send: ") + strerror(errno));
  }
  out_.clear();
  out_head_ = 0;
  return IoStep::kReady;
}

Status SockBuffer::Flush() {
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(limits_.write_timeout_ms);
  for (;;) {
    DBPC_ASSIGN_OR_RETURN(IoStep step, FlushQueued());
    if (step == IoStep::kReady) return Status::OK();
    long long remaining = RemainingMs(deadline);
    if (remaining <= 0) {
      return Status::DeadlineExceeded(
          "write timed out after " +
          std::to_string(limits_.write_timeout_ms) + "ms");
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (rc < 0 && errno != EINTR) {
      return Status::Internal(std::string("poll: ") + strerror(errno));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded(
          "write timed out after " +
          std::to_string(limits_.write_timeout_ms) + "ms");
    }
  }
}

Status SockBuffer::WriteAll(std::string_view data) {
  QueueWrite(data);
  return Flush();
}

}  // namespace dbpc
