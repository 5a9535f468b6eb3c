#ifndef DBPC_DAEMON_SOCK_BUFFER_H_
#define DBPC_DAEMON_SOCK_BUFFER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace dbpc {

/// Buffered line-oriented I/O over a connected socket, with the defensive
/// posture of a public-facing session layer:
///
///  - Every blocking read call carries a whole-call deadline
///    (`read_timeout_ms` measured from the call, not per chunk), so a peer
///    trickling one byte per poll interval — the slow-loris pattern —
///    cannot hold the caller past the timeout.
///  - `ReadLine` enforces `max_line_bytes` before a newline arrives;
///    an oversized line is a structured kInvalidArgument error, not an
///    unbounded buffer.
///  - Writes poll for writability with their own deadline, so a peer that
///    stops draining its receive window cannot block the server forever.
///
/// The class exposes two layers over one pair of buffers:
///
///  - A **blocking** API (`ReadLine`/`ReadExact`/`WriteAll`/`Flush`) used
///    by clients and by the daemon's accept-time refusal; waiting is done
///    with `poll()` under the call deadline.
///  - A **non-blocking step** API (`TryReadLine`/`TryReadExact`/
///    `FillOnce`/`DiscardInput`/`QueueWrite`/`FlushQueued`) used by the
///    daemon's reactor sessions,
///    where a session is a state machine and *waiting* belongs to the
///    event loop (epoll interest + timer heap), never to this class.
///    Step calls either complete from the buffers or report
///    `IoStep::kNeedMore`; they never sleep.
///
/// Replies are coalesced: `QueueWrite` appends into one output buffer and
/// a single `Flush`/`FlushQueued` drains it, so a multi-part reply
/// (header + counted payload + terminator) leaves in one `send()` — one
/// syscall, and no Nagle/delayed-ACK stall between the parts.
///
/// Buffers are recycled two ways: within a session, consumed input is
/// tracked by a head offset and capacity is retained across requests
/// (clear-and-reuse, no per-request allocation); across sessions, the
/// read/write buffers pass through a small process-wide free list, so a
/// run churning thousands of short-lived sessions does not allocate per
/// session either.
///
/// Errors are structured Status values: kDeadlineExceeded for timeouts,
/// kUnavailable when the peer closed the connection, kInvalidArgument for
/// oversized lines, kInternal for unexpected syscall failures. The session
/// layers (daemon.cc) map these onto wire errors / teardown; none of them
/// throw.
class SockBuffer {
 public:
  struct Limits {
    int read_timeout_ms = 10000;
    int write_timeout_ms = 10000;
    size_t max_line_bytes = 4096;
  };

  /// Outcome of one non-blocking step.
  enum class IoStep {
    kReady,     ///< The step completed (line/payload available, flush done).
    kNeedMore,  ///< Blocked on the socket: more readable data / writability.
  };

  /// Takes ownership of `fd` (closed by the destructor). The fd is put in
  /// non-blocking mode: deadlines are enforced by poll()/epoll, so no
  /// syscall may block past them.
  SockBuffer(int fd, Limits limits);
  ~SockBuffer();

  SockBuffer(const SockBuffer&) = delete;
  SockBuffer& operator=(const SockBuffer&) = delete;

  // --- Blocking API (clients) ---

  /// Reads up to and including the next '\n'; returns the line without the
  /// terminator (a trailing '\r' is also stripped, so both LF and CRLF
  /// framing work). Bytes after the newline stay buffered for the next
  /// call.
  Result<std::string> ReadLine();

  /// Reads exactly `n` bytes (the counted payload of a SUBMIT / DATA
  /// frame), honoring the same whole-call deadline.
  Result<std::string> ReadExact(size_t n);

  /// Queues `data` and flushes everything queued, polling for writability
  /// with the write deadline. Equivalent to QueueWrite + Flush.
  Status WriteAll(std::string_view data);

  /// Blocking flush of the queued output, under the write deadline.
  Status Flush();

  // --- Non-blocking step API (epoll reactor sessions) ---

  /// Consumes a complete line from the input buffer without touching the
  /// socket. kNeedMore when no full line is buffered yet; kInvalidArgument
  /// once the unterminated prefix exceeds max_line_bytes.
  Result<IoStep> TryReadLine(std::string* line);

  /// Consumes exactly `n` buffered bytes into `*out`; kNeedMore until the
  /// buffer holds them all.
  Result<IoStep> TryReadExact(size_t n, std::string* out);

  /// One recv() into the input buffer. kReady when bytes arrived,
  /// kNeedMore on EAGAIN (re-arm and wait), kUnavailable on EOF/reset.
  Result<IoStep> FillOnce();

  /// One recv() whose bytes are dropped: OK while the peer may send more,
  /// kUnavailable on EOF/reset.
  Status DiscardInput();

  /// Appends to the output buffer; nothing is sent until a flush.
  void QueueWrite(std::string_view data);

  /// Sends queued output until drained or EAGAIN. kReady when the buffer
  /// is empty, kNeedMore when the socket stopped accepting bytes (arm
  /// EPOLLOUT and retry), kUnavailable when the peer is gone.
  Result<IoStep> FlushQueued();

  size_t queued_write_bytes() const { return out_.size() - out_head_; }
  bool has_buffered_input() const { return head_ < buffer_.size(); }

  int fd() const { return fd_; }

  /// Buffers currently parked in the cross-session free list (test hook).
  static size_t RecycledBufferPoolSize();

 private:
  /// Appends the next chunk from the socket to buffer_, waiting at most
  /// `deadline_ms_remaining`. Returns kUnavailable on EOF.
  Status FillBuffer(long long deadline_ms_remaining);
  /// Resets the input buffer when fully consumed (capacity retained).
  void MaybeResetInput();

  int fd_;
  Limits limits_;
  std::string buffer_;  ///< Input; bytes before head_ are consumed.
  size_t head_ = 0;
  std::string out_;  ///< Coalesced output; bytes before out_head_ sent.
  size_t out_head_ = 0;
};

/// Disables Nagle on a TCP socket (no-op on non-TCP fds). Request/reply
/// traffic must not wait out delayed ACKs between a reply's segments.
void EnableTcpNoDelay(int fd);

}  // namespace dbpc

#endif  // DBPC_DAEMON_SOCK_BUFFER_H_
