#include "daemon/sock_buffer.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

namespace dbpc {
namespace {

/// A connected AF_UNIX pair: `reader` wraps one end, `peer_fd` is the raw
/// other end driven directly by the test.
struct Pair {
  std::unique_ptr<SockBuffer> reader;
  int peer_fd = -1;

  explicit Pair(SockBuffer::Limits limits) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    reader = std::make_unique<SockBuffer>(fds[0], limits);
    peer_fd = fds[1];
  }

  ~Pair() {
    if (peer_fd >= 0) ::close(peer_fd);
  }

  void Send(const std::string& bytes) {
    ASSERT_EQ(::send(peer_fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  void CloseWrite() {
    ::shutdown(peer_fd, SHUT_WR);
  }
};

SockBuffer::Limits FastLimits() {
  return SockBuffer::Limits{/*read_timeout_ms=*/500,
                            /*write_timeout_ms=*/500,
                            /*max_line_bytes=*/64};
}

TEST(SockBufferTest, ReadsLineAndStripsTerminators) {
  Pair pair(FastLimits());
  pair.Send("PING\nSTATUS 1\r\n");
  Result<std::string> line = pair.reader->ReadLine();
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(*line, "PING");
  line = pair.reader->ReadLine();
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(*line, "STATUS 1");
}

TEST(SockBufferTest, ReassemblesLineFromPartialWrites) {
  // A command line split across many TCP segments must come out whole —
  // including a split in the middle of the terminator sequence.
  Pair pair(FastLimits());
  std::thread writer([&pair] {
    for (const char* chunk : {"SUB", "MIT 1", "23 trace", "=1\r", "\n"}) {
      pair.Send(chunk);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  Result<std::string> line = pair.reader->ReadLine();
  writer.join();
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(*line, "SUBMIT 123 trace=1");
}

TEST(SockBufferTest, ReadExactSpansBufferBoundaries) {
  // Payload bytes arriving together with the command line stay buffered;
  // the rest arrives later; ReadExact must splice both.
  Pair pair(FastLimits());
  pair.Send("SUBMIT 10\nabcd");
  Result<std::string> line = pair.reader->ReadLine();
  ASSERT_TRUE(line.ok()) << line.status();
  std::thread writer([&pair] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pair.Send("efghij");
  });
  Result<std::string> payload = pair.reader->ReadExact(10);
  writer.join();
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(*payload, "abcdefghij");
}

TEST(SockBufferTest, OversizedLineIsStructuredError) {
  Pair pair(FastLimits());
  pair.Send(std::string(100, 'x'));  // no newline within max_line_bytes=64
  Result<std::string> line = pair.reader->ReadLine();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kInvalidArgument);
}

TEST(SockBufferTest, ReadTimesOutAsDeadlineExceeded) {
  Pair pair(FastLimits());
  auto start = std::chrono::steady_clock::now();
  Result<std::string> line = pair.reader->ReadLine();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed, 400);
}

TEST(SockBufferTest, SlowTrickleCannotExtendTheDeadline) {
  // The deadline is whole-call: a peer feeding one byte per poll interval
  // must still be cut off at read_timeout_ms, not kept alive per byte.
  Pair pair(FastLimits());
  std::atomic<bool> done{false};
  std::thread dripper([&pair, &done] {
    while (!done.load()) {
      ::send(pair.peer_fd, "x", 1, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  auto start = std::chrono::steady_clock::now();
  Result<std::string> line = pair.reader->ReadLine();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  done.store(true);
  dripper.join();
  ASSERT_FALSE(line.ok());
  // Either the deadline fired or the drip crossed max_line_bytes first;
  // both are structured, and neither lets the call run unboundedly.
  EXPECT_TRUE(line.status().code() == StatusCode::kDeadlineExceeded ||
              line.status().code() == StatusCode::kInvalidArgument)
      << line.status();
  EXPECT_LT(elapsed, 5000);
}

TEST(SockBufferTest, PeerCloseIsUnavailable) {
  Pair pair(FastLimits());
  pair.Send("no newline");
  pair.CloseWrite();
  Result<std::string> line = pair.reader->ReadLine();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kUnavailable);
}

TEST(SockBufferTest, MidPayloadDisconnectIsUnavailable) {
  // The mid-request disconnect shape: SUBMIT promised 100 bytes, the peer
  // died after 5. ReadExact must fail structurally, not hang or return a
  // short read.
  Pair pair(FastLimits());
  pair.Send("SUBMIT 100\nhello");
  ASSERT_TRUE(pair.reader->ReadLine().ok());
  pair.CloseWrite();
  Result<std::string> payload = pair.reader->ReadExact(100);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kUnavailable);
}

TEST(SockBufferTest, WriteAllDeliversEverything) {
  Pair pair(FastLimits());
  std::string blob(256 * 1024, 'y');
  std::string received;
  // Drain concurrently: the blob exceeds any default socket buffer, so an
  // unread peer would otherwise hit the write deadline.
  std::thread drainer([&pair, &received, &blob] {
    char chunk[4096];
    while (received.size() < blob.size()) {
      ssize_t n = ::recv(pair.peer_fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      received.append(chunk, static_cast<size_t>(n));
    }
  });
  Status wrote = pair.reader->WriteAll(blob);
  drainer.join();
  ASSERT_TRUE(wrote.ok()) << wrote;
  EXPECT_EQ(received, blob);
}

TEST(SockBufferTest, TryReadLineReportsNeedMoreWithoutBlocking) {
  Pair pair(FastLimits());
  // Nothing buffered: kNeedMore immediately, no waiting.
  auto start = std::chrono::steady_clock::now();
  Result<SockBuffer::IoStep> step = pair.reader->TryReadLine(nullptr);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(*step, SockBuffer::IoStep::kNeedMore);
  EXPECT_LT(elapsed, 100);

  // A partial line stays kNeedMore; completing it flips to kReady.
  pair.Send("PI");
  ASSERT_TRUE(pair.reader->FillOnce().ok());
  step = pair.reader->TryReadLine(nullptr);
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(*step, SockBuffer::IoStep::kNeedMore);

  pair.Send("NG\r\nNEXT\n");
  ASSERT_TRUE(pair.reader->FillOnce().ok());
  std::string line;
  step = pair.reader->TryReadLine(&line);
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(*step, SockBuffer::IoStep::kReady);
  EXPECT_EQ(line, "PING");
  // The second pipelined line is already buffered — consumable with no
  // further fill.
  step = pair.reader->TryReadLine(&line);
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(*step, SockBuffer::IoStep::kReady);
  EXPECT_EQ(line, "NEXT");
}

TEST(SockBufferTest, TryReadExactAccumulatesAcrossFills) {
  Pair pair(FastLimits());
  pair.Send("abcd");
  ASSERT_TRUE(pair.reader->FillOnce().ok());
  std::string payload;
  Result<SockBuffer::IoStep> step = pair.reader->TryReadExact(10, &payload);
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(*step, SockBuffer::IoStep::kNeedMore);

  pair.Send("efghij");
  ASSERT_TRUE(pair.reader->FillOnce().ok());
  step = pair.reader->TryReadExact(10, &payload);
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(*step, SockBuffer::IoStep::kReady);
  EXPECT_EQ(payload, "abcdefghij");
}

TEST(SockBufferTest, DiscardInputDropsBytesWithoutBufferingThem) {
  Pair pair(FastLimits());
  pair.Send("SUBMIT 3\nabc\n");
  EXPECT_TRUE(pair.reader->DiscardInput().ok());
  EXPECT_FALSE(pair.reader->has_buffered_input());
  // The dropped bytes never surface as input.
  Result<SockBuffer::IoStep> step = pair.reader->TryReadLine(nullptr);
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(*step, SockBuffer::IoStep::kNeedMore);

  // A quiet socket that is still open: OK at once, no waiting.
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(pair.reader->DiscardInput().ok());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
            100);
}

TEST(SockBufferTest, DiscardInputReportsPeerCloseAsUnavailable) {
  Pair pair(FastLimits());
  pair.Send(std::string(40 * 1024, 'J'));
  pair.CloseWrite();
  // Each call drops at most one chunk, so a backlog takes several calls;
  // all of them are OK until the peer's EOF is reached.
  int calls = 0;
  Status discarded;
  while ((discarded = pair.reader->DiscardInput()).ok()) {
    ASSERT_LT(++calls, 1000);
  }
  EXPECT_GE(calls, 2);
  EXPECT_EQ(discarded.code(), StatusCode::kUnavailable);
  EXPECT_NE(discarded.message().find("closed by peer"), std::string::npos)
      << discarded;
}

TEST(SockBufferTest, QueuedWritesCoalesceIntoOneFlush) {
  Pair pair(FastLimits());
  // A multi-part reply (status line + payload + terminator) queued piece
  // by piece must reach the peer as one contiguous byte stream.
  pair.reader->QueueWrite("DATA 5\n");
  pair.reader->QueueWrite("hello");
  pair.reader->QueueWrite("\n");
  EXPECT_EQ(pair.reader->queued_write_bytes(), 13u);
  Result<SockBuffer::IoStep> step = pair.reader->FlushQueued();
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(*step, SockBuffer::IoStep::kReady);
  EXPECT_EQ(pair.reader->queued_write_bytes(), 0u);

  char chunk[64];
  ssize_t n = ::recv(pair.peer_fd, chunk, sizeof(chunk), 0);
  ASSERT_EQ(n, 13);
  EXPECT_EQ(std::string(chunk, 13), "DATA 5\nhello\n");
}

TEST(SockBufferTest, FlushQueuedReportsNeedMoreOnFullSocketAndResumes) {
  Pair pair(FastLimits());
  // Shrink both kernel buffers so a modest blob overfills them while the
  // peer is not reading: FlushQueued must park at kNeedMore (the epoll
  // session re-arms EPOLLOUT on this), then complete once the peer drains.
  int small = 4096;
  ASSERT_EQ(::setsockopt(pair.reader->fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  ASSERT_EQ(::setsockopt(pair.peer_fd, SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);
  std::string blob(512 * 1024, 'w');
  pair.reader->QueueWrite(blob);
  Result<SockBuffer::IoStep> step = pair.reader->FlushQueued();
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_EQ(*step, SockBuffer::IoStep::kNeedMore);
  EXPECT_GT(pair.reader->queued_write_bytes(), 0u);

  std::string received;
  std::thread drainer([&] {
    char chunk[4096];
    while (received.size() < blob.size()) {
      ssize_t n = ::recv(pair.peer_fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      received.append(chunk, static_cast<size_t>(n));
    }
  });
  // Keep flushing as the peer drains (what the reactor does on EPOLLOUT).
  while (pair.reader->queued_write_bytes() > 0) {
    step = pair.reader->FlushQueued();
    ASSERT_TRUE(step.ok()) << step.status();
    if (*step == SockBuffer::IoStep::kNeedMore) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  drainer.join();
  EXPECT_EQ(received, blob);
}

TEST(SockBufferTest, DestroyedBuffersAreRecycledThroughThePool) {
  size_t before = SockBuffer::RecycledBufferPoolSize();
  {
    Pair pair(FastLimits());
    pair.Send("PING\n");
    ASSERT_TRUE(pair.reader->ReadLine().ok());
  }  // reader destroyed: its input/output buffers return to the free list
  size_t after = SockBuffer::RecycledBufferPoolSize();
  EXPECT_GT(after, before);

  // A fresh session draws from the pool rather than growing it further.
  Pair reuse(FastLimits());
  EXPECT_LT(SockBuffer::RecycledBufferPoolSize(), after);
}

TEST(SockBufferTest, WriteToStalledPeerTimesOut) {
  Pair pair(FastLimits());
  // Nobody reads peer_fd: once both socket buffers fill, WriteAll must
  // give up at the write deadline instead of blocking forever.
  std::string blob(8 * 1024 * 1024, 'z');
  Status wrote = pair.reader->WriteAll(blob);
  ASSERT_FALSE(wrote.ok());
  EXPECT_EQ(wrote.code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace dbpc
