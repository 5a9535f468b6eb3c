#include "daemon/admin.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#endif

#include <chrono>
#include <cstdio>
#include <future>
#include <utility>
#include <vector>

#include "common/log.h"

namespace dbpc {

#if !defined(__linux__)
// The server never runs off Linux (no Reactor can be created there); only
// the mask constants are needed to compile.
constexpr uint32_t EPOLLIN = 0x001;
constexpr uint32_t EPOLLOUT = 0x004;
constexpr uint32_t EPOLLERR = 0x008;
constexpr uint32_t EPOLLHUP = 0x010;
#endif

namespace {

using SteadyClock = std::chrono::steady_clock;

int RemainingMs(SteadyClock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - SteadyClock::now())
                  .count();
  return left <= 0 ? 0 : static_cast<int>(left);
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

std::string HttpResponseText(int code, std::string_view content_type,
                             std::string_view body) {
  std::string out;
  out.reserve(128 + body.size());
  out.append("HTTP/1.0 ");
  out.append(std::to_string(code));
  out.push_back(' ');
  out.append(ReasonPhrase(code));
  out.append("\r\nContent-Type: ");
  out.append(content_type);
  out.append("\r\nContent-Length: ");
  out.append(std::to_string(body.size()));
  out.append("\r\nConnection: close\r\n\r\n");
  out.append(body);
  return out;
}

std::string PlainResponse(int code, std::string_view body) {
  return HttpResponseText(code, "text/plain; charset=utf-8", body);
}

/// `dbpc_` + the dotted metric name with every non-[a-zA-Z0-9_] mapped to
/// '_', which satisfies the exposition-format name grammar.
std::string PrometheusName(const std::string& name) {
  std::string out = "dbpc_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string FormatPromDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

// --- HttpRequestParser ---

HttpRequestParser::State HttpRequestParser::Fail(std::string message) {
  state_ = State::kError;
  error_ = std::move(message);
  return state_;
}

HttpRequestParser::State HttpRequestParser::Consume(std::string_view bytes) {
  if (state_ != State::kNeedMore) return state_;
  buffer_.append(bytes);
  // The head ends at the first blank line; accept bare-LF peers.
  size_t crlf = buffer_.find("\r\n\r\n");
  size_t lf = buffer_.find("\n\n");
  size_t head_end = std::min(crlf, lf);
  if (head_end == std::string::npos) {
    if (buffer_.size() > max_bytes_) {
      return Fail("request head exceeds " + std::to_string(max_bytes_) +
                  " bytes");
    }
    return state_;
  }
  return FinishHead(head_end);
}

HttpRequestParser::State HttpRequestParser::FinishHead(size_t head_end) {
  if (head_end > max_bytes_) {
    return Fail("request head exceeds " + std::to_string(max_bytes_) +
                " bytes");
  }
  size_t line_end = buffer_.find('\n');
  std::string line = buffer_.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  // "<METHOD> <target> <HTTP/x.y>", single spaces.
  size_t first = line.find(' ');
  size_t second = first == std::string::npos
                      ? std::string::npos
                      : line.find(' ', first + 1);
  if (first == std::string::npos || second == std::string::npos) {
    return Fail("malformed request line \"" + line + "\"");
  }
  request_.method = line.substr(0, first);
  request_.target = line.substr(first + 1, second - first - 1);
  request_.version = line.substr(second + 1);
  if (request_.method.empty() || request_.target.empty()) {
    return Fail("malformed request line \"" + line + "\"");
  }
  if (request_.version.rfind("HTTP/", 0) != 0) {
    return Fail("unsupported protocol \"" + request_.version + "\"");
  }
  // Headers between the request line and the blank line are framing only;
  // nothing in the admin plane depends on them.
  state_ = State::kDone;
  return state_;
}

// --- Prometheus rendering ---

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snapshot.counters) {
    std::string prom = PrometheusName(name);
    out.append("# TYPE ").append(prom).append(" counter\n");
    out.append(prom).append(" ").append(std::to_string(value)).push_back('\n');
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string prom = PrometheusName(name);
    out.append("# TYPE ").append(prom).append(" gauge\n");
    out.append(prom).append(" ").append(std::to_string(value)).push_back('\n');
  }
  for (const MetricsSnapshot::RateData& rate : snapshot.rates) {
    std::string prom = PrometheusName(rate.name);
    out.append("# TYPE ").append(prom).append("_total counter\n");
    out.append(prom)
        .append("_total ")
        .append(std::to_string(rate.total))
        .push_back('\n');
    out.append("# TYPE ").append(prom).append("_per_sec gauge\n");
    const std::pair<const char*, double> windows[] = {
        {"1s", rate.per_sec_1s},
        {"10s", rate.per_sec_10s},
        {"60s", rate.per_sec_60s},
    };
    for (const auto& [window, value] : windows) {
      out.append(prom)
          .append("_per_sec{window=\"")
          .append(window)
          .append("\"} ")
          .append(FormatPromDouble(value))
          .push_back('\n');
    }
  }
  for (const MetricsSnapshot::HistogramData& h : snapshot.histograms) {
    std::string prom = PrometheusName(h.name);
    out.append("# TYPE ").append(prom).append(" histogram\n");
    uint64_t cumulative = 0;
    // The last bucket is open-ended (BucketIndex clamps into it), so its
    // samples only appear in +Inf; bounded buckets stop one short.
    for (int i = 0; i < Histogram::kBuckets - 1; ++i) {
      cumulative += h.buckets[i];
      out.append(prom)
          .append("_bucket{le=\"")
          .append(std::to_string(HistogramBucketUpperBound(i)))
          .append("\"} ")
          .append(std::to_string(cumulative))
          .push_back('\n');
    }
    out.append(prom)
        .append("_bucket{le=\"+Inf\"} ")
        .append(std::to_string(h.count))
        .push_back('\n');
    out.append(prom)
        .append("_sum ")
        .append(std::to_string(h.sum_us))
        .push_back('\n');
    out.append(prom)
        .append("_count ")
        .append(std::to_string(h.count))
        .push_back('\n');
  }
  return out;
}

// --- AdminServer ---

AdminServer::AdminServer(AdminOptions options, AdminHooks hooks,
                         Reactor& reactor)
    : options_(std::move(options)),
      hooks_(std::move(hooks)),
      reactor_(&reactor) {}

AdminServer::~AdminServer() { Stop(); }

Result<std::unique_ptr<AdminServer>> AdminServer::Start(AdminOptions options,
                                                        AdminHooks hooks,
                                                        Reactor& reactor) {
  if (hooks.metrics == nullptr) {
    return Status::InvalidArgument("AdminHooks::metrics must be set");
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument(
        "AdminOptions::port must be in [0, 65535] (got " +
        std::to_string(options.port) + ")");
  }
  std::unique_ptr<AdminServer> server(
      new AdminServer(std::move(options), std::move(hooks), reactor));
  DBPC_RETURN_IF_ERROR(server->Listen());
  std::promise<Status> registered;
  AdminServer* raw = server.get();
  reactor.Post(
      [raw, &registered] { registered.set_value(raw->RegisterOnLoop()); });
  DBPC_RETURN_IF_ERROR(registered.get_future().get());
  DBPC_LOG(LogLevel::kInfo, "admin_listening",
           {"host", server->options_.host}, {"port", server->port_});
  return server;
}

Status AdminServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse admin address \"" +
                                   options_.host + "\" (want IPv4 dotted)");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::Unavailable("bind admin " + options_.host + ":" +
                               std::to_string(options_.port) + ": " +
                               strerror(errno));
  }
  if (::listen(listen_fd_, 16) != 0) {
    return Status::Internal(std::string("listen: ") + strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    return Status::Internal(std::string("getsockname: ") + strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

std::string AdminServer::BuildResponse(const HttpRequest& request) {
  if (request.method != "GET") {
    return PlainResponse(405, "method not allowed (admin plane is GET-only)\n");
  }
  std::string path = request.target.substr(0, request.target.find('?'));
  if (path == "/healthz") {
    return PlainResponse(200, "ok\n");
  }
  if (path == "/readyz") {
    bool ready = hooks_.ready == nullptr || hooks_.ready();
    return ready ? PlainResponse(200, "ready\n")
                 : PlainResponse(503, "draining\n");
  }
  if (path == "/metrics") {
    if (hooks_.refresh) hooks_.refresh();
    return HttpResponseText(200, "text/plain; version=0.0.4; charset=utf-8",
                            RenderPrometheusText(hooks_.metrics->Snapshot()));
  }
  if (path == "/varz") {
    if (hooks_.refresh) hooks_.refresh();
    std::string body = hooks_.varz_json != nullptr ? hooks_.varz_json()
                                                   : hooks_.metrics->ToJson();
    return HttpResponseText(200, "application/json", body);
  }
  return PlainResponse(404, "not found (try /metrics /healthz /readyz /varz)\n");
}

// --- Loop thread ---

Status AdminServer::RegisterOnLoop() {
  SetNonBlocking(listen_fd_);
  DBPC_ASSIGN_OR_RETURN(
      listen_token_,
      reactor_->Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAccept(); }));
  return Status::OK();
}

void AdminServer::OnAccept() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or transient accept failure
    SetNonBlocking(fd);
    auto conn = std::make_unique<ReactorConn>(options_.max_request_bytes);
    conn->fd = fd;
    Result<uint64_t> token =
        reactor_->Add(fd, EPOLLIN, [this, fd](uint32_t events) {
          OnConnEvent(fd, events);
        });
    if (!token.ok()) {
      ::close(fd);
      continue;
    }
    conn->token = *token;
    // One deadline covers the whole exchange: a peer that neither finishes
    // its request nor drains the response is cut off.
    conn->deadline = reactor_->ScheduleAt(
        Reactor::Clock::now() +
            std::chrono::milliseconds(options_.io_timeout_ms),
        [this, fd] { CloseConn(fd); });
    conns_[fd] = std::move(conn);
  }
}

void AdminServer::OnConnEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ReactorConn* conn = it->second.get();
  if ((events & EPOLLERR) != 0) {
    CloseConn(fd);
    return;
  }
  if (conn->writing) {
    ContinueWrite(conn);
  } else {
    ContinueRead(conn);
  }
}

void AdminServer::ContinueRead(ReactorConn* conn) {
  char buf[2048];
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      HttpRequestParser::State state =
          conn->parser.Consume(std::string_view(buf, static_cast<size_t>(n)));
      if (state == HttpRequestParser::State::kDone) {
        StartWrite(conn);
        return;
      }
      if (state == HttpRequestParser::State::kError) {
        conn->out = PlainResponse(400, conn->parser.error() + "\n");
        StartWrite(conn);
        return;
      }
      continue;
    }
    if (n == 0) {  // EOF before a complete head: nothing to answer
      CloseConn(conn->fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn->fd);
    return;
  }
}

void AdminServer::StartWrite(ReactorConn* conn) {
  if (conn->out.empty()) conn->out = BuildResponse(conn->parser.request());
  conn->writing = true;
  conn->sent = 0;
  ContinueWrite(conn);
}

void AdminServer::ContinueWrite(ReactorConn* conn) {
  while (conn->sent < conn->out.size()) {
    ssize_t n = ::send(conn->fd, conn->out.data() + conn->sent,
                       conn->out.size() - conn->sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!reactor_->SetEvents(conn->fd, conn->token, EPOLLOUT).ok()) {
        CloseConn(conn->fd);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn->fd);
    return;
  }
  CloseConn(conn->fd);  // HTTP/1.0, Connection: close
}

void AdminServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ReactorConn* conn = it->second.get();
  if (conn->deadline != Reactor::kInvalidTimer) {
    reactor_->CancelTimer(conn->deadline);
  }
  reactor_->Remove(fd, conn->token);
  ::close(fd);
  conns_.erase(it);
}

void AdminServer::TeardownOnLoop() {
  if (listen_token_ != 0) {
    reactor_->Remove(listen_fd_, listen_token_);
    listen_token_ = 0;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) CloseConn(fd);
}

void AdminServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  std::promise<void> done;
  reactor_->Post([this, &done] {
    TeardownOnLoop();
    done.set_value();
  });
  // The daemon stops the admin plane before its reactors, so the posted
  // teardown runs; the timed fallback only covers a mis-ordered caller
  // (loop already gone — its thread is dead, so direct closes are safe).
  if (done.get_future().wait_for(std::chrono::seconds(5)) ==
      std::future_status::timeout) {
    TeardownOnLoop();
  }
}

// --- HttpGet ---

Result<HttpResponse> HttpGet(const std::string& host, int port,
                             const std::string& path, int timeout_ms) {
  SteadyClock::time_point deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  SetNonBlocking(fd);
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse host \"" + host +
                                   "\" (want IPv4 dotted)");
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 strerror(errno));
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    if (::poll(&pfd, 1, RemainingMs(deadline)) <= 0) {
      return Status::DeadlineExceeded("connect " + host + ":" +
                                      std::to_string(port) + " timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + ": " + strerror(err));
    }
  }
  std::string request = "GET " + path + " HTTP/1.0\r\nHost: " + host +
                        "\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      if (::poll(&pfd, 1, RemainingMs(deadline)) <= 0) {
        return Status::DeadlineExceeded("request write timed out");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(std::string("send: ") + strerror(errno));
  }
  std::string raw;
  char buf[4096];
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      raw.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) break;  // server closed: response complete
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      if (::poll(&pfd, 1, RemainingMs(deadline)) <= 0) {
        return Status::DeadlineExceeded("response read timed out");
      }
      continue;
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(std::string("recv: ") + strerror(errno));
  }
  // "HTTP/1.0 200 OK\r\n...headers...\r\n\r\n<body>"
  size_t line_end = raw.find('\n');
  if (line_end == std::string::npos || raw.rfind("HTTP/", 0) != 0) {
    return Status::Internal("malformed HTTP response");
  }
  size_t code_at = raw.find(' ');
  if (code_at == std::string::npos || code_at > line_end) {
    return Status::Internal("malformed HTTP status line");
  }
  HttpResponse response;
  response.status_code = std::atoi(raw.c_str() + code_at + 1);
  size_t crlf = raw.find("\r\n\r\n");
  size_t lf = raw.find("\n\n");
  if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
    response.body = raw.substr(crlf + 4);
  } else if (lf != std::string::npos) {
    response.body = raw.substr(lf + 2);
  }
  return response;
}

}  // namespace dbpc
