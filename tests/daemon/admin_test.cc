#include "daemon/admin.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/sock_buffer.h"
#include "restructure/plan_parser.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

using HttpState = HttpRequestParser::State;

// --- HttpRequestParser ---

TEST(HttpParserTest, SimpleGetParsesInOneShot) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n"),
            HttpState::kDone);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/metrics");
  EXPECT_EQ(parser.request().version, "HTTP/1.0");
}

TEST(HttpParserTest, ByteAtATimeFeedReachesDoneOnlyAtTheBlankLine) {
  const std::string raw = "GET /healthz HTTP/1.1\r\nAccept: */*\r\n\r\n";
  HttpRequestParser parser;
  for (size_t i = 0; i + 1 < raw.size(); ++i) {
    ASSERT_EQ(parser.Consume(std::string_view(&raw[i], 1)),
              HttpState::kNeedMore)
        << "byte " << i;
  }
  EXPECT_EQ(parser.Consume(std::string_view(&raw[raw.size() - 1], 1)),
            HttpState::kDone);
  EXPECT_EQ(parser.request().target, "/healthz");
}

TEST(HttpParserTest, BareLfFramingIsAccepted) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET /varz HTTP/1.0\n\n"), HttpState::kDone);
  EXPECT_EQ(parser.request().target, "/varz");
}

TEST(HttpParserTest, StateIsFinalAfterDone) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Consume("GET /a HTTP/1.0\r\n\r\n"), HttpState::kDone);
  // A pipelined second request is ignored: one request per connection.
  EXPECT_EQ(parser.Consume("GET /b HTTP/1.0\r\n\r\n"), HttpState::kDone);
  EXPECT_EQ(parser.request().target, "/a");
}

TEST(HttpParserTest, OversizedHeadWithoutBlankLineFails) {
  HttpRequestParser parser(/*max_bytes=*/64);
  EXPECT_EQ(parser.Consume(std::string(100, 'A')), HttpState::kError);
  EXPECT_NE(parser.error().find("exceeds"), std::string::npos)
      << parser.error();
}

TEST(HttpParserTest, OversizedHeadFailsEvenWhenTheBlankLineArrives) {
  // The whole head lands in one Consume, so the search finds the blank
  // line — the size cap must still apply.
  HttpRequestParser parser(/*max_bytes=*/64);
  std::string raw = "GET /" + std::string(100, 'a') + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(parser.Consume(raw), HttpState::kError);
  EXPECT_NE(parser.error().find("exceeds"), std::string::npos);
}

TEST(HttpParserTest, MalformedRequestLineFails) {
  // No spaces, a blank head, a doubled space (empty target), a leading
  // space (empty method) and a missing version: none may route.
  for (const char* raw :
       {"NOSPACESHERE\r\n\r\n", "\r\n\r\n", "GET  HTTP/1.0\r\n\r\n",
        " /metrics HTTP/1.0\r\n\r\n", "GET /x\r\n\r\n"}) {
    HttpRequestParser parser;
    EXPECT_EQ(parser.Consume(raw), HttpState::kError) << raw;
    EXPECT_NE(parser.error().find("malformed"), std::string::npos)
        << parser.error();
  }
}

TEST(HttpParserTest, NonHttpProtocolFails) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET / FTP/1.0\r\n\r\n"), HttpState::kError);
  EXPECT_NE(parser.error().find("unsupported protocol"), std::string::npos)
      << parser.error();
}

TEST(HttpParserTest, HeadLimitHoldsAcrossManySmallFeeds) {
  // A peer trickling a head with no blank line is cut off at the cap,
  // however small its segments: the buffer never grows past it.
  HttpRequestParser parser(/*max_bytes=*/64);
  const std::string raw = "GET /metrics HTTP/1.0\r\nX-Pad: " +
                          std::string(100, 'p');
  size_t fed = 0;
  HttpState state = HttpState::kNeedMore;
  while (fed < raw.size() && state == HttpState::kNeedMore) {
    state = parser.Consume(std::string_view(&raw[fed], 1));
    ++fed;
  }
  EXPECT_EQ(state, HttpState::kError);
  EXPECT_EQ(fed, 65u);
  // Final: more bytes, even a blank line, change nothing.
  EXPECT_EQ(parser.Consume("\r\n\r\n"), HttpState::kError);
}

TEST(HttpParserTest, ControlBytesInTheTargetAreCarriedNotInterpreted) {
  // NUL and high bytes in the target are opaque: the head still frames,
  // the target keeps every byte (no C-string truncation to "/met"), and
  // routing then matches exact paths only.
  static const char kRaw[] = "GET /met\0rics\xff HTTP/1.0\r\n\r\n";
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume(std::string_view(kRaw, sizeof(kRaw) - 1)),
            HttpState::kDone);
  static const char kTarget[] = "/met\0rics\xff";
  EXPECT_EQ(parser.request().target,
            std::string(kTarget, sizeof(kTarget) - 1));
}

// --- RenderPrometheusText ---

TEST(PrometheusTest, CountersAndGaugesRenderWithTypeLinesAndMangledNames) {
  MetricsRegistry registry;
  registry.GetCounter("daemon.jobs_admitted")->Increment(3);
  registry.GetGauge("cache.entries")->Set(17);
  std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE dbpc_daemon_jobs_admitted counter\n"
                      "dbpc_daemon_jobs_admitted 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE dbpc_cache_entries gauge\n"
                      "dbpc_cache_entries 17\n"),
            std::string::npos)
      << text;
}

TEST(PrometheusTest, RatesRenderTotalAndWindowedSeries) {
  MetricsRegistry registry;
  RollingRate* rate = registry.GetRate("service.conversions");
  rate->Tick(5);
  std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE dbpc_service_conversions_total counter\n"
                      "dbpc_service_conversions_total 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE dbpc_service_conversions_per_sec gauge\n"),
            std::string::npos)
      << text;
  for (const char* window : {"1s", "10s", "60s"}) {
    EXPECT_NE(text.find("dbpc_service_conversions_per_sec{window=\"" +
                        std::string(window) + "\"} "),
              std::string::npos)
        << text;
  }
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeAndInfEqualsCount) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("daemon.request_us");
  h->Record(1);     // bucket 0: [0, 2)
  h->Record(3);     // bucket 1: [2, 4)
  h->Record(1000);  // bucket 9: [512, 1024)
  std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE dbpc_daemon_request_us histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_bucket{le=\"2\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_bucket{le=\"4\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_bucket{le=\"1024\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_sum 1004\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dbpc_daemon_request_us_count 3\n"), std::string::npos)
      << text;
}

// --- AdminServer routing + a standalone end-to-end scrape ---

/// A standalone admin server over a bare registry and its own reactor (no
/// daemon): routing and transport can be exercised without conversion
/// machinery.
struct StandaloneAdmin {
  MetricsRegistry registry;
  std::atomic<bool> ready{true};
  std::unique_ptr<Reactor> reactor =
      std::move(Reactor::Create("admin-test")).value();
  std::unique_ptr<AdminServer> server;  ///< Declared last: stops first.

  explicit StandaloneAdmin(AdminOptions options = AdminOptions{}) {
    AdminHooks hooks;
    hooks.metrics = &registry;
    hooks.ready = [this] { return ready.load(); };
    Result<std::unique_ptr<AdminServer>> started =
        AdminServer::Start(std::move(options), hooks, *reactor);
    EXPECT_TRUE(started.ok()) << started.status();
    server = std::move(started).value();
  }
};

HttpRequest MakeRequest(const std::string& method, const std::string& target) {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.0";
  return request;
}

TEST(AdminServerTest, RoutingTableCoversEveryEndpoint) {
  StandaloneAdmin admin;
  admin.registry.GetCounter("daemon.jobs_admitted")->Increment();

  EXPECT_EQ(admin.server->BuildResponse(MakeRequest("GET", "/healthz"))
                .rfind("HTTP/1.0 200", 0),
            0u);
  EXPECT_EQ(admin.server->BuildResponse(MakeRequest("GET", "/nope"))
                .rfind("HTTP/1.0 404", 0),
            0u);
  EXPECT_EQ(admin.server->BuildResponse(MakeRequest("POST", "/metrics"))
                .rfind("HTTP/1.0 405", 0),
            0u);

  // Query strings are stripped before routing.
  std::string metrics =
      admin.server->BuildResponse(MakeRequest("GET", "/metrics?debug=1"));
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_NE(metrics.find("dbpc_daemon_jobs_admitted 1"), std::string::npos);

  // /readyz follows the ready hook.
  EXPECT_EQ(admin.server->BuildResponse(MakeRequest("GET", "/readyz"))
                .rfind("HTTP/1.0 200", 0),
            0u);
  admin.ready.store(false);
  std::string draining =
      admin.server->BuildResponse(MakeRequest("GET", "/readyz"));
  EXPECT_EQ(draining.rfind("HTTP/1.0 503", 0), 0u);
  EXPECT_NE(draining.find("draining"), std::string::npos);
}

TEST(AdminServerTest, ServesHttpOverARealSocket) {
  StandaloneAdmin admin;
  admin.registry.GetGauge("daemon.queue_depth")->Set(4);

  Result<HttpResponse> health =
      HttpGet("127.0.0.1", admin.server->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status_code, 200);
  EXPECT_EQ(health->body, "ok\n");

  Result<HttpResponse> metrics =
      HttpGet("127.0.0.1", admin.server->port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->status_code, 200);
  EXPECT_NE(metrics->body.find("dbpc_daemon_queue_depth 4\n"),
            std::string::npos)
      << metrics->body;

  Result<HttpResponse> missing =
      HttpGet("127.0.0.1", admin.server->port(), "/no-such");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->status_code, 404);

  // Stop is idempotent.
  admin.server->Stop();
  admin.server->Stop();
}

/// A raw loopback connection to `port`, for requests HttpGet cannot send.
/// Reads are bounded by a 5s deadline so a wedged server fails the test
/// instead of hanging it.
std::unique_ptr<SockBuffer> RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return std::make_unique<SockBuffer>(
      fd, SockBuffer::Limits{/*read_timeout_ms=*/5000,
                             /*write_timeout_ms=*/5000,
                             /*max_line_bytes=*/1 << 16});
}

/// Every line the server sends until it closes, newline-joined.
std::string ReadToClose(SockBuffer& sock) {
  std::string text;
  for (Result<std::string> line = sock.ReadLine(); line.ok();
       line = sock.ReadLine()) {
    text += *line;
    text += '\n';
  }
  return text;
}

TEST(AdminServerTest, MalformedRequestIsAnswered400ThenClosed) {
  StandaloneAdmin admin;
  std::unique_ptr<SockBuffer> sock = RawConnect(admin.server->port());
  ASSERT_TRUE(sock->WriteAll("NOSPACESHERE\r\n\r\n").ok());
  std::string response = ReadToClose(*sock);
  EXPECT_EQ(response.rfind("HTTP/1.0 400", 0), 0u) << response;
  EXPECT_NE(response.find("malformed request line"), std::string::npos)
      << response;

  // The bad peer cost one connection, not the endpoint.
  Result<HttpResponse> health =
      HttpGet("127.0.0.1", admin.server->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status_code, 200);
}

TEST(AdminServerTest, SilentConnectionIsClosedAtTheIoTimeout) {
  AdminOptions options;
  options.io_timeout_ms = 100;
  StandaloneAdmin admin(options);
  std::unique_ptr<SockBuffer> sock = RawConnect(admin.server->port());
  // Half a request, then silence: the one per-connection deadline closes
  // the socket without an answer, well inside the client's 5s wait.
  ASSERT_TRUE(sock->WriteAll("GET /metr").ok());
  auto start = std::chrono::steady_clock::now();
  Result<std::string> line = sock->ReadLine();
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ASSERT_FALSE(line.ok()) << *line;
  EXPECT_EQ(line.status().code(), StatusCode::kUnavailable) << line.status();
  EXPECT_LT(elapsed_ms, 3000);

  // Other scrapers are unaffected.
  Result<HttpResponse> health =
      HttpGet("127.0.0.1", admin.server->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status_code, 200);
}

// --- Daemon-integrated admin plane ---

const char* kSeniorsCpl = R"(PROGRAM SENIORS.
  FOR EACH E IN FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) DO
    GET EMP-NAME OF E INTO N.
    DISPLAY N.
  END-FOR.
END PROGRAM.
)";

RestructuringPlan Figure44Plan() {
  return std::move(ParsePlan(R"(
RESTRUCTURE PLAN FIGURE-4-4.
  INTRODUCE RECORD DEPT BETWEEN DIV-EMP GROUPING BY DEPT-NAME
      AS DIV-DEPT AND DEPT-EMP.
END PLAN.
)"))
      .value();
}

DaemonOptions TestOptions() {
  DaemonOptions options;
  options.port = 0;
  options.admin_port = 0;  // ephemeral admin endpoint on every fixture
  options.read_timeout_ms = 2000;
  options.write_timeout_ms = 2000;
  options.result_wait_ms = 5000;
  options.drain_grace_ms = 10000;
  options.service.jobs = 2;
  options.service.supervisor.analyst = ApproveAllAnalyst();
  return options;
}

struct Fixture {
  RestructuringPlan plan = Figure44Plan();
  std::unique_ptr<ConversionDaemon> daemon;

  explicit Fixture(DaemonOptions options) {
    Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
    Result<std::unique_ptr<ConversionDaemon>> started =
        ConversionDaemon::Start(schema, plan.View(), std::move(options));
    EXPECT_TRUE(started.ok()) << started.status();
    daemon = std::move(started).value();
  }

  std::unique_ptr<DaemonClient> Connect() {
    Result<std::unique_ptr<DaemonClient>> client =
        DaemonClient::Connect("127.0.0.1", daemon->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  Result<HttpResponse> Scrape(const std::string& path) {
    return HttpGet("127.0.0.1", daemon->admin_port(), path);
  }
};

TEST(DaemonAdminTest, MetricsExposesTheOperationalFamilies) {
  Fixture fixture(TestOptions());
  ASSERT_GT(fixture.daemon->admin_port(), 0);
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ConversionRequest request;
  request.source = kSeniorsCpl;
  ASSERT_TRUE(client->Convert(request).ok());

  Result<HttpResponse> metrics = fixture.Scrape("/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_EQ(metrics->status_code, 200);
  const std::string& body = metrics->body;
  for (const char* family :
       {"dbpc_daemon_queue_depth", "dbpc_daemon_inflight_jobs",
        "dbpc_daemon_active_sessions", "dbpc_daemon_parked_sessions",
        "dbpc_service_workers_busy", "dbpc_cache_entries",
        "dbpc_service_conversions_total", "dbpc_daemon_request_us_count"}) {
    EXPECT_NE(body.find(family), std::string::npos)
        << "missing family " << family << " in:\n"
        << body;
  }
  // The scrape refreshes sampled gauges: the one connected session shows.
  EXPECT_NE(body.find("dbpc_daemon_active_sessions 1\n"), std::string::npos)
      << body;
  // The completed conversion is visible in the rate's running total.
  EXPECT_NE(body.find("dbpc_service_conversions_total 1\n"),
            std::string::npos)
      << body;
}

TEST(DaemonAdminTest, VarzServesAJsonSnapshot) {
  Fixture fixture(TestOptions());
  Result<HttpResponse> varz = fixture.Scrape("/varz");
  ASSERT_TRUE(varz.ok()) << varz.status();
  ASSERT_EQ(varz->status_code, 200);
  EXPECT_EQ(varz->body.front(), '{') << varz->body;
  for (const char* key : {"\"server\":\"dbpcd\"", "\"io_model\"",
                          "\"uptime_s\"", "\"draining\":false", "\"build\"",
                          "\"metrics\""}) {
    EXPECT_NE(varz->body.find(key), std::string::npos)
        << "missing " << key << " in:\n"
        << varz->body;
  }
}

TEST(DaemonAdminTest, ReadyzFlipsTo503WhileADrainIsInFlight) {
  DaemonOptions options = TestOptions();
  options.service.jobs = 1;
  // The only worker blocks until released, so the DRAIN provably overlaps
  // the /readyz probes below.
  std::atomic<bool> release{false};
  options.service.pipeline_override =
      [&release](const Program& program) -> Result<PipelineOutcome> {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  Fixture fixture(std::move(options));

  Result<HttpResponse> before = fixture.Scrape("/readyz");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->status_code, 200);
  EXPECT_EQ(before->body, "ready\n");

  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ConversionRequest request;
  request.source = kSeniorsCpl;
  ASSERT_TRUE(client->Submit(request).ok());

  // DRAIN blocks until the admitted job finishes; run it on the side.
  std::thread drainer([&fixture] {
    std::unique_ptr<DaemonClient> controller = fixture.Connect();
    EXPECT_TRUE(controller->Drain().ok());
  });

  // The endpoint keeps answering during the drain window, now with 503.
  bool flipped = false;
  for (int i = 0; i < 500 && !flipped; ++i) {
    Result<HttpResponse> probe = fixture.Scrape("/readyz");
    ASSERT_TRUE(probe.ok()) << probe.status();
    if (probe->status_code == 503) {
      flipped = true;
      EXPECT_EQ(probe->body, "draining\n");
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_TRUE(flipped) << "/readyz never reported 503 during the drain";

  release.store(true);
  drainer.join();
  EXPECT_TRUE(fixture.daemon->draining());

  // Drained is a terminal state: still alive, still not ready.
  Result<HttpResponse> after = fixture.Scrape("/readyz");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->status_code, 503);
  Result<HttpResponse> health = fixture.Scrape("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status_code, 200);
}

TEST(DaemonAdminTest, SlowRequestLogCarriesTheTimingBreakdown) {
  std::mutex mu;
  std::vector<std::string> lines;
  Logger::Options capture;
  capture.level = LogLevel::kInfo;
  capture.sink = [&mu, &lines](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  };
  GlobalLogger().Configure(capture);

  {
    DaemonOptions options = TestOptions();
    options.slow_request_ms = 1;
    options.service.pipeline_override =
        [](const Program& program) -> Result<PipelineOutcome> {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      PipelineOutcome outcome;
      outcome.accepted = true;
      outcome.conversion.converted.name = program.name;
      return outcome;
    };
    Fixture fixture(std::move(options));
    std::unique_ptr<DaemonClient> client = fixture.Connect();
    ConversionRequest request;
    request.source = kSeniorsCpl;
    Result<ConversionResponse> response = client->Convert(request);
    ASSERT_TRUE(response.ok()) << response.status();
  }  // daemon stopped: every log line is captured by now

  GlobalLogger().Configure({LogLevel::kInfo, false, nullptr});

  std::string slow;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& line : lines) {
      if (line.find("event=slow_request") != std::string::npos) slow = line;
    }
  }
  ASSERT_FALSE(slow.empty()) << "no slow_request line was logged";
  for (const char* field :
       {" level=warn ", " job=1", " session=1", " program=SENIORS",
        " queue_wait_us=", " convert_us=", " total_us=", " outcome=done",
        " accepted=true"}) {
    EXPECT_NE(slow.find(field), std::string::npos)
        << "missing " << field << " in: " << slow;
  }
}

}  // namespace
}  // namespace dbpc
