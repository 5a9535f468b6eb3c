#include "daemon/daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.h"
#include "restructure/plan_parser.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

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
  options.read_timeout_ms = 2000;
  options.write_timeout_ms = 2000;
  options.result_wait_ms = 5000;
  options.drain_grace_ms = 10000;
  options.service.jobs = 2;
  options.service.supervisor.analyst = ApproveAllAnalyst();
  return options;
}

/// Daemon + plan kept alive together (the plan's transformations must
/// outlive the daemon).
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
};

/// After a framing error's -ERR the daemon closes with an orderly EOF,
/// never a reset (which can destroy the reply before the client reads it).
void ExpectOrderlyClose(DaemonClient& client) {
  Result<std::string> eof = client.ReadReplyLineRaw();
  ASSERT_FALSE(eof.ok());
  EXPECT_NE(eof.status().message().find("closed by peer"), std::string::npos)
      << eof.status();
}

TEST(DaemonTest, GreetingAdvertisesServerAndProtocol) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  EXPECT_EQ(client->greeting().at("server"), "dbpcd");
  EXPECT_EQ(client->greeting().at("proto"),
            std::to_string(kProtocolVersion));
  EXPECT_TRUE(client->Ping().ok());
}

TEST(DaemonTest, SubmitStatusResultRoundTrip) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = kSeniorsCpl;
  Result<JobId> id = client->Submit(request);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_GE(*id, 1u);

  // STATUS is answerable at any point in the job's life.
  Result<JobState> state = client->State(*id);
  ASSERT_TRUE(state.ok()) << state.status();

  Result<ConversionResponse> response = client->Fetch(*id, /*wait=*/true);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->id, *id);
  EXPECT_EQ(response->state, JobState::kDone);
  EXPECT_TRUE(response->accepted);
  EXPECT_EQ(response->classification, Convertibility::kAutomatic);
  EXPECT_EQ(response->program_name, "SENIORS");
  EXPECT_NE(response->converted_source.find("PROGRAM SENIORS"),
            std::string::npos);

  // The result stays queryable after delivery.
  Result<ConversionResponse> again = client->Fetch(*id, /*wait=*/false);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->converted_source, response->converted_source);
}

TEST(DaemonTest, ParseFailureIsAFailedJobNotASessionError) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = "THIS IS NOT CPL\n";
  Result<ConversionResponse> response = client->Convert(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->state, JobState::kFailed);
  EXPECT_FALSE(response->accepted);
  EXPECT_FALSE(response->status.ok());
  // Session is still usable afterwards.
  EXPECT_TRUE(client->Ping().ok());
}

TEST(DaemonTest, MalformedCommandsKeepTheSessionAlive) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  for (const char* bad :
       {"FROBNICATE\n", "SUBMIT nope\n", "STATUS\n", "RESULT 1 SIDEWAYS\n"}) {
    ASSERT_TRUE(client->SendRaw(bad).ok());
    Result<std::string> reply = client->ReadReplyLineRaw();
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->rfind("-ERR bad-request", 0), 0u) << *reply;
  }
  // After four protocol errors the session still answers commands.
  EXPECT_TRUE(client->Ping().ok());
}

TEST(DaemonTest, OversizedLineTearsDownTheSessionStructurally) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  // No newline within the daemon's max_line_bytes: the session must reply
  // -ERR and close, not hang or crash. The line is far longer than the
  // daemon reads before refusing it, so unread bytes are still queued.
  std::string long_line(64 * 1024, 'A');
  ASSERT_TRUE(client->SendRaw(long_line).ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("-ERR bad-request", 0), 0u) << *reply;
  ExpectOrderlyClose(*client);
  // The daemon keeps serving fresh sessions.
  EXPECT_TRUE(fixture.Connect()->Ping().ok());
}

TEST(DaemonTest, OversizedPayloadIsRefusedBeforeReading) {
  DaemonOptions options = TestOptions();
  options.max_payload_bytes = 128;
  Fixture fixture(std::move(options));
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ASSERT_TRUE(client->SendRaw("SUBMIT 4096\n").ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("-ERR bad-request", 0), 0u) << *reply;

  // A client still writing the payload when the refusal comes must read
  // it as the non-retryable bad-request, never as a connection reset
  // (kUnavailable, which clients retry on).
  ConversionRequest huge;
  huge.source = std::string(4 << 20, 'x');
  for (int i = 0; i < 4; ++i) {
    Result<JobId> id = fixture.Connect()->Submit(huge);
    ASSERT_FALSE(id.ok());
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument)
        << "attempt " << i << ": " << id.status();
  }
}

TEST(DaemonTest, BadPayloadTerminatorIsAnsweredThenClosedCleanly) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  // A non-empty line where the empty terminator belongs, and the peer
  // keeps sending after it.
  ASSERT_TRUE(
      client->SendRaw("SUBMIT 3\nabcXYZ\n" + std::string(64 * 1024, 'J'))
          .ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("-ERR bad-request payload must be followed", 0), 0u)
      << *reply;
  ExpectOrderlyClose(*client);
  EXPECT_EQ(fixture.daemon->jobs_admitted(), 0u);
}

/// Polls until the daemon has no open sessions; returns the milliseconds
/// that took (or the full wait, when sessions remain).
long long WaitForNoSessions(ConversionDaemon& daemon, int limit_ms) {
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  while (daemon.active_sessions() > 0 && elapsed() < limit_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return elapsed();
}

TEST(DaemonTest, LingerAfterAFramingErrorIsBoundedByTheReadTimeout) {
  DaemonOptions options = TestOptions();
  options.read_timeout_ms = 300;
  Fixture fixture(std::move(options));
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ASSERT_TRUE(client->SendRaw(std::string(8 * 1024, 'A')).ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("-ERR bad-request", 0), 0u) << *reply;

  // The peer never closes and never stops sending. The session discards
  // what arrives, but only until the read deadline: a hostile peer cannot
  // hold a session slot open by writing.
  std::atomic<bool> done{false};
  std::thread writer([&client, &done] {
    while (!done.load()) {
      if (!client->SendRaw(std::string(1024, 'J')).ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  long long elapsed_ms = WaitForNoSessions(*fixture.daemon, 5000);
  done.store(true);
  writer.join();
  EXPECT_EQ(fixture.daemon->active_sessions(), 0);
  EXPECT_LT(elapsed_ms, 3000);
  EXPECT_TRUE(fixture.Connect()->Ping().ok());
}

TEST(DaemonTest, StopDoesNotWaitOutALingeringSession) {
  DaemonOptions options = TestOptions();
  options.read_timeout_ms = 10000;
  Fixture fixture(std::move(options));
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ASSERT_TRUE(client->SendRaw(std::string(8 * 1024, 'A')).ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("-ERR bad-request", 0), 0u) << *reply;

  // The peer goes quiet without closing: the session lingers on its
  // 10s read deadline, which Stop must cut short.
  auto start = std::chrono::steady_clock::now();
  fixture.daemon->Stop();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_LT(elapsed, 1500);
  EXPECT_EQ(fixture.daemon->active_sessions(), 0);
}

TEST(DaemonTest, ConnectionsOverTheCapAreRefusedNotDropped) {
  DaemonOptions options = TestOptions();
  options.max_connections = 1;
  Fixture fixture(std::move(options));
  std::unique_ptr<DaemonClient> first = fixture.Connect();
  ASSERT_TRUE(first->Ping().ok());

  // The second connection is answered in place of the greeting with the
  // retryable unavailable, never silently closed.
  Result<std::unique_ptr<DaemonClient>> second =
      DaemonClient::Connect("127.0.0.1", fixture.daemon->port());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(second.status().message().find("too many connections"),
            std::string::npos)
      << second.status();
  EXPECT_TRUE(first->Ping().ok());

  // Once the slot is released, a new session is admitted.
  ASSERT_TRUE(first->Quit().ok());
  WaitForNoSessions(*fixture.daemon, 5000);
  ASSERT_EQ(fixture.daemon->active_sessions(), 0);
  EXPECT_TRUE(fixture.Connect()->Ping().ok());
}

TEST(DaemonTest, CrlfClientsAreServed) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ASSERT_TRUE(client->SendRaw("PING\r\n").ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, "+OK pong=1");

  // CRLF after the command line and as the payload terminator.
  std::string payload = kSeniorsCpl;
  ASSERT_TRUE(client
                  ->SendRaw("SUBMIT " + std::to_string(payload.size()) +
                            "\r\n" + payload + "\r\n")
                  .ok());
  reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, "+OK id=1 state=queued");
  Result<ConversionResponse> response = client->Fetch(1, /*wait=*/true);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->accepted);
}

TEST(DaemonTest, BlankKeepAliveLinesGetNoReply) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  // Empty lines (LF or CRLF) are skipped without a reply, so the next
  // reply on the wire answers the PING, and nothing is left over after it.
  ASSERT_TRUE(client->SendRaw("\n\r\n\nPING\n").ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, "+OK pong=1");
  ASSERT_TRUE(client->SendRaw("STATUS 5\n").ok());
  reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->rfind("-ERR not-found no such job 5", 0), 0u) << *reply;
  EXPECT_EQ(fixture.daemon->jobs_admitted(), 0u);
}

TEST(DaemonTest, PayloadThatLooksLikeCommandsIsNeverExecuted) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  // The counted payload holds command lines. They are program text for
  // the converter, not commands: no drain, no quit, one job.
  const std::string payload = "DRAIN\nQUIT\nSUBMIT 0\n\n";
  ASSERT_TRUE(client
                  ->SendRaw("SUBMIT " + std::to_string(payload.size()) +
                            "\n" + payload + "\n")
                  .ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, "+OK id=1 state=queued");

  Result<ConversionResponse> response = client->Fetch(1, /*wait=*/true);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->state, JobState::kFailed);  // not CPL
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_FALSE(fixture.daemon->draining());
  EXPECT_EQ(fixture.daemon->jobs_admitted(), 1u);
}

TEST(DaemonTest, QuitIsAcknowledgedThenClosedCleanly) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ASSERT_TRUE(client->SendRaw("QUIT\n").ok());
  Result<std::string> reply = client->ReadReplyLineRaw();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, "+OK bye=1");
  ExpectOrderlyClose(*client);
  WaitForNoSessions(*fixture.daemon, 5000);
  EXPECT_EQ(fixture.daemon->active_sessions(), 0);
}

TEST(DaemonTest, MidRequestDisconnectAdmitsNothing) {
  Fixture fixture(TestOptions());
  {
    std::unique_ptr<DaemonClient> client = fixture.Connect();
    // Promise 1000 payload bytes, deliver 10, vanish.
    ASSERT_TRUE(client->SendRaw("SUBMIT 1000\nPROGRAM X.\n").ok());
  }  // client destroyed: connection closed mid-payload
  // Give the session loop a moment to observe the disconnect.
  for (int i = 0; i < 100 && fixture.daemon->active_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.daemon->jobs_admitted(), 0u);
  // And the daemon is unharmed.
  EXPECT_TRUE(fixture.Connect()->Ping().ok());
}

TEST(DaemonTest, ResultForUnknownJobIsNotFound) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  Result<ConversionResponse> response = client->Fetch(777, /*wait=*/false);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST(DaemonTest, EvictedResultsAnswerNotFound) {
  DaemonOptions options = TestOptions();
  options.max_retained_results = 1;
  Fixture fixture(std::move(options));
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ConversionRequest request;
  request.source = kSeniorsCpl;
  Result<ConversionResponse> first = client->Convert(request);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<ConversionResponse> second = client->Convert(request);
  ASSERT_TRUE(second.ok()) << second.status();

  // Retention is FIFO over completed jobs: the older result is gone from
  // both RESULT and STATUS, the newer one is still served.
  Result<ConversionResponse> evicted = client->Fetch(first->id, false);
  ASSERT_FALSE(evicted.ok());
  EXPECT_EQ(evicted.status().code(), StatusCode::kNotFound);
  Result<JobState> state = client->State(first->id);
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kNotFound);
  Result<ConversionResponse> kept = client->Fetch(second->id, false);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->converted_source, second->converted_source);
}

TEST(DaemonTest, BackpressureWhenQueueIsFull) {
  DaemonOptions options = TestOptions();
  options.queue_depth = 1;
  options.service.jobs = 1;
  // A pipeline that blocks until released, so the queue stays provably
  // full while the test probes admission.
  std::atomic<bool> release{false};
  options.service.pipeline_override =
      [&release](const Program& program) -> Result<PipelineOutcome> {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  Fixture fixture(std::move(options));
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = kSeniorsCpl;
  Result<JobId> first = client->Submit(request);
  ASSERT_TRUE(first.ok()) << first.status();

  // Queue depth 1 and the only worker is blocked: the next submit must be
  // answered with structured backpressure, not queued or dropped.
  Result<JobId> second = client->Submit(request);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);

  release.store(true);
  Result<ConversionResponse> response = client->Fetch(*first, /*wait=*/true);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->accepted);

  // Capacity freed: submits are admitted again.
  EXPECT_TRUE(client->Submit(request).ok());
}

TEST(DaemonTest, PerRequestDeadlineDegradesToRefused) {
  DaemonOptions options = TestOptions();
  options.service.retries = 0;
  // Every attempt takes ~40ms; a 1ms per-request deadline is always
  // overrun, so the job must degrade to a refused-but-answered conversion
  // (kDone, accepted=false) — the existing service degradation path.
  options.service.pipeline_override =
      [](const Program& program) -> Result<PipelineOutcome> {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  Fixture fixture(std::move(options));
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = kSeniorsCpl;
  request.deadline_ms = 1;
  Result<ConversionResponse> response = client->Convert(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->state, JobState::kDone);
  EXPECT_FALSE(response->accepted);

  // Without the per-request override the same job completes fine.
  request.deadline_ms = 0;
  response = client->Convert(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->accepted);
}

TEST(DaemonTest, TraceIsServedOnlyForTracedJobs) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest untraced;
  untraced.source = kSeniorsCpl;
  Result<ConversionResponse> plain = client->Convert(untraced);
  ASSERT_TRUE(plain.ok()) << plain.status();
  Result<std::string> missing = client->Trace(plain->id);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  ConversionRequest traced = untraced;
  traced.trace = true;
  Result<ConversionResponse> response = client->Convert(traced);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->trace_text.empty());
  Result<std::string> trace = client->Trace(response->id);
  ASSERT_TRUE(trace.ok()) << trace.status();
  EXPECT_NE(trace->find("convert SENIORS"), std::string::npos) << *trace;
}

TEST(DaemonTest, TraceOnAnUnfinishedJobIsAnsweredNotRaced) {
  DaemonOptions options = TestOptions();
  options.service.jobs = 1;
  // The only worker blocks until released, so the job is provably
  // unfinished while TRACE probes it. Before the fix the TRACE handler
  // read job state and trace text without the job-table lock, racing
  // RunJob's completion writes.
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
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = kSeniorsCpl;
  request.trace = true;
  Result<JobId> id = client->Submit(request);
  ASSERT_TRUE(id.ok()) << id.status();

  std::unique_ptr<DaemonClient> prober = fixture.Connect();
  // While the worker is provably blocked, every probe answers structured
  // unavailable.
  for (int i = 0; i < 5; ++i) {
    Result<std::string> trace = prober->Trace(*id);
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.status().code(), StatusCode::kUnavailable);
  }

  // Hammer TRACE across the completion moment, so probes overlap
  // RunJob's writes of job->state and job->response (TSan flags the
  // pre-fix unlocked reads here).
  std::thread hammer([&prober, &id] {
    for (int i = 0; i < 300; ++i) prober->Trace(*id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.store(true);
  Result<ConversionResponse> response = client->Fetch(*id, /*wait=*/true);
  hammer.join();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->state, JobState::kDone);
  // After completion the probe session still gets definitive answers —
  // never a torn read.
  prober->Trace(*id);
  EXPECT_TRUE(prober->Ping().ok());
}

TEST(DaemonTest, StartFailureIsACleanErrorNotACrash) {
  // This plan parses but cannot apply to the company schema (no such
  // set), so ConversionService::Create fails after DaemonOptions already
  // validated. Start must return that error; destroying the partially
  // constructed daemon must not touch the never-wired service, metric
  // handles, or listener.
  RestructuringPlan bad = std::move(ParsePlan(R"(
RESTRUCTURE PLAN BAD.
  INTRODUCE RECORD DEPT BETWEEN NO-SUCH-SET GROUPING BY DEPT-NAME
      AS DIV-DEPT AND DEPT-EMP.
END PLAN.
)"))
                              .value();
  Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
  Result<std::unique_ptr<ConversionDaemon>> started =
      ConversionDaemon::Start(schema, bad.View(), TestOptions());
  ASSERT_FALSE(started.ok());
  EXPECT_FALSE(started.status().message().empty());
}

TEST(DaemonTest, MetricsSnapshotIsServed) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ConversionRequest request;
  request.source = kSeniorsCpl;
  ASSERT_TRUE(client->Convert(request).ok());
  Result<std::string> metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("daemon.submits_admitted"), std::string::npos);
  EXPECT_NE(metrics->find("daemon.request_us"), std::string::npos);
}

TEST(DaemonTest, DrainFinishesAdmittedJobsAndRefusesNewOnes) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();

  ConversionRequest request;
  request.source = kSeniorsCpl;
  Result<JobId> id = client->Submit(request);
  ASSERT_TRUE(id.ok()) << id.status();

  std::unique_ptr<DaemonClient> controller = fixture.Connect();
  ASSERT_TRUE(controller->Drain().ok());
  EXPECT_TRUE(fixture.daemon->draining());
  EXPECT_EQ(fixture.daemon->jobs_admitted(),
            fixture.daemon->jobs_completed());

  // Admitted before the drain: result still served.
  Result<ConversionResponse> response = client->Fetch(*id, /*wait=*/true);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->accepted);

  // Submitted after the drain: structured refusal.
  Result<JobId> late = client->Submit(request);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST(DaemonTest, DoubleDrainIsIdempotent) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ConversionRequest request;
  request.source = kSeniorsCpl;
  ASSERT_TRUE(client->Submit(request).ok());

  // Two DRAINs from two sessions (a client drain racing an operator
  // drain): both succeed and report the same settled state.
  EXPECT_TRUE(client->Drain().ok());
  std::unique_ptr<DaemonClient> second = fixture.Connect();
  EXPECT_TRUE(second->Drain().ok());
  EXPECT_EQ(fixture.daemon->jobs_admitted(),
            fixture.daemon->jobs_completed());
}

TEST(DaemonTest, StopTearsDownIdleSessions) {
  Fixture fixture(TestOptions());
  std::unique_ptr<DaemonClient> client = fixture.Connect();
  ASSERT_TRUE(client->Ping().ok());
  // Stop must not wait out the idle session's read timeout.
  auto start = std::chrono::steady_clock::now();
  fixture.daemon->Stop();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_LT(elapsed, 1500);
  EXPECT_EQ(fixture.daemon->active_sessions(), 0);
}

TEST(DaemonTest, ConcurrentSessionsAllComplete) {
  Fixture fixture(TestOptions());
  constexpr int kSessions = 8;
  constexpr int kPerSession = 4;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&fixture, &completed] {
      std::unique_ptr<DaemonClient> client = fixture.Connect();
      for (int j = 0; j < kPerSession; ++j) {
        ConversionRequest request;
        request.source = kSeniorsCpl;
        Result<ConversionResponse> response = client->Convert(request);
        if (response.ok() && response->accepted) ++completed;
      }
      client->Quit();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), kSessions * kPerSession);
  EXPECT_EQ(fixture.daemon->jobs_completed(),
            static_cast<uint64_t>(kSessions * kPerSession));
}

}  // namespace
}  // namespace dbpc
