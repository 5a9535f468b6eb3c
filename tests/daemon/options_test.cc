#include <gtest/gtest.h>

#include <string>

#include "daemon/daemon.h"
#include "daemon/sock_buffer.h"
#include "service/service.h"

namespace dbpc {
namespace {

// DaemonOptions::Validate gates every daemon start; each rejection must
// name the offending knob and the offending value so an operator can fix
// the flag without reading source.

TEST(DaemonOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(DaemonOptions{}.Validate().ok());
}

TEST(DaemonOptionsTest, RejectsEmptyHost) {
  DaemonOptions options;
  options.host = "";
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("host"), std::string::npos);
}

TEST(DaemonOptionsTest, RejectsOutOfRangePort) {
  DaemonOptions options;
  options.port = 70000;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("port"), std::string::npos);
  EXPECT_NE(status.message().find("70000"), std::string::npos);

  options.port = -1;
  EXPECT_FALSE(options.Validate().ok());

  options.port = 0;  // ephemeral: valid
  EXPECT_TRUE(options.Validate().ok());
  options.port = 65535;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(DaemonOptionsTest, DefaultResultWaitStaysBelowClientReadTimeout) {
  // A `RESULT <id> WAIT` held server-side past the client's read deadline
  // desyncs any reused session (the late reply is read as the answer to
  // the next command), so out of the box the server must give up first.
  DaemonOptions options;
  SockBuffer::Limits client_defaults;
  EXPECT_LT(options.result_wait_ms, client_defaults.read_timeout_ms);
}

TEST(DaemonOptionsTest, RejectsNonPositiveKnobs) {
  // Every >= 1 knob produces the same message shape, naming itself.
  struct Case {
    const char* name;
    int DaemonOptions::* knob;
  } cases[] = {
      {"max_connections", &DaemonOptions::max_connections},
      {"queue_depth", &DaemonOptions::queue_depth},
      {"read_timeout_ms", &DaemonOptions::read_timeout_ms},
      {"write_timeout_ms", &DaemonOptions::write_timeout_ms},
      {"max_payload_bytes", &DaemonOptions::max_payload_bytes},
      {"result_wait_ms", &DaemonOptions::result_wait_ms},
      {"max_retained_results", &DaemonOptions::max_retained_results},
  };
  for (const Case& c : cases) {
    DaemonOptions options;
    options.*(c.knob) = 0;
    Status status = options.Validate();
    ASSERT_FALSE(status.ok()) << c.name;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(status.message().find(std::string("DaemonOptions::") + c.name),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("(got 0)"), std::string::npos)
        << status.message();
  }
}

TEST(DaemonOptionsTest, RejectsTinyMaxLineBytes) {
  DaemonOptions options;
  options.max_line_bytes = 32;  // "SUBMIT <n> ..." would not even fit
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("max_line_bytes"), std::string::npos);
  EXPECT_NE(status.message().find("(got 32)"), std::string::npos);
  options.max_line_bytes = 64;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(DaemonOptionsTest, RejectsNegativeDrainGrace) {
  DaemonOptions options;
  options.drain_grace_ms = -1;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("drain_grace_ms"), std::string::npos);
  // Zero is legal: drain makes one pass and reports what is still pending.
  options.drain_grace_ms = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(DaemonOptionsTest, RejectsNonPositiveIoThreads) {
  DaemonOptions options;
  options.io_threads = 0;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("DaemonOptions::io_threads"),
            std::string::npos);
  options.io_threads = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(DaemonOptionsTest, DelegatesToServiceValidation) {
  // The embedded pipeline configuration is validated through the same
  // gate, so a daemon can never start over a service that would not.
  DaemonOptions options;
  options.service.jobs = 0;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ServiceOptions::jobs"),
            std::string::npos);

  options.service.jobs = 2;
  options.service.deadline_ms = -5;
  status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ServiceOptions::deadline_ms"),
            std::string::npos);
  EXPECT_NE(status.message().find("-5"), std::string::npos);

  options.service.deadline_ms = 0;
  options.service.retries = -1;
  status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ServiceOptions::retries"),
            std::string::npos);
}

}  // namespace
}  // namespace dbpc
