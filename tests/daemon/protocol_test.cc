#include "daemon/protocol.h"

#include <gtest/gtest.h>

#include <string>

#include "api/types.h"

namespace dbpc {
namespace {

// --- command lines ---------------------------------------------------------

TEST(ParseCommandLineTest, Ping) {
  Result<WireCommand> command = ParseCommandLine("PING");
  ASSERT_TRUE(command.ok()) << command.status();
  EXPECT_EQ(command->kind, CommandKind::kPing);
}

TEST(ParseCommandLineTest, SubmitWithAllOptions) {
  Result<WireCommand> command =
      ParseCommandLine("SUBMIT 123 name=SENIORS deadline_ms=250 trace=1");
  ASSERT_TRUE(command.ok()) << command.status();
  EXPECT_EQ(command->kind, CommandKind::kSubmit);
  EXPECT_EQ(command->payload_bytes, 123u);
  EXPECT_EQ(command->name, "SENIORS");
  EXPECT_EQ(command->deadline_ms, 250);
  EXPECT_TRUE(command->trace);
}

TEST(ParseCommandLineTest, SubmitIgnoresUnknownOptions) {
  // Forward compatibility within a protocol version: a newer client may
  // send options this daemon does not know.
  Result<WireCommand> command =
      ParseCommandLine("SUBMIT 7 shiny_new_option=yes");
  ASSERT_TRUE(command.ok()) << command.status();
  EXPECT_EQ(command->payload_bytes, 7u);
}

TEST(ParseCommandLineTest, SubmitNeedsPayloadSize) {
  EXPECT_FALSE(ParseCommandLine("SUBMIT").ok());
  EXPECT_FALSE(ParseCommandLine("SUBMIT notanumber").ok());
  EXPECT_FALSE(ParseCommandLine("SUBMIT -5").ok());
  // The size is strictly decimal digits: no sign, suffix, base or exponent.
  for (const char* line : {"SUBMIT +5", "SUBMIT 5x", "SUBMIT 0x10",
                           "SUBMIT 5.0", "SUBMIT 1e3", "SUBMIT \xd9\xa1",
                           "SUBMIT =5"}) {
    EXPECT_FALSE(ParseCommandLine(line).ok()) << line;
  }
}

TEST(ParseCommandLineTest, ResultWait) {
  Result<WireCommand> command = ParseCommandLine("RESULT 42 WAIT");
  ASSERT_TRUE(command.ok()) << command.status();
  EXPECT_EQ(command->kind, CommandKind::kResult);
  EXPECT_EQ(command->id, 42u);
  EXPECT_TRUE(command->wait);

  command = ParseCommandLine("RESULT 42");
  ASSERT_TRUE(command.ok()) << command.status();
  EXPECT_FALSE(command->wait);
}

TEST(ParseCommandLineTest, StatusNeedsJobId) {
  EXPECT_FALSE(ParseCommandLine("STATUS").ok());
  EXPECT_FALSE(ParseCommandLine("STATUS abc").ok());
  // Ids start at 1, so 0 is never a job, under any id-taking command.
  for (const char* line :
       {"STATUS 0", "TRACE 0", "RESULT 0", "RESULT 0 WAIT", "STATUS 000"}) {
    EXPECT_FALSE(ParseCommandLine(line).ok()) << line;
  }
}

TEST(ParseCommandLineTest, UnknownCommandIsStructuredError) {
  // Verbs are case-sensitive: "ping" is as unknown as FROBNICATE.
  for (const char* line : {"FROBNICATE 1", "ping", "Submit 3"}) {
    Result<WireCommand> command = ParseCommandLine(line);
    ASSERT_FALSE(command.ok()) << line;
    EXPECT_EQ(command.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ParseCommandLineTest, EncodeSubmitSanitizesHostileNames) {
  // A name with whitespace would shift the space-delimited framing and a
  // '\n' would inject a command line; the codec must keep name a single
  // token so the SUBMIT line always parses server-side.
  ConversionRequest request;
  request.source = "PROGRAM X.\n";
  request.name = "bad name\nSUBMIT 0 injected";
  std::string wire = EncodeSubmit(request);
  std::string line = wire.substr(0, wire.find('\n'));
  Result<WireCommand> command = ParseCommandLine(line);
  ASSERT_TRUE(command.ok()) << command.status() << " line: " << line;
  EXPECT_EQ(command->kind, CommandKind::kSubmit);
  EXPECT_EQ(command->payload_bytes, request.source.size());
  EXPECT_EQ(command->name, "bad_name_SUBMIT_0_injected");
  // The payload block is byte-identical to the source.
  EXPECT_EQ(wire.substr(line.size() + 1), request.source + "\n");
}

TEST(ParseCommandLineTest, RoundTripsThroughFormat) {
  const char* lines[] = {"PING",      "SUBMIT 17 deadline_ms=9 trace=1",
                         "STATUS 3",  "RESULT 3 WAIT",
                         "METRICS",   "TRACE 8",
                         "DRAIN",     "QUIT"};
  for (const char* line : lines) {
    Result<WireCommand> command = ParseCommandLine(line);
    ASSERT_TRUE(command.ok()) << line << ": " << command.status();
    EXPECT_EQ(FormatCommandLine(*command), line);
  }
}

// --- hostile command lines -------------------------------------------------
//
// Every line below can arrive from an untrusted peer. Each must come back
// as a parsed command or a kInvalidArgument, never a crash, a wrapped
// number or a silently different command.

TEST(ParseCommandLineTest, BlankLinesAreEmptyCommands) {
  for (const std::string& line : {std::string(""), std::string("   "),
                                  std::string("\t\r"), std::string("\v\f")}) {
    Result<WireCommand> command = ParseCommandLine(line);
    ASSERT_FALSE(command.ok()) << "\"" << line << "\"";
    EXPECT_EQ(command.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(command.status().message(), "empty command");
  }
}

TEST(ParseCommandLineTest, CarriageReturnsAndRunsOfBlanksSeparateTokens) {
  // A CRLF client's stray '\r' and padded tokens parse like the plain form.
  Result<WireCommand> ping = ParseCommandLine("PING\r");
  ASSERT_TRUE(ping.ok()) << ping.status();
  EXPECT_EQ(ping->kind, CommandKind::kPing);

  Result<WireCommand> status = ParseCommandLine("  STATUS \t 7  \r");
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_EQ(status->kind, CommandKind::kStatus);
  EXPECT_EQ(status->id, 7u);
}

TEST(ParseCommandLineTest, OverlongNumbersAreRejectedNotWrapped) {
  // 19 digits still fit in 64 bits and parse exactly (the daemon then
  // refuses the size against max_payload_bytes); 20 digits could wrap,
  // so they are refused outright.
  Result<WireCommand> big = ParseCommandLine("SUBMIT 9999999999999999999");
  ASSERT_TRUE(big.ok()) << big.status();
  EXPECT_EQ(big->payload_bytes, static_cast<size_t>(9999999999999999999ull));

  for (const char* line :
       {"SUBMIT 18446744073709551617", "SUBMIT 00000000000000000001",
        "STATUS 18446744073709551616", "RESULT 99999999999999999999 WAIT",
        "TRACE 123456789012345678901234567890"}) {
    Result<WireCommand> command = ParseCommandLine(line);
    ASSERT_FALSE(command.ok()) << line;
    EXPECT_EQ(command.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ParseCommandLineTest, SubmitDeadlineIsBoundedToInt) {
  Result<WireCommand> max = ParseCommandLine("SUBMIT 1 deadline_ms=2147483647");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max->deadline_ms, 2147483647);

  for (const char* line :
       {"SUBMIT 1 deadline_ms=2147483648", "SUBMIT 1 deadline_ms=-1",
        "SUBMIT 1 deadline_ms=", "SUBMIT 1 deadline_ms=1e3",
        "SUBMIT 1 deadline_ms=99999999999999999999"}) {
    Result<WireCommand> command = ParseCommandLine(line);
    ASSERT_FALSE(command.ok()) << line;
    EXPECT_NE(command.status().message().find("deadline_ms"),
              std::string::npos)
        << command.status();
  }
}

TEST(ParseCommandLineTest, SubmitOptionsNeedAKey) {
  for (const char* line : {"SUBMIT 5 =x", "SUBMIT 5 trace", "SUBMIT 5 ="}) {
    Result<WireCommand> command = ParseCommandLine(line);
    ASSERT_FALSE(command.ok()) << line;
    EXPECT_NE(command.status().message().find("want key=value"),
              std::string::npos)
        << command.status();
  }
  // An empty value is still a key=value pair; only the key is required.
  Result<WireCommand> empty = ParseCommandLine("SUBMIT 5 name= trace=yes");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->name, "");
  EXPECT_FALSE(empty->trace);  // only the exact value 1 turns tracing on
}

TEST(ParseCommandLineTest, RejectionsEchoAsExactlyOneReplyLine) {
  // Whatever garbage a peer sends, the -ERR that answers it must stay one
  // line carrying bad-request, or the reply stream desyncs.
  const std::string hostile[] = {
      std::string("PI\0NG", 5),
      std::string("SUBMIT\0 5", 9),
      "\x01\x02\x03",
      "\xff\xfe SUBMIT 5",
      "RESULT 1 WAIT\x7f",
      std::string(3000, 'Z'),
      "SUBMIT 5 name=a deadline_ms=\x80",
  };
  for (const std::string& line : hostile) {
    Result<WireCommand> command = ParseCommandLine(line);
    ASSERT_FALSE(command.ok()) << line;
    std::string reply = ErrReplyLine(command.status());
    EXPECT_EQ(reply.find('\n'), reply.size() - 1) << reply;
    EXPECT_EQ(reply.find('\r'), std::string::npos) << reply;
    Result<WireReply> parsed =
        ParseReplyLine(reply.substr(0, reply.size() - 1));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_FALSE(parsed->ok);
    EXPECT_EQ(parsed->code, StatusCode::kInvalidArgument);
  }
}

// --- reply lines -----------------------------------------------------------

TEST(ParseReplyLineTest, OkWithFields) {
  Result<WireReply> reply = ParseReplyLine("+OK id=12 state=queued");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->ok);
  EXPECT_FALSE(reply->has_payload);
  EXPECT_EQ(reply->fields.at("id"), "12");
  EXPECT_EQ(reply->fields.at("state"), "queued");
}

TEST(ParseReplyLineTest, DataCarriesPayloadSize) {
  Result<WireReply> reply = ParseReplyLine("+DATA 321 id=5");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->ok);
  EXPECT_TRUE(reply->has_payload);
  EXPECT_EQ(reply->payload_bytes, 321u);
  EXPECT_EQ(reply->fields.at("id"), "5");
}

TEST(ParseReplyLineTest, ErrDecodesWireToken) {
  Result<WireReply> reply =
      ParseReplyLine("-ERR unavailable queue full; retry later");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->ok);
  EXPECT_EQ(reply->code, StatusCode::kUnavailable);
  EXPECT_EQ(reply->message, "queue full; retry later");
}

TEST(ParseReplyLineTest, RejectsGarbage) {
  EXPECT_FALSE(ParseReplyLine("").ok());
  EXPECT_FALSE(ParseReplyLine("HELLO").ok());
  EXPECT_FALSE(ParseReplyLine("+DATA notasize").ok());
  // A payload size is an unsigned decimal that cannot wrap.
  EXPECT_FALSE(ParseReplyLine("+DATA").ok());
  EXPECT_FALSE(ParseReplyLine("+DATA -1").ok());
  EXPECT_FALSE(ParseReplyLine("+DATA +3").ok());
  EXPECT_FALSE(ParseReplyLine("+DATA 99999999999999999999 id=1").ok());
}

TEST(ParseReplyLineTest, ErrNeedsAWireToken) {
  Result<WireReply> bare = ParseReplyLine("-ERR");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kInvalidArgument);

  // A token this client does not know (a newer server's) is still an
  // error reply, surfaced as internal rather than a failed parse.
  Result<WireReply> future = ParseReplyLine("-ERR from-the-future try later");
  ASSERT_TRUE(future.ok()) << future.status();
  EXPECT_FALSE(future->ok);
  EXPECT_EQ(future->code, StatusCode::kInternal);
  EXPECT_EQ(future->message, "try later");
}

TEST(ParseReplyLineTest, TokensWithoutAKeyAreSkipped) {
  Result<WireReply> reply = ParseReplyLine("+OK =v bare id=3 k=a=b");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->fields.size(), 2u);
  EXPECT_EQ(reply->fields.at("id"), "3");
  EXPECT_EQ(reply->fields.at("k"), "a=b");  // split at the first '='
}

TEST(ReplyBuildersTest, ErrReplyKeepsOneLine) {
  std::string line =
      ErrReplyLine(Status::InvalidArgument("first\nsecond\nthird"));
  // One terminator at the end, none embedded: framing survives any message.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  Result<WireReply> reply =
      ParseReplyLine(line.substr(0, line.size() - 1));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->code, StatusCode::kInvalidArgument);
}

TEST(ReplyBuildersTest, GreetingAdvertisesProtocol) {
  std::string line = GreetingLine();
  Result<WireReply> reply = ParseReplyLine(line.substr(0, line.size() - 1));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(reply->fields.at("server"), "dbpcd");
  EXPECT_EQ(reply->fields.at("proto"), std::to_string(kProtocolVersion));
}

// --- the wire-error table --------------------------------------------------

TEST(WireErrorTest, TableIsStable) {
  // These token strings are the wire contract (DAEMON.md): clients match
  // on them, so a change here is a protocol break, not a rename.
  EXPECT_STREQ(WireErrorName(StatusCode::kOk), "ok");
  EXPECT_STREQ(WireErrorName(StatusCode::kInvalidArgument), "bad-request");
  EXPECT_STREQ(WireErrorName(StatusCode::kNotFound), "not-found");
  EXPECT_STREQ(WireErrorName(StatusCode::kAlreadyExists), "already-exists");
  EXPECT_STREQ(WireErrorName(StatusCode::kConstraintViolation), "constraint");
  EXPECT_STREQ(WireErrorName(StatusCode::kParseError), "parse-error");
  EXPECT_STREQ(WireErrorName(StatusCode::kTypeError), "type-error");
  EXPECT_STREQ(WireErrorName(StatusCode::kNotConvertible), "refused");
  EXPECT_STREQ(WireErrorName(StatusCode::kNeedsAnalyst), "needs-analyst");
  EXPECT_STREQ(WireErrorName(StatusCode::kUnsupported), "unsupported");
  EXPECT_STREQ(WireErrorName(StatusCode::kInternal), "internal");
  EXPECT_STREQ(WireErrorName(StatusCode::kUnavailable), "unavailable");
  EXPECT_STREQ(WireErrorName(StatusCode::kDeadlineExceeded), "deadline");
}

TEST(WireErrorTest, EveryCodeRoundTrips) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kConstraintViolation,
        StatusCode::kParseError, StatusCode::kTypeError,
        StatusCode::kNotConvertible, StatusCode::kNeedsAnalyst,
        StatusCode::kUnsupported,
        StatusCode::kInternal, StatusCode::kUnavailable,
        StatusCode::kDeadlineExceeded}) {
    Result<StatusCode> parsed = ParseWireError(WireErrorName(code));
    ASSERT_TRUE(parsed.ok()) << WireErrorName(code);
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(ParseWireError("no-such-token").ok());
}

TEST(JobStateTest, NamesRoundTrip) {
  for (JobState state : {JobState::kQueued, JobState::kRunning,
                         JobState::kDone, JobState::kFailed}) {
    Result<JobState> parsed = ParseJobState(JobStateName(state));
    ASSERT_TRUE(parsed.ok()) << JobStateName(state);
    EXPECT_EQ(*parsed, state);
  }
  EXPECT_FALSE(ParseJobState("exploded").ok());
}

// --- submit / response codecs ----------------------------------------------

TEST(SubmitCodecTest, RoundTrips) {
  ConversionRequest request;
  request.name = "SENIORS";
  request.source = "PROGRAM SENIORS.\nEND PROGRAM.\n";
  request.deadline_ms = 125;
  request.trace = true;

  std::string wire = EncodeSubmit(request);
  // wire = command line + '\n' + payload + '\n'; split it back apart the
  // way the session loop does.
  size_t eol = wire.find('\n');
  ASSERT_NE(eol, std::string::npos);
  Result<WireCommand> command = ParseCommandLine(wire.substr(0, eol));
  ASSERT_TRUE(command.ok()) << command.status();
  EXPECT_EQ(command->payload_bytes, request.source.size());
  std::string payload = wire.substr(eol + 1, command->payload_bytes);

  ConversionRequest decoded = DecodeSubmit(*command, payload);
  EXPECT_EQ(decoded.name, request.name);
  EXPECT_EQ(decoded.source, request.source);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.trace, request.trace);
}

TEST(SubmitCodecTest, PayloadBytesAreCarriedVerbatim) {
  // Counted payload bytes are uninterpreted: protocol lookalikes, blank
  // lines, CRLF, NUL and high bytes all survive, and none of them is read
  // as a command.
  static const char kSource[] = "PING\n\nSUBMIT 0\n\r\nQUIT\n\0\xff\x80";
  ConversionRequest request;
  request.source = std::string(kSource, sizeof(kSource) - 1);
  std::string wire = EncodeSubmit(request);
  size_t eol = wire.find('\n');
  Result<WireCommand> command = ParseCommandLine(wire.substr(0, eol));
  ASSERT_TRUE(command.ok()) << command.status();
  ASSERT_EQ(command->payload_bytes, request.source.size());
  EXPECT_EQ(wire.size(), eol + 1 + request.source.size() + 1);
  EXPECT_EQ(wire.back(), '\n');

  ConversionRequest decoded = DecodeSubmit(
      *command, wire.substr(eol + 1, command->payload_bytes));
  EXPECT_EQ(decoded.source, request.source);
}

TEST(ResponseCodecTest, RoundTripsAcceptedConversion) {
  ConversionResponse response;
  response.id = 9;
  response.state = JobState::kDone;
  response.accepted = true;
  response.classification = Convertibility::kAutomatic;
  response.program_name = "SENIORS";
  response.converted_source = "PROGRAM SENIORS.\nDISPLAY N.\nEND PROGRAM.\n";
  response.notes = {"note one", "note two"};
  response.trace_text = "convert_program\n  analyze\n";
  response.latency_us = 1234;

  std::string payload = EncodeResponsePayload(response);
  std::string header_line =
      DataReplyLine(payload.size(), ResponseFields(response));
  Result<WireReply> reply =
      ParseReplyLine(header_line.substr(0, header_line.size() - 1));
  ASSERT_TRUE(reply.ok()) << reply.status();

  Result<ConversionResponse> decoded = DecodeResponse(*reply, payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id, 9u);
  EXPECT_EQ(decoded->state, JobState::kDone);
  EXPECT_TRUE(decoded->accepted);
  EXPECT_EQ(decoded->classification, Convertibility::kAutomatic);
  EXPECT_EQ(decoded->program_name, "SENIORS");
  EXPECT_EQ(decoded->converted_source, response.converted_source);
  EXPECT_EQ(decoded->notes, response.notes);
  EXPECT_EQ(decoded->trace_text, response.trace_text);
  EXPECT_EQ(decoded->latency_us, 1234u);
}

TEST(ResponseCodecTest, RoundTripsFailedJob) {
  ConversionResponse response;
  response.id = 4;
  response.state = JobState::kFailed;
  response.accepted = false;
  response.status = Status::ParseError("line 3: expected FIND");

  std::string payload = EncodeResponsePayload(response);
  std::string header_line =
      DataReplyLine(payload.size(), ResponseFields(response));
  Result<WireReply> reply =
      ParseReplyLine(header_line.substr(0, header_line.size() - 1));
  ASSERT_TRUE(reply.ok()) << reply.status();

  Result<ConversionResponse> decoded = DecodeResponse(*reply, payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->state, JobState::kFailed);
  EXPECT_FALSE(decoded->accepted);
  EXPECT_EQ(decoded->status.code(), StatusCode::kParseError);
  EXPECT_NE(decoded->status.message().find("expected FIND"),
            std::string::npos);
}

TEST(ResponseCodecTest, SourceWithSectionLookalikeLinesSurvives) {
  // The sectioned payload must not be confused by payload lines that look
  // like its own headers mid-source: header matching is exact.
  ConversionResponse response;
  response.id = 2;
  response.state = JobState::kDone;
  response.accepted = true;
  response.converted_source = "LINE1\n== NOT A HEADER\nLINE3\n";

  std::string payload = EncodeResponsePayload(response);
  std::string header_line =
      DataReplyLine(payload.size(), ResponseFields(response));
  Result<WireReply> reply =
      ParseReplyLine(header_line.substr(0, header_line.size() - 1));
  ASSERT_TRUE(reply.ok()) << reply.status();
  Result<ConversionResponse> decoded = DecodeResponse(*reply, payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->converted_source, response.converted_source);
}

TEST(ResponseCodecTest, MalformedHeaderFieldsAreErrorsNotGuesses) {
  for (const char* line :
       {"+DATA 0 id=abc state=done", "+DATA 0 id=1 state=exploded",
        "+DATA 0 id=1 state=done classification=maybe",
        "+DATA 0 id=-4 state=done"}) {
    Result<WireReply> reply = ParseReplyLine(line);
    ASSERT_TRUE(reply.ok()) << line << ": " << reply.status();
    Result<ConversionResponse> decoded = DecodeResponse(*reply, "");
    ASSERT_FALSE(decoded.ok()) << line;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(ResponseCodecTest, UnknownErrorTokenDecodesAsInternal) {
  Result<WireReply> reply =
      ParseReplyLine("+DATA 0 id=6 state=failed error=from-the-future");
  ASSERT_TRUE(reply.ok()) << reply.status();
  Result<ConversionResponse> decoded =
      DecodeResponse(*reply, "== STATUS ==\nsomething new broke\n");
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->state, JobState::kFailed);
  EXPECT_EQ(decoded->status.code(), StatusCode::kInternal);
  EXPECT_EQ(decoded->status.message(), "something new broke");
}

TEST(ResponseCodecTest, PayloadOutsideAnySectionIsIgnored) {
  // Text before the first header belongs to no section, and a payload
  // cut short of its final newline still yields whole lines.
  Result<WireReply> reply = ParseReplyLine("+DATA 0 id=2 state=done");
  ASSERT_TRUE(reply.ok()) << reply.status();
  Result<ConversionResponse> decoded = DecodeResponse(
      *reply, "stray\n== SOURCE\n== SOURCE ==\nPROGRAM X.\nEND PROGRAM.");
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->converted_source, "PROGRAM X.\nEND PROGRAM.\n");
  EXPECT_TRUE(decoded->notes.empty());
  EXPECT_TRUE(decoded->trace_text.empty());
  EXPECT_TRUE(decoded->status.ok());
}

}  // namespace
}  // namespace dbpc
