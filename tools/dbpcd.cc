// dbpcd — the database program conversion daemon.
//
// Long-running TCP front-end to the Figure 4.1 pipeline: loads one schema
// and restructuring plan at startup, then serves conversion jobs over the
// line-oriented wire protocol specified in DAEMON.md
// (submit/status/result/metrics/trace/drain).
//
//   dbpcd --schema company.ddl --plan fig44.plan --port 7411
//
// Flags:
//   --schema <file>          source schema (required)
//   --plan <file>            restructuring plan (required)
//   --host <addr>            listen address (default 127.0.0.1)
//   --port <n>               TCP port; 0 picks an ephemeral port
//   --port-file <file>       write the bound port to <file> once listening
//                            (scripts start with --port 0 and read this)
//   --jobs <n>               conversion worker threads (default 4)
//   --deadline-ms <n>        default per-job soft deadline (a SUBMIT may
//                            tighten it with deadline_ms=<n>)
//   --queue-depth <n>        admitted-jobs bound; SUBMIT over it gets
//                            `-ERR unavailable` backpressure (default 256)
//   --max-connections <n>    concurrent session cap (default 256)
//   --read-timeout-ms <n>    per-read session deadline (default 10000)
//   --write-timeout-ms <n>   per-reply session deadline (default 10000)
//   --drain-grace-ms <n>     how long a drain waits for admitted jobs
//                            (default 30000)
//   --io-threads <n>         epoll reactor threads serving the sessions
//                            (default 2)
//   --strict                 reject analyst-level conversions (default: an
//                            approve-all analyst, like dbpcc)
//   --no-optimizer           skip the optimizer stage
//   --no-cache               disable the template-level conversion memo
//                            (default: repeat-heavy traffic reuses
//                            converted templates; METRICS exposes cache.*)
//   --metrics-json <file>    write a final metrics snapshot on shutdown;
//                            "-" writes to stderr
//   --admin-port <n>         HTTP admin endpoint (GET /metrics /healthz
//                            /readyz /varz); 0 picks an ephemeral port,
//                            omit to disable (DAEMON.md "Admin endpoint")
//   --admin-port-file <file> write the bound admin port to <file>
//   --log-level <l>          structured-log threshold: debug|info|warn|
//                            error|off (default info)
//   --log-json               emit log lines as JSONL instead of logfmt
//   --slow-request-ms <n>    log one warn line per job slower than <n> ms
//                            end-to-end (0 = off)
//   --drain-linger-ms <n>    after a signal-triggered drain completes, keep
//                            serving (sessions + admin plane) this long
//                            before exiting, so orchestrators observe the
//                            503 /readyz before the listener vanishes
//                            (default 0)
//
// Linux only: sessions run on epoll reactors.
//
// Shutdown: SIGTERM or SIGINT triggers a graceful drain — new SUBMITs are
// refused, every admitted job completes (bounded by --drain-grace-ms),
// sessions are torn down — then the process exits 0 on a clean drain, 1
// if the grace period elapsed with jobs still pending.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/dbpc.h"

namespace {

using namespace dbpc;

std::atomic<int> g_signal{0};

void HandleSignal(int sig) { g_signal.store(sig); }

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbpcd --schema <ddl> --plan <plan> [--host <addr>] "
      "[--port <n>] [--port-file <file>] [--jobs <n>] [--deadline-ms <n>] "
      "[--queue-depth <n>] [--max-connections <n>] [--read-timeout-ms <n>] "
      "[--write-timeout-ms <n>] [--drain-grace-ms <n>] "
      "[--io-threads <n>] [--strict] "
      "[--no-optimizer] [--no-cache] [--metrics-json <file>] "
      "[--admin-port <n>] [--admin-port-file <file>] "
      "[--log-level debug|info|warn|error|off] [--log-json] "
      "[--slow-request-ms <n>] [--drain-linger-ms <n>]\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int Fail(const Status& status, const std::string& what) {
  std::fprintf(stderr, "dbpcd: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string schema_path, plan_path, port_file, metrics_json_path;
  std::string admin_port_file;
  DaemonOptions options;
  options.service.jobs = 4;
  bool strict = false;
  int drain_linger_ms = 0;
  Logger::Options log_options;
  log_options.level = LogLevel::kInfo;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](int* out) {
      if (i + 1 >= argc) return false;
      *out = std::atoi(argv[++i]);
      return true;
    };
    if (arg == "--schema" && i + 1 < argc) {
      schema_path = argv[++i];
    } else if (arg == "--plan" && i + 1 < argc) {
      plan_path = argv[++i];
    } else if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      metrics_json_path = argv[++i];
    } else if (arg == "--port") {
      if (!next(&options.port)) return Usage();
    } else if (arg == "--jobs") {
      if (!next(&options.service.jobs)) return Usage();
    } else if (arg == "--deadline-ms") {
      if (!next(&options.service.deadline_ms)) return Usage();
    } else if (arg == "--queue-depth") {
      if (!next(&options.queue_depth)) return Usage();
    } else if (arg == "--max-connections") {
      if (!next(&options.max_connections)) return Usage();
    } else if (arg == "--read-timeout-ms") {
      if (!next(&options.read_timeout_ms)) return Usage();
    } else if (arg == "--write-timeout-ms") {
      if (!next(&options.write_timeout_ms)) return Usage();
    } else if (arg == "--drain-grace-ms") {
      if (!next(&options.drain_grace_ms)) return Usage();
    } else if (arg == "--io-threads") {
      if (!next(&options.io_threads)) return Usage();
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--no-optimizer") {
      options.service.supervisor.run_optimizer = false;
    } else if (arg == "--no-cache") {
      options.service.cache.enabled = false;
    } else if (arg == "--admin-port") {
      if (!next(&options.admin_port)) return Usage();
    } else if (arg == "--admin-port-file" && i + 1 < argc) {
      admin_port_file = argv[++i];
    } else if (arg == "--log-level" && i + 1 < argc) {
      if (!ParseLogLevel(argv[++i], &log_options.level)) {
        std::fprintf(stderr, "dbpcd: unknown --log-level \"%s\"\n", argv[i]);
        return Usage();
      }
    } else if (arg == "--log-json") {
      log_options.json = true;
    } else if (arg == "--slow-request-ms") {
      if (!next(&options.slow_request_ms)) return Usage();
    } else if (arg == "--drain-linger-ms") {
      if (!next(&drain_linger_ms)) return Usage();
    } else {
      return Usage();
    }
  }
  if (schema_path.empty() || plan_path.empty()) return Usage();
  if (drain_linger_ms < 0) return Usage();

  GlobalLogger().Configure(log_options);

  if (strict) {
    options.service.supervisor.mode = AnalystMode::kStrict;
  } else {
    options.service.supervisor.mode = AnalystMode::kAssisted;
    options.service.supervisor.analyst = ApproveAllAnalyst();
  }

  Result<std::string> ddl_text = ReadFile(schema_path);
  if (!ddl_text.ok()) return Fail(ddl_text.status(), schema_path);
  Result<Schema> schema = ParseDdl(*ddl_text);
  if (!schema.ok()) return Fail(schema.status(), schema_path);

  Result<std::string> plan_text = ReadFile(plan_path);
  if (!plan_text.ok()) return Fail(plan_text.status(), plan_path);
  Result<RestructuringPlan> plan = ParsePlan(*plan_text);
  if (!plan.ok()) return Fail(plan.status(), plan_path);

  Result<std::unique_ptr<ConversionDaemon>> daemon =
      ConversionDaemon::Start(*schema, plan->View(), options);
  if (!daemon.ok()) return Fail(daemon.status(), "daemon startup");

  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::fprintf(stderr,
               "dbpcd: listening on %s:%d (proto=%d, jobs=%d, io=epoll)\n",
               options.host.c_str(), (*daemon)->port(), kProtocolVersion,
               options.service.jobs);
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      return Fail(Status::NotFound("cannot write " + port_file), port_file);
    }
    out << (*daemon)->port() << "\n";
  }
  if (!admin_port_file.empty()) {
    if ((*daemon)->admin_port() < 0) {
      return Fail(
          Status::InvalidArgument("--admin-port-file requires --admin-port"),
          admin_port_file);
    }
    std::ofstream out(admin_port_file);
    if (!out) {
      return Fail(Status::NotFound("cannot write " + admin_port_file),
                  admin_port_file);
    }
    out << (*daemon)->admin_port() << "\n";
  }

  while (g_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "dbpcd: %s received, draining...\n",
               g_signal.load() == SIGTERM ? "SIGTERM" : "SIGINT");
  Status drained = (*daemon)->Drain();
  if (drain_linger_ms > 0) {
    // Lame-duck window: drained but still serving, so health checkers see
    // /readyz answer 503 (instead of connection-refused) before exit.
    std::this_thread::sleep_for(std::chrono::milliseconds(drain_linger_ms));
  }
  (*daemon)->Stop();
  std::fprintf(stderr,
               "dbpcd: drained (%llu jobs admitted, %llu completed): %s\n",
               static_cast<unsigned long long>((*daemon)->jobs_admitted()),
               static_cast<unsigned long long>((*daemon)->jobs_completed()),
               drained.ToString().c_str());

  if (!metrics_json_path.empty()) {
    std::string snapshot = (*daemon)->metrics().ToJson();
    if (metrics_json_path == "-") {
      std::fprintf(stderr, "%s", snapshot.c_str());
    } else {
      std::ofstream out(metrics_json_path);
      if (out) out << snapshot;
    }
  }
  return drained.ok() ? 0 : 1;
}
