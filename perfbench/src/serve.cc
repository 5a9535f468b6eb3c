// serve-zipf: the real dbpcd in its own process, driven by a closed loop of
// nproc sessions, one client thread each, doing SUBMIT then RESULT WAIT.
// Requests are drawn Zipf from a pool four times the template cache's
// capacity, so most are hits while the tail and the never-memoized
// analyst-consulting shapes keep misses and evictions going.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <thread>

#include "workload.h"

namespace dbpc::perfbench {
namespace {

constexpr size_t kPoolSize = 16384;  // 4x TemplateCacheOptions::capacity
constexpr double kZipfExponent = 1.0;
constexpr size_t kWarmHead = 2048;   // pool head converted once in setup
constexpr int kSetupRepeats = 5;
constexpr int kTraceSample = 8;      // traced slices: spans on 1 in 8 requests
constexpr auto kTraceSlice = std::chrono::milliseconds(250);
constexpr auto kSlice = std::chrono::milliseconds(500);  // throughput slices
constexpr size_t kProbePrograms = 256;

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out || !(out << text)) throw BenchError("cannot write " + path);
}

/// dbpcd as a child process with its default configuration. The destructor
/// stops it, so no exit path leaves it running.
class DaemonProcess {
 public:
  explicit DaemonProcess(const Options& options) {
    const std::string schema = options.work_dir + "/company.ddl";
    const std::string plan = options.work_dir + "/migration.plan";
    const std::string port_file = options.work_dir + "/dbpcd.port";
    const std::string log = options.work_dir + "/dbpcd.log";
    WriteFile(schema, kCompanyDdl);
    WriteFile(plan, kPlanText);
    unlink(port_file.c_str());
    std::vector<std::string> args = {options.dbpcd, "--schema", schema,
                                     "--plan", plan, "--port", "0",
                                     "--port-file", port_file};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) throw BenchError("fork failed");
    if (pid_ == 0) {
      // The daemon dies with the benchmark, whatever ends it.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execv(argv[0], argv.data());
      _exit(127);
    }
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw BenchError("dbpcd exited during startup (see " + log + ")");
      }
      std::ifstream in(port_file);
      if (in >> port_ && port_ > 0) return;
      port_ = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Stop();
    throw BenchError("dbpcd did not start listening");
  }
  ~DaemonProcess() { Stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

  /// SIGTERM (a graceful drain), then waits for the exit. Returns the exit
  /// code (0 on a clean drain), or -1 when the daemon had to be killed.
  int Stop() {
    if (pid_ <= 0) return -1;
    kill(pid_, SIGTERM);
    int status = 0;
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

uint64_t ResponseHash(const ConversionResponse& r) {
  uint64_t h = Fingerprint64(std::string(ConvertibilityName(r.classification)) +
                             (r.accepted ? "+" : "-") + r.converted_source);
  return h == 0 ? 1 : h;
}

/// One closed-loop session on its own client thread and connection.
struct Session {
  std::unique_ptr<DaemonClient> client;
  std::vector<uint64_t> first_hash;  ///< per pool rank; 0 = not seen yet
  std::vector<uint32_t> responses;   ///< per pool rank, timed window only
  std::vector<double> latency_us;         ///< untraced requests
  std::vector<double> traced_latency_us;  ///< requests in traced slices
  std::vector<double> submit_us, fetch_us;
  std::vector<std::vector<double>> slice_latency_us;  ///< per kSlice
  uint64_t attempted = 0, completed = 0;
  uint64_t backpressure = 0, errors = 0, dropped = 0, inconsistent = 0;
  std::string first_error;

  void Error(uint64_t* counter, const std::string& what) {
    ++*counter;
    if (first_error.empty()) first_error = what;
  }

  /// Records a finished response; false when it is not a finished job.
  bool Record(size_t rank, const ConversionResponse& response, bool timed) {
    if (response.state != JobState::kDone) {
      Error(&errors, "job " + std::to_string(response.id) + " ended " +
                         JobStateName(response.state) + ": " +
                         response.status.ToString());
      return false;
    }
    uint64_t h = ResponseHash(response);
    if (first_hash[rank] == 0) {
      first_hash[rank] = h;
    } else if (first_hash[rank] != h) {
      Error(&inconsistent, "rank " + std::to_string(rank) +
                               " answered differently on a repeat");
    }
    if (timed) ++responses[rank];
    return true;
  }
};

std::unique_ptr<DaemonClient> Connect(int port) {
  return Must(DaemonClient::Connect("127.0.0.1", port,
                                    SockBuffer::Limits{30000, 30000, 1 << 20}),
              "connect to dbpcd");
}

/// Converts the pool head once, spread over the sessions.
void WarmUp(std::vector<Session>* sessions, const ProgramSet& pool) {
  std::vector<std::thread> threads;
  std::vector<std::string> errors(sessions->size());
  for (size_t s = 0; s < sessions->size(); ++s) {
    threads.emplace_back([&, s] {
      Session& session = (*sessions)[s];
      ConversionRequest request;
      for (size_t rank = s; rank < kWarmHead; rank += sessions->size()) {
        request.source = pool.sources[rank];
        Result<ConversionResponse> r = session.client->Convert(request);
        if (!r.ok() || !session.Record(rank, *r, false)) {
          errors[s] = r.ok() ? session.first_error : r.status().ToString();
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw BenchError("warm-up: " + e);
  }
}

void RunSession(Session* s, const ProgramSet& pool, const Zipf& zipf,
                uint64_t seed, size_t index, Clock::time_point start,
                Clock::time_point deadline, SpanCollector* spans) {
  Rng rng(seed * 0x100000001b3ull + index + 1);
  ConversionRequest request;
  uint64_t sequence = 0;
  while (Clock::now() < deadline) {
    size_t rank = zipf.Sample(&rng);
    request.source = pool.sources[rank];
    Clock::time_point t0 = Clock::now();
    bool traced_slice =
        spans != nullptr && ((t0 - start) / kTraceSlice) % 2 == 1;
    SpanContext root;
    if (traced_slice && sequence % kTraceSample == 0) {
      root = spans->StartRoot("request", (index << 40) | sequence);
      root.SetAttribute("rank", std::to_string(rank));
    }
    ++sequence;
    ++s->attempted;
    SpanContext submit_span = root.StartChild("DaemonClient::Submit");
    Result<JobId> id = s->client->Submit(request);
    submit_span.End();
    Clock::time_point t1 = Clock::now();
    if (!id.ok()) {
      root.End();
      if (id.status().code() == StatusCode::kUnavailable) {
        s->Error(&s->backpressure, id.status().ToString());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      s->Error(&s->dropped, "submit: " + id.status().ToString());
      return;
    }
    SpanContext fetch_span = root.StartChild("DaemonClient::Fetch");
    Result<ConversionResponse> response = s->client->Fetch(*id, true);
    fetch_span.End();
    root.End();
    Clock::time_point t2 = Clock::now();
    if (!response.ok()) {
      s->Error(&s->dropped, "result: " + response.status().ToString());
      return;
    }
    if (!s->Record(rank, *response, true)) continue;
    ++s->completed;
    double total_us =
        std::chrono::duration<double, std::micro>(t2 - t0).count();
    (traced_slice ? s->traced_latency_us : s->latency_us).push_back(total_us);
    size_t slice = static_cast<size_t>((t2 - start) / kSlice);
    if (slice >= s->slice_latency_us.size()) {
      s->slice_latency_us.resize(slice + 1);
    }
    s->slice_latency_us[slice].push_back(total_us);
    if (spans != nullptr) {
      s->submit_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      s->fetch_us.push_back(
          std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
  }
}

RegistrySnapshot DaemonMetrics(DaemonClient* client) {
  return Must(RegistrySnapshot::FromJson(Must(client->Metrics(), "METRICS")),
              "parse METRICS");
}

}  // namespace

BenchResult RunServeZipf(const Options& options) {
  BenchResult result;
  const int nproc = UsableCpus();
  const size_t session_count = static_cast<size_t>(nproc);
  Pipeline pipeline = LoadPipeline();

  // --- setup, repeated; the last one is measured -----------------------------
  unlink((options.work_dir + "/dbpcd.log").c_str());  // one run's log only
  std::vector<double> setup_s;
  ProgramSet pool;
  std::unique_ptr<DaemonProcess> daemon;
  std::vector<Session> sessions;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    for (Session& s : sessions) (void)s.client->Quit();
    sessions.clear();
    daemon.reset();
    Clock::time_point start = Clock::now();
    pool = MakeServePool(kPoolSize, options.seed);
    daemon = std::make_unique<DaemonProcess>(options);
    sessions.resize(session_count);
    for (Session& s : sessions) {
      s.client = Connect(daemon->port());
      s.first_hash.assign(pool.sources.size(), 0);
      s.responses.assign(pool.sources.size(), 0);
    }
    WarmUp(&sessions, pool);
    setup_s.push_back(SecondsSince(start));
  }
  if (pool.distinct_bodies != pool.sources.size()) {
    result.Fail(pool.sources.size() - pool.distinct_bodies,
                "pool bodies are not distinct");
  }
  pool.PrintProperties("serve-zipf pool");
  Zipf zipf(pool.sources.size(), kZipfExponent);
  const size_t capacity = static_cast<size_t>(TemplateCacheOptions{}.capacity);
  Note("serve-zipf load: closed loop, %zu sessions on %zu client threads and "
       "%zu connections (nproc %d); Zipf exponent %.2f over %zu ranks = "
       "%.1fx the cache's %zu entries (head mass %.3f); warm-up converted "
       "the top %zu ranks",
       session_count, session_count, session_count, nproc, kZipfExponent,
       pool.sources.size(),
       static_cast<double>(pool.sources.size()) / capacity, capacity,
       zipf.HeadMass(capacity), kWarmHead);
  if (session_count > static_cast<size_t>(nproc)) {
    throw BenchError("more sessions than CPUs");
  }

  // --- timed window ----------------------------------------------------------
  std::unique_ptr<SpanCollector> collector;
  if (options.trace) collector = std::make_unique<SpanCollector>();
  SpanCollector* spans = collector.get();
  RegistrySnapshot before = DaemonMetrics(sessions[0].client.get());
  double daemon_cpu0 = ProcessCpuSeconds(daemon->pid());
  double self_cpu0 = SelfCpuSeconds();
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = start + std::chrono::seconds(options.seconds);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sessions.size(); ++i) {
    threads.emplace_back(RunSession, &sessions[i], std::cref(pool),
                         std::cref(zipf), options.seed, i, start, deadline,
                         spans);
  }
  for (std::thread& t : threads) t.join();
  double window_s = SecondsSince(start);
  double self_cpu = SelfCpuSeconds() - self_cpu0;
  double daemon_cpu = ProcessCpuSeconds(daemon->pid()) - daemon_cpu0;
  double daemon_rss_mb = PeakRssMb(daemon->pid());

  // A dropped session has no usable connection; METRICS goes over the
  // first live one.
  Session* live = nullptr;
  for (Session& s : sessions) {
    if (s.dropped == 0) {
      live = &s;
      break;
    }
  }
  RegistrySnapshot delta =
      live != nullptr ? Delta(before, DaemonMetrics(live->client.get()))
                      : RegistrySnapshot{};
  for (Session& s : sessions) {
    if (s.dropped == 0) (void)s.client->Quit();
  }
  int drain = daemon->Stop();

  // --- correctness -----------------------------------------------------------
  uint64_t completed = 0, backpressure = 0, errors = 0, dropped = 0,
           inconsistent = 0;
  std::vector<double> latency_us, traced_latency_us, submit_us, fetch_us;
  std::vector<char> seen(pool.sources.size(), 0);
  // Only whole slices inside the window; replies to requests in flight at
  // the deadline land in a partial last slice.
  std::vector<std::vector<double>> slice_latency_us(
      static_cast<size_t>(std::chrono::seconds(options.seconds) / kSlice));
  for (const Session& s : sessions) {
    for (size_t i = 0;
         i < slice_latency_us.size() && i < s.slice_latency_us.size(); ++i) {
      slice_latency_us[i].insert(slice_latency_us[i].end(),
                                 s.slice_latency_us[i].begin(),
                                 s.slice_latency_us[i].end());
    }
    result.attempted += s.attempted;
    completed += s.completed;
    backpressure += s.backpressure;
    errors += s.errors;
    dropped += s.dropped;
    inconsistent += s.inconsistent;
    latency_us.insert(latency_us.end(), s.latency_us.begin(),
                      s.latency_us.end());
    traced_latency_us.insert(traced_latency_us.end(),
                             s.traced_latency_us.begin(),
                             s.traced_latency_us.end());
    submit_us.insert(submit_us.end(), s.submit_us.begin(), s.submit_us.end());
    fetch_us.insert(fetch_us.end(), s.fetch_us.begin(), s.fetch_us.end());
    for (size_t rank = 0; rank < pool.sources.size(); ++rank) {
      if (s.first_hash[rank] != 0) seen[rank] = 1;
    }
    if (!s.first_error.empty()) {
      Note("session error: %s", s.first_error.c_str());
    }
  }
  if (backpressure + errors + dropped + inconsistent > 0) {
    result.Fail(backpressure + errors + dropped + inconsistent,
                std::to_string(backpressure) + " backpressured, " +
                    std::to_string(errors) + " -ERR, " +
                    std::to_string(dropped) + " dropped, " +
                    std::to_string(inconsistent) + " inconsistent responses");
  }
  if (drain != 0) result.Fail(1, "dbpcd did not drain cleanly");

  // Every distinct body answered must match an in-process reference
  // conversion (cache off) byte for byte.
  ServiceOptions reference_options;
  reference_options.cache.enabled = false;
  reference_options.supervisor.mode = AnalystMode::kAssisted;
  reference_options.supervisor.analyst = ApproveAllAnalyst();
  std::unique_ptr<ConversionService> reference =
      Must(ConversionService::Create(pipeline.schema, pipeline.plan.View(),
                                     reference_options),
           "reference service");
  std::vector<size_t> ranks;
  for (size_t rank = 0; rank < seen.size(); ++rank) {
    if (seen[rank]) ranks.push_back(rank);
  }
  std::vector<uint64_t> reference_hash(pool.sources.size(), 0);
  std::vector<char> consults(pool.sources.size(), 0);
  std::vector<std::thread> checkers;
  for (int t = 0; t < nproc; ++t) {
    checkers.emplace_back([&, t] {
      ConversionRequest request;
      for (size_t i = static_cast<size_t>(t); i < ranks.size(); i += nproc) {
        request.source = pool.sources[ranks[i]];
        ConversionResponse r = reference->Convert(request);
        reference_hash[ranks[i]] = ResponseHash(r);
        consults[ranks[i]] = r.outcome.analyst_log.empty() ? 0 : 1;
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  uint64_t mismatched = 0, consulting_requests = 0;
  for (const Session& s : sessions) {
    for (size_t rank : ranks) {
      if (consults[rank]) consulting_requests += s.responses[rank];
      if (s.first_hash[rank] != 0 &&
          s.first_hash[rank] != reference_hash[rank]) {
        mismatched += std::max<uint32_t>(1, s.responses[rank]);
      }
    }
  }
  if (mismatched > 0) {
    result.Fail(mismatched, "responses differ from the reference conversion");
  }
  size_t consulting_bodies = 0;
  for (size_t rank : ranks) consulting_bodies += consults[rank];
  Note("serve-zipf answers: %zu distinct bodies requested and checked against "
       "the reference; analyst consulted for %.3f of them and %.3f of "
       "requests",
       ranks.size(),
       ranks.empty() ? 0.0
                     : static_cast<double>(consulting_bodies) / ranks.size(),
       completed == 0 ? 0.0
                      : static_cast<double>(consulting_requests) / completed);

  // --- metrics ---------------------------------------------------------------
  // Throughput and latency quantiles are taken per slice and reported as
  // the median over slices, so a burst of contention on the shared host
  // moves them only if it lasts half the window.
  std::vector<double> slice_rate, slice_p50_us, slice_p99_us;
  for (const std::vector<double>& slice : slice_latency_us) {
    slice_rate.push_back(slice.size() /
                         std::chrono::duration<double>(kSlice).count());
    slice_p50_us.push_back(Quantile(slice, 0.5));
    slice_p99_us.push_back(Quantile(slice, 0.99));
  }
  std::vector<double> all_latency = latency_us;
  all_latency.insert(all_latency.end(), traced_latency_us.begin(),
                     traced_latency_us.end());
  double client_p50_us = Median(slice_p50_us);
  double client_p99_us = Median(slice_p99_us);
  Note("serve-zipf window: %.3f s, %llu completed, %zu latency samples; "
       "conversions/s per %lld ms slice: min %.0f q1 %.0f median %.0f q3 %.0f "
       "max %.0f",
       window_s, static_cast<unsigned long long>(completed),
       all_latency.size(), static_cast<long long>(kSlice.count()),
       Quantile(slice_rate, 0), Quantile(slice_rate, 0.25),
       Quantile(slice_rate, 0.5), Quantile(slice_rate, 0.75),
       Quantile(slice_rate, 1));
  result.Set("setup_s", Median(setup_s), "s");
  result.Set("peak_rss_mb", daemon_rss_mb, "MiB");
  result.Set("throughput_per_s", Median(slice_rate), "1/s");
  result.Set("primary_wait_ms", client_p50_us / 1000.0, "ms");
  result.Set("secondary_wait_ms", client_p99_us / 1000.0, "ms");
  Note("serve_conv_per_s %.1f conv/s; serve_p50_us %.1f us; serve_p99_us %.1f "
       "us (medians over %zu slices of %lld ms; over all %zu samples p50 %.1f "
       "us, p99 %.1f us)",
       result.metrics["throughput_per_s"].value, client_p50_us, client_p99_us,
       slice_rate.size(), static_cast<long long>(kSlice.count()),
       all_latency.size(), Quantile(all_latency, 0.5),
       Quantile(all_latency, 0.99));

  if (options.trace) {
    result.Set("daemon.submit_rtt_p50_us", Median(submit_us), "us");
    result.Set("daemon.result_rtt_p50_us", Median(fetch_us), "us");
    const auto* request = delta.Find("daemon.request_us");
    const auto* queue = delta.Find("daemon.queue_wait_us");
    double request_p50 = request ? HistogramPercentile(*request, 50) : 0;
    result.Set("daemon.request_p50_us", request_p50, "us");
    result.Set("daemon.request_p99_us",
               request ? HistogramPercentile(*request, 99) : 0, "us");
    result.Set("daemon.queue_wait_p99_us",
               queue ? HistogramPercentile(*queue, 99) : 0, "us");
    result.Set("daemon.outside_job_share",
               client_p50_us > 0 ? 1.0 - request_p50 / client_p50_us : 0,
               "ratio");
    result.Set("daemon.server_cpu_us_per_conv",
               completed ? daemon_cpu * 1e6 / completed : 0, "us");
    result.Set("loadgen.cpu_us_per_conv",
               completed ? self_cpu * 1e6 / completed : 0, "us");
    RecordPipelineLayers(delta, &result);
    double stage_sum = 0;
    for (const char* stage : {"analyze", "convert", "optimize", "generate"}) {
      stage_sum +=
          result.metrics[std::string("stage.") + stage + "_mean_us"].value;
    }
    result.Set("stage.sum_share_of_serve_p50",
               client_p50_us > 0 ? stage_sum / client_p50_us : 0, "ratio");
    Note("cache base: %.0f hits, %.0f misses (hit ratio %.4f)",
         result.metrics["cache.hits"].value,
         result.metrics["cache.misses"].value,
         result.metrics["cache.hit_ratio"].value);

    std::vector<std::string> head(pool.sources.begin(),
                                  pool.sources.begin() + kWarmHead);
    result.Set("lang.parse_us_per_kb", ParseMicrosPerKb(head), "us");
    std::vector<Program> probe(pool.programs.begin(),
                               pool.programs.begin() + kProbePrograms);
    CacheProbe cache = ProbeTemplateCache(pipeline.schema,
                                          pipeline.plan.View(), nullptr, probe);
    result.Set("cache.hit_us", cache.hit_us, "us");
    result.Set("cache.miss_overhead_us", cache.miss_overhead_us, "us");
    result.Set("trace.overhead_pct", OverheadPct(latency_us, traced_latency_us),
               "pct");
    result.Set("trace.spans",
               static_cast<double>(WriteSpans(*collector, options)), "count");
  }
  return result;
}

}  // namespace dbpc::perfbench
