// dbpcbench — the dbpc reference benchmark program (see perfbench/README.md).
//
//   dbpcbench --workload serve-zipf|convert-cold|migrate --seed <n>
//             --seconds <n> --trace 0|1 --dbpcd <path> --work-dir <dir>
//             [--commit <stamp>]
//
// Prints "# "-prefixed human-readable lines (stamp, workload properties,
// every metric measured) and, as the last line of stdout, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status: 0 when every output checked correct, 1 when a check failed,
// 2 on usage or setup errors (no result line then).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "workload.h"

namespace dbpc::perfbench {
namespace {

using Contract = std::vector<std::pair<const char*, const char*>>;

// Keep in step with BENCHMARK.json.
const Contract kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"throughput_per_s", "1/s"},
    {"primary_wait_ms", "ms"},
    {"secondary_wait_ms", "ms"},
};

// Per-layer metrics; a workload that does not reach a layer reports 0.
const Contract kPerLayer = {
    {"daemon.submit_rtt_p50_us", "us"},
    {"daemon.result_rtt_p50_us", "us"},
    {"daemon.request_p50_us", "us"},
    {"daemon.request_p99_us", "us"},
    {"daemon.queue_wait_p99_us", "us"},
    {"daemon.outside_job_share", "ratio"},
    {"daemon.server_cpu_us_per_conv", "us"},
    {"loadgen.cpu_us_per_conv", "us"},
    {"stage.analyze_mean_us", "us"},
    {"stage.convert_mean_us", "us"},
    {"stage.optimize_mean_us", "us"},
    {"stage.generate_mean_us", "us"},
    {"program.total_mean_us", "us"},
    {"stage.sum_share_of_serve_p50", "ratio"},
    {"service.conversions", "count"},
    {"optimizer.plans_costed_per_program", "count"},
    {"lang.parse_us_per_kb", "us"},
    {"lang.interp_steps_per_s", "1/s"},
    {"cache.hit_ratio", "ratio"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.evictions", "count"},
    {"cache.hit_us", "us"},
    {"cache.miss_overhead_us", "us"},
    {"restructure.record_step_records_per_s", "1/s"},
    {"restructure.bulk_step_records_per_s", "1/s"},
    {"engine.query_ops", "count"},
    {"engine.update_ops", "count"},
    {"engine.query_ns_per_op", "ns"},
    {"engine.update_ns_per_op", "ns"},
    {"engine.index_hit_ratio", "ratio"},
    {"engine.index_hits", "count"},
    {"engine.index_probes", "count"},
    {"engine.members_scanned", "count"},
    {"trace.overhead_pct", "pct"},
    {"trace.spans", "count"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: dbpcbench --workload serve-zipf|convert-cold|migrate "
               "--seed <n> --seconds <n> --trace 0|1 --dbpcd <path> "
               "--work-dir <dir> [--commit <stamp>]\n");
  return 2;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// The result line. Every metric of `contract` must be present (or, for
/// per-layer metrics, is reported as 0: the workload does not reach it).
std::string ResultJson(BenchResult& result, const Contract& contract,
                       bool missing_is_zero) {
  std::string json = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : contract) {
    auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      if (!missing_is_zero) throw BenchError(std::string("no metric ") + name);
      it = result.metrics.emplace(name, BenchResult::Metric{0, unit}).first;
    }
    if (it->second.unit != unit) {
      throw BenchError(std::string("metric ") + name + " measured in " +
                       it->second.unit + ", declared in " + unit);
    }
    if (!std::isfinite(it->second.value)) {
      throw BenchError(std::string("metric ") + name + " is not finite");
    }
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + Number(it->second.value) + ", \"unit\": \"" +
            unit + "\"}";
    first = false;
  }
  return json + "}}";
}

int Main(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (arg == "--dbpcd") {
      options.dbpcd = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--commit") {
      options.commit = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.seconds < 1 ||
      options.work_dir.empty() || options.dbpcd.empty()) {
    return Usage();
  }
  BenchResult (*run)(const Options&) = nullptr;
  if (options.workload == "serve-zipf") run = RunServeZipf;
  if (options.workload == "convert-cold") run = RunConvertCold;
  if (options.workload == "migrate") run = RunMigrate;
  if (run == nullptr) return Usage();
  if (options.commit.empty()) options.commit = "unknown";

  PrintStamp(options);
  std::string line;
  BenchResult result;
  try {
    double probe_before_ms = HostProbeMs();
    result = run(options);
    Note("host probe: %.2f ms before the run, %.2f ms after (a fixed 16 MiB "
         "random walk; larger means a slower host)",
         probe_before_ms, HostProbeMs());
    if (result.attempted == 0) throw BenchError("no operation was attempted");
    for (const auto& [name, metric] : result.metrics) {
      Note("%-40s %.6g %s", name.c_str(), metric.value, metric.unit.c_str());
    }
    Note("failed_share %.6g (%llu failed of %llu attempted)",
         static_cast<double>(result.failed) / result.attempted,
         static_cast<unsigned long long>(result.failed),
         static_cast<unsigned long long>(result.attempted));
    line = options.trace ? ResultJson(result, kPerLayer, true)
                         : ResultJson(result, kEndToEnd, false);
  } catch (const BenchError& e) {
    std::fprintf(stderr, "dbpcbench: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dbpc::perfbench

int main(int argc, char** argv) { return dbpc::perfbench::Main(argc, argv); }
