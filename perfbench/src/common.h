// Shared plumbing of the dbpc reference benchmark: options, the result
// record every workload fills, seeded randomness, quantiles, process
// accounting, registry snapshots, span output and the shared layer probes.
#ifndef DBPC_PERFBENCH_COMMON_H_
#define DBPC_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/dbpc.h"

namespace dbpc::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string dbpcd;     ///< path of the dbpcd binary (serve-zipf)
  std::string work_dir;  ///< scratch files: schema, plan, logs, traces
  std::string commit;    ///< source stamp supplied by run.py
};

/// A setup or harness failure: the run ends without a result line.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void Check(const Status& status, const std::string& what);

template <typename T>
T Must(Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// What one run measured. Workloads record every metric they know; main
/// prints the contract's list (end-to-end or per-layer) as the result.
struct BenchResult {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts `n` failed operations and marks the run incorrect.
  void Fail(uint64_t n, const std::string& why);
};

/// Prints one human-readable line ("# ...") on stdout.
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// SplitMix64: the same sequence for the same seed on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf-distributed ranks 0..n-1 with exponent `s` (rank 0 most popular).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;
  /// Probability mass of ranks [0, k).
  double HeadMass(size_t k) const { return k == 0 ? 0 : cdf_[k - 1]; }

 private:
  std::vector<double> cdf_;
};

/// Linear-interpolation quantile (q in [0, 1]) of unsorted values.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// CPUs this process may run on.
int UsableCpus();
/// CPU seconds (user + system) consumed so far by `pid`; -1 on error.
double ProcessCpuSeconds(pid_t pid);
/// CPU seconds consumed by this process so far.
double SelfCpuSeconds();
/// Peak resident set (VmHWM) of `pid` in MiB; -1 on error.
double PeakRssMb(pid_t pid);

/// Prints the host and build stamp lines every result carries.
void PrintStamp(const Options& options);

/// Wall time in ms of a fixed random walk over 16 MiB: a reading of how
/// fast the shared host runs at the moment, printed beside the results so
/// runs made on a slowed host can be told apart.
double HostProbeMs();

/// Counters and histograms of a metrics registry at one instant, taken in
/// process (MetricsRegistry::Snapshot) or parsed from a METRICS reply.
struct RegistrySnapshot {
  struct Histogram {
    uint64_t count = 0;
    uint64_t sum_us = 0;
    std::vector<uint64_t> buckets = std::vector<uint64_t>(32, 0);
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Histogram> histograms;

  static RegistrySnapshot Of(const MetricsRegistry& registry);
  /// Parses MetricsRegistry::ToJson output.
  static Result<RegistrySnapshot> FromJson(const std::string& json);

  uint64_t Counter(const std::string& name) const;
  const Histogram* Find(const std::string& name) const;
};

/// after − before, per counter and per histogram bucket.
RegistrySnapshot Delta(const RegistrySnapshot& before,
                       const RegistrySnapshot& after);
/// Percentile (0..100) of a histogram's power-of-two buckets, interpolated
/// within the bucket the way Histogram::PercentileMicros does.
double HistogramPercentile(const RegistrySnapshot::Histogram& h, double p);
inline double HistogramMean(const RegistrySnapshot::Histogram& h) {
  return h.count == 0 ? 0.0 : static_cast<double>(h.sum_us) / h.count;
}

/// Records the per-stage split of a registry delta: stage.*_mean_us,
/// program.total_mean_us, service.conversions, the optimizer's plans
/// costed per program and the template cache counters.
void RecordPipelineLayers(const RegistrySnapshot& delta, BenchResult* result);

/// Tracing cost in percent: median of the traced samples over the median
/// of the untraced ones, minus one; 0 when either side has no sample.
double OverheadPct(const std::vector<double>& untraced,
                   const std::vector<double>& traced);

/// Writes the spans the benchmark recorded around its own calls into each
/// layer (kept in memory until the run ends) as a Chrome trace to
/// `<work_dir>/trace-<workload>-seed<n>.json`; returns the root count.
size_t WriteSpans(const SpanCollector& spans, const Options& options);

/// Times ParseProgram over `sources`; µs per KiB of source.
double ParseMicrosPerKb(const std::vector<std::string>& sources);

/// Template-cache probe over one pipeline configuration: the in-process
/// cost of a warm hit, and what the cache adds to a miss (cache on minus
/// cache off, same unique bodies). Both in µs per ConvertProgram call.
struct CacheProbe {
  double hit_us = 0;
  double miss_overhead_us = 0;
};
CacheProbe ProbeTemplateCache(const Schema& schema,
                              const std::vector<const Transformation*>& plan,
                              const StatisticsCatalog* statistics,
                              const std::vector<Program>& programs);

}  // namespace dbpc::perfbench

#endif  // DBPC_PERFBENCH_COMMON_H_
