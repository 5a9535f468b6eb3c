#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace dbpc::perfbench {

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) throw BenchError(what + ": " + status.ToString());
}

void Note(const char* format, ...) {
  char buf[2048];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  std::printf("# %s\n", buf);
  std::fflush(stdout);
}

void BenchResult::Fail(uint64_t n, const std::string& why) {
  failed += n;
  correct = false;
  Note("FAIL (%llu): %s", static_cast<unsigned long long>(n), why.c_str());
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng* rng) const {
  double u = rng->Unit();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  size_t paren = line.rfind(')');
  if (paren == std::string::npos) return -1;
  std::istringstream fields(line.substr(paren + 2));
  std::string token;
  unsigned long long utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int field = 3; field <= 15 && fields >> token; ++field) {
    if (field == 14) utime = std::strtoull(token.c_str(), nullptr, 10);
    if (field == 15) stime = std::strtoull(token.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

void PrintStamp(const Options& options) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  Note("stamp: workload=%s seed=%llu seconds=%d trace=%d nproc=%d "
       "build=%s compiler=\"gcc %s\" commit=%s cpu=\"%s\"",
       options.workload.c_str(),
       static_cast<unsigned long long>(options.seed), options.seconds,
       options.trace ? 1 : 0, UsableCpus(), DBPC_BENCH_BUILD_TYPE,
       __VERSION__, options.commit.c_str(), cpu.c_str());
}

double HostProbeMs() {
  constexpr uint32_t kWords = 1u << 22;  // 16 MiB of uint32_t
  std::vector<uint32_t> words(kWords, 1);
  Clock::time_point start = Clock::now();
  uint32_t index = 0, sum = 0;
  for (uint32_t i = 0; i < kWords; ++i) {
    index = (index * 1664525u + 1013904223u) & (kWords - 1);
    sum += words[index];
    words[index] = sum;
  }
  double ms = SecondsSince(start) * 1e3;
  if (sum == 0) Note("host probe checksum %u", sum);  // keeps the walk
  return ms;
}

// --- registry snapshots ------------------------------------------------------

namespace {

int BucketIndex(uint64_t upper_bound) {
  // HistogramBucketUpperBound(i) == 2 << i.
  return upper_bound < 2 ? 0 : __builtin_ctzll(upper_bound) - 1;
}

/// Reads a JSON string starting at the opening quote `json[pos]`; returns
/// the position after the closing quote.
size_t ReadName(const std::string& json, size_t pos, std::string* out) {
  out->clear();
  for (size_t i = pos + 1; i < json.size(); ++i) {
    if (json[i] == '\\' && i + 1 < json.size()) {
      out->push_back(json[++i]);
    } else if (json[i] == '"') {
      return i + 1;
    } else {
      out->push_back(json[i]);
    }
  }
  return std::string::npos;
}

uint64_t FieldValue(const std::string& entry, const char* key) {
  std::string needle = std::string("\"") + key + "\": ";
  size_t at = entry.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(entry.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace

RegistrySnapshot RegistrySnapshot::Of(const MetricsRegistry& registry) {
  MetricsSnapshot snap = registry.Snapshot();
  RegistrySnapshot out;
  for (const auto& [name, value] : snap.counters) out.counters[name] = value;
  for (const MetricsSnapshot::HistogramData& h : snap.histograms) {
    Histogram& dst = out.histograms[h.name];
    dst.count = h.count;
    dst.sum_us = h.sum_us;
    for (int i = 0; i < dbpc::Histogram::kBuckets && i < 32; ++i) {
      dst.buckets[i] = h.buckets[i];
    }
  }
  return out;
}

Result<RegistrySnapshot> RegistrySnapshot::FromJson(const std::string& json) {
  const std::string counters_key = "\"counters\": {";
  const std::string gauges_key = "\"gauges\": {";
  const std::string histograms_key = "\"histograms\": {";
  size_t counters_at = json.find(counters_key);
  size_t gauges_at = json.find(gauges_key);
  size_t histograms_at = json.find(histograms_key);
  if (counters_at == std::string::npos || gauges_at == std::string::npos ||
      histograms_at == std::string::npos) {
    return Status::ParseError("METRICS reply is not a registry snapshot");
  }
  RegistrySnapshot out;
  std::string name;
  size_t pos = counters_at + counters_key.size();
  while (true) {
    size_t quote = json.find('"', pos);
    if (quote == std::string::npos || quote >= gauges_at) break;
    size_t after = ReadName(json, quote, &name);
    size_t colon = json.find(':', after);
    if (after == std::string::npos || colon == std::string::npos) break;
    char* end = nullptr;
    out.counters[name] = std::strtoull(json.c_str() + colon + 1, &end, 10);
    pos = static_cast<size_t>(end - json.c_str());
  }
  pos = histograms_at + histograms_key.size();
  while (true) {
    size_t quote = json.find('"', pos);
    if (quote == std::string::npos) break;
    size_t after = ReadName(json, quote, &name);
    if (after == std::string::npos) break;
    size_t open = json.find('{', after);
    size_t close = json.find('}', open);
    if (open == std::string::npos || close == std::string::npos) {
      return Status::ParseError("truncated histogram " + name);
    }
    std::string entry = json.substr(open, close - open + 1);
    Histogram& h = out.histograms[name];
    h.count = FieldValue(entry, "count");
    h.sum_us = FieldValue(entry, "sum_us");
    size_t buckets_at = entry.find("\"buckets\": [");
    if (buckets_at != std::string::npos) {
      const char* p = entry.c_str() + buckets_at + 12;
      while (*p != '\0') {
        const char* open_pair = std::strchr(p, '[');
        if (open_pair == nullptr) break;
        char* end = nullptr;
        uint64_t upper = std::strtoull(open_pair + 1, &end, 10);
        if (end == nullptr || *end != ',') break;
        uint64_t n = std::strtoull(end + 1, &end, 10);
        int index = BucketIndex(upper);
        if (index >= 0 && index < 32) h.buckets[index] = n;
        p = end;
      }
    }
    pos = close + 1;
  }
  return out;
}

uint64_t RegistrySnapshot::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const RegistrySnapshot::Histogram* RegistrySnapshot::Find(
    const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

RegistrySnapshot Delta(const RegistrySnapshot& before,
                       const RegistrySnapshot& after) {
  RegistrySnapshot out;
  for (const auto& [name, value] : after.counters) {
    out.counters[name] = value - before.Counter(name);
  }
  for (const auto& [name, h] : after.histograms) {
    RegistrySnapshot::Histogram& d = out.histograms[name];
    const RegistrySnapshot::Histogram* b = before.Find(name);
    d.count = h.count - (b ? b->count : 0);
    d.sum_us = h.sum_us - (b ? b->sum_us : 0);
    for (size_t i = 0; i < d.buckets.size(); ++i) {
      d.buckets[i] = h.buckets[i] - (b ? b->buckets[i] : 0);
    }
  }
  return out;
}

double HistogramPercentile(const RegistrySnapshot::Histogram& h, double p) {
  uint64_t total = 0;
  for (uint64_t n : h.buckets) total += n;
  if (total == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * total + 0.5);
  rank = std::clamp<uint64_t>(rank, 1, total);
  uint64_t seen = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    uint64_t n = h.buckets[i];
    if (n == 0) continue;
    if (seen + n >= rank) {
      double lower = i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << i);
      double width = static_cast<double>(uint64_t{2} << i) - lower;
      return lower + width * static_cast<double>(rank - seen) / n;
    }
    seen += n;
  }
  return 0;
}

void RecordPipelineLayers(const RegistrySnapshot& delta, BenchResult* result) {
  static const RegistrySnapshot::Histogram kEmpty;
  auto histogram = [&](const std::string& name) {
    const RegistrySnapshot::Histogram* h = delta.Find(name);
    return h != nullptr ? *h : kEmpty;
  };
  for (const char* stage : {"analyze", "convert", "optimize", "generate"}) {
    result->Set(std::string("stage.") + stage + "_mean_us",
                HistogramMean(histogram(std::string("stage.") + stage + "_us")),
                "us");
  }
  RegistrySnapshot::Histogram total = histogram("program.total_us");
  result->Set("program.total_mean_us", HistogramMean(total), "us");
  result->Set("service.conversions", static_cast<double>(total.count),
              "count");
  result->Set("optimizer.plans_costed_per_program",
              total.count == 0
                  ? 0.0
                  : static_cast<double>(
                        delta.Counter("optimizer.plans_costed")) /
                        total.count,
              "count");
  double hits = static_cast<double>(delta.Counter("cache.hits"));
  double misses = static_cast<double>(delta.Counter("cache.misses"));
  result->Set("cache.hits", hits, "count");
  result->Set("cache.misses", misses, "count");
  result->Set("cache.evictions",
              static_cast<double>(delta.Counter("cache.evictions")), "count");
  result->Set("cache.hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

// --- spans -------------------------------------------------------------------

double OverheadPct(const std::vector<double>& untraced,
                   const std::vector<double>& traced) {
  if (untraced.empty() || traced.empty()) return 0;
  return (Median(traced) / Median(untraced) - 1.0) * 100.0;
}

size_t WriteSpans(const SpanCollector& spans, const Options& options) {
  std::string path = options.work_dir + "/trace-" + options.workload +
                     "-seed" + std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  if (!out || !(out << spans.ToChromeTraceJson())) {
    throw BenchError("cannot write " + path);
  }
  Note("spans: %zu roots written to %s", spans.RootCount(), path.c_str());
  return spans.RootCount();
}

// --- shared layer probes -----------------------------------------------------

double ParseMicrosPerKb(const std::vector<std::string>& sources) {
  size_t bytes = 0;
  for (const std::string& s : sources) bytes += s.size();
  if (bytes == 0) return 0;
  double elapsed = 0;
  size_t parsed_bytes = 0;
  // At least two passes and 100 ms, so the figure is not one cold pass.
  for (int pass = 0; pass < 2 || elapsed < 0.1; ++pass) {
    Clock::time_point start = Clock::now();
    for (const std::string& s : sources) {
      Check(ParseProgram(s).status(), "parse probe");
    }
    elapsed += SecondsSince(start);
    parsed_bytes += bytes;
  }
  return elapsed * 1e6 / (static_cast<double>(parsed_bytes) / 1024.0);
}

CacheProbe ProbeTemplateCache(const Schema& schema,
                              const std::vector<const Transformation*>& plan,
                              const StatisticsCatalog* statistics,
                              const std::vector<Program>& programs) {
  SupervisorOptions base;
  base.statistics = statistics;
  base.mode = AnalystMode::kAssisted;
  base.analyst = ApproveAllAnalyst();
  TemplateCache cache;
  SupervisorOptions cached = base;
  cached.cache = &cache;
  ConversionSupervisor with_cache =
      Must(ConversionSupervisor::Create(schema, plan, cached), "probe");
  ConversionSupervisor without_cache =
      Must(ConversionSupervisor::Create(schema, plan, base), "probe");

  // Misses: every body is unique and the cache starts empty each pass; the
  // two supervisors alternate which runs first.
  double on_s = 0, off_s = 0;
  size_t calls = 0;
  for (int pass = 0; pass < 3; ++pass) {
    cache.Clear();
    for (size_t i = 0; i < programs.size(); ++i) {
      for (int side = 0; side < 2; ++side) {
        bool on = (side == 0) == (i % 2 == 0);
        Clock::time_point start = Clock::now();
        Check((on ? with_cache : without_cache)
                  .ConvertProgram(programs[i])
                  .status(),
              "probe conversion");
        (on ? on_s : off_s) += SecondsSince(start);
      }
      ++calls;
    }
  }
  // Warm hits: every memoized body, converted again.
  std::vector<double> hit_us;
  for (int pass = 0; pass < 5; ++pass) {
    for (const Program& program : programs) {
      Clock::time_point start = Clock::now();
      PipelineOutcome outcome =
          Must(with_cache.ConvertProgram(program), "probe hit");
      double us = SecondsSince(start) * 1e6;
      if (outcome.cache_hit) hit_us.push_back(us);
    }
  }
  CacheProbe probe;
  probe.hit_us = Median(hit_us);
  probe.miss_overhead_us = calls == 0 ? 0 : (on_s - off_s) * 1e6 / calls;
  return probe;
}

}  // namespace dbpc::perfbench
