// convert-cold: in-process ConversionService::ConvertSystem over one
// application system of distinct programs, jobs = nproc, cost-based
// optimization over statistics of the translated database. The template
// cache is emptied before every batch, so it pays only its miss path.

#include <unistd.h>

#include <thread>

#include "workload.h"

namespace dbpc::perfbench {
namespace {

constexpr size_t kSystemPrograms = 312;  // 12 corpus-mix groups of 26
constexpr int kStatisticsDivisions = 385;  // x (1 DIV + 64 EMP): ~25k records
constexpr int kSetupRepeats = 5;
constexpr size_t kProbePrograms = 64;

/// The report text plus every accepted program's converted source: the
/// artifact a batch must reproduce byte for byte.
std::string Artifact(const SystemConversionReport& report) {
  std::string out = report.ToText();
  for (const PipelineOutcome& o : report.outcomes) {
    if (o.accepted) out += GenerateCplSource(o.conversion.converted);
  }
  return out;
}

std::vector<ConversionRequest> Requests(const ProgramSet& system) {
  std::vector<ConversionRequest> requests(system.sources.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].source = system.sources[i];
  }
  return requests;
}

ServiceOptions CostBased(const StatisticsCatalog* statistics, int jobs,
                         bool cache) {
  ServiceOptions options;
  options.jobs = jobs;
  options.cache.enabled = cache;
  options.supervisor.statistics = statistics;
  options.supervisor.mode = AnalystMode::kAssisted;
  options.supervisor.analyst = ApproveAllAnalyst();
  return options;
}

}  // namespace

BenchResult RunConvertCold(const Options& options) {
  BenchResult result;
  const int nproc = UsableCpus();
  Pipeline pipeline = LoadPipeline();

  // --- setup, repeated; the last one is measured -----------------------------
  std::vector<double> setup_s;
  ProgramSet system;
  std::unique_ptr<StatisticsCatalog> statistics;
  std::unique_ptr<ConversionService> service;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    Clock::time_point start = Clock::now();
    system = MakeSystem(kSystemPrograms, options.seed);
    Database source = BuildCompany(kStatisticsDivisions, 64, options.seed);
    Database target = Must(TranslateDatabase(source, pipeline.plan.View()),
                           "translate statistics database");
    statistics = std::make_unique<StatisticsCatalog>(
        StatisticsCatalog::Collect(target));
    service = Must(ConversionService::Create(pipeline.schema,
                                             pipeline.plan.View(),
                                             CostBased(statistics.get(), nproc,
                                                       true)),
                   "conversion service");
    setup_s.push_back(SecondsSince(start));
  }
  if (system.distinct_bodies != system.sources.size()) {
    result.Fail(system.sources.size() - system.distinct_bodies,
                "system bodies are not distinct");
  }
  system.PrintProperties("convert-cold system");
  Note("convert-cold load: ConvertSystem with jobs=%d over %zu programs per "
       "batch, cost-based optimizer, approve-all analyst, cache emptied "
       "before each batch",
       nproc, system.sources.size());
  std::vector<ConversionRequest> requests = Requests(system);

  // --- timed window ----------------------------------------------------------
  // The traced run alternates batches with and without spans; the untraced
  // batches give the overhead baseline.
  std::unique_ptr<SpanCollector> spans;
  if (options.trace) spans = std::make_unique<SpanCollector>();
  std::vector<double> batch_s, traced_batch_s;
  std::string first_artifact;
  uint64_t mismatched_batches = 0;
  RegistrySnapshot before = RegistrySnapshot::Of(service->metrics());
  Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(options.seconds);
  for (uint64_t batch = 0; Clock::now() < deadline; ++batch) {
    bool traced = spans != nullptr && batch % 2 == 1;
    SpanContext root;
    if (traced) root = spans->StartRoot("batch", batch);
    SpanContext clear_span =
        root.StartChild("ConversionService::InvalidateCache");
    service->InvalidateCache();
    clear_span.End();
    SpanContext convert_span =
        root.StartChild("ConversionService::ConvertSystem");
    Clock::time_point start = Clock::now();
    SystemConversionReport report =
        Must(service->ConvertSystem(requests), "ConvertSystem");
    double seconds = SecondsSince(start);
    convert_span.AddCounter("programs", requests.size());
    convert_span.End();
    root.End();
    (traced ? traced_batch_s : batch_s).push_back(seconds);
    result.attempted += requests.size();
    std::string artifact = Artifact(report);
    if (first_artifact.empty()) {
      first_artifact = std::move(artifact);
    } else if (artifact != first_artifact) {
      ++mismatched_batches;
    }
  }
  RegistrySnapshot delta =
      Delta(before, RegistrySnapshot::Of(service->metrics()));

  // --- correctness -----------------------------------------------------------
  std::unique_ptr<ConversionService> serial =
      Must(ConversionService::Create(pipeline.schema, pipeline.plan.View(),
                                     CostBased(statistics.get(), 1, false)),
           "reference service");
  SystemConversionReport reference =
      Must(serial->ConvertSystem(requests), "reference ConvertSystem");
  if (Artifact(reference) != first_artifact) ++mismatched_batches;
  if (mismatched_batches > 0) {
    result.Fail(mismatched_batches * requests.size(),
                std::to_string(mismatched_batches) +
                    " batches differ from the jobs=1 cache-off reference");
  }
  uint64_t degraded = delta.Counter("service.degraded");
  if (degraded > 0) result.Fail(degraded, "conversions degraded to refused");
  size_t consulting = 0;
  for (const PipelineOutcome& o : reference.outcomes) {
    consulting += o.analyst_log.empty() ? 0 : 1;
  }
  Note("convert-cold report: %d automatic, %d analyst, %d refused, %d "
       "accepted; analyst consulted for %.3f of programs",
       reference.automatic, reference.needs_analyst, reference.refused,
       reference.accepted,
       static_cast<double>(consulting) / reference.outcomes.size());

  // --- metrics ---------------------------------------------------------------
  std::vector<double> all_batches = batch_s;
  all_batches.insert(all_batches.end(), traced_batch_s.begin(),
                     traced_batch_s.end());
  std::vector<double> rates;
  for (double s : all_batches) rates.push_back(requests.size() / s);
  Note("convert-cold window: %zu batches of %zu programs; batch ms min %.2f "
       "q1 %.2f median %.2f q3 %.2f max %.2f",
       all_batches.size(), requests.size(),
       Quantile(all_batches, 0) * 1e3, Quantile(all_batches, 0.25) * 1e3,
       Quantile(all_batches, 0.5) * 1e3, Quantile(all_batches, 0.75) * 1e3,
       Quantile(all_batches, 1) * 1e3);
  result.Set("setup_s", Median(setup_s), "s");
  result.Set("peak_rss_mb", PeakRssMb(getpid()), "MiB");
  result.Set("throughput_per_s", Median(rates), "1/s");
  result.Set("primary_wait_ms", Quantile(all_batches, 0.5) * 1000.0, "ms");
  result.Set("secondary_wait_ms", Quantile(all_batches, 0.9) * 1000.0, "ms");
  Note("convert_programs_per_s %.1f programs/s (median of %zu batches)",
       Median(rates), rates.size());

  if (options.trace) {
    RecordPipelineLayers(delta, &result);
    result.Set("lang.parse_us_per_kb", ParseMicrosPerKb(system.sources), "us");
    std::vector<Program> probe(system.programs.begin(),
                               system.programs.begin() + kProbePrograms);
    CacheProbe cache = ProbeTemplateCache(
        pipeline.schema, pipeline.plan.View(), statistics.get(), probe);
    result.Set("cache.hit_us", cache.hit_us, "us");
    result.Set("cache.miss_overhead_us", cache.miss_overhead_us, "us");
    result.Set("trace.overhead_pct", OverheadPct(batch_s, traced_batch_s),
               "pct");
    result.Set("trace.spans", static_cast<double>(WriteSpans(*spans, options)),
               "count");
  }
  return result;
}

}  // namespace dbpc::perfbench
