#ifndef DBPC_SERVICE_SERVICE_H_
#define DBPC_SERVICE_SERVICE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/types.h"
#include "common/metrics.h"
#include "service/worker_pool.h"
#include "supervisor/supervisor.h"

namespace dbpc {

/// Conversion service configuration.
struct ServiceOptions {
  /// Worker threads in the pool. Must be >= 1; 1 reproduces the serial
  /// supervisor behaviour exactly.
  int jobs = 1;
  /// Per-program soft deadline in milliseconds; 0 disables. The deadline is
  /// enforced cooperatively: it is checked after each conversion attempt,
  /// so a runaway program occupies its worker until the attempt finishes,
  /// but the batch still completes and the program degrades to refused.
  int deadline_ms = 0;
  /// Extra attempts after a throw, internal error or deadline overrun
  /// before the program degrades to refused.
  int retries = 1;
  /// The Figure 4.1 pipeline configuration. `supervisor.metrics` is
  /// overwritten by the service with its own registry. An analyst policy,
  /// if set, is invoked from worker threads and must be thread-safe.
  /// `supervisor.spans`, when set, makes every job emit one span tree per
  /// attempt, rooted by the service with the program's batch index as the
  /// deterministic sequence and closed after the program_generator stage.
  SupervisorOptions supervisor;
  /// The template-level conversion memo shared by every worker
  /// (convert/template_cache.h): enabled by default, repeat-heavy traffic
  /// pays the analyze/convert/optimize pipeline once per statement
  /// template. `cache.enabled = false` (dbpcc/dbpcd --no-cache) is the
  /// no-cache fallback. Ignored when `supervisor.cache` is already set by
  /// the caller — that instance (possibly shared across services) wins.
  /// Hit/miss/eviction counters land in metrics() under cache.*.
  TemplateCacheOptions cache;
  /// Test seam: replaces ConversionSupervisor::ConvertProgram for every
  /// program when set (used to inject slow / throwing pipelines).
  std::function<Result<PipelineOutcome>(const Program&)> pipeline_override;

  /// Rejects nonsensical configurations (jobs == 0, negative deadline or
  /// retry budget, invalid supervisor options) with a structured error.
  /// Called at service entry (ConversionService::Create).
  Status Validate() const;
};

/// Batch conversion of an application system over a worker pool.
///
/// The paper frames conversion as a whole-system batch job ("a database
/// application system is converted when each program actually existing in
/// the source system has been converted"); this service runs that batch
/// concurrently while keeping the supervisor's exact per-program semantics:
///
///  - Deterministic reports: `ConvertSystem` output order matches input
///    order regardless of completion order, so a parallel run's report is
///    byte-identical to the serial one.
///  - Degradation instead of abort: a program whose conversion throws,
///    fails internally or overruns the deadline is retried
///    (`ServiceOptions::retries`) and then reported as refused with a
///    diagnostic note; the rest of the batch is unaffected.
///  - Observability: a `MetricsRegistry` accumulates per-stage latency
///    histograms (analyze / convert / optimize / generate), classification
///    counters and analyst/optimizer/degradation activity across batches,
///    snapshotable to JSON.
class ConversionService {
 public:
  /// Validates `options` and builds the pipeline. Transformations must
  /// outlive the service.
  static Result<std::unique_ptr<ConversionService>> Create(
      Schema source, std::vector<const Transformation*> plan,
      ServiceOptions options = {});

  /// Converts one request synchronously on the caller's thread and returns
  /// the full response (parse errors -> JobState::kFailed; pipeline
  /// failures degrade to refused but still JobState::kDone). Thread-safe:
  /// the daemon's workers call this concurrently. `id` is echoed into the
  /// response and doubles as the deterministic span sequence when the
  /// request asks for tracing.
  ConversionResponse Convert(const ConversionRequest& request, JobId id = 1);

  /// Converts every request of an application system on the worker pool.
  /// Never fails for per-request reasons (parse errors fail that request's
  /// response, pipeline errors degrade to refused); the Result shape is
  /// kept for future batch-level failure modes. `report.outcomes[i]`
  /// corresponds to `requests[i]`.
  Result<SystemConversionReport> ConvertSystem(
      const std::vector<ConversionRequest>& requests);

  /// Cumulative metrics across every ConvertSystem call on this service.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Brings sampled gauges (currently `cache.entries`) current. Called by
  /// metrics exporters before a snapshot; cheap and thread-safe.
  void RefreshGauges();

  /// The underlying serial pipeline (for database translation, target
  /// schema access and single-program conversion).
  const ConversionSupervisor& supervisor() const { return *supervisor_; }

  /// The worker pool. ConvertSystem batches schedule on it; the daemon
  /// submits its per-request Convert jobs to the same pool so one `jobs`
  /// knob governs pipeline concurrency everywhere.
  WorkerPool& pool() { return *pool_; }

  const ServiceOptions& options() const { return options_; }

  /// The conversion memo every worker shares; null when disabled or when
  /// the caller supplied its own via ServiceOptions::supervisor.cache.
  TemplateCache* cache() { return options_.supervisor.cache; }

  /// Drops every memoized conversion and counts the invalidation under
  /// cache.invalidations. Ordinary reconfiguration never needs this (plan,
  /// options and statistics are part of the memo key); it exists for
  /// operational cache flushes.
  void InvalidateCache();

 private:
  ConversionService(ServiceOptions options);

  /// Runs one program through the pipeline with retry + degradation;
  /// never throws. `sequence` is the program's 1-based batch index — the
  /// deterministic sort key for its span tree when tracing is on.
  /// `deadline_ms` overrides ServiceOptions::deadline_ms when > 0; `spans`
  /// overrides the supervisor's collector (per-request tracing) when
  /// non-null. When the conversion is accepted, `generated` (if non-null)
  /// receives the generated CPL source so callers don't regenerate it.
  PipelineOutcome RunOne(const Program& program, uint64_t sequence,
                         int deadline_ms = 0, SpanCollector* spans = nullptr,
                         std::string* generated = nullptr);

  ServiceOptions options_;
  MetricsRegistry metrics_;
  /// Hot-path telemetry handles, resolved once in Create().
  RollingRate* conversions_rate_ = nullptr;
  Gauge* cache_entries_gauge_ = nullptr;
  /// The service-owned conversion memo (null when disabled or external).
  std::unique_ptr<TemplateCache> cache_;
  /// unique_ptr: the supervisor is created after metrics_ so its options
  /// can point at the registry.
  std::unique_ptr<ConversionSupervisor> supervisor_;
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace dbpc

#endif  // DBPC_SERVICE_SERVICE_H_
