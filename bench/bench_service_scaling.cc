// Experiment E8 — conversion service scaling.
//
// The paper frames conversion as a whole-system batch job; this benchmark
// sweeps the conversion service's worker-pool size over a generated
// application-system corpus and reports programs/second, so the speedup of
// `--jobs N` over the serial baseline is measurable on a given machine
// (near-linear up to the physical core count: programs are independent and
// the pipeline shares no mutable state).
//
//   ./bench_service_scaling --benchmark_counters_tabular=true

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "bench_util.h"
#include "corpus/corpus.h"
#include "service/service.h"

namespace dbpc {
namespace {

void BM_ServiceScaling(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const int corpus_size = static_cast<int>(state.range(1));
  Database db = bench::FilledCompany(4, 16);
  std::vector<TransformationPtr> owned;
  owned.push_back(MakeIntroduceIntermediate(bench::Figure44Params()));
  std::vector<const Transformation*> plan{owned[0].get()};

  ServiceOptions options;
  options.jobs = jobs;
  options.supervisor.analyst = ApproveAllAnalyst();
  std::unique_ptr<ConversionService> service = bench::Value(
      ConversionService::Create(db.schema(), plan, options), "create service");

  std::vector<CorpusProgram> corpus = GenerateCompanyCorpus(corpus_size, 1979);
  std::vector<ConversionRequest> requests;
  requests.reserve(corpus.size());
  for (const CorpusProgram& entry : corpus) {
    ConversionRequest request;
    request.program = entry.program;
    requests.push_back(std::move(request));
  }

  int accepted = 0;
  for (auto _ : state) {
    SystemConversionReport report =
        bench::Value(service->ConvertSystem(requests), "convert system");
    accepted = report.accepted;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests.size()));
  state.counters["jobs"] = jobs;
  state.counters["programs"] = static_cast<double>(requests.size());
  state.counters["accepted"] = accepted;
}

BENCHMARK(BM_ServiceScaling)
    ->ArgsProduct({{1, 2, 4, 8}, {64, 256}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Experiment E12 — tracing overhead. One collector serves one batch and is
// then dropped, exactly the dbpcc --trace-json lifecycle; both arms create
// the service and (for the traced arm) the collector inside the iteration
// and manually time only ConvertSystem, so the two arms differ in nothing
// but SupervisorOptions::spans. Retaining one collector across hundreds of
// batches instead measures allocator pressure from the accumulated trees,
// not tracing — that artifact is what this shape avoids. Target: the
// traced arm within 5% of the untraced one at equal (jobs, corpus)
// arguments (EXPERIMENTS.md E12).
void RunTracingArm(benchmark::State& state, bool traced) {
  const int jobs = static_cast<int>(state.range(0));
  const int corpus_size = static_cast<int>(state.range(1));
  Database db = bench::FilledCompany(4, 16);
  std::vector<TransformationPtr> owned;
  owned.push_back(MakeIntroduceIntermediate(bench::Figure44Params()));
  std::vector<const Transformation*> plan{owned[0].get()};

  std::vector<CorpusProgram> corpus = GenerateCompanyCorpus(corpus_size, 1979);
  std::vector<ConversionRequest> requests;
  requests.reserve(corpus.size());
  for (const CorpusProgram& entry : corpus) {
    ConversionRequest request;
    request.program = entry.program;
    requests.push_back(std::move(request));
  }

  size_t roots = 0;
  for (auto _ : state) {
    SpanCollector spans;
    ServiceOptions options;
    options.jobs = jobs;
    options.supervisor.analyst = ApproveAllAnalyst();
    if (traced) options.supervisor.spans = &spans;
    std::unique_ptr<ConversionService> service = bench::Value(
        ConversionService::Create(db.schema(), plan, options),
        "create service");
    auto start = std::chrono::steady_clock::now();
    SystemConversionReport report =
        bench::Value(service->ConvertSystem(requests), "convert system");
    auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(report);
    roots = spans.RootCount();
    state.SetIterationTime(
        std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
            .count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests.size()));
  state.counters["jobs"] = jobs;
  state.counters["programs"] = static_cast<double>(requests.size());
  state.counters["spans.roots"] = static_cast<double>(roots);
}

void BM_ServiceTracingOff(benchmark::State& state) {
  RunTracingArm(state, /*traced=*/false);
}

void BM_ServiceTracingOn(benchmark::State& state) {
  RunTracingArm(state, /*traced=*/true);
}

BENCHMARK(BM_ServiceTracingOff)
    ->ArgsProduct({{1, 4}, {64, 256}})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

BENCHMARK(BM_ServiceTracingOn)
    ->ArgsProduct({{1, 4}, {64, 256}})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

}  // namespace
}  // namespace dbpc

BENCHMARK_MAIN();
