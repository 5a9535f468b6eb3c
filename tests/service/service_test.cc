#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.h"
#include "restructure/plan_parser.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

RestructuringPlan Figure44Plan() {
  return std::move(ParsePlan(R"(
RESTRUCTURE PLAN FIGURE-4-4.
  INTRODUCE RECORD DEPT BETWEEN DIV-EMP GROUPING BY DEPT-NAME
      AS DIV-DEPT AND DEPT-EMP.
END PLAN.
)"))
      .value();
}

std::vector<ConversionRequest> CompanyRequests(int n = 0) {
  std::vector<CorpusProgram> corpus =
      n > 0 ? GenerateCompanyCorpus(n, 1979)
            : GenerateCompanyCorpus(CorpusMix{}, 1979);
  std::vector<ConversionRequest> requests;
  for (CorpusProgram& entry : corpus) {
    ConversionRequest request;
    request.program = std::move(entry.program);
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Requests carrying empty programs with the given names, for pipeline
/// overrides that key on the name.
std::vector<ConversionRequest> NamedRequests(
    const std::vector<std::string>& names) {
  std::vector<ConversionRequest> requests;
  for (const std::string& name : names) {
    ConversionRequest request;
    request.program.emplace().name = name;
    requests.push_back(std::move(request));
  }
  return requests;
}

std::unique_ptr<ConversionService> MakeService(const RestructuringPlan& plan,
                                               ServiceOptions options) {
  Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
  Result<std::unique_ptr<ConversionService>> service =
      ConversionService::Create(schema, plan.View(), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(service).value();
}

ServiceOptions AssistedOptions(int jobs) {
  ServiceOptions options;
  options.jobs = jobs;
  options.supervisor.analyst = ApproveAllAnalyst();
  return options;
}

// --- option validation -----------------------------------------------------

TEST(ServiceOptionsTest, DefaultOptionsValidate) {
  EXPECT_TRUE(ServiceOptions{}.Validate().ok());
}

TEST(ServiceOptionsTest, ZeroJobsIsRejectedAtServiceEntry) {
  RestructuringPlan plan = Figure44Plan();
  Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
  ServiceOptions options;
  options.jobs = 0;
  Result<std::unique_ptr<ConversionService>> service =
      ConversionService::Create(schema, plan.View(), options);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("jobs"), std::string::npos);
}

TEST(ServiceOptionsTest, NegativeDeadlineAndRetriesAreRejected) {
  ServiceOptions options;
  options.deadline_ms = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.deadline_ms = 0;
  options.retries = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SupervisorOptionsTest, AssistedModeRequiresAnalyst) {
  SupervisorOptions options;
  options.mode = AnalystMode::kAssisted;
  Status status = options.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("analyst"), std::string::npos);

  options.analyst = ApproveAllAnalyst();
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SupervisorOptionsTest, StrictModeRejectsAnalystPolicy) {
  SupervisorOptions options;
  options.mode = AnalystMode::kStrict;
  options.analyst = ApproveAllAnalyst();
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SupervisorOptionsTest, SupervisorCreateValidates) {
  RestructuringPlan plan = Figure44Plan();
  Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
  SupervisorOptions options;
  options.mode = AnalystMode::kAssisted;
  Result<ConversionSupervisor> supervisor =
      ConversionSupervisor::Create(schema, plan.View(), options);
  ASSERT_FALSE(supervisor.ok());
  EXPECT_EQ(supervisor.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceOptionsTest, InvalidSupervisorOptionsAreCaughtByService) {
  ServiceOptions options;
  options.supervisor.mode = AnalystMode::kAssisted;  // analyst unset
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

// --- worker-pool correctness ----------------------------------------------

TEST(ConversionServiceTest, ParallelReportIsByteIdenticalToSerial) {
  RestructuringPlan plan = Figure44Plan();
  std::vector<ConversionRequest> requests = CompanyRequests();

  std::unique_ptr<ConversionService> serial =
      MakeService(plan, AssistedOptions(1));
  SystemConversionReport serial_report =
      std::move(serial->ConvertSystem(requests)).value();

  for (int jobs : {2, 4, 8}) {
    std::unique_ptr<ConversionService> parallel =
        MakeService(plan, AssistedOptions(jobs));
    SystemConversionReport report =
        std::move(parallel->ConvertSystem(requests)).value();
    EXPECT_EQ(report.ToText(), serial_report.ToText()) << "jobs=" << jobs;
    EXPECT_EQ(report.accepted, serial_report.accepted);
    EXPECT_EQ(report.refused, serial_report.refused);
  }
}

TEST(ConversionServiceTest, OutputOrderMatchesInputOrderUnderJitter) {
  // Programs finish in scrambled order (later programs sleep less); the
  // report must still list them in input order.
  RestructuringPlan plan = Figure44Plan();
  constexpr int kPrograms = 16;
  std::vector<std::string> names;
  for (int i = 0; i < kPrograms; ++i) {
    names.push_back("JITTER-" + std::to_string(i));
  }
  std::vector<ConversionRequest> requests = NamedRequests(names);
  ServiceOptions options;
  options.jobs = 4;
  options.pipeline_override =
      [](const Program& program) -> Result<PipelineOutcome> {
    int index = std::stoi(program.name.substr(7));
    std::this_thread::sleep_for(
        std::chrono::milliseconds((kPrograms - index) % 5));
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  std::unique_ptr<ConversionService> service = MakeService(plan, options);
  SystemConversionReport report =
      std::move(service->ConvertSystem(requests)).value();
  ASSERT_EQ(report.outcomes.size(), names.size());
  for (int i = 0; i < kPrograms; ++i) {
    EXPECT_EQ(report.outcomes[i].conversion.converted.name, names[i]);
  }
  EXPECT_EQ(report.accepted, kPrograms);
}

TEST(ConversionServiceTest, ServiceIsReusableAcrossBatches) {
  RestructuringPlan plan = Figure44Plan();
  std::vector<ConversionRequest> requests = CompanyRequests(10);
  std::unique_ptr<ConversionService> service =
      MakeService(plan, AssistedOptions(4));
  std::string first =
      std::move(service->ConvertSystem(requests)).value().ToText();
  std::string second =
      std::move(service->ConvertSystem(requests)).value().ToText();
  EXPECT_EQ(first, second);
  EXPECT_EQ(service->metrics().GetCounter("service.batches")->Value(), 2u);
}

// --- degradation paths -----------------------------------------------------

TEST(ConversionServiceTest, DeadlineOverrunDegradesToRefusedAfterRetry) {
  RestructuringPlan plan = Figure44Plan();
  std::vector<ConversionRequest> requests =
      NamedRequests({"FAST-A", "SLOW", "FAST-B"});
  ServiceOptions options;
  options.jobs = 2;
  options.deadline_ms = 20;
  options.retries = 1;
  options.pipeline_override =
      [](const Program& program) -> Result<PipelineOutcome> {
    if (program.name == "SLOW") {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  std::unique_ptr<ConversionService> service = MakeService(plan, options);
  SystemConversionReport report =
      std::move(service->ConvertSystem(requests)).value();

  ASSERT_EQ(report.outcomes.size(), 3u);
  const PipelineOutcome& slow = report.outcomes[1];
  EXPECT_EQ(slow.classification, Convertibility::kNotConvertible);
  EXPECT_FALSE(slow.accepted);
  ASSERT_EQ(slow.conversion.notes.size(), 1u);
  EXPECT_NE(slow.conversion.notes[0].find("deadline"), std::string::npos)
      << slow.conversion.notes[0];
  EXPECT_NE(slow.conversion.notes[0].find("2 attempts"), std::string::npos);
  // The rest of the batch is unaffected.
  EXPECT_TRUE(report.outcomes[0].accepted);
  EXPECT_TRUE(report.outcomes[2].accepted);
  EXPECT_EQ(report.refused, 1);
  EXPECT_EQ(report.accepted, 2);

  MetricsRegistry& metrics = service->metrics();
  EXPECT_EQ(metrics.GetCounter("service.deadline_exceeded")->Value(), 2u);
  EXPECT_EQ(metrics.GetCounter("service.retries")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("service.degraded")->Value(), 1u);
}

TEST(ConversionServiceTest, ThrowingPipelineDegradesToRefused) {
  RestructuringPlan plan = Figure44Plan();
  std::vector<ConversionRequest> requests = NamedRequests({"THROWS", "OK"});
  ServiceOptions options;
  options.jobs = 2;
  options.retries = 0;
  options.pipeline_override =
      [](const Program& program) -> Result<PipelineOutcome> {
    if (program.name == "THROWS") {
      throw std::runtime_error("simulated pipeline crash");
    }
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  std::unique_ptr<ConversionService> service = MakeService(plan, options);
  SystemConversionReport report =
      std::move(service->ConvertSystem(requests)).value();

  EXPECT_EQ(report.outcomes[0].classification,
            Convertibility::kNotConvertible);
  ASSERT_EQ(report.outcomes[0].conversion.notes.size(), 1u);
  EXPECT_NE(
      report.outcomes[0].conversion.notes[0].find("simulated pipeline crash"),
      std::string::npos);
  EXPECT_TRUE(report.outcomes[1].accepted);
  EXPECT_EQ(service->metrics().GetCounter("service.exceptions")->Value(), 1u);
  EXPECT_EQ(service->metrics().GetCounter("service.degraded")->Value(), 1u);
}

TEST(ConversionServiceTest, ErrorStatusDegradesInsteadOfAbortingBatch) {
  RestructuringPlan plan = Figure44Plan();
  std::vector<ConversionRequest> requests = NamedRequests({"BROKEN", "OK"});
  ServiceOptions options;
  options.retries = 0;
  options.pipeline_override =
      [](const Program& program) -> Result<PipelineOutcome> {
    if (program.name == "BROKEN") {
      return Status::Internal("stage exploded");
    }
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  std::unique_ptr<ConversionService> service = MakeService(plan, options);
  Result<SystemConversionReport> report = service->ConvertSystem(requests);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->refused, 1);
  EXPECT_EQ(report->accepted, 1);
  EXPECT_NE(report->outcomes[0].conversion.notes[0].find("stage exploded"),
            std::string::npos);
}

TEST(ConversionServiceTest, RetrySucceedsAfterTransientFailure) {
  RestructuringPlan plan = Figure44Plan();
  std::vector<ConversionRequest> requests = NamedRequests({"FLAKY"});
  ServiceOptions options;
  options.retries = 1;
  auto failures = std::make_shared<std::atomic<int>>(0);
  options.pipeline_override =
      [failures](const Program& program) -> Result<PipelineOutcome> {
    if (failures->fetch_add(1) == 0) {
      return Status::Internal("transient");
    }
    PipelineOutcome outcome;
    outcome.accepted = true;
    outcome.conversion.converted.name = program.name;
    return outcome;
  };
  std::unique_ptr<ConversionService> service = MakeService(plan, options);
  SystemConversionReport report =
      std::move(service->ConvertSystem(requests)).value();
  EXPECT_TRUE(report.outcomes[0].accepted);
  EXPECT_EQ(service->metrics().GetCounter("service.retries")->Value(), 1u);
  EXPECT_EQ(service->metrics().GetCounter("service.degraded")->Value(), 0u);
}

// --- metrics ---------------------------------------------------------------

TEST(ConversionServiceTest, MetricsSnapshotCoversPipelineStages) {
  RestructuringPlan plan = Figure44Plan();
  std::vector<ConversionRequest> requests = CompanyRequests();
  std::unique_ptr<ConversionService> service =
      MakeService(plan, AssistedOptions(4));
  SystemConversionReport report =
      std::move(service->ConvertSystem(requests)).value();

  MetricsRegistry& metrics = service->metrics();
  uint64_t classified =
      metrics.GetCounter("programs.automatic")->Value() +
      metrics.GetCounter("programs.needs_analyst")->Value() +
      metrics.GetCounter("programs.refused")->Value();
  EXPECT_EQ(classified, requests.size());
  EXPECT_EQ(metrics.GetCounter("programs.accepted")->Value(),
            static_cast<uint64_t>(report.accepted));
  EXPECT_EQ(metrics.GetCounter("programs.automatic")->Value(),
            static_cast<uint64_t>(report.automatic));

  // Every program passes analyze + convert unless the conversion memo
  // served it (a hit spends no stage time); accepted ones are generated.
  uint64_t cache_hits = metrics.GetCounter("cache.hits")->Value();
  EXPECT_EQ(metrics.GetHistogram("stage.analyze_us")->Count() + cache_hits,
            requests.size());
  EXPECT_EQ(metrics.GetHistogram("stage.convert_us")->Count() + cache_hits,
            requests.size());
  EXPECT_EQ(metrics.GetHistogram("stage.generate_us")->Count(),
            static_cast<uint64_t>(report.accepted));
  EXPECT_GT(metrics.GetHistogram("stage.optimize_us")->Count(), 0u);
  EXPECT_EQ(metrics.GetHistogram("program.total_us")->Count(),
            requests.size());

  // The corpus asks analyst questions and the optimizer rewrites programs.
  EXPECT_GT(metrics.GetCounter("analyst.questions")->Value(), 0u);
  EXPECT_GT(metrics.GetCounter("generator.bytes")->Value(), 0u);

  std::string json = metrics.ToJson();
  for (const char* key :
       {"stage.analyze_us", "stage.convert_us", "stage.optimize_us",
        "stage.generate_us", "programs.automatic", "programs.accepted",
        "analyst.questions"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

// --- span tracing ----------------------------------------------------------

TEST(ConversionServiceTest, SpanForestIsIdenticalAcrossWorkerCounts) {
  RestructuringPlan plan = Figure44Plan();
  std::vector<ConversionRequest> requests = CompanyRequests();

  SpanCollector serial_spans;
  ServiceOptions serial_options = AssistedOptions(1);
  serial_options.supervisor.spans = &serial_spans;
  std::unique_ptr<ConversionService> serial =
      MakeService(plan, std::move(serial_options));
  ASSERT_TRUE(serial->ConvertSystem(requests).ok());

  SpanCollector pooled_spans;
  ServiceOptions pooled_options = AssistedOptions(4);
  pooled_options.supervisor.spans = &pooled_spans;
  std::unique_ptr<ConversionService> pooled =
      MakeService(plan, std::move(pooled_options));
  ASSERT_TRUE(pooled->ConvertSystem(requests).ok());

  // Roots sort by sequence (= batch index), so the structural export is
  // byte-identical regardless of thread scheduling.
  EXPECT_EQ(serial_spans.RootCount(), requests.size());
  EXPECT_EQ(serial_spans.ToText(/*with_timing=*/false),
            pooled_spans.ToText(/*with_timing=*/false));
}

TEST(ConversionServiceTest, ServiceSpansCoverAllFiveStages) {
  RestructuringPlan plan = Figure44Plan();
  SpanCollector spans;
  ServiceOptions options = AssistedOptions(1);
  options.supervisor.spans = &spans;
  std::unique_ptr<ConversionService> service =
      MakeService(plan, std::move(options));
  std::vector<ConversionRequest> requests = CompanyRequests();
  SystemConversionReport report = *service->ConvertSystem(requests);
  ASSERT_GT(report.accepted, 0);
  std::string tree = spans.ToText(/*with_timing=*/false);
  for (const char* stage :
       {"conversion_analyzer", "program_analyzer", "program_converter",
        "optimizer", "program_generator"}) {
    EXPECT_NE(tree.find(stage), std::string::npos) << "missing " << stage;
  }
  // Service roots are tagged with their batch job id.
  EXPECT_NE(tree.find("job=1"), std::string::npos) << tree;
}

}  // namespace
}  // namespace dbpc
