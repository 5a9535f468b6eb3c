// migrate: a COMPANY database of about 10^5 records is translated along the
// two-step plan (Figure 4.4's INTRODUCE RECORD on the record-at-a-time copy
// engine, then a column-mapped rename on the bulk engine), and the
// converted programs of a seeded corpus run on the result: first the
// read-only reports and navigational programs, then the writers. The
// programs are converted once, in setup.

#include <unistd.h>

#include <optional>

#include "workload.h"

namespace dbpc::perfbench {
namespace {

constexpr int kDivisions = 1540;  // x (1 DIV + 64 EMP) = 100,100 records
constexpr int kEmpsPerDiv = 64;
constexpr int kSetupRepeats = 3;

/// A corpus program and its conversion.
struct Converted {
  const CorpusProgram* source = nullptr;
  Program target;
  Convertibility classification = Convertibility::kAutomatic;
  size_t analyst_questions = 0;
};

OpStats Minus(const OpStats& a, const OpStats& b) {
  OpStats d;
  d.records_read = a.records_read - b.records_read;
  d.records_written = a.records_written - b.records_written;
  d.records_erased = a.records_erased - b.records_erased;
  d.members_scanned = a.members_scanned - b.members_scanned;
  d.links_changed = a.links_changed - b.links_changed;
  d.index_probes = a.index_probes - b.index_probes;
  d.index_hits = a.index_hits - b.index_hits;
  return d;
}

/// One phase of converted programs run in order on one database.
struct Phase {
  double seconds = 0;
  uint64_t steps = 0;
  OpStats ops;
  std::vector<Trace> traces;
  std::vector<std::string> errors;
};

Phase RunPhase(const std::vector<const Program*>& programs, Database* db,
               SpanContext parent, const char* name) {
  Phase phase;
  SpanContext span = parent.StartChild(name);
  Interpreter interpreter(db, IoScript{});
  OpStats before = db->stats();
  Clock::time_point start = Clock::now();
  for (const Program* program : programs) {
    SpanContext run = span.StartChild("Interpreter::Run " + program->name);
    OpStats at = db->stats();
    Result<RunResult> r = interpreter.Run(*program);
    if (run.enabled()) run.AddCounter("ops", Minus(db->stats(), at).Total());
    run.End();
    if (!r.ok() || !r->completed) {
      phase.errors.push_back(program->name + ": " +
                             (r.ok() ? "did not complete"
                                     : r.status().ToString()));
      phase.traces.emplace_back();
      continue;
    }
    phase.steps += r->steps;
    phase.traces.push_back(std::move(r->trace));
  }
  phase.seconds = SecondsSince(start);
  phase.ops = Minus(db->stats(), before);
  span.AddCounter("ops", phase.ops.Total());
  span.End();
  return phase;
}

}  // namespace

BenchResult RunMigrate(const Options& options) {
  BenchResult result;
  const int nproc = UsableCpus();
  Pipeline pipeline = LoadPipeline();
  const std::vector<const Transformation*> plan = pipeline.plan.View();

  // --- setup, repeated; the last one is measured -----------------------------
  std::vector<double> setup_s;
  std::optional<Database> source;
  MigrateCorpus corpus;
  std::unique_ptr<ConversionService> service;
  std::vector<Converted> reads, writes;
  size_t refused = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    source.reset();
    reads.clear();
    writes.clear();
    refused = 0;
    Clock::time_point start = Clock::now();
    source = BuildCompany(kDivisions, kEmpsPerDiv, options.seed);
    corpus = MakeMigrateCorpus();
    ServiceOptions service_options;
    service_options.jobs = nproc;
    // Strictly automatic: section 1.1 promises equivalence for what the
    // pipeline converts on its own. Analyst-approved conversions of this
    // corpus may change behaviour (member order, or a set the plan
    // removed), so they are refused here like the run-time-variable shape.
    service_options.supervisor.mode = AnalystMode::kStrict;
    service = Must(
        ConversionService::Create(pipeline.schema, plan, service_options),
        "conversion service");
    for (auto* group : {&corpus.reads, &corpus.writes}) {
      std::vector<ConversionRequest> requests(group->size());
      for (size_t i = 0; i < group->size(); ++i) {
        requests[i].program = (*group)[i].program;
      }
      SystemConversionReport report =
          Must(service->ConvertSystem(requests), "convert corpus");
      for (size_t i = 0; i < group->size(); ++i) {
        PipelineOutcome& outcome = report.outcomes[i];
        if (!outcome.accepted) {
          ++refused;
          continue;
        }
        (group == &corpus.reads ? reads : writes)
            .push_back({&(*group)[i], std::move(outcome.conversion.converted),
                        outcome.classification, outcome.analyst_log.size()});
      }
    }
    setup_s.push_back(SecondsSince(start));
  }
  const size_t records = source->RecordCount();
  Note("migrate database: %zu records, %d divisions of %d EMP each "
       "(occurrence size fixed, scaled by division count)",
       records, kDivisions, kEmpsPerDiv);
  Note("migrate corpus: %zu read-only and %zu writing programs run; %zu "
       "refused by design and not run",
       reads.size(), writes.size(), refused);
  std::vector<const Program*> read_programs, write_programs;
  for (const Converted& c : reads) read_programs.push_back(&c.target);
  for (const Converted& c : writes) write_programs.push_back(&c.target);

  // --- timed window ----------------------------------------------------------
  // The traced run times each plan step's TranslateData on its own (the
  // same chain TranslateDatabase runs) and records spans on every other
  // iteration; the rest give the overhead baseline.
  std::unique_ptr<SpanCollector> spans;
  if (options.trace) spans = std::make_unique<SpanCollector>();
  std::vector<double> copy_rate, query_s, update_s, steps_per_s;
  std::vector<double> iteration_s, traced_iteration_s;
  std::vector<double> record_step_rate, bulk_step_rate;
  Phase first_query, first_update;
  uint64_t diverged = 0;
  RegistrySnapshot before = RegistrySnapshot::Of(service->metrics());
  Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(options.seconds);
  // At least one iteration; in the traced run also one of each kind after
  // the first, which pays first-touch costs and is left out of the
  // overhead comparison.
  const uint64_t min_iterations = options.trace ? 3 : 1;
  for (uint64_t iteration = 0;
       iteration < min_iterations || Clock::now() < deadline; ++iteration) {
    bool traced = spans != nullptr && iteration % 2 == 1;
    SpanContext root;
    if (traced) root = spans->StartRoot("iteration", iteration);
    Clock::time_point start = Clock::now();
    std::optional<Database> target;
    if (!options.trace) {
      target = Must(service->supervisor().TranslateDatabase(*source),
                    "TranslateDatabase");
    } else {
      SpanContext copy_span = root.StartChild("TranslateDatabase");
      const Database* current = &*source;
      for (size_t step = 0; step < plan.size(); ++step) {
        Schema next_schema = Must(plan[step]->ApplyToSchema(current->schema()),
                                  "ApplyToSchema");
        Database next = Must(Database::Create(next_schema), "create target");
        SpanContext step_span =
            copy_span.StartChild("TranslateData " + plan[step]->Name());
        Clock::time_point step_start = Clock::now();
        Check(plan[step]->TranslateData(*current, &next), "TranslateData");
        double rate = current->RecordCount() / SecondsSince(step_start);
        step_span.End();
        (step == 0 ? record_step_rate : bulk_step_rate).push_back(rate);
        target = std::move(next);
        current = &*target;
      }
      target->SetIndexOptions(IndexOptions{});
      copy_span.End();
    }
    copy_rate.push_back(records / SecondsSince(start));
    Phase query = RunPhase(read_programs, &*target, root, "read_programs");
    Phase update = RunPhase(write_programs, &*target, root, "write_programs");
    root.End();
    if (iteration > 0) {
      (traced ? traced_iteration_s : iteration_s)
          .push_back(SecondsSince(start));
    }
    query_s.push_back(query.seconds);
    update_s.push_back(update.seconds);
    steps_per_s.push_back((query.steps + update.steps) /
                          (query.seconds + update.seconds));
    result.attempted += 1 + read_programs.size() + write_programs.size();
    for (const Phase* phase : {&query, &update}) {
      for (const std::string& e : phase->errors) {
        result.Fail(1, "run error: " + e);
      }
    }
    if (iteration == 0) {
      first_query = std::move(query);
      first_update = std::move(update);
      continue;
    }
    if (query.traces != first_query.traces ||
        update.traces != first_update.traces ||
        query.ops.Total() != first_query.ops.Total() ||
        update.ops.Total() != first_update.ops.Total()) {
      ++diverged;
    }
  }
  RegistrySnapshot delta =
      Delta(before, RegistrySnapshot::Of(service->metrics()));

  // --- correctness: section 1.1, converted trace == source trace -------------
  Database copy = Must(TranslateDatabase(*source, {}), "copy source");
  std::vector<const Program*> source_reads, source_writes;
  for (const Converted& c : reads) source_reads.push_back(&c.source->program);
  for (const Converted& c : writes) source_writes.push_back(&c.source->program);
  Phase reference_query = RunPhase(source_reads, &copy, {}, "reference");
  Phase reference_update = RunPhase(source_writes, &copy, {}, "reference");
  uint64_t programs_differing = 0;
  auto compare = [&](const Phase& reference, const Phase& converted,
                     const std::vector<Converted>& programs) {
    for (size_t i = 0; i < programs.size(); ++i) {
      if (reference.traces[i].events() != converted.traces[i].events()) {
        ++programs_differing;
        Note("trace divergence: %s (%s, %s, %zu analyst questions)",
             programs[i].target.name.c_str(),
             CorpusShapeName(programs[i].source->shape),
             ConvertibilityName(programs[i].classification),
             programs[i].analyst_questions);
      }
    }
  };
  compare(reference_query, first_query, reads);
  compare(reference_update, first_update, writes);
  if (programs_differing > 0) {
    result.Fail(programs_differing * query_s.size(),
                "converted programs diverge from their source programs");
  }
  if (diverged > 0) {
    result.Fail(diverged, "iterations differ from the first iteration");
  }
  uint64_t conversions = delta.Find("program.total_us") != nullptr
                             ? delta.Find("program.total_us")->count
                             : 0;
  if (conversions > 0) {
    result.Fail(conversions, "conversions ran inside the timed window");
  }
  size_t trace_events = 0;
  for (const Trace& t : first_query.traces) trace_events += t.size();
  for (const Trace& t : first_update.traces) trace_events += t.size();
  Note("migrate window: %zu iterations; %zu trace events per iteration "
       "checked against the source programs on the source database; %llu "
       "conversions in the window",
       query_s.size(), trace_events,
       static_cast<unsigned long long>(conversions));

  // --- metrics ---------------------------------------------------------------
  result.Set("setup_s", Median(setup_s), "s");
  result.Set("peak_rss_mb", PeakRssMb(getpid()), "MiB");
  result.Set("throughput_per_s", Median(copy_rate), "1/s");
  result.Set("primary_wait_ms", Median(query_s) * 1000.0, "ms");
  result.Set("secondary_wait_ms", Median(update_s) * 1000.0, "ms");
  Note("migrate_copy_records_per_s %.0f records/s; migrate_query_s %.4f s; "
       "migrate_update_s %.4f s (medians of %zu iterations)",
       Median(copy_rate), Median(query_s), Median(update_s), query_s.size());

  if (options.trace) {
    RecordPipelineLayers(delta, &result);
    result.Set("restructure.record_step_records_per_s",
               Median(record_step_rate), "1/s");
    result.Set("restructure.bulk_step_records_per_s", Median(bulk_step_rate),
               "1/s");
    const OpStats& q = first_query.ops;
    const OpStats& u = first_update.ops;
    result.Set("engine.query_ops", static_cast<double>(q.Total()), "count");
    result.Set("engine.update_ops", static_cast<double>(u.Total()), "count");
    result.Set("engine.query_ns_per_op",
               q.Total() ? Median(query_s) * 1e9 / q.Total() : 0, "ns");
    result.Set("engine.update_ns_per_op",
               u.Total() ? Median(update_s) * 1e9 / u.Total() : 0, "ns");
    result.Set("engine.index_probes", static_cast<double>(q.index_probes),
               "count");
    result.Set("engine.index_hits", static_cast<double>(q.index_hits), "count");
    result.Set("engine.index_hit_ratio",
               q.index_probes
                   ? static_cast<double>(q.index_hits) / q.index_probes
                   : 0,
               "ratio");
    result.Set("engine.members_scanned", static_cast<double>(q.members_scanned),
               "count");
    result.Set("lang.interp_steps_per_s", Median(steps_per_s), "1/s");
    std::vector<std::string> sources;
    std::vector<Program> programs;
    for (const CorpusProgram& p : corpus.reads) programs.push_back(p.program);
    for (const CorpusProgram& p : corpus.writes) programs.push_back(p.program);
    for (const Program& p : programs) sources.push_back(p.ToSource());
    result.Set("lang.parse_us_per_kb", ParseMicrosPerKb(sources), "us");
    CacheProbe cache =
        ProbeTemplateCache(pipeline.schema, plan, nullptr, programs);
    result.Set("cache.hit_us", cache.hit_us, "us");
    result.Set("cache.miss_overhead_us", cache.miss_overhead_us, "us");
    result.Set("trace.overhead_pct",
               OverheadPct(iteration_s, traced_iteration_s), "pct");
    result.Set("trace.spans", static_cast<double>(WriteSpans(*spans, options)),
               "count");
  }
  return result;
}

}  // namespace dbpc::perfbench
