// The differential driver: parses a case's textual artifacts, runs the
// source program and checks each requested axis of the table below. Every
// program run is a leg (RunLeg) under a Config; the strategies diff one leg
// against the source run, and the config axes run the same legs under two
// configs and compare them (CompareConfigs).

#include <optional>
#include <sstream>
#include <utility>

#include "bridge/bridge.h"
#include "convert/provenance.h"
#include "convert/template_cache.h"
#include "emulate/emulator.h"
#include "engine/textio.h"
#include "fuzz/fuzz.h"
#include "generate/generator.h"
#include "lang/interpreter.h"
#include "lang/parser.h"
#include "optimize/stats.h"
#include "restructure/data_copy.h"
#include "restructure/plan_parser.h"
#include "schema/ddl_parser.h"
#include "supervisor/supervisor.h"

namespace dbpc {

namespace {

/// Everything parsed / loaded once per case, shared across axes.
struct PreparedCase {
  Schema source_schema;
  RestructuringPlan plan;
  Program program;
  IoScript script;
  std::string source_data;  ///< canonical dump, reloaded per leg
};

Result<PreparedCase> Prepare(const FuzzCase& c) {
  PreparedCase p;
  DBPC_ASSIGN_OR_RETURN(p.source_schema, ParseDdl(c.ddl));
  DBPC_ASSIGN_OR_RETURN(p.plan, ParsePlan(c.plan));
  DBPC_ASSIGN_OR_RETURN(p.program, ParseProgram(c.program));
  p.script.terminal_input = c.terminal_input;
  p.source_data = c.data;
  return p;
}

/// A fresh source database (every leg mutates its own copy, so update
/// programs stay comparable).
Result<Database> LoadSource(const PreparedCase& p) {
  return LoadDatabaseText(p.source_schema, p.source_data);
}

Result<Database> LoadTarget(const PreparedCase& p) {
  DBPC_ASSIGN_OR_RETURN(Database source, LoadSource(p));
  return TranslateDatabase(source, p.plan.View());
}

Result<PipelineOutcome> Convert(const PreparedCase& p,
                                const SupervisorOptions& options) {
  DBPC_ASSIGN_OR_RETURN(
      ConversionSupervisor supervisor,
      ConversionSupervisor::Create(p.source_schema, p.plan.View(), options));
  return supervisor.ConvertProgram(p.program);
}

/// A leg is one program run: the source program on the source database, or
/// the rewrite, emulation or bridge run on the translated database. The
/// translate leg is the translation itself: its trace is the translated
/// dump, one event per line.
enum class Leg { kSource, kTranslate, kRewrite, kEmulation, kBridge };

const char* LegName(Leg leg) {
  static constexpr const char* kNames[] = {"source run", "translate data",
                                           "rewrite run", "emulation run",
                                           "bridge run"};
  return kNames[static_cast<int>(leg)];
}

/// What a leg runs under. The defaults are the production settings; each
/// config axis flips one knob.
struct Config {
  IndexOptions index;
  DataCopyEngine engine = DataCopyEngine::kColumnarBulk;
  SpanContext span;  ///< receives the run's statement spans when enabled
};

/// A leg's trace, or why it stopped.
struct LegRun {
  enum Stop {
    kRan,
    kRefused,    ///< the emulator or bridge does not apply
    kTranslate,  ///< loading or translating the database failed
    kRun,        ///< the run itself failed
  };
  Stop stop = kRan;
  Status status;
  Trace trace;
};

/// The RunResult inside an emulation or bridge run.
template <typename StrategyResult>
Result<RunResult> RunOf(Result<StrategyResult> r) {
  if (!r.ok()) return r.status();
  return std::move(r->run);
}

LegRun RunLeg(Leg leg, const PreparedCase& p, const Program& program,
              const Config& config) {
  LegRun out;
  auto stop = [&out](LegRun::Stop why, Status status) {
    out.stop = why;
    out.status = std::move(status);
    return out;
  };
  ScopedDataCopyEngine engine(config.engine);
  // An emulator or bridge that cannot apply refuses before the data loads.
  std::optional<DmlEmulator> emulator;
  std::optional<BridgeRunner> bridge;
  if (leg == Leg::kEmulation) {
    Result<DmlEmulator> made =
        DmlEmulator::Create(p.source_schema, p.plan.View());
    if (!made.ok()) return stop(LegRun::kRefused, made.status());
    emulator.emplace(std::move(made).value());
  } else if (leg == Leg::kBridge) {
    // Housel's condition failed: the plan has no inverse, so no bridge can
    // reconstruct the source view. Not a bug.
    Result<BridgeRunner> made =
        BridgeRunner::Create(p.source_schema, p.plan.View());
    if (!made.ok()) return stop(LegRun::kRefused, made.status());
    bridge.emplace(std::move(made).value());
  }
  Result<Database> db = leg == Leg::kSource ? LoadSource(p) : LoadTarget(p);
  if (!db.ok()) return stop(LegRun::kTranslate, db.status());
  if (leg == Leg::kTranslate) {
    Result<std::string> dump = DumpDatabaseText(*db);
    if (!dump.ok()) return stop(LegRun::kTranslate, dump.status());
    std::istringstream lines(*dump);
    for (std::string line; std::getline(lines, line);) {
      out.trace.RecordFileWrite("dump", line);
    }
    return out;
  }
  db->SetIndexOptions(config.index);
  Result<RunResult> run =
      emulator ? RunOf(emulator->Run(program, &*db, p.script, config.span))
      : bridge ? RunOf(bridge->Run(program, &*db, p.script))
               : Interpreter(&*db, p.script).Run(program, config.span);
  if (!run.ok()) {
    // Both refuse programs they cannot cover; the emulator shares the
    // conversion analysis, so it also refuses what the pipeline would not
    // run without an analyst.
    StatusCode code = run.status().code();
    bool refused = (emulator || bridge) &&
                   (code == StatusCode::kNotConvertible ||
                    code == StatusCode::kUnsupported ||
                    (emulator && code == StatusCode::kNeedsAnalyst));
    return stop(refused ? LegRun::kRefused : LegRun::kRun, run.status());
  }
  out.trace = std::move(run->trace);
  return out;
}

StrategyRun Equivalent() { return {.outcome = StrategyOutcome::kEquivalent}; }

StrategyRun Skip(std::string why) {
  return {.outcome = StrategyOutcome::kSkipped, .detail = std::move(why)};
}

StrategyRun Divergent(std::string detail) {
  return {.outcome = StrategyOutcome::kDivergent, .detail = std::move(detail)};
}

/// An accepted conversion that then fails to run is itself a divergence:
/// the source program ran, the converted system did not.
StrategyRun Broken(const std::string& stage, const Status& status) {
  return Divergent(stage + ": " + status.ToString());
}

StrategyRun Diff(const Trace& source, const Trace& target) {
  ptrdiff_t divergence = Trace::FirstDivergence(source, target);
  if (divergence < 0) return Equivalent();
  size_t i = static_cast<size_t>(divergence);
  std::string source_event = i < source.events().size()
                                 ? source.events()[i].ToString()
                                 : "<end of trace>";
  std::string target_event = i < target.events().size()
                                 ? target.events()[i].ToString()
                                 : "<end of trace>";
  StrategyRun out = Divergent(
      "traces diverge at event " + std::to_string(divergence) + ": source " +
      source_event + " vs converted " + target_event);
  out.divergence = divergence;
  out.source_trace = source;
  out.target_trace = target;
  return out;
}

/// A strategy leg that produced no trace: a refusal is a skip; a translate
/// or run failure is a divergence.
StrategyRun Stopped(Leg leg, const LegRun& run) {
  if (run.stop == LegRun::kRefused) return Skip(run.status.ToString());
  return Broken(run.stop == LegRun::kTranslate ? "translate data"
                                               : LegName(leg),
                run.status);
}

/// What the gate conversion and the source run established about a case.
struct CaseContext {
  const PreparedCase& p;
  const PipelineOutcome& outcome;  ///< the gate conversion
  const Trace& source_trace;
  bool automatic;    ///< the gate conversion is accepted and automatic
  SpanContext span;  ///< the axis's root span; disabled when untraced
};

const Program& LegProgram(const CaseContext& c, Leg leg) {
  return leg == Leg::kRewrite ? c.outcome.conversion.converted : c.p.program;
}

StrategyRun DiffLeg(const CaseContext& c, Leg leg) {
  LegRun run = RunLeg(leg, c.p, LegProgram(c, leg), {.span = c.span});
  if (run.stop != LegRun::kRan) return Stopped(leg, run);
  return Diff(c.source_trace, run.trace);
}

/// Runs `first`, then the three strategy legs when the gate conversion is
/// automatic, each under `a` and under `b`. The two runs of a leg must
/// stop with the same status or produce identical traces; a leg that stops
/// alike on both sides (a bridge over a lossy plan) is no divergence.
StrategyRun CompareConfigs(const CaseContext& c, Leg first, const Config& a,
                           const char* a_name, const Config& b,
                           const char* b_name) {
  std::vector<Leg> legs = {first};
  if (c.automatic) legs.insert(legs.end(), {Leg::kRewrite, Leg::kEmulation,
                                            Leg::kBridge});
  for (Leg leg : legs) {
    LegRun x = RunLeg(leg, c.p, LegProgram(c, leg), a);
    LegRun y = RunLeg(leg, c.p, LegProgram(c, leg), b);
    if (x.status.ToString() != y.status.ToString()) {
      return Divergent(std::string(LegName(leg)) + ": " + a_name + " '" +
                       x.status.ToString() + "' vs " + b_name + " '" +
                       y.status.ToString() + "'");
    }
    if (!x.status.ok()) continue;
    StrategyRun diff = Diff(x.trace, y.trace);
    if (diff.outcome == StrategyOutcome::kDivergent) {
      diff.detail = std::string(LegName(leg)) + ": " + diff.detail;
      return diff;
    }
  }
  return Equivalent();
}

/// The conversion artifacts a client can observe, as one comparable text:
/// classification, acceptance, analyst-facing notes, generated target
/// source and the provenance listing.
std::string ConversionArtifacts(const PipelineOutcome& outcome) {
  std::string out;
  out += std::string("classification: ") +
         ConvertibilityName(outcome.classification) + "\n";
  out += std::string("accepted: ") + (outcome.accepted ? "true" : "false") +
         "\n";
  for (const std::string& note : outcome.conversion.notes) {
    out += "note: " + note + "\n";
  }
  if (outcome.accepted) {
    out += GenerateCplSource(outcome.conversion.converted);
    out += ProvenanceListing(outcome.conversion.converted.name,
                             outcome.conversion.source_statements,
                             outcome.conversion.converted);
  }
  return out;
}

StrategyRun RunOptimizerDiff(const CaseContext& c) {
  SupervisorOptions options;
  options.run_optimizer = false;
  Result<ConversionSupervisor> supervisor = ConversionSupervisor::Create(
      c.p.source_schema, c.p.plan.View(), options);
  if (!supervisor.ok()) {
    return Broken("unoptimized pipeline", supervisor.status());
  }
  Result<PipelineOutcome> outcome = supervisor->ConvertProgram(c.p.program);
  if (!outcome.ok()) {
    return Broken("unoptimized conversion", outcome.status());
  }
  const Program& unoptimized = outcome->conversion.converted;

  SpanContext baseline_span = c.span.StartChild("unoptimized_run");
  LegRun baseline =
      RunLeg(Leg::kRewrite, c.p, unoptimized, {.span = baseline_span});
  baseline_span.End();
  if (baseline.stop == LegRun::kRun) {
    // The unoptimized converted program fails to run: a conversion bug,
    // not an optimizer bug — the rewrite axis owns it.
    return Skip("unoptimized run failed: " + baseline.status.ToString());
  }
  if (baseline.stop != LegRun::kRan) return Stopped(Leg::kRewrite, baseline);

  // Statistics come from a pristine translated instance.
  Result<Database> stats_db = LoadTarget(c.p);
  if (!stats_db.ok()) return Broken("translate data", stats_db.status());
  StatisticsCatalog catalog = StatisticsCatalog::Collect(*stats_db);
  Program optimized = unoptimized;
  OptimizerStats ostats;
  Status opt = OptimizeProgram(supervisor->target_schema(), &catalog,
                               &optimized, &ostats);
  if (!opt.ok()) return Broken("optimize", opt);

  SpanContext optimized_span = c.span.StartChild("optimized_run");
  LegRun run = RunLeg(Leg::kRewrite, c.p, optimized, {.span = optimized_span});
  optimized_span.End();
  if (run.stop != LegRun::kRan) return Stopped(Leg::kRewrite, run);
  return Diff(baseline.trace, run.trace);
}

StrategyRun RunCacheDiff(const CaseContext& c) {
  const PreparedCase& p = c.p;
  // Statistics from a pristine translated instance exercise the cost-based
  // optimizer on the cached path; a plan whose data translation fails
  // still exercises the rules-only path.
  SupervisorOptions base;
  StatisticsCatalog catalog;
  if (Result<Database> stats_db = LoadTarget(p); stats_db.ok()) {
    catalog = StatisticsCatalog::Collect(*stats_db);
    base.statistics = &catalog;
  }
  Result<PipelineOutcome> ref = Convert(p, base);
  if (!ref.ok()) return Broken("uncached conversion", ref.status());
  const std::string ref_artifacts = ConversionArtifacts(*ref);

  TemplateCache cache;
  SupervisorOptions with_cache = base;
  with_cache.cache = &cache;
  Result<ConversionSupervisor> cached =
      ConversionSupervisor::Create(p.source_schema, p.plan.View(), with_cache);
  if (!cached.ok()) return Broken("cached pipeline", cached.status());

  // Analyst-consulting outcomes are never memoized (no analyst policy is
  // configured here, so kNeedsAnalyst cases still log refused questions).
  const bool cacheable = ref->classification != Convertibility::kNeedsAnalyst;
  Program renamed = p.program;
  renamed.name += "-2";
  Program prestamped = p.program;
  StampSourceProvenance(&prestamped, "fuzz", "prestamp");
  struct CachedLeg {
    const char* name;
    const Program& program;
    bool expect_hit;
  };
  const CachedLeg legs[] = {{"cold run", p.program, false},
                            {"warm run", p.program, cacheable},
                            {"warm renamed run", renamed, cacheable},
                            {"warm prestamped run", prestamped, cacheable}};

  Result<PipelineOutcome> warm = Status::Internal("warm leg did not run");
  for (const CachedLeg& leg : legs) {
    Result<PipelineOutcome> got = cached->ConvertProgram(leg.program);
    if (!got.ok()) return Broken(leg.name, got.status());
    if (got->cache_hit != leg.expect_hit) {
      return Divergent(std::string(leg.name) + ": expected cache_hit=" +
                       (leg.expect_hit ? "true" : "false") + ", got " +
                       (got->cache_hit ? "true" : "false"));
    }
    // Artifacts must match the uncached reference, with the leg's own
    // program name re-stamped (the renamed leg checks exactly that).
    std::string expected = ref_artifacts;
    if (leg.program.name != p.program.name) {
      PipelineOutcome renamed_ref = *ref;
      renamed_ref.conversion.converted.name = leg.program.name;
      expected = ConversionArtifacts(renamed_ref);
    }
    std::string got_artifacts = ConversionArtifacts(*got);
    if (got_artifacts != expected) {
      return Divergent(std::string(leg.name) +
                       ": conversion artifacts differ from the uncached "
                       "pipeline's (cached:\n" +
                       got_artifacts + "uncached:\n" + expected + ")");
    }
    if (got->accepted && UnstampedCount(got->conversion.converted) != 0) {
      return Divergent(std::string(leg.name) +
                       ": served program has unstamped statements");
    }
    if (leg.name == std::string("warm run")) warm = got;
  }

  // Traced conversions bypass the memo; the span forests (timings
  // excluded) must be byte-identical with and without a warm cache.
  SpanCollector ref_spans;
  SpanCollector cache_spans;
  SupervisorOptions traced = base;
  traced.spans = &ref_spans;
  SupervisorOptions traced_cache = with_cache;
  traced_cache.spans = &cache_spans;
  Result<PipelineOutcome> a = Convert(p, traced);
  Result<PipelineOutcome> b = Convert(p, traced_cache);
  if (!a.ok() || !b.ok()) {
    return Broken("traced conversion", a.ok() ? b.status() : a.status());
  }
  if (b->cache_hit) {
    return Divergent("traced conversion was served from the cache");
  }
  if (ref_spans.ToText(false) != cache_spans.ToText(false)) {
    return Divergent(
        "traced span forests differ with a cache configured (cached:\n" +
        cache_spans.ToText(false) + "uncached:\n" + ref_spans.ToText(false) +
        ")");
  }

  // When the conversion is automatic, the memoized program's execution
  // trace must match the uncached conversion's run for run.
  if (ref->accepted && ref->classification == Convertibility::kAutomatic) {
    LegRun ref_run = RunLeg(Leg::kRewrite, p, ref->conversion.converted, {});
    if (ref_run.stop == LegRun::kRun) {
      // A conversion bug the rewrite axis owns, not a cache bug.
      return Skip("uncached run failed: " + ref_run.status.ToString());
    }
    if (ref_run.stop != LegRun::kRan) return Stopped(Leg::kRewrite, ref_run);
    LegRun warm_run =
        RunLeg(Leg::kRewrite, p, warm->conversion.converted, {});
    if (warm_run.stop != LegRun::kRan) {
      return Stopped(Leg::kRewrite, warm_run);
    }
    StrategyRun diff = Diff(ref_run.trace, warm_run.trace);
    if (diff.outcome == StrategyOutcome::kDivergent) {
      diff.detail = "cached vs uncached converted run: " + diff.detail;
      return diff;
    }
  }
  return Equivalent();
}

StrategyRun RunTraceDiff(const CaseContext& c) {
  SpanCollector spans;
  SupervisorOptions traced;
  traced.spans = &spans;
  Result<PipelineOutcome> outcome = Convert(c.p, traced);
  if (!outcome.ok()) return Broken("traced conversion", outcome.status());
  std::string traced_artifacts = ConversionArtifacts(*outcome);
  std::string untraced_artifacts = ConversionArtifacts(c.outcome);
  if (traced_artifacts != untraced_artifacts) {
    return Divergent("conversion artifacts differ under tracing (traced:\n" +
                     traced_artifacts + "untraced:\n" + untraced_artifacts +
                     ")");
  }
  return CompareConfigs(c, Leg::kSource, {}, "untraced",
                        {.span = spans.StartRoot("traced legs")}, "traced");
}

/// One differential axis: its `--strategy` name, whether it applies only
/// when the gate conversion is automatic (otherwise a skip), and its check.
struct Axis {
  FuzzStrategy strategy;
  const char* name;
  bool automatic_only;
  StrategyRun (*check)(const CaseContext&);
};

const Axis kAxes[] = {
    // rewrite: the Figure 4.1 pipeline's converted program on the
    // translated database must reproduce the source run's trace.
    {FuzzStrategy::kRewrite, "rewrite", true,
     [](const CaseContext& c) { return DiffLeg(c, Leg::kRewrite); }},
    // emulation: the source program run through DmlEmulator's per-call
    // mapping on the translated database.
    {FuzzStrategy::kEmulation, "emulation", true,
     [](const CaseContext& c) { return DiffLeg(c, Leg::kEmulation); }},
    // bridge: the source program over a source view reconstructed from the
    // translated database, with write-back.
    {FuzzStrategy::kBridge, "bridge", true,
     [](const CaseContext& c) { return DiffLeg(c, Leg::kBridge); }},
    // optimizer: converts with the optimizer off, runs that program, then
    // optimizes a copy cost-based with statistics from the translated
    // database and diffs the two runs. The oracle is the optimizer's own
    // no-behaviour-change contract, not the source trace; a baseline that
    // fails to run is a skip (the rewrite axis owns it).
    {FuzzStrategy::kOptimizerDiff, "optimizer", true, RunOptimizerDiff},
    // index: every leg with index probing on and off. The oracle is the
    // index subsystem's trace invisibility (engine/database.h), so the
    // source leg runs on every case.
    {FuzzStrategy::kIndexDiff, "index", false,
     [](const CaseContext& c) {
       return CompareConfigs(
           c, Leg::kSource, {}, "indexes-on",
           {.index = {.enabled = false, .auto_join_indexes = false}},
           "indexes-off");
     }},
    // columnar: translation and every converted leg under the columnar
    // bulk copy engine and the record-at-a-time reference engine. The
    // oracle is the bulk engine's equivalence contract
    // (restructure/data_copy.h): dumps, traces and errors all match.
    {FuzzStrategy::kColumnarDiff, "columnar", false,
     [](const CaseContext& c) {
       return CompareConfigs(c, Leg::kTranslate, {}, "columnar",
                             {.engine = DataCopyEngine::kRecordAtATime},
                             "record-at-a-time");
     }},
    // cache: converts through a template memo (convert/template_cache.h)
    // cold, warm, warm under another name and warm with provenance
    // pre-stamped. Every leg's artifacts must equal the uncached
    // pipeline's, warm legs must hit for analyst-free outcomes, a traced
    // conversion must bypass the memo with an identical span forest, and
    // on automatic cases the memoized program must run like the uncached
    // one. Runs on every case: refusals are memoized too.
    {FuzzStrategy::kCacheDiff, "cache", false, RunCacheDiff},
    // trace: tracing never changes outcomes. A conversion with a span
    // collector must yield the untraced artifacts, and the source leg (and
    // on automatic cases the strategy legs) must run alike with and
    // without a span.
    {FuzzStrategy::kTraceDiff, "trace", false, RunTraceDiff},
};

const Axis& AxisOf(FuzzStrategy s) {
  for (const Axis& axis : kAxes) {
    if (axis.strategy == s) return axis;
  }
  return kAxes[0];
}

}  // namespace

const char* FuzzStrategyName(FuzzStrategy s) { return AxisOf(s).name; }

Result<FuzzStrategy> ParseFuzzStrategyName(const std::string& name) {
  std::string names;
  for (const Axis& axis : kAxes) {
    if (name == axis.name) return axis.strategy;
    names += std::string(names.empty() ? "" : ", ") + axis.name;
  }
  return Status::InvalidArgument("unknown strategy '" + name + "' (want " +
                                 names + ")");
}

std::vector<FuzzStrategy> AllFuzzStrategies() {
  std::vector<FuzzStrategy> out;
  for (const Axis& axis : kAxes) out.push_back(axis.strategy);
  return out;
}

std::vector<uint64_t> FuzzCaseSeeds(uint64_t seed, int iterations) {
  FuzzRng stream(seed);
  std::vector<uint64_t> out;
  for (int i = 0; i < iterations; ++i) out.push_back(stream.Next());
  return out;
}

CaseRun RunFuzzCase(const FuzzCase& c,
                    const std::vector<FuzzStrategy>& strategies,
                    SpanCollector* spans) {
  CaseRun out;
  Result<PreparedCase> prepared = Prepare(c);
  if (!prepared.ok()) {
    out.setup = prepared.status();
    return out;
  }

  // The rewrite pipeline's classification is the comparison gate (the same
  // policy as the property sweep): only kAutomatic conversions carry an
  // equivalence obligation, so automatic-only axes skip the rest.
  SupervisorOptions supervisor_options;
  supervisor_options.spans = spans;  // self-rooted "convert <name>" tree
  Result<PipelineOutcome> outcome = Convert(*prepared, supervisor_options);
  if (!outcome.ok()) {
    out.setup = outcome.status();
    return out;
  }

  SpanContext source_span;
  if (spans != nullptr) source_span = spans->StartRoot("source_run", 1);
  LegRun source = RunLeg(Leg::kSource, *prepared, prepared->program,
                         {.span = source_span});
  source_span.End();
  if (!source.status.ok()) {
    out.setup = Status(source.status.code(),
                       "source run: " + source.status.message());
    return out;
  }

  bool automatic = outcome->classification == Convertibility::kAutomatic &&
                   outcome->accepted;
  uint64_t sequence = 2;  // 0 = conversion (supervisor root), 1 = source run
  for (FuzzStrategy strategy : strategies) {
    const Axis& axis = AxisOf(strategy);
    SpanContext span;
    if (spans != nullptr) {
      span = spans->StartRoot(std::string("strategy ") + axis.name, sequence);
    }
    ++sequence;
    StrategyRun run =
        axis.automatic_only && !automatic
            ? Skip(std::string("classification: ") +
                   ConvertibilityName(outcome->classification))
            : axis.check({*prepared, *outcome, source.trace, automatic, span});
    run.strategy = strategy;
    if (span.enabled()) {
      span.SetAttribute(
          "outcome", run.outcome == StrategyOutcome::kEquivalent ? "equivalent"
                     : run.outcome == StrategyOutcome::kSkipped  ? "skipped"
                                                                 : "divergent");
      if (!run.detail.empty()) span.SetAttribute("detail", run.detail);
    }
    span.End();
    out.strategies.push_back(std::move(run));
  }
  return out;
}

std::string FuzzReport::ToText() const {
  std::string out = "fuzz: " + std::to_string(iterations) + " iterations, " +
                    std::to_string(equivalent) + " equivalent, " +
                    std::to_string(skipped) + " skipped, " +
                    std::to_string(divergent) + " divergent, " +
                    std::to_string(setup_errors) + " setup errors\n";
  for (const FuzzFailure& f : failures) {
    out += "  seed " + std::to_string(f.seed) + " iteration " +
           std::to_string(f.iteration) + " [" +
           FuzzStrategyName(f.strategy) + "] " + f.detail + "\n";
    if (!f.context.empty()) {
      // Already line-structured and indented (Trace::DivergenceContext);
      // shift it under the failure line.
      std::string indented;
      size_t start = 0;
      while (start < f.context.size()) {
        size_t end = f.context.find('\n', start);
        if (end == std::string::npos) end = f.context.size();
        indented += "    " + f.context.substr(start, end - start) + "\n";
        start = end + 1;
      }
      out += indented;
    }
  }
  return out;
}

FuzzReport RunFuzz(const FuzzOptions& options) {
  FuzzReport report;
  std::vector<uint64_t> case_seeds =
      FuzzCaseSeeds(options.seed, options.iterations);
  for (int i = 0; i < options.iterations; ++i) {
    ++report.iterations;
    uint64_t case_seed = case_seeds[static_cast<size_t>(i)];
    FuzzCase c = GenerateFuzzCase(case_seed);
    CaseRun run = RunFuzzCase(c, options.strategies);
    if (!run.setup.ok()) {
      ++report.setup_errors;
      FuzzFailure f;
      f.seed = case_seed;
      f.iteration = i;
      f.divergence = -1;
      f.detail = "setup: " + run.setup.ToString();
      f.original = c;
      f.shrunk = c;
      if (static_cast<int>(report.failures.size()) < options.max_failures) {
        report.failures.push_back(std::move(f));
      }
      continue;
    }
    bool diverged = false;
    for (const StrategyRun& s : run.strategies) {
      switch (s.outcome) {
        case StrategyOutcome::kEquivalent:
          ++report.equivalent;
          break;
        case StrategyOutcome::kSkipped:
          ++report.skipped;
          break;
        case StrategyOutcome::kDivergent: {
          ++report.divergent;
          diverged = true;
          if (static_cast<int>(report.failures.size()) <
              options.max_failures) {
            FuzzFailure f;
            f.seed = case_seed;
            f.iteration = i;
            f.strategy = s.strategy;
            f.divergence = s.divergence;
            f.detail = s.detail;
            if (s.divergence >= 0) {
              f.context = Trace::DivergenceContext(s.source_trace,
                                                   s.target_trace,
                                                   s.divergence);
            }
            if (options.trace) {
              // Re-run the failing strategy with a collector: the span
              // tree of the divergent run, for the repro's TRACE section.
              SpanCollector collector;
              RunFuzzCase(c, {s.strategy}, &collector);
              f.span_tree = collector.ToText();
            }
            f.original = c;
            f.shrunk = options.shrink
                           ? ShrinkFuzzCase(c, {s.strategy})
                           : c;
            report.failures.push_back(std::move(f));
          }
          break;
        }
      }
    }
    if (diverged &&
        static_cast<int>(report.failures.size()) >= options.max_failures) {
      break;
    }
  }
  return report;
}

Status ReplayRepro(const FuzzRepro& repro,
                   const std::vector<FuzzStrategy>& strategies) {
  CaseRun run = RunFuzzCase(repro.c, strategies);
  switch (repro.expect) {
    case ReproExpectation::kParseError:
      if (run.setup.ok()) {
        return Status::Internal(
            "repro expected a parse error but setup succeeded");
      }
      if (run.setup.code() != StatusCode::kParseError) {
        return Status::Internal("repro expected kParseError, got " +
                                run.setup.ToString());
      }
      return Status::OK();
    case ReproExpectation::kEquivalent:
      if (!run.setup.ok()) {
        return Status::Internal("repro setup failed: " + run.setup.ToString());
      }
      for (const StrategyRun& s : run.strategies) {
        if (s.outcome == StrategyOutcome::kDivergent) {
          return Status::Internal(std::string("strategy ") +
                                  FuzzStrategyName(s.strategy) +
                                  " diverged: " + s.detail);
        }
      }
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

}  // namespace dbpc
