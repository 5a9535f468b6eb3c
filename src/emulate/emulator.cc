#include "emulate/emulator.h"

#include "analyze/analyzer.h"
#include "convert/provenance.h"
#include "optimize/optimizer.h"
#include "restructure/rewrite_util.h"

namespace dbpc {

Result<DmlEmulator> DmlEmulator::Create(
    Schema source, std::vector<const Transformation*> plan) {
  DBPC_ASSIGN_OR_RETURN(
      ProgramConverter converter,
      ProgramConverter::Create(std::move(source), std::move(plan)));
  return DmlEmulator(std::move(converter));
}

Result<DmlEmulator::EmulationRun> DmlEmulator::Run(
    const Program& source_program, Database* target_db, const IoScript& script,
    SpanContext span) const {
  EmulationRun out;

  // Per-call order reconstruction: the emulation layer must hand records
  // back in the order the source database would have produced. Make that
  // order explicit as a SORT on the *source* program before mapping, so
  // later plan steps (field/record renames, path splices) rewrite the sort
  // keys along with everything else. Forcing the sort after mapping would
  // leave source-schema field names in a target-schema program.
  ProgramAnalyzer analyzer(converter_.source_schema());
  DBPC_ASSIGN_OR_RETURN(Analysis source_analysis,
                        analyzer.Analyze(source_program));
  Program prepared = source_analysis.lifted;
  rewrite::ForEachRetrievalMut(&prepared, [&](Retrieval* r) {
    if (!r->sort_on.empty()) return;  // explicit order already
    FindQuery q = r->query;
    if (!ResolveFindQuery(converter_.source_schema(), &q).ok()) return;
    std::optional<std::vector<std::string>> keys =
        rewrite::PathOrderKeys(converter_.source_schema(), q, "");
    // The SORT restates the path's natural order, so the source program's
    // behaviour is unchanged; emulation mimics the source behaviour at the
    // call level and cannot know which orders matter.
    if (keys.has_value() && !keys->empty()) {
      r->sort_on = *keys;
      ++out.reconstruction_sorts;
    }
  });

  // The mapping work happens on EVERY run — that is the point of the
  // strategy and of this accounting.
  DBPC_ASSIGN_OR_RETURN(ConversionResult mapped,
                        converter_.Convert(prepared, span));
  if (mapped.outcome == Convertibility::kNotConvertible) {
    return Status::NotConvertible(
        "emulation layer cannot map a run-time-variable program");
  }
  // A mapping that needs an analyst's decision is never run unattended,
  // exactly as the pipeline never accepts one without an analyst.
  if (mapped.outcome == Convertibility::kNeedsAnalyst) {
    return Status::NeedsAnalyst(
        "emulation layer cannot map the program without an analyst");
  }
  // The mapped calls are the emulation layer's work, not a program
  // rewrite's; provenance says so.
  RestampStrategy(&mapped.converted, "emulation");
  out.mapping_statements = mapped.converted.StatementCount();

  Interpreter interp(target_db, script);
  SpanContext exec_span = span.StartChild("emulated_execution");
  Result<RunResult> run = interp.Run(mapped.converted, exec_span);
  exec_span.End();
  DBPC_ASSIGN_OR_RETURN(out.run, std::move(run));
  return out;
}

}  // namespace dbpc
