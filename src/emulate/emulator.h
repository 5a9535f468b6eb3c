#ifndef DBPC_EMULATE_EMULATOR_H_
#define DBPC_EMULATE_EMULATOR_H_

#include <vector>

#include "convert/converter.h"
#include "lang/interpreter.h"
#include "restructure/transformation.h"

namespace dbpc {

/// The DML emulation strategy (paper section 2.1.2, Honeywell "Task 609"):
/// the application program is *not* rewritten; each of its DML calls is
/// intercepted at execution time and mapped, through a mapping description
/// derived from the restructuring, onto equivalent calls against the
/// restructured database.
///
/// This implementation builds the per-call mapping by converting the
/// program's DML statements afresh on every run (modelling the mapping
/// tables and interception work), applies no global optimization — each
/// source call maps to the literal spliced path — and reconstructs the
/// source database's set ordering on every retrieval (a per-call SORT),
/// which is where the strategy's "degraded efficiency" comes from.
class DmlEmulator {
 public:
  /// The plan describes the restructuring the emulator must hide.
  /// Transformations must outlive the emulator.
  static Result<DmlEmulator> Create(Schema source,
                                    std::vector<const Transformation*> plan);

  /// Per-run accounting.
  struct EmulationRun {
    RunResult run;
    /// Statements of mapping work performed before execution (per run —
    /// emulation pays this on every execution, a rewrite pays it once).
    size_t mapping_statements = 0;
    /// Retrievals that required order reconstruction (per-call SORTs).
    size_t reconstruction_sorts = 0;
  };

  /// Runs the ORIGINAL source program against the restructured `target_db`
  /// through the emulation layer. Refuses programs the mapping cannot
  /// cover (same refusals as conversion — the strategy shares the analysis
  /// problem): kNotConvertible for run-time variability, kNeedsAnalyst for
  /// a mapping that needs an analyst's decision. The mapped statements
  /// carry Provenance with strategy "emulation". With an enabled `span`,
  /// the mapping stages and the emulated execution (per-statement OpStats)
  /// appear as child spans.
  Result<EmulationRun> Run(const Program& source_program, Database* target_db,
                           const IoScript& script,
                           SpanContext span = {}) const;

  const Schema& source_schema() const { return converter_.source_schema(); }
  const Schema& target_schema() const { return converter_.target_schema(); }

 private:
  explicit DmlEmulator(ProgramConverter converter)
      : converter_(std::move(converter)) {}

  ProgramConverter converter_;
};

}  // namespace dbpc

#endif  // DBPC_EMULATE_EMULATOR_H_
