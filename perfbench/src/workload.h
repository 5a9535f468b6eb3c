// Seeded inputs of the three workloads: the COMPANY schema, the two-step
// migration plan, COMPANY databases and programs built from the corpus
// statement shapes (src/corpus). The seed varies literals only; which
// corpus shape sits at which position, and so how much work a run does, is
// the same for every seed.
#ifndef DBPC_PERFBENCH_WORKLOAD_H_
#define DBPC_PERFBENCH_WORKLOAD_H_

#include <string>
#include <vector>

#include "common.h"
#include "corpus/corpus.h"

namespace dbpc::perfbench {

/// The COMPANY schema of Figure 4.2.
extern const char kCompanyDdl[];
/// Figure 4.4's INTRODUCE RECORD (record-at-a-time copy: it creates DEPT
/// helper records), then a column-mapped rename that takes the bulk copy
/// engine.
extern const char kPlanText[];

/// Schema and plan, parsed.
struct Pipeline {
  Schema schema;
  RestructuringPlan plan;
};
Pipeline LoadPipeline();

/// A COMPANY database of `divisions` DIV records (MACHINERY, TEXTILES,
/// then DIV-0000, DIV-0001, ...), each owning `emps_per_div` EMP records.
/// The seed shifts the cyclic patterns that assign departments, ages and
/// locations, so predicate selectivities are the same for every seed.
/// Within a division, employees of equal AGE always share a department:
/// converted programs that SORT ON (AGE) keep their tie order, which the
/// converter does not pin (a DEPT split reorders ties across departments).
Database BuildCompany(int divisions, int emps_per_div, uint64_t seed);

/// Programs plus the properties a "helps only inputs with property X"
/// claim must cite.
struct ProgramSet {
  std::vector<std::string> sources;
  std::vector<Program> programs;
  std::vector<CorpusShape> shapes;  ///< main shape of each program
  size_t distinct_bodies = 0;       ///< by CanonicalProgramText
  double statements_p50 = 0;
  size_t statements_max = 0;
  size_t source_bytes = 0;

  /// Share of programs whose main shape consults the analyst.
  double AnalystShapeShare() const;
  void PrintProperties(const char* label) const;
};

/// serve-zipf's request pool: `n` corpus programs, each made unique by a
/// trailing DISPLAY of its rank. Rank i has the corpus mix's i-th shape
/// (mod the mix size) for every seed.
ProgramSet MakeServePool(size_t n, uint64_t seed);

/// convert-cold's application system: `n` programs of 1 to 12 corpus
/// statement blocks each (a fixed size schedule), plus one run-time-variable
/// program per corpus-mix-sized group; every canonical body is unique.
ProgramSet MakeSystem(size_t n, uint64_t seed);

/// migrate's corpus: one corpus mix under the corpus generator's own fixed
/// seed, split into the read-only programs and the MODIFY/STORE/DELETE/
/// ERASE programs, in corpus order. It is the same for every run seed: its
/// literals set how much of the database each program touches, and the run
/// seed varies the database instead. The run-time-variable program sits
/// with the reads; its conversion is refused by design, so it never runs.
struct MigrateCorpus {
  std::vector<CorpusProgram> reads;
  std::vector<CorpusProgram> writes;
};
MigrateCorpus MakeMigrateCorpus();

bool IsAnalystShape(CorpusShape shape);
bool IsWriteShape(CorpusShape shape);

/// The workloads. Each sets up, measures for options.seconds, checks its
/// outputs and records every metric it can measure.
BenchResult RunServeZipf(const Options& options);
BenchResult RunConvertCold(const Options& options);
BenchResult RunMigrate(const Options& options);

}  // namespace dbpc::perfbench

#endif  // DBPC_PERFBENCH_WORKLOAD_H_
