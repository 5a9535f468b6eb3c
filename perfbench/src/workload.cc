#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace dbpc::perfbench {

const char kCompanyDdl[] = R"(
SCHEMA NAME IS COMPANY
RECORD SECTION.
  RECORD NAME IS DIV.
  FIELDS ARE.
    DIV-NAME PIC X(20).
    DIV-LOC PIC X(10).
  END RECORD.
  RECORD NAME IS EMP.
  FIELDS ARE.
    EMP-NAME PIC X(25).
    DEPT-NAME PIC X(5).
    AGE PIC 9(2).
    DIV-NAME VIRTUAL VIA DIV-EMP USING DIV-NAME.
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS ALL-DIV.
  OWNER IS SYSTEM.
  MEMBER IS DIV.
  SET KEYS ARE (DIV-NAME).
  END SET.
  SET NAME IS DIV-EMP.
  OWNER IS DIV.
  MEMBER IS EMP.
  SET KEYS ARE (EMP-NAME).
  END SET.
END SET SECTION.
END SCHEMA.
)";

const char kPlanText[] = R"(
RESTRUCTURE PLAN BENCH-MIGRATION.
  INTRODUCE RECORD DEPT BETWEEN DIV-EMP GROUPING BY DEPT-NAME
      AS DIV-DEPT AND DEPT-EMP.
  RENAME FIELD AGE OF EMP TO YEARS.
END PLAN.
)";

namespace {

/// The corpus generator takes a 32-bit seed; fold the run seed into one.
unsigned CorpusSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed ^ salt);
  unsigned out = static_cast<unsigned>(rng.Next());
  return out == 0 ? 1 : out;
}

Stmt TagStatement(const char* prefix, uint64_t seed, size_t index) {
  char text[96];
  std::snprintf(text, sizeof(text), "DISPLAY '%s-%llx-%zu'.", prefix,
                static_cast<unsigned long long>(seed), index);
  return Must(ParseStatement(text), "tag statement");
}

/// Renders, counts and de-duplicates a finished program list.
void Finish(ProgramSet* set) {
  std::unordered_set<std::string> bodies;
  std::vector<double> statements;
  for (const Program& program : set->programs) {
    bodies.insert(CanonicalProgramText(program));
    size_t n = program.StatementCount();
    statements.push_back(static_cast<double>(n));
    set->statements_max = std::max(set->statements_max, n);
    set->sources.push_back(program.ToSource());
    set->source_bytes += set->sources.back().size();
  }
  set->distinct_bodies = bodies.size();
  set->statements_p50 = Median(std::move(statements));
}

}  // namespace

bool IsAnalystShape(CorpusShape shape) {
  return shape == CorpusShape::kAmbiguousOwner ||
         shape == CorpusShape::kStatusDependent ||
         shape == CorpusShape::kEraseInScan;
}

bool IsWriteShape(CorpusShape shape) {
  switch (shape) {
    case CorpusShape::kUpdate:
    case CorpusShape::kDeletion:
    case CorpusShape::kStore:
    case CorpusShape::kStatusDependent:
    case CorpusShape::kEraseInScan:
      return true;
    default:
      return false;
  }
}

Pipeline LoadPipeline() {
  Pipeline p{Must(ParseDdl(kCompanyDdl), "schema"),
             Must(ParsePlan(kPlanText), "plan")};
  return p;
}

Database BuildCompany(int divisions, int emps_per_div, uint64_t seed) {
  static const char* kDepts[] = {"SALES", "PLANG", "ADMIN"};
  static const char* kLocs[] = {"EAST", "WEST", "SOUTH"};
  Database db = Must(Database::Create(Must(ParseDdl(kCompanyDdl), "schema")),
                     "create database");
  Rng rng(seed ^ 0xdb);
  const uint64_t dept_shift = rng.Next() % 3;
  const uint64_t age_shift = rng.Next() % 45;
  const uint64_t loc_shift = rng.Next() % 3;
  char name[48];  // room for any 64-bit index
  for (uint64_t d = 0; d < static_cast<uint64_t>(divisions); ++d) {
    if (d < 2) {
      std::snprintf(name, sizeof(name), d == 0 ? "MACHINERY" : "TEXTILES");
    } else {
      std::snprintf(name, sizeof(name), "DIV-%04llu",
                    static_cast<unsigned long long>(d - 2));
    }
    StoreRequest div{"DIV",
                     {{"DIV-NAME", Value::String(name)},
                      {"DIV-LOC", Value::String(kLocs[(d + loc_shift) % 3])}},
                     {}};
    RecordId div_id = Must(db.StoreRecord(div), "store DIV");
    for (uint64_t e = 0; e < static_cast<uint64_t>(emps_per_div); ++e) {
      std::snprintf(name, sizeof(name), "E%05llu-%04llu",
                    static_cast<unsigned long long>(d),
                    static_cast<unsigned long long>(e));
      // e and e + 45 are the only equal ages in a division, and 45 is a
      // multiple of 3, so they share a department.
      int64_t age = static_cast<int64_t>(20 + (7 * e + d + age_shift) % 45);
      StoreRequest emp{"EMP",
                       {{"EMP-NAME", Value::String(name)},
                        {"DEPT-NAME",
                         Value::String(kDepts[(e + d + dept_shift) % 3])},
                        {"AGE", Value::Int(age)}},
                       {{"DIV-EMP", div_id}}};
      Must(db.StoreRecord(emp), "store EMP");
    }
  }
  return db;
}

double ProgramSet::AnalystShapeShare() const {
  if (shapes.empty()) return 0;
  size_t n = 0;
  for (CorpusShape shape : shapes) n += IsAnalystShape(shape) ? 1 : 0;
  return static_cast<double>(n) / shapes.size();
}

void ProgramSet::PrintProperties(const char* label) const {
  Note("%s: %zu programs, %zu distinct canonical bodies, statements per "
       "program p50 %.1f max %zu, %.1f KiB of source, analyst-consulting "
       "shape share %.3f",
       label, programs.size(), distinct_bodies, statements_p50,
       statements_max, source_bytes / 1024.0, AnalystShapeShare());
}

ProgramSet MakeServePool(size_t n, uint64_t seed) {
  std::vector<CorpusProgram> corpus =
      GenerateCompanyCorpus(static_cast<int>(n), CorpusSeed(seed, 0x5e7e));
  ProgramSet set;
  for (size_t i = 0; i < corpus.size(); ++i) {
    Program program = std::move(corpus[i].program);
    program.name = "Q" + std::to_string(i);
    program.body.push_back(TagStatement("Q", seed, i));
    set.shapes.push_back(corpus[i].shape);
    set.programs.push_back(std::move(program));
  }
  Finish(&set);
  return set;
}

ProgramSet MakeSystem(size_t n, uint64_t seed) {
  const int mix_size = CorpusMix{}.Total();
  std::vector<CorpusProgram> corpus = GenerateCompanyCorpus(
      mix_size * 64, CorpusSeed(seed, 0xc01d));
  std::vector<const CorpusProgram*> blocks;
  std::vector<const CorpusProgram*> refused;
  for (const CorpusProgram& p : corpus) {
    (p.shape == CorpusShape::kRuntimeVariable ? refused : blocks)
        .push_back(&p);
  }
  ProgramSet set;
  size_t next_block = 0;
  for (size_t i = 0; i < n; ++i) {
    Program program;
    program.name = "SYS" + std::to_string(i);
    if (i % mix_size == static_cast<size_t>(mix_size) - 1) {
      // The designed refusal: a run-time DML verb, alone in its program.
      const CorpusProgram* p = refused[(i / mix_size) % refused.size()];
      program.body = p->program.body;
      set.shapes.push_back(p->shape);
    } else {
      size_t count = 1 + (i * 5) % 12;
      bool analyst = false;
      for (size_t b = 0; b < count; ++b) {
        const CorpusProgram* p = blocks[next_block++ % blocks.size()];
        analyst = analyst || IsAnalystShape(p->shape);
        program.body.insert(program.body.end(), p->program.body.begin(),
                            p->program.body.end());
      }
      // A multi-block program is filed under an analyst shape when any of
      // its blocks consults the analyst, so AnalystShapeShare counts it.
      set.shapes.push_back(analyst ? CorpusShape::kAmbiguousOwner
                                   : CorpusShape::kMarylandReport);
    }
    program.body.push_back(TagStatement("S", seed, i));
    set.programs.push_back(std::move(program));
  }
  Finish(&set);
  return set;
}

MigrateCorpus MakeMigrateCorpus() {
  MigrateCorpus out;
  for (CorpusProgram& p : GenerateCompanyCorpus(CorpusMix{})) {
    (IsWriteShape(p.shape) ? out.writes : out.reads).push_back(std::move(p));
  }
  return out;
}

}  // namespace dbpc::perfbench
