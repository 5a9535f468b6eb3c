#include "testing/fixtures.h"

#include <cstdio>
#include <cstdlib>

#include "schema/ddl_parser.h"

namespace dbpc::testing {

std::string CompanyDdl() {
  return R"(
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
}

std::string CompanyRevisedDdl() {
  return R"(
SCHEMA NAME IS COMPANY
RECORD SECTION.
  RECORD NAME IS DIV.
  FIELDS ARE.
    DIV-NAME PIC X(20).
    DIV-LOC PIC X(10).
  END RECORD.
  RECORD NAME IS DEPT.
  FIELDS ARE.
    DEPT-NAME PIC X(5).
    DIV-NAME VIRTUAL VIA DIV-DEPT USING DIV-NAME.
  END RECORD.
  RECORD NAME IS EMP.
  FIELDS ARE.
    EMP-NAME PIC X(25).
    AGE PIC 9(2).
    DEPT-NAME VIRTUAL VIA DEPT-EMP USING DEPT-NAME.
    DIV-NAME VIRTUAL VIA DEPT-EMP USING DIV-NAME.
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS ALL-DIV.
  OWNER IS SYSTEM.
  MEMBER IS DIV.
  SET KEYS ARE (DIV-NAME).
  END SET.
  SET NAME IS DIV-DEPT.
  OWNER IS DIV.
  MEMBER IS DEPT.
  SET KEYS ARE (DEPT-NAME).
  END SET.
  SET NAME IS DEPT-EMP.
  OWNER IS DEPT.
  MEMBER IS EMP.
  SET KEYS ARE (EMP-NAME).
  END SET.
END SET SECTION.
END SCHEMA.
)";
}

std::string SchoolDdl() {
  return R"(
SCHEMA NAME IS SCHOOL
RECORD SECTION.
  RECORD NAME IS COURSE.
  FIELDS ARE.
    CNO PIC X(6).
    CNAME PIC X(20).
  END RECORD.
  RECORD NAME IS SEMESTER.
  FIELDS ARE.
    S PIC X(4).
    YEAR PIC 9(4).
  END RECORD.
  RECORD NAME IS OFFERING.
  FIELDS ARE.
    SECTION-NO PIC 9(2).
    YEAR PIC 9(4).
    CNO VIRTUAL VIA CRS-OFF USING CNO.
    S VIRTUAL VIA SEM-OFF USING S.
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS ALL-COURSE.
  OWNER IS SYSTEM.
  MEMBER IS COURSE.
  SET KEYS ARE (CNO).
  END SET.
  SET NAME IS ALL-SEM.
  OWNER IS SYSTEM.
  MEMBER IS SEMESTER.
  SET KEYS ARE (S).
  END SET.
  SET NAME IS CRS-OFF.
  OWNER IS COURSE.
  MEMBER IS OFFERING.
  ORDER IS CHRONOLOGICAL.
  MEMBER IS CHARACTERIZING.
  END SET.
  SET NAME IS SEM-OFF.
  OWNER IS SEMESTER.
  MEMBER IS OFFERING.
  ORDER IS CHRONOLOGICAL.
  MEMBER IS CHARACTERIZING.
  END SET.
END SET SECTION.
CONSTRAINT SECTION.
  CONSTRAINT TWICE-A-YEAR IS CARDINALITY ON SET CRS-OFF LIMIT 2 PER YEAR.
  CONSTRAINT UNIQ-CNO IS UNIQUE ON COURSE (CNO).
  CONSTRAINT UNIQ-S IS UNIQUE ON SEMESTER (S).
END CONSTRAINT SECTION.
END SCHEMA.
)";
}

namespace {

[[noreturn]] void Die(const std::string& context, const Status& status) {
  std::fprintf(stderr, "fixture failure (%s): %s\n", context.c_str(),
               status.ToString().c_str());
  std::abort();
}

RecordId MustStore(Database* db, StoreRequest request) {
  Result<RecordId> id = db->StoreRecord(request);
  if (!id.ok()) Die("store " + request.type, id.status());
  return *id;
}

}  // namespace

Database MakeDatabase(const std::string& ddl) {
  Result<Schema> schema = ParseDdl(ddl);
  if (!schema.ok()) Die("parse ddl", schema.status());
  Result<Database> db = Database::Create(std::move(schema).value());
  if (!db.ok()) Die("create database", db.status());
  return std::move(db).value();
}

Database MakeCompanyDatabase() {
  Database db = MakeDatabase(CompanyDdl());
  RecordId machinery = MustStore(
      &db, {"DIV",
            {{"DIV-NAME", Value::String("MACHINERY")},
             {"DIV-LOC", Value::String("EAST")}},
            {}});
  RecordId textiles = MustStore(
      &db, {"DIV",
            {{"DIV-NAME", Value::String("TEXTILES")},
             {"DIV-LOC", Value::String("SOUTH")}},
            {}});
  auto emp = [&](const char* name, const char* dept, int64_t age,
                 RecordId div) {
    MustStore(&db, {"EMP",
                    {{"EMP-NAME", Value::String(name)},
                     {"DEPT-NAME", Value::String(dept)},
                     {"AGE", Value::Int(age)}},
                    {{"DIV-EMP", div}}});
  };
  emp("ADAMS", "SALES", 34, machinery);
  emp("BAKER", "SALES", 28, machinery);
  emp("CLARK", "PLANNING", 45, machinery);
  emp("DAVIS", "SALES", 31, textiles);
  return db;
}

void FillCompany(Database* db, int divisions, int emps_per_div) {
  static const char* kDepts[] = {"SALES", "PLANG", "ADMIN"};
  for (int d = 0; d < divisions; ++d) {
    char div_name[32];
    std::snprintf(div_name, sizeof(div_name), "DIV-%04d", d);
    RecordId div = MustStore(
        db, {"DIV",
             {{"DIV-NAME", Value::String(div_name)},
              {"DIV-LOC", Value::String(d % 2 == 0 ? "EAST" : "WEST")}},
             {}});
    for (int e = 0; e < emps_per_div; ++e) {
      char emp_name[32];
      std::snprintf(emp_name, sizeof(emp_name), "EMP-%04d-%05d", d, e);
      MustStore(db, {"EMP",
                     {{"EMP-NAME", Value::String(emp_name)},
                      {"DEPT-NAME", Value::String(kDepts[e % 3])},
                      {"AGE", Value::Int(20 + (e * 7 + d) % 45)}},
                     {{"DIV-EMP", div}}});
    }
  }
}

Database MakeSchoolDatabase() {
  Database db = MakeDatabase(SchoolDdl());
  RecordId cs101 = MustStore(&db, {"COURSE",
                                   {{"CNO", Value::String("CS101")},
                                    {"CNAME", Value::String("INTRO")}},
                                   {}});
  RecordId cs202 = MustStore(&db, {"COURSE",
                                   {{"CNO", Value::String("CS202")},
                                    {"CNAME", Value::String("DATABASES")}},
                                   {}});
  RecordId fall78 = MustStore(&db, {"SEMESTER",
                                    {{"S", Value::String("F78")},
                                     {"YEAR", Value::Int(1978)}},
                                    {}});
  RecordId spring79 = MustStore(&db, {"SEMESTER",
                                      {{"S", Value::String("S79")},
                                       {"YEAR", Value::Int(1979)}},
                                      {}});
  auto offer = [&](RecordId course, RecordId sem, int64_t section,
                   int64_t year) {
    MustStore(&db, {"OFFERING",
                    {{"SECTION-NO", Value::Int(section)},
                     {"YEAR", Value::Int(year)}},
                    {{"CRS-OFF", course}, {"SEM-OFF", sem}}});
  };
  offer(cs101, fall78, 1, 1978);
  offer(cs101, spring79, 1, 1979);
  offer(cs202, spring79, 1, 1979);
  return db;
}

Database MakeCrossedSchoolDatabase() {
  Database db = MakeDatabase(SchoolDdl());
  auto course = [&](const char* cno) {
    return MustStore(&db, {"COURSE", {{"CNO", Value::String(cno)}}, {}});
  };
  auto semester = [&](const char* s, int64_t year) {
    return MustStore(
        &db, {"SEMESTER",
              {{"S", Value::String(s)}, {"YEAR", Value::Int(year)}},
              {}});
  };
  RecordId cs101 = course("CS101");
  RecordId cs202 = course("CS202");
  RecordId fall78 = semester("F78", 1978);
  RecordId spring79 = semester("S79", 1979);
  auto offer = [&](RecordId c, RecordId sem, int64_t section, int64_t year) {
    MustStore(&db, {"OFFERING",
                    {{"SECTION-NO", Value::Int(section)},
                     {"YEAR", Value::Int(year)}},
                    {{"CRS-OFF", c}, {"SEM-OFF", sem}}});
  };
  offer(cs101, spring79, 1, 1979);
  offer(cs202, fall78, 2, 1978);
  offer(cs101, fall78, 3, 1978);
  return db;
}

}  // namespace dbpc::testing
