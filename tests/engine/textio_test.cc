#include "engine/textio.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::MakeCompanyDatabase;
using testing::MakeSchoolDatabase;

TEST(TextIoTest, DumpMentionsEveryRecordAndMembership) {
  Database db = MakeCompanyDatabase();
  std::string dump = *DumpDatabaseText(db);
  EXPECT_NE(dump.find("DATABASE COMPANY."), std::string::npos);
  EXPECT_NE(dump.find("'MACHINERY'"), std::string::npos);
  EXPECT_NE(dump.find("'ADAMS'"), std::string::npos);
  EXPECT_NE(dump.find("IN DIV-EMP"), std::string::npos);
}

TEST(TextIoTest, RoundTripPreservesContent) {
  Database db = MakeCompanyDatabase();
  std::string dump = *DumpDatabaseText(db);
  Result<Database> loaded = LoadDatabaseText(db.schema(), dump);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->RecordCount(), db.RecordCount());
  // Structure and values survive.
  RecordId machinery = loaded->SystemMembers("ALL-DIV")[0];
  std::vector<RecordId> emps = loaded->Members("DIV-EMP", machinery);
  ASSERT_EQ(emps.size(), 3u);
  EXPECT_EQ(loaded->GetField(emps[0], "EMP-NAME")->as_string(), "ADAMS");
  EXPECT_EQ(loaded->GetField(emps[0], "AGE")->as_int(), 34);
  EXPECT_EQ(loaded->GetField(emps[0], "DIV-NAME")->as_string(), "MACHINERY");
  // A second dump is byte-identical (canonical form).
  EXPECT_EQ(*DumpDatabaseText(*loaded), dump);
}

TEST(TextIoTest, MultiParentSchoolRoundTrips) {
  Database db = MakeSchoolDatabase();
  std::string dump = *DumpDatabaseText(db);
  Result<Database> loaded = LoadDatabaseText(db.schema(), dump);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->AllOfType("OFFERING").size(), 3u);
  // Chronological member order inside CRS-OFF is preserved.
  RecordId cs101 = loaded->SystemMembers("ALL-COURSE")[0];
  std::vector<RecordId> offerings = loaded->Members("CRS-OFF", cs101);
  ASSERT_EQ(offerings.size(), 2u);
  EXPECT_EQ(loaded->GetField(offerings[0], "YEAR")->as_int(), 1978);
  EXPECT_EQ(loaded->GetField(offerings[1], "YEAR")->as_int(), 1979);
}

TEST(TextIoTest, TwoChronologicalSetsBothPreserveOrderOnRoundTrip) {
  Database db = testing::MakeDatabase(testing::SchoolDdl());
  RecordId cs101 = *db.StoreRecord({"COURSE",
                                    {{"CNO", Value::String("CS101")},
                                     {"CNAME", Value::String("INTRO")}},
                                    {}});
  RecordId cs202 = *db.StoreRecord({"COURSE",
                                    {{"CNO", Value::String("CS202")},
                                     {"CNAME", Value::String("DATABASES")}},
                                    {}});
  RecordId s79 = *db.StoreRecord({"SEMESTER",
                                  {{"S", Value::String("S79")},
                                   {"YEAR", Value::Int(1979)}},
                                  {}});
  // The offering of the *later* course is stored first, so the SEM-OFF
  // occurrence order (1 then 2) disagrees with a dump grouped by CRS-OFF
  // owner (which would emit CS101's offering first).
  (void)*db.StoreRecord({"OFFERING",
                         {{"SECTION-NO", Value::Int(1)},
                          {"YEAR", Value::Int(1979)}},
                         {{"CRS-OFF", cs202}, {"SEM-OFF", s79}}});
  (void)*db.StoreRecord({"OFFERING",
                         {{"SECTION-NO", Value::Int(2)},
                          {"YEAR", Value::Int(1979)}},
                         {{"CRS-OFF", cs101}, {"SEM-OFF", s79}}});
  std::string dump = *DumpDatabaseText(db);
  Result<Database> loaded = LoadDatabaseText(db.schema(), dump);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  RecordId loaded_s79 = loaded->AllOfType("SEMESTER")[0];
  std::vector<RecordId> sem = loaded->Members("SEM-OFF", loaded_s79);
  ASSERT_EQ(sem.size(), 2u);
  EXPECT_EQ(loaded->GetField(sem[0], "SECTION-NO")->as_int(), 1);
  EXPECT_EQ(loaded->GetField(sem[1], "SECTION-NO")->as_int(), 2);
}

TEST(TextIoTest, ConflictingChronologicalOrdersKeepEveryRecord) {
  // M1 and M2 are connected in opposite sequences through two MANUAL
  // chronological sets: no emission order reproduces both, so the two
  // follow in storage order after the unconnected M3.
  Schema schema("CONFLICT");
  for (const char* name : {"P", "Q", "M"}) {
    RecordTypeDef r;
    r.name = name;
    r.fields.push_back({.name = "N", .type = FieldType::kString});
    ASSERT_TRUE(schema.AddRecordType(r).ok());
  }
  for (const char* owner : {"P", "Q"}) {
    SetDef s;
    s.name = std::string(owner) + "-M";
    s.owner = owner;
    s.member = "M";
    s.insertion = InsertionClass::kManual;
    s.retention = RetentionClass::kOptional;
    s.ordering = SetOrdering::kChronological;
    ASSERT_TRUE(schema.AddSet(s).ok());
  }
  Database db = *Database::Create(schema);
  auto store = [&](const char* type, const char* n) {
    return *db.StoreRecord({type, {{"N", Value::String(n)}}, {}});
  };
  RecordId p = store("P", "P");
  RecordId q = store("Q", "Q");
  RecordId m1 = store("M", "M1");
  RecordId m2 = store("M", "M2");
  (void)store("M", "M3");
  ASSERT_TRUE(db.Connect("P-M", m2, p).ok());
  ASSERT_TRUE(db.Connect("P-M", m1, p).ok());
  ASSERT_TRUE(db.Connect("Q-M", m1, q).ok());
  ASSERT_TRUE(db.Connect("Q-M", m2, q).ok());
  std::string dump = *DumpDatabaseText(db);
  size_t m3 = dump.find("'M3'");
  size_t m1_at = dump.find("'M1'");
  size_t m2_at = dump.find("'M2'");
  ASSERT_NE(m3, std::string::npos);
  EXPECT_LT(m3, m1_at);
  EXPECT_LT(m1_at, m2_at);
  Result<Database> loaded = LoadDatabaseText(schema, dump);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->RecordCount(), db.RecordCount());
}

TEST(TextIoTest, CyclicOwnerMemberGraphFailsInsteadOfDroppingRecords) {
  Schema schema("CYCLIC");
  RecordTypeDef a;
  a.name = "A";
  a.fields.push_back({.name = "AN", .type = FieldType::kString});
  RecordTypeDef b;
  b.name = "B";
  b.fields.push_back({.name = "BN", .type = FieldType::kString});
  ASSERT_TRUE(schema.AddRecordType(a).ok());
  ASSERT_TRUE(schema.AddRecordType(b).ok());
  SetDef ab;
  ab.name = "A-B";
  ab.owner = "A";
  ab.member = "B";
  ab.insertion = InsertionClass::kManual;
  ab.retention = RetentionClass::kOptional;
  ab.ordering = SetOrdering::kChronological;
  SetDef ba;
  ba.name = "B-A";
  ba.owner = "B";
  ba.member = "A";
  ba.insertion = InsertionClass::kManual;
  ba.retention = RetentionClass::kOptional;
  ba.ordering = SetOrdering::kChronological;
  ASSERT_TRUE(schema.AddSet(ab).ok());
  ASSERT_TRUE(schema.AddSet(ba).ok());
  Database db = *Database::Create(schema);
  (void)*db.StoreRecord({"A", {{"AN", Value::String("X")}}, {}});
  // The dump used to succeed with an empty body, silently losing the data.
  Result<std::string> dump = DumpDatabaseText(db);
  ASSERT_FALSE(dump.ok());
  EXPECT_EQ(dump.status().code(), StatusCode::kUnsupported);
}

TEST(TextIoTest, LoadEnforcesConstraints) {
  Database db = MakeSchoolDatabase();
  std::string dump = *DumpDatabaseText(db);
  // Tighten the schema before reloading: only one offering ever.
  Schema strict = db.schema();
  ConstraintDef once;
  once.name = "ONCE";
  once.kind = ConstraintKind::kCardinalityLimit;
  once.set_name = "CRS-OFF";
  once.limit = 1;
  ASSERT_TRUE(strict.AddConstraint(once).ok());
  Result<Database> loaded = LoadDatabaseText(strict, dump);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kConstraintViolation);
}

TEST(TextIoTest, ForwardReferenceRejected) {
  Database db = MakeCompanyDatabase();
  std::string dump =
      "DATABASE COMPANY.\n"
      "RECORD EMP 1 (EMP-NAME = 'X') IN DIV-EMP 2.\n"
      "RECORD DIV 2 (DIV-NAME = 'M').\n"
      "END DATABASE.\n";
  Result<Database> loaded = LoadDatabaseText(db.schema(), dump);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(TextIoTest, MalformedDumpRejected) {
  Database db = MakeCompanyDatabase();
  EXPECT_FALSE(LoadDatabaseText(db.schema(), "NOT A DUMP").ok());
  EXPECT_FALSE(
      LoadDatabaseText(db.schema(), "DATABASE X.\nRECORD DIV 1 (").ok());
  EXPECT_FALSE(LoadDatabaseText(db.schema(),
                                "DATABASE X.\nRECORD DIV 1 ().\n")
                   .ok());  // missing END DATABASE
}

TEST(TextIoTest, NegativeAndNullValues) {
  Schema schema("T");
  RecordTypeDef r;
  r.name = "R";
  r.fields.push_back({.name = "N", .type = FieldType::kInt});
  r.fields.push_back({.name = "S", .type = FieldType::kString});
  ASSERT_TRUE(schema.AddRecordType(r).ok());
  Database db = *Database::Create(schema);
  (void)*db.StoreRecord({"R", {{"N", Value::Int(-5)}}, {}});
  std::string dump = *DumpDatabaseText(db);
  Result<Database> loaded = LoadDatabaseText(schema, dump);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  RecordId id = loaded->AllOfType("R")[0];
  EXPECT_EQ(loaded->GetField(id, "N")->as_int(), -5);
  EXPECT_TRUE(loaded->GetField(id, "S")->is_null());
}

}  // namespace
}  // namespace dbpc
