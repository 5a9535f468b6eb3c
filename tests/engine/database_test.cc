#include "engine/database.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/textio.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::MakeCompanyDatabase;
using testing::MakeDatabase;
using testing::MakeSchoolDatabase;

TEST(DatabaseTest, StoreAndReadBack) {
  Database db = MakeDatabase(testing::CompanyDdl());
  Result<RecordId> div = db.StoreRecord(
      {"DIV",
       {{"DIV-NAME", Value::String("M")}, {"DIV-LOC", Value::String("E")}},
       {}});
  ASSERT_TRUE(div.ok()) << div.status();
  Result<Value> name = db.GetField(*div, "DIV-NAME");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->as_string(), "M");
}

TEST(DatabaseTest, UnknownFieldRejected) {
  Database db = MakeDatabase(testing::CompanyDdl());
  Result<RecordId> r = db.StoreRecord(
      {"DIV", {{"NO-SUCH", Value::String("X")}}, {}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, StoringVirtualFieldRejected) {
  Database db = MakeCompanyDatabase();
  RecordId div = db.AllOfType("DIV")[0];
  Result<RecordId> r = db.StoreRecord(
      {"EMP",
       {{"EMP-NAME", Value::String("X")}, {"DIV-NAME", Value::String("M")}},
       {{"DIV-EMP", div}}});
  EXPECT_FALSE(r.ok());
}

TEST(DatabaseTest, FieldTypeCoercedOnStore) {
  Database db = MakeCompanyDatabase();
  RecordId div = db.AllOfType("DIV")[0];
  // AGE is PIC 9; a digit string coerces.
  Result<RecordId> id = db.StoreRecord({"EMP",
                                        {{"EMP-NAME", Value::String("X")},
                                         {"AGE", Value::String("27")}},
                                        {{"DIV-EMP", div}}});
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(db.GetField(*id, "AGE")->as_int(), 27);
}

TEST(DatabaseTest, AutomaticSetRequiresOwner) {
  Database db = MakeDatabase(testing::CompanyDdl());
  Result<RecordId> r =
      db.StoreRecord({"EMP", {{"EMP-NAME", Value::String("X")}}, {}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, SystemSetMembershipIsImplicit) {
  Database db = MakeCompanyDatabase();
  EXPECT_EQ(db.SystemMembers("ALL-DIV").size(), 2u);
}

TEST(DatabaseTest, SortedSetOrdersMembersByKey) {
  Database db = MakeCompanyDatabase();
  // ALL-DIV sorted by DIV-NAME: MACHINERY < TEXTILES.
  std::vector<RecordId> divs = db.SystemMembers("ALL-DIV");
  ASSERT_EQ(divs.size(), 2u);
  EXPECT_EQ(db.GetField(divs[0], "DIV-NAME")->as_string(), "MACHINERY");
  EXPECT_EQ(db.GetField(divs[1], "DIV-NAME")->as_string(), "TEXTILES");
  // DIV-EMP sorted by EMP-NAME within MACHINERY: ADAMS, BAKER, CLARK.
  std::vector<RecordId> emps = db.Members("DIV-EMP", divs[0]);
  ASSERT_EQ(emps.size(), 3u);
  EXPECT_EQ(db.GetField(emps[0], "EMP-NAME")->as_string(), "ADAMS");
  EXPECT_EQ(db.GetField(emps[2], "EMP-NAME")->as_string(), "CLARK");
}

TEST(DatabaseTest, DuplicateSetKeyWithinOccurrenceRejected) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  Result<RecordId> dup = db.StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String("ADAMS")}}, {{"DIV-EMP", machinery}}});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);
  // The same key in a *different* occurrence is fine.
  RecordId textiles = db.SystemMembers("ALL-DIV")[1];
  EXPECT_TRUE(db.StoreRecord({"EMP",
                              {{"EMP-NAME", Value::String("ADAMS")}},
                              {{"DIV-EMP", textiles}}})
                  .ok());
}

TEST(DatabaseTest, VirtualFieldResolvesThroughSet) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId adams = db.Members("DIV-EMP", machinery)[0];
  Result<Value> div_name = db.GetField(adams, "DIV-NAME");
  ASSERT_TRUE(div_name.ok());
  EXPECT_EQ(div_name->as_string(), "MACHINERY");
}

TEST(DatabaseTest, ChainedVirtualFieldResolves) {
  Database db = MakeDatabase(testing::CompanyRevisedDdl());
  RecordId div = *db.StoreRecord(
      {"DIV", {{"DIV-NAME", Value::String("MACHINERY")}}, {}});
  RecordId dept = *db.StoreRecord(
      {"DEPT", {{"DEPT-NAME", Value::String("SALES")}}, {{"DIV-DEPT", div}}});
  RecordId emp = *db.StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String("ADAMS")}}, {{"DEPT-EMP", dept}}});
  EXPECT_EQ(db.GetField(emp, "DEPT-NAME")->as_string(), "SALES");
  EXPECT_EQ(db.GetField(emp, "DIV-NAME")->as_string(), "MACHINERY");
}

TEST(DatabaseTest, VirtualFieldNullWhenUnconnected) {
  Database db = MakeDatabase(testing::CompanyDdl());
  // Make DIV-EMP manual so an EMP can exist unconnected.
  Schema schema = db.schema();
  schema.FindSet("DIV-EMP")->insertion = InsertionClass::kManual;
  schema.FindSet("DIV-EMP")->retention = RetentionClass::kOptional;
  Database db2 = *Database::Create(schema);
  RecordId emp =
      *db2.StoreRecord({"EMP", {{"EMP-NAME", Value::String("X")}}, {}});
  EXPECT_TRUE(db2.GetField(emp, "DIV-NAME")->is_null());
}

TEST(DatabaseTest, EraseOwnerWithMandatoryMembersBlocked) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  Status s = db.EraseRecord(machinery);
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, EraseCascadesToCharacterizingMembers) {
  Database db = MakeSchoolDatabase();
  std::vector<RecordId> courses = db.SystemMembers("ALL-COURSE");
  RecordId cs101 = courses[0];
  size_t before = db.AllOfType("OFFERING").size();
  ASSERT_EQ(before, 3u);
  ASSERT_TRUE(db.EraseRecord(cs101).ok());
  EXPECT_EQ(db.AllOfType("OFFERING").size(), 1u);  // CS101 had two offerings
  EXPECT_EQ(db.AllOfType("COURSE").size(), 1u);
}

TEST(DatabaseTest, EraseDisconnectsOptionalMembers) {
  Schema schema = MakeDatabase(testing::CompanyDdl()).schema();
  schema.FindSet("DIV-EMP")->retention = RetentionClass::kOptional;
  Database db = *Database::Create(schema);
  RecordId div =
      *db.StoreRecord({"DIV", {{"DIV-NAME", Value::String("M")}}, {}});
  RecordId emp = *db.StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String("X")}}, {{"DIV-EMP", div}}});
  ASSERT_TRUE(db.EraseRecord(div).ok());
  EXPECT_TRUE(db.Exists(emp));
  EXPECT_EQ(db.OwnerOf("DIV-EMP", emp), 0u);
}

/// O owns a characterizing set O-A declared before a MANDATORY set O-B;
/// each A may own MANDATORY C members in A-C.
const char* kEraseCascadeDdl = R"(
SCHEMA NAME IS CASCADE
RECORD SECTION.
  RECORD NAME IS O.
  FIELDS ARE.
    O-NAME PIC X(8).
  END RECORD.
  RECORD NAME IS A.
  FIELDS ARE.
    A-NAME PIC X(8).
  END RECORD.
  RECORD NAME IS B.
  FIELDS ARE.
    B-NAME PIC X(8).
  END RECORD.
  RECORD NAME IS C.
  FIELDS ARE.
    C-NAME PIC X(8).
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS ALL-O.
  OWNER IS SYSTEM.
  MEMBER IS O.
  SET KEYS ARE (O-NAME).
  END SET.
  SET NAME IS O-A.
  OWNER IS O.
  MEMBER IS A.
  SET KEYS ARE (A-NAME).
  MEMBER IS CHARACTERIZING.
  END SET.
  SET NAME IS O-B.
  OWNER IS O.
  MEMBER IS B.
  SET KEYS ARE (B-NAME).
  END SET.
  SET NAME IS A-C.
  OWNER IS A.
  MEMBER IS C.
  SET KEYS ARE (C-NAME).
  END SET.
END SET SECTION.
CONSTRAINT SECTION.
  CONSTRAINT UNIQ-A-NAME IS UNIQUE ON A (A-NAME).
END CONSTRAINT SECTION.
END SCHEMA.
)";

TEST(DatabaseTest, RefusedEraseLeavesTheCascadeUntouched) {
  // Two refusals: O-B, reached after O-A's cascade, and A-C, reached deep
  // in the cascade after a sibling A was already erasable. Neither may
  // leave a record, link, index entry or directory entry changed.
  for (bool refuse_deep : {false, true}) {
    SCOPED_TRACE(refuse_deep ? "refused in A-C" : "refused in O-B");
    Database db = MakeDatabase(kEraseCascadeDdl);
    RecordId o = *db.StoreRecord({"O", {{"O-NAME", Value::String("O")}}, {}});
    RecordId a1 = *db.StoreRecord(
        {"A", {{"A-NAME", Value::String("A1")}}, {{"O-A", o}}});
    RecordId a2 = *db.StoreRecord(
        {"A", {{"A-NAME", Value::String("A2")}}, {{"O-A", o}}});
    if (refuse_deep) {
      ASSERT_TRUE(db.StoreRecord({"C",
                                  {{"C-NAME", Value::String("C")}},
                                  {{"A-C", a2}}})
                      .ok());
    } else {
      ASSERT_TRUE(db.StoreRecord({"B",
                                  {{"B-NAME", Value::String("B")}},
                                  {{"O-B", o}}})
                      .ok());
    }
    const std::string before = *DumpDatabaseText(db);
    db.ResetStats();
    Status s = db.EraseRecord(o);
    EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
    EXPECT_EQ(s.message(),
              refuse_deep ? "record owns MANDATORY members in set A-C"
                          : "record owns MANDATORY members in set O-B");
    // The walk that decides the refusal charges nothing.
    EXPECT_EQ(db.stats().Total(), 0u);
    EXPECT_EQ(*DumpDatabaseText(db), before);
    EXPECT_EQ(db.AllOfType("A"), (std::vector<RecordId>{a1, a2}));
    EXPECT_EQ(db.Members("O-A", o), (std::vector<RecordId>{a1, a2}));
    // The uniqueness index still holds A1: a second A1, under another O so
    // that no set key collides, is refused.
    RecordId o2 =
        *db.StoreRecord({"O", {{"O-NAME", Value::String("O2")}}, {}});
    EXPECT_FALSE(db.StoreRecord({"A",
                                 {{"A-NAME", Value::String("A1")}},
                                 {{"O-A", o2}}})
                     .ok());
  }
}

TEST(DatabaseTest, EraseWalkCountsMembersAnEarlierCascadeErased) {
  // X is characterized by M1 and a MANDATORY member of M2. Erasing O
  // cascades through O-M1 first, which erases X and so empties M2-X before
  // O-M2's cascade reaches M2: the erase succeeds, and the walk that
  // decides refusals up front must agree.
  Database db = MakeDatabase(R"(
SCHEMA NAME IS SIBLINGS
RECORD SECTION.
  RECORD NAME IS O.
  FIELDS ARE.
    N PIC X(4).
  END RECORD.
  RECORD NAME IS M1.
  FIELDS ARE.
    N PIC X(4).
  END RECORD.
  RECORD NAME IS M2.
  FIELDS ARE.
    N PIC X(4).
  END RECORD.
  RECORD NAME IS X.
  FIELDS ARE.
    N PIC X(4).
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS O-M1.
  OWNER IS O.
  MEMBER IS M1.
  MEMBER IS CHARACTERIZING.
  END SET.
  SET NAME IS O-M2.
  OWNER IS O.
  MEMBER IS M2.
  MEMBER IS CHARACTERIZING.
  END SET.
  SET NAME IS M1-X.
  OWNER IS M1.
  MEMBER IS X.
  MEMBER IS CHARACTERIZING.
  END SET.
  SET NAME IS M2-X.
  OWNER IS M2.
  MEMBER IS X.
  END SET.
END SET SECTION.
END SCHEMA.
)");
  auto store = [&db](const char* type, std::map<std::string, RecordId> sets) {
    Result<RecordId> id = db.StoreRecord({type, {}, std::move(sets)});
    EXPECT_TRUE(id.ok()) << type << ": " << id.status();
    return id.ok() ? *id : 0;
  };
  RecordId o = store("O", {});
  RecordId m1 = store("M1", {{"O-M1", o}});
  RecordId m2 = store("M2", {{"O-M2", o}});
  RecordId x = store("X", {{"M1-X", m1}, {"M2-X", m2}});
  // M2 alone is refused: X is still its MANDATORY member.
  EXPECT_EQ(db.EraseRecord(m2).code(), StatusCode::kConstraintViolation);
  ASSERT_TRUE(db.EraseRecord(o).ok());
  for (RecordId id : {o, m1, m2, x}) EXPECT_FALSE(db.Exists(id)) << id;
}

TEST(DatabaseTest, ModifyUpdatesFieldAndResorts) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  std::vector<RecordId> emps = db.Members("DIV-EMP", machinery);
  RecordId adams = emps[0];
  // Rename ADAMS to ZEBRA: must move to the end of the sorted occurrence.
  ASSERT_TRUE(
      db.ModifyRecord(adams, {{"EMP-NAME", Value::String("ZEBRA")}}).ok());
  std::vector<RecordId> after = db.Members("DIV-EMP", machinery);
  EXPECT_EQ(after.back(), adams);
}

TEST(DatabaseTest, ModifyToDuplicateSetKeyRejected) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  std::vector<RecordId> emps = db.Members("DIV-EMP", machinery);
  ASSERT_EQ(emps.size(), 3u);  // ADAMS, BAKER, CLARK
  RecordId adams = emps[0];
  Status s = db.ModifyRecord(
      adams, {{"EMP-NAME", Value::String("BAKER")}, {"AGE", Value::Int(99)}});
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(s.message(), "duplicate set key in occurrence of DIV-EMP");
  // The rejected MODIFY leaves the database unchanged: field values, the
  // sorted member order, and the set-key index.
  EXPECT_EQ(db.GetField(adams, "EMP-NAME")->as_string(), "ADAMS");
  EXPECT_EQ(db.GetField(adams, "AGE")->as_int(), 34);
  EXPECT_EQ(db.Members("DIV-EMP", machinery), emps);
  EXPECT_EQ(db.ProbeIndex("EMP", "EMP-NAME", Value::String("ADAMS")),
            std::make_optional(std::vector<RecordId>{adams}));
  EXPECT_EQ(db.ProbeIndex("EMP", "EMP-NAME", Value::String("BAKER")),
            std::make_optional(std::vector<RecordId>{emps[1]}));
  // The record is still modifiable afterwards.
  ASSERT_TRUE(
      db.ModifyRecord(adams, {{"EMP-NAME", Value::String("BROWN")}}).ok());
  EXPECT_EQ(db.Members("DIV-EMP", machinery),
            (std::vector<RecordId>{emps[1], adams, emps[2]}));
}

// --- sorted placement cost: the linear scan, pinned -----------------------
//
// Placing a member in a key-sorted occurrence compares it with existing
// members in order until one sorts after it; each comparison charges one
// members_scanned and two records_read. These counts are part of the
// engine's observable OpStats and must not drift with the placement code.

OpStats StoreEmp(Database* db, RecordId div, const char* name, bool ok) {
  db->ResetStats();
  Result<RecordId> id = db->StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String(name)}}, {{"DIV-EMP", div}}});
  EXPECT_EQ(id.ok(), ok) << name << ": " << id.status();
  return db->stats();
}

TEST(DatabaseTest, SortedPlacementChargesTheLinearScan) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  // MACHINERY's DIV-EMP occurrence: ADAMS, BAKER, CLARK.
  struct Case {
    const char* name;
    bool ok;
    uint64_t compared;  // members the scan compares before it stops
  };
  for (const Case& c : {Case{"AARON", true, 1},   // stops at ADAMS
                        Case{"BROWN", true, 4},   // stops at CLARK
                        Case{"ZEBRA", true, 5},   // whole occurrence
                        Case{"BAKER", false, 3},  // duplicate at BAKER
                        Case{"ABLE", true, 2}}) {  // stops at ADAMS
    SCOPED_TRACE(c.name);
    OpStats stats = StoreEmp(&db, machinery, c.name, c.ok);
    EXPECT_EQ(stats.members_scanned, c.compared);
    EXPECT_EQ(stats.records_read, 2 * c.compared);
  }
  // The occurrence is in key order after the successful stores.
  std::vector<std::string> names;
  for (RecordId m : db.Members("DIV-EMP", machinery)) {
    names.push_back(db.GetField(m, "EMP-NAME")->as_string());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"AARON", "ABLE", "ADAMS", "BAKER",
                                             "BROWN", "CLARK", "ZEBRA"}));
}

TEST(DatabaseTest, SortedPlacementScansOccurrenceOfKnownSize) {
  Database db = MakeDatabase(testing::CompanyDdl());
  RecordId div =
      *db.StoreRecord({"DIV", {{"DIV-NAME", Value::String("D")}}, {}});
  char name[16];
  // Stores in key order, as a copy makes them: each new member sorts after
  // every existing one, so the scan compares the whole occurrence.
  for (int e = 0; e < 64; ++e) {
    std::snprintf(name, sizeof(name), "E%02d", e);
    ASSERT_EQ(StoreEmp(&db, div, name, true).members_scanned,
              static_cast<uint64_t>(e));
  }
  OpStats last = StoreEmp(&db, div, "F00", true);
  EXPECT_EQ(last.members_scanned, 64u);
  EXPECT_EQ(last.records_read, 128u);
  EXPECT_EQ(last.records_written, 1u);
  EXPECT_EQ(last.links_changed, 1u);
  // A duplicate of the last key scans the whole occurrence before failing.
  OpStats dup = StoreEmp(&db, div, "F00", false);
  EXPECT_EQ(dup.members_scanned, 65u);
  EXPECT_EQ(dup.records_read, 130u);
  // Re-placing a member passes over its own entry: moving E00 to the end
  // compares it with the 64 others.
  RecordId e00 = db.Members("DIV-EMP", div)[0];
  db.ResetStats();
  ASSERT_TRUE(db.ModifyRecord(e00, {{"EMP-NAME", Value::String("G00")}}).ok());
  EXPECT_EQ(db.stats().members_scanned, 64u);
  EXPECT_EQ(db.stats().records_read, 128u);
  EXPECT_EQ(db.stats().links_changed, 2u);
  EXPECT_EQ(db.Members("DIV-EMP", div).back(), e00);
}

TEST(DatabaseTest, CardinalityLimitEnforced) {
  Database db = MakeSchoolDatabase();
  RecordId cs101 = db.SystemMembers("ALL-COURSE")[0];
  RecordId s79 = db.SystemMembers("ALL-SEM")[1];
  // CS101 already offered once in 1979; a second 1979 offering is fine...
  Result<RecordId> second = db.StoreRecord(
      {"OFFERING",
       {{"SECTION-NO", Value::Int(2)}, {"YEAR", Value::Int(1979)}},
       {{"CRS-OFF", cs101}, {"SEM-OFF", s79}}});
  ASSERT_TRUE(second.ok()) << second.status();
  // ...but a third violates the twice-per-year rule.
  Result<RecordId> third = db.StoreRecord(
      {"OFFERING",
       {{"SECTION-NO", Value::Int(3)}, {"YEAR", Value::Int(1979)}},
       {{"CRS-OFF", cs101}, {"SEM-OFF", s79}}});
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kConstraintViolation);
  // A different year is unaffected.
  RecordId f78 = db.SystemMembers("ALL-SEM")[0];
  EXPECT_TRUE(db.StoreRecord({"OFFERING",
                              {{"SECTION-NO", Value::Int(9)},
                               {"YEAR", Value::Int(1980)}},
                              {{"CRS-OFF", cs101}, {"SEM-OFF", f78}}})
                  .ok());
}

TEST(DatabaseTest, UniquenessConstraintEnforced) {
  Database db = MakeSchoolDatabase();
  Result<RecordId> dup = db.StoreRecord(
      {"COURSE",
       {{"CNO", Value::String("CS101")}, {"CNAME", Value::String("AGAIN")}},
       {}});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, UniquenessReleasedOnErase) {
  Database db = MakeSchoolDatabase();
  RecordId cs101 = db.SystemMembers("ALL-COURSE")[0];
  ASSERT_TRUE(db.EraseRecord(cs101).ok());
  EXPECT_TRUE(db.StoreRecord({"COURSE",
                              {{"CNO", Value::String("CS101")},
                               {"CNAME", Value::String("REBORN")}},
                              {}})
                  .ok());
}

TEST(DatabaseTest, UniquenessFollowsModify) {
  Database db = MakeSchoolDatabase();
  std::vector<RecordId> courses = db.SystemMembers("ALL-COURSE");
  // Renaming CS202 to CS101 collides.
  Status s = db.ModifyRecord(courses[1], {{"CNO", Value::String("CS101")}});
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  // Renaming to a fresh key then reusing the old key is fine.
  ASSERT_TRUE(
      db.ModifyRecord(courses[1], {{"CNO", Value::String("CS303")}}).ok());
  EXPECT_TRUE(db.StoreRecord({"COURSE", {{"CNO", Value::String("CS202")}}, {}})
                  .ok());
}

TEST(DatabaseTest, ConnectDisconnectManualOptionalSet) {
  Schema schema = MakeDatabase(testing::CompanyDdl()).schema();
  schema.FindSet("DIV-EMP")->insertion = InsertionClass::kManual;
  schema.FindSet("DIV-EMP")->retention = RetentionClass::kOptional;
  Database db = *Database::Create(schema);
  RecordId div =
      *db.StoreRecord({"DIV", {{"DIV-NAME", Value::String("M")}}, {}});
  RecordId emp =
      *db.StoreRecord({"EMP", {{"EMP-NAME", Value::String("X")}}, {}});
  EXPECT_EQ(db.OwnerOf("DIV-EMP", emp), 0u);
  ASSERT_TRUE(db.Connect("DIV-EMP", emp, div).ok());
  EXPECT_EQ(db.OwnerOf("DIV-EMP", emp), div);
  // Connecting twice is a violation.
  EXPECT_FALSE(db.Connect("DIV-EMP", emp, div).ok());
  ASSERT_TRUE(db.Disconnect("DIV-EMP", emp).ok());
  EXPECT_EQ(db.OwnerOf("DIV-EMP", emp), 0u);
}

TEST(DatabaseTest, DisconnectMandatoryRejected) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId adams = db.Members("DIV-EMP", machinery)[0];
  Status s = db.Disconnect("DIV-EMP", adams);
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
}

TEST(DatabaseTest, OwnerOfReportsConnection) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId adams = db.Members("DIV-EMP", machinery)[0];
  EXPECT_EQ(db.OwnerOf("DIV-EMP", adams), machinery);
}

TEST(DatabaseTest, SelectWhereFiltersByPredicate) {
  Database db = MakeCompanyDatabase();
  Predicate over30 = Predicate::Compare("AGE", CompareOp::kGt,
                                        Operand::Literal(Value::Int(30)));
  Result<std::vector<RecordId>> r =
      db.SelectWhere("EMP", over30, EmptyHostEnv());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);  // ADAMS 34, CLARK 45, DAVIS 31
}

TEST(DatabaseTest, StatsCountOperations) {
  Database db = MakeCompanyDatabase();
  db.ResetStats();
  (void)db.GetField(db.AllOfType("EMP")[0], "EMP-NAME");
  EXPECT_GT(db.stats().records_read, 0u);
}

TEST(DatabaseTest, GetAllFieldsIncludesVirtual) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId adams = db.Members("DIV-EMP", machinery)[0];
  Result<FieldMap> all = db.GetAllFields(adams);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->at("DIV-NAME").as_string(), "MACHINERY");
  EXPECT_EQ(all->at("EMP-NAME").as_string(), "ADAMS");
  EXPECT_EQ(all->size(), 4u);
}

// A record whose stored type the schema lacks, as a raw store load can
// leave one: reads and MODIFY name the type instead of dereferencing null.
TEST(DatabaseTest, GetFieldOfUnknownRecordTypeIsNotFound) {
  Database db = MakeDatabase(testing::CompanyDdl());
  RecordId id = db.mutable_store().Insert("GHOST", {{"X", Value::Int(1)}});
  Result<Value> v = db.GetField(id, "X");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.status().message(), "record type GHOST");
}

TEST(DatabaseTest, GetAllFieldsOfUnknownRecordTypeIsNotFound) {
  Database db = MakeDatabase(testing::CompanyDdl());
  RecordId id = db.mutable_store().Insert("GHOST", {{"X", Value::Int(1)}});
  Result<FieldMap> all = db.GetAllFields(id);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(all.status().message(), "record type GHOST");
}

TEST(DatabaseTest, ModifyOfUnknownRecordTypeIsNotFound) {
  Database db = MakeDatabase(testing::CompanyDdl());
  RecordId id = db.mutable_store().Insert("GHOST", {{"X", Value::Int(1)}});
  Status s = db.ModifyRecord(id, {{"X", Value::Int(2)}});
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "record type GHOST");
  EXPECT_EQ(db.raw_store().Get(id)->fields.at("X").as_int(), 1);
}

// --- the schema binding: Create resolves every name once ---

/// Figure 4.4's shape: DIV MACHINERY owns DEPT SALES, which owns EMPs ADAMS
/// and BAKER; EMP.DIV-NAME is virtual two sets away.
Database MakeRevisedCompany() {
  Database db = MakeDatabase(testing::CompanyRevisedDdl());
  RecordId div = *db.StoreRecord({"DIV",
                                  {{"DIV-NAME", Value::String("MACHINERY")},
                                   {"DIV-LOC", Value::String("EAST")}},
                                  {}});
  RecordId dept = *db.StoreRecord(
      {"DEPT", {{"DEPT-NAME", Value::String("SALES")}}, {{"DIV-DEPT", div}}});
  for (const char* name : {"ADAMS", "BAKER"}) {
    EXPECT_TRUE(db.StoreRecord({"EMP",
                                {{"EMP-NAME", Value::String(name)},
                                 {"AGE", Value::Int(30)}},
                                {{"DEPT-EMP", dept}}})
                    .ok());
  }
  return db;
}

TEST(DatabaseBindingTest, FieldNamesReadInAnyCase) {
  Database db = MakeCompanyDatabase();
  RecordId adams = db.Members("DIV-EMP", db.SystemMembers("ALL-DIV")[0])[0];
  for (const char* spelling : {"EMP-NAME", "emp-name", "Emp-Name"}) {
    Result<Value> v = db.GetField(adams, spelling);
    ASSERT_TRUE(v.ok()) << spelling << ": " << v.status();
    EXPECT_EQ(v->as_string(), "ADAMS") << spelling;
  }
  for (const char* spelling : {"DIV-NAME", "div-name", "Div-Name"}) {
    Result<Value> v = db.GetField(adams, spelling);
    ASSERT_TRUE(v.ok()) << spelling << ": " << v.status();
    EXPECT_EQ(v->as_string(), "MACHINERY") << spelling;
  }
}

TEST(DatabaseBindingTest, UnknownFieldKeepsItsErrorText) {
  Database db = MakeCompanyDatabase();
  RecordId emp = db.AllOfType("EMP")[0];
  Result<Value> v = db.GetField(emp, "No-Such");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.status().message(), "field EMP.No-Such");
}

TEST(DatabaseBindingTest, ChainedVirtualFieldReadsOneRecordPerLevel) {
  Database db = MakeRevisedCompany();
  RecordId adams = db.AllOfType("EMP")[0];
  db.ResetStats();
  Result<Value> v = db.GetField(adams, "div-name");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->as_string(), "MACHINERY");
  // EMP, then its DEPT-EMP owner, then that DEPT's DIV-DEPT owner.
  EXPECT_EQ(db.stats().records_read, 3u);
}

TEST(DatabaseBindingTest, UnconnectedMemberReadsNull) {
  Schema schema = MakeDatabase(testing::CompanyRevisedDdl()).schema();
  for (const char* set : {"DIV-DEPT", "DEPT-EMP"}) {
    schema.FindSet(set)->insertion = InsertionClass::kManual;
    schema.FindSet(set)->retention = RetentionClass::kOptional;
  }
  Database db = *Database::Create(schema);
  RecordId dept =
      *db.StoreRecord({"DEPT", {{"DEPT-NAME", Value::String("SALES")}}, {}});
  RecordId emp =
      *db.StoreRecord({"EMP", {{"EMP-NAME", Value::String("X")}}, {}});
  EXPECT_TRUE(db.GetField(emp, "DEPT-NAME")->is_null());
  EXPECT_TRUE(db.GetField(emp, "div-name")->is_null());
  // Connected to a DEPT that no DIV owns: the chain breaks one level up.
  ASSERT_TRUE(db.Connect("DEPT-EMP", emp, dept).ok());
  EXPECT_EQ(db.GetField(emp, "DEPT-NAME")->as_string(), "SALES");
  EXPECT_TRUE(db.GetField(emp, "DIV-NAME")->is_null());
}

/// Every field of every record of `db`, read one by one.
std::map<RecordId, FieldMap> ReadEveryField(const Database& db) {
  std::map<RecordId, FieldMap> out;
  for (RecordId id : db.raw_store().AllRecords()) {
    Result<std::string> type = db.TypeOf(id);
    EXPECT_TRUE(type.ok()) << type.status();
    for (const FieldDef& f : db.schema().FindRecordType(*type)->fields) {
      Result<Value> v = db.GetField(id, f.name);
      EXPECT_TRUE(v.ok()) << id << "." << f.name << ": " << v.status();
      if (v.ok()) out[id][f.name] = *v;
    }
  }
  return out;
}

TEST(DatabaseBindingTest, CopiesAndMovesReadAfterTheOriginalIsGone) {
  auto original = std::make_unique<Database>(MakeRevisedCompany());
  const std::map<RecordId, FieldMap> expected = ReadEveryField(*original);
  ASSERT_EQ(expected.size(), 4u);
  Database copy = *original;
  original.reset();
  EXPECT_EQ(ReadEveryField(copy), expected);

  auto source = std::make_unique<Database>(MakeRevisedCompany());
  Database moved = std::move(*source);
  source.reset();
  EXPECT_EQ(ReadEveryField(moved), expected);
  RecordId adams = moved.AllOfType("EMP")[0];
  EXPECT_EQ(moved.GetField(adams, "DIV-NAME")->as_string(), "MACHINERY");
}

TEST(DatabaseBindingTest, LowerCaseStoredTypeStillReads) {
  Database db = MakeDatabase(testing::CompanyDdl());
  RecordId id = db.mutable_store().Insert(
      "emp", {{"EMP-NAME", Value::String("X")}, {"AGE", Value::Int(3)}});
  EXPECT_EQ(db.GetField(id, "AGE")->as_int(), 3);
  EXPECT_EQ(db.GetField(id, "emp-name")->as_string(), "X");
  EXPECT_TRUE(db.GetField(id, "DIV-NAME")->is_null());
  Result<FieldMap> all = db.GetAllFields(id);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->size(), 4u);
  EXPECT_EQ(db.GetField(id, "NO-SUCH").status().message(), "field emp.NO-SUCH");
}

}  // namespace
}  // namespace dbpc
