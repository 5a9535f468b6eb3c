#include "engine/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
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

// --- sorted placement by bisection, against a linear-scan reference -------
//
// Sets keyed by INT, by STRING and by (STRING, INT) place members by
// bisection. A model kept here places them by the linear scan that the
// bisection must reproduce, and predicts every OpStats counter of each
// operation. Random STORE, CONNECT, DISCONNECT, MODIFY of a key and ERASE
// steps, with nulls and duplicate keys, must leave the same positions,
// refusals, OpStats and member order.

const char* kPlacementDdl = R"(
SCHEMA NAME IS PLACEMENT
RECORD SECTION.
  RECORD NAME IS O.
  FIELDS ARE.
    O-NAME PIC X(4).
  END RECORD.
  RECORD NAME IS M.
  FIELDS ARE.
    S PIC X(4).
    I PIC 9(4).
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS BY-I.
  OWNER IS O.
  MEMBER IS M.
  SET KEYS ARE (I).
  INSERTION IS MANUAL.
  RETENTION IS OPTIONAL.
  END SET.
  SET NAME IS BY-S.
  OWNER IS O.
  MEMBER IS M.
  SET KEYS ARE (S).
  INSERTION IS MANUAL.
  RETENTION IS OPTIONAL.
  END SET.
  SET NAME IS BY-SI.
  OWNER IS O.
  MEMBER IS M.
  SET KEYS ARE (S, I).
  INSERTION IS MANUAL.
  RETENTION IS OPTIONAL.
  END SET.
END SET SECTION.
END SCHEMA.
)";

void ExpectSameStats(const OpStats& got, const OpStats& want) {
  EXPECT_EQ(got.records_read, want.records_read);
  EXPECT_EQ(got.records_written, want.records_written);
  EXPECT_EQ(got.records_erased, want.records_erased);
  EXPECT_EQ(got.members_scanned, want.members_scanned);
  EXPECT_EQ(got.links_changed, want.links_changed);
  EXPECT_EQ(got.index_probes, want.index_probes);
  EXPECT_EQ(got.index_hits, want.index_hits);
}

/// The reference: each live M's key fields, and each occurrence's members
/// in the order the linear scan places them.
class PlacementModel {
 public:
  static constexpr size_t kSets = 3;
  static const char* SetName(size_t set) {
    static const char* const kNames[kSets] = {"BY-I", "BY-S", "BY-SI"};
    return kNames[set];
  }

  struct Placement {
    bool duplicate = false;
    size_t pos = 0;
    uint64_t scanned = 0;  // members compared, as the scan charges them
  };

  /// Where `member` with `fields` lands in `owner`'s occurrence of `set`,
  /// passing over its own entry when `replace`.
  Placement Place(size_t set, RecordId owner, RecordId member,
                  const FieldMap& fields, bool replace) const {
    Placement out;
    auto occ = members_.find({set, owner});
    if (occ == members_.end()) return out;
    for (RecordId m : occ->second) {
      if (replace && m == member) continue;
      ++out.scanned;
      int cmp = Compare(set, rows_.at(m), fields);
      if (cmp == 0) {
        out.duplicate = true;
        return out;
      }
      if (cmp > 0) return out;
      ++out.pos;
    }
    return out;
  }

  static bool KeyChanged(size_t set, const FieldMap& before,
                         const FieldMap& after) {
    return Compare(set, before, after) != 0;
  }

  std::map<RecordId, FieldMap>& rows() { return rows_; }
  std::vector<RecordId>& Occurrence(size_t set, RecordId owner) {
    return members_[{set, owner}];
  }
  /// Owner of `member` in `set`, or 0.
  RecordId OwnerOf(size_t set, RecordId member) const {
    for (const auto& [key, members] : members_) {
      if (key.first != set) continue;
      for (RecordId m : members) {
        if (m == member) return key.second;
      }
    }
    return 0;
  }
  void Unlink(size_t set, RecordId member) {
    std::vector<RecordId>& members = Occurrence(set, OwnerOf(set, member));
    members.erase(std::find(members.begin(), members.end(), member));
  }

  void ExpectMatches(const Database& db,
                     const std::vector<RecordId>& owners) const {
    for (size_t set = 0; set < kSets; ++set) {
      for (RecordId owner : owners) {
        auto occ = members_.find({set, owner});
        EXPECT_EQ(db.raw_store().Members(SetName(set), owner),
                  occ == members_.end() ? std::vector<RecordId>()
                                        : occ->second)
            << SetName(set) << " of owner " << owner;
      }
    }
  }

 private:
  static int Compare(size_t set, const FieldMap& a, const FieldMap& b) {
    static const std::vector<std::string> kKeys[kSets] = {
        {"I"}, {"S"}, {"S", "I"}};
    for (const std::string& key : kKeys[set]) {
      int cmp = a.at(key).Compare(b.at(key));
      if (cmp != 0) return cmp;
    }
    return 0;
  }

  std::map<RecordId, FieldMap> rows_;
  std::map<std::pair<size_t, RecordId>, std::vector<RecordId>> members_;
};

std::string DuplicateIn(size_t set) {
  return std::string("duplicate set key in occurrence of ") +
         PlacementModel::SetName(set);
}

TEST(SortedPlacementTest, BisectionMatchesALinearScanReference) {
  Database db = MakeDatabase(kPlacementDdl);
  for (size_t set = 0; set < PlacementModel::kSets; ++set) {
    ASSERT_TRUE(SortedSetBisects(
        db.schema(), *db.schema().FindSet(PlacementModel::SetName(set))));
  }
  std::vector<RecordId> owners;
  for (const char* name : {"O1", "O2"}) {
    owners.push_back(
        *db.StoreRecord({"O", {{"O-NAME", Value::String(name)}}, {}}));
  }
  PlacementModel model;
  std::mt19937 rng(1979);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  // 12 strings and 240 ints, null included: BY-S fills up and refuses most
  // placements, while BY-I and BY-SI grow occurrences of a few hundred.
  auto random_s = [&] {
    size_t k = pick(13);
    return k == 0 ? Value() : Value::String("K" + std::to_string(100 + k));
  };
  auto random_i = [&] {
    size_t k = pick(241);
    return k == 0 ? Value() : Value::Int(static_cast<int64_t>(k) - 12);
  };
  auto random_live = [&] {
    auto it = model.rows().begin();
    std::advance(it, static_cast<long>(pick(model.rows().size())));
    return it->first;
  };
  size_t bisected_refusals = 0;
  for (int step = 0; step < 10000; ++step) {
    const size_t roll = pick(100);
    OpStats want;
    Status status;
    std::string expected_refusal;  // empty: expect success
    db.ResetStats();
    if (roll < 50 || model.rows().empty()) {
      // STORE into a random subset of the sets.
      FieldMap fields = {{"S", random_s()}, {"I", random_i()}};
      std::map<std::string, RecordId> connect;
      std::vector<std::pair<size_t, RecordId>> links;
      for (size_t set = 0; set < PlacementModel::kSets; ++set) {
        if (pick(3) == 0) continue;
        RecordId owner = owners[pick(owners.size())];
        connect[PlacementModel::SetName(set)] = owner;
        links.emplace_back(set, owner);
      }
      want.records_written = 1;
      std::vector<size_t> positions;
      for (const auto& [set, owner] : links) {
        PlacementModel::Placement p =
            model.Place(set, owner, 0, fields, /*replace=*/false);
        want.members_scanned += p.scanned;
        if (p.duplicate) {
          expected_refusal = DuplicateIn(set);
          break;
        }
        ++want.links_changed;
        positions.push_back(p.pos);
      }
      Result<RecordId> id = db.StoreRecord({"M", fields, connect});
      status = id.status();
      if (id.ok() && expected_refusal.empty()) {
        model.rows()[*id] = fields;
        for (size_t l = 0; l < links.size(); ++l) {
          std::vector<RecordId>& occ =
              model.Occurrence(links[l].first, links[l].second);
          occ.insert(occ.begin() + static_cast<long>(positions[l]), *id);
        }
      }
    } else if (roll < 62) {
      // CONNECT, members included: a member of the same occurrence meets
      // its own key and is refused as a duplicate; of another one, the
      // link itself is refused.
      RecordId m = random_live();
      size_t set = pick(PlacementModel::kSets);
      RecordId owner = owners[pick(owners.size())];
      PlacementModel::Placement p =
          model.Place(set, owner, m, model.rows()[m], /*replace=*/false);
      want.members_scanned = p.scanned;
      status = db.Connect(PlacementModel::SetName(set), m, owner);
      if (p.duplicate) {
        expected_refusal = DuplicateIn(set);
      } else if (model.OwnerOf(set, m) != 0) {
        EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
        status = Status::OK();
      } else {
        want.links_changed = 1;
        std::vector<RecordId>& occ = model.Occurrence(set, owner);
        occ.insert(occ.begin() + static_cast<long>(p.pos), m);
      }
    } else if (roll < 70) {
      // DISCONNECT.
      RecordId m = random_live();
      size_t set = pick(PlacementModel::kSets);
      status = db.Disconnect(PlacementModel::SetName(set), m);
      if (model.OwnerOf(set, m) == 0) {
        EXPECT_EQ(status.code(), StatusCode::kNotFound);
        status = Status::OK();
      } else {
        want.links_changed = 1;
        model.Unlink(set, m);
      }
    } else if (roll < 95) {
      // MODIFY one key field or both.
      RecordId m = random_live();
      FieldMap updates;
      const size_t which = pick(3);
      if (which != 1) updates["S"] = random_s();
      if (which != 0) updates["I"] = random_i();
      FieldMap next = model.rows()[m];
      for (const auto& [name, value] : updates) next[name] = value;
      std::vector<std::pair<size_t, size_t>> moves;  // (set, position)
      for (size_t set = 0; set < PlacementModel::kSets; ++set) {
        RecordId owner = model.OwnerOf(set, m);
        if (owner == 0 ||
            !PlacementModel::KeyChanged(set, model.rows()[m], next)) {
          continue;
        }
        PlacementModel::Placement p =
            model.Place(set, owner, m, next, /*replace=*/true);
        want.members_scanned += p.scanned;
        if (p.duplicate) {
          expected_refusal = DuplicateIn(set);
          break;
        }
        moves.emplace_back(set, p.pos);
      }
      status = db.ModifyRecord(m, updates);
      if (expected_refusal.empty()) {
        want.records_written = 1;
        for (const auto& [set, pos] : moves) {
          RecordId owner = model.OwnerOf(set, m);
          model.Unlink(set, m);
          std::vector<RecordId>& occ = model.Occurrence(set, owner);
          occ.insert(occ.begin() + static_cast<long>(pos), m);
          want.links_changed += 2;
        }
        model.rows()[m] = next;
      }
    } else {
      // ERASE.
      RecordId m = random_live();
      for (size_t set = 0; set < PlacementModel::kSets; ++set) {
        if (model.OwnerOf(set, m) == 0) continue;
        model.Unlink(set, m);
        ++want.links_changed;
      }
      want.records_erased = 1;
      model.rows().erase(m);
      status = db.EraseRecord(m);
    }
    want.records_read = 2 * want.members_scanned;
    SCOPED_TRACE("step " + std::to_string(step));
    if (expected_refusal.empty()) {
      ASSERT_TRUE(status.ok()) << status;
    } else {
      ASSERT_EQ(status.code(), StatusCode::kConstraintViolation) << status;
      ASSERT_EQ(status.message(), expected_refusal);
      ++bisected_refusals;
    }
    ExpectSameStats(db.stats(), want);
    model.ExpectMatches(db, owners);
    if (::testing::Test::HasFailure()) return;
  }
  // The walk reached refusals and long occurrences, not only easy cases.
  EXPECT_GT(bisected_refusals, 1000u);
  for (size_t set : {size_t{0}, size_t{2}}) {
    for (RecordId owner : owners) {
      EXPECT_GT(model.Occurrence(set, owner).size(), 100u)
          << PlacementModel::SetName(set);
    }
  }
}

TEST(SortedPlacementTest, SetsKeyedByDoubleKeepTheScan) {
  // Keys (A DOUBLE, B INT). NaN compares equal to every number, so after
  // (1,5), (2,3) and (NaN,4) the occurrence is [(NaN,4), (1,5), (2,3)],
  // which is not in key order: placing (3,2), the scan stops at (NaN,4),
  // which sorts after it on B, while a bisection would answer 3.
  Database db = MakeDatabase(R"(
SCHEMA NAME IS DOUBLEKEYS
RECORD SECTION.
  RECORD NAME IS O.
  FIELDS ARE.
    O-NAME PIC X(4).
  END RECORD.
  RECORD NAME IS M.
  FIELDS ARE.
    A PIC F(8).
    B PIC 9(4).
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS O-M.
  OWNER IS O.
  MEMBER IS M.
  SET KEYS ARE (A, B).
  END SET.
END SET SECTION.
END SCHEMA.
)");
  EXPECT_FALSE(SortedSetBisects(db.schema(), *db.schema().FindSet("O-M")));
  RecordId o = *db.StoreRecord({"O", {{"O-NAME", Value::String("O")}}, {}});
  auto store = [&](double a, int64_t b) {
    db.ResetStats();
    Result<RecordId> id = db.StoreRecord(
        {"M", {{"A", Value::Double(a)}, {"B", Value::Int(b)}}, {{"O-M", o}}});
    EXPECT_TRUE(id.ok()) << id.status();
    return id.ok() ? *id : 0;
  };
  RecordId m15 = store(1, 5);
  RecordId m23 = store(2, 3);
  RecordId nan4 = store(std::nan(""), 4);
  ASSERT_EQ(db.raw_store().Members("O-M", o),
            (std::vector<RecordId>{nan4, m15, m23}));
  RecordId m32 = store(3, 2);
  EXPECT_EQ(db.raw_store().Members("O-M", o),
            (std::vector<RecordId>{m32, nan4, m15, m23}));
  EXPECT_EQ(db.stats().members_scanned, 1u);
  EXPECT_EQ(db.stats().records_read, 2u);
}

TEST(SortedPlacementTest, BisectsOnlyIntAndStringKeysWithTypedDefaults) {
  Schema schema = MakeDatabase(kPlacementDdl).schema();
  EXPECT_TRUE(SortedSetBisects(schema, *schema.FindSet("BY-SI")));
  // A default that contradicts the declared type is stored as written, so
  // the key could mix ints and doubles: those sets keep the scan.
  auto default_of_i = [&schema]() -> Value& {
    for (FieldDef& f : schema.FindRecordType("M")->fields) {
      if (f.name == "I") return f.default_value;
    }
    ADD_FAILURE() << "no field I";
    static Value none;
    return none;
  };
  default_of_i() = Value::Double(1.5);
  EXPECT_FALSE(SortedSetBisects(schema, *schema.FindSet("BY-I")));
  EXPECT_FALSE(SortedSetBisects(schema, *schema.FindSet("BY-SI")));
  EXPECT_TRUE(SortedSetBisects(schema, *schema.FindSet("BY-S")));
  default_of_i() = Value::Int(7);
  EXPECT_TRUE(SortedSetBisects(schema, *schema.FindSet("BY-I")));
  // Chronological sets never place by key.
  schema.FindSet("BY-I")->keys.clear();
  schema.FindSet("BY-I")->ordering = SetOrdering::kChronological;
  EXPECT_FALSE(SortedSetBisects(schema, *schema.FindSet("BY-I")));
}

}  // namespace
}  // namespace dbpc
