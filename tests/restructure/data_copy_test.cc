#include "restructure/data_copy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "engine/textio.h"
#include "restructure/transformation.h"
#include "storage/extent.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::MakeCompanyDatabase;
using testing::MakeSchoolDatabase;

constexpr DataCopyEngine kBothEngines[] = {DataCopyEngine::kColumnarBulk,
                                           DataCopyEngine::kRecordAtATime};

TEST(CopyDatabaseTest, DefaultSpecIsIdentity) {
  Database source = MakeCompanyDatabase();
  Database target = *Database::Create(source.schema());
  Result<std::map<RecordId, RecordId>> map =
      CopyDatabase(source, &target, CopySpec{});
  ASSERT_TRUE(map.ok()) << map.status();
  EXPECT_EQ(map->size(), source.RecordCount());
  EXPECT_EQ(target.RecordCount(), source.RecordCount());
  // Memberships survive with mapped ids.
  RecordId src_machinery = source.SystemMembers("ALL-DIV")[0];
  RecordId tgt_machinery = map->at(src_machinery);
  EXPECT_EQ(target.Members("DIV-EMP", tgt_machinery).size(), 3u);
}

TEST(CopyDatabaseTest, DropTypeDropsMemberships) {
  Database source = MakeCompanyDatabase();
  // Target schema without EMP (and without its set).
  Schema schema = source.schema();
  ASSERT_TRUE(schema.DropSet("DIV-EMP").ok());
  RecordTypeDef* emp = schema.FindRecordType("EMP");
  std::erase_if(emp->fields, [](const FieldDef& f) { return f.is_virtual; });
  ASSERT_TRUE(schema.DropRecordType("EMP").ok());
  ASSERT_TRUE(schema.Validate().ok());
  Database target = *Database::Create(schema);
  CopySpec spec;
  spec.map_type = [](const std::string& type) -> std::optional<std::string> {
    if (type == "EMP") return std::nullopt;
    return type;
  };
  spec.map_set = [](const std::string& set) -> std::optional<std::string> {
    if (set == "DIV-EMP") return std::nullopt;
    return set;
  };
  ASSERT_TRUE(CopyDatabase(source, &target, spec).ok());
  EXPECT_EQ(target.RecordCount(), 2u);  // just the divisions
}

TEST(CopyDatabaseTest, ChronologicalOrderPreserved) {
  Database source = MakeSchoolDatabase();
  Database target = *Database::Create(source.schema());
  Result<std::map<RecordId, RecordId>> map =
      CopyDatabase(source, &target, CopySpec{});
  ASSERT_TRUE(map.ok());
  RecordId src_cs101 = source.SystemMembers("ALL-COURSE")[0];
  RecordId tgt_cs101 = map->at(src_cs101);
  std::vector<RecordId> src_off = source.Members("CRS-OFF", src_cs101);
  std::vector<RecordId> tgt_off = target.Members("CRS-OFF", tgt_cs101);
  ASSERT_EQ(src_off.size(), tgt_off.size());
  for (size_t i = 0; i < src_off.size(); ++i) {
    EXPECT_EQ(target.GetField(tgt_off[i], "YEAR")->as_int(),
              source.GetField(src_off[i], "YEAR")->as_int());
  }
}

TEST(CopyDatabaseTest, ExtraFieldsHookError) {
  Database source = MakeCompanyDatabase();
  Database target = *Database::Create(source.schema());
  CopySpec spec;
  spec.extra_fields = [](const Database&, RecordId,
                         const std::string&) -> Result<FieldMap> {
    return Status::Internal("hook failure");
  };
  Result<std::map<RecordId, RecordId>> map =
      CopyDatabase(source, &target, spec);
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kInternal);
}

TEST(CopyDatabaseTest, ConstraintFailureNamesRecord) {
  Database source = MakeCompanyDatabase();
  // Target where AGE must be non-null; give one source EMP a null age.
  Schema schema = source.schema();
  ConstraintDef c;
  c.name = "AGE-REQUIRED";
  c.kind = ConstraintKind::kNonNull;
  c.record = "EMP";
  c.fields = {"AGE"};
  ASSERT_TRUE(schema.AddConstraint(c).ok());
  RecordId machinery = source.SystemMembers("ALL-DIV")[0];
  RecordId adams = source.Members("DIV-EMP", machinery)[0];
  ASSERT_TRUE(source.ModifyRecord(adams, {{"AGE", Value::Null()}}).ok());
  Database target = *Database::Create(schema);
  Result<std::map<RecordId, RecordId>> map =
      CopyDatabase(source, &target, CopySpec{});
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kConstraintViolation);
  EXPECT_NE(map.status().message().find("translating record"),
            std::string::npos);
}

TEST(CopyDatabaseTest, SelfSetsAreAllowed) {
  // An EMP -> EMP "manager" self-set must not trip the topo sort.
  Schema schema("ORG");
  RecordTypeDef emp;
  emp.name = "EMP";
  emp.fields.push_back({.name = "NAME", .type = FieldType::kString});
  ASSERT_TRUE(schema.AddRecordType(emp).ok());
  SetDef manages;
  manages.name = "MANAGES";
  manages.owner = "EMP";
  manages.member = "EMP";
  manages.insertion = InsertionClass::kManual;
  manages.retention = RetentionClass::kOptional;
  manages.ordering = SetOrdering::kChronological;
  ASSERT_TRUE(schema.AddSet(manages).ok());
  ASSERT_TRUE(schema.Validate().ok());
  Database source = *Database::Create(schema);
  RecordId boss =
      *source.StoreRecord({"EMP", {{"NAME", Value::String("BOSS")}}, {}});
  RecordId worker =
      *source.StoreRecord({"EMP", {{"NAME", Value::String("WORKER")}}, {}});
  ASSERT_TRUE(source.Connect("MANAGES", worker, boss).ok());
  Database target = *Database::Create(schema);
  Result<std::map<RecordId, RecordId>> map =
      CopyDatabase(source, &target, CopySpec{});
  ASSERT_TRUE(map.ok()) << map.status();
  EXPECT_EQ(target.OwnerOf("MANAGES", map->at(worker)), map->at(boss));
}

/// ORG schema: an EMP self-set (MANAGES) plus an unrelated DIV type, so a
/// raw-store link can point a deferred self-set connect at a non-EMP owner.
Schema OrgSchema() {
  Schema schema("ORG");
  RecordTypeDef emp;
  emp.name = "EMP";
  emp.fields.push_back({.name = "NAME", .type = FieldType::kString});
  EXPECT_TRUE(schema.AddRecordType(emp).ok());
  RecordTypeDef div;
  div.name = "DIV";
  div.fields.push_back({.name = "DIV-NAME", .type = FieldType::kString});
  EXPECT_TRUE(schema.AddRecordType(div).ok());
  SetDef manages;
  manages.name = "MANAGES";
  manages.owner = "EMP";
  manages.member = "EMP";
  manages.insertion = InsertionClass::kManual;
  manages.retention = RetentionClass::kOptional;
  manages.ordering = SetOrdering::kChronological;
  EXPECT_TRUE(schema.AddSet(manages).ok());
  EXPECT_TRUE(schema.Validate().ok());
  return schema;
}

TEST(CopyDatabaseTest, DeferredLinkSkipsOwnerOfIntentionallyUnmappedType) {
  // A deferred self-set connect whose owner record belongs to a type the
  // spec maps away is an intentional drop, not an error: the membership
  // vanishes with the owner.
  Database source = *Database::Create(OrgSchema());
  RecordId worker =
      *source.StoreRecord({"EMP", {{"NAME", Value::String("WORKER")}}, {}});
  RecordId div = source.mutable_store().Insert(
      "DIV", {{"DIV-NAME", Value::String("SALES")}});
  // Raw link: a DIV record owns a MANAGES occurrence (only the raw store
  // allows this shape; the deferred path must still handle it).
  ASSERT_TRUE(source.mutable_store().LinkLast("MANAGES", div, worker).ok());
  Database target = *Database::Create(OrgSchema());
  CopySpec spec;
  spec.map_type = [](const std::string& type) -> std::optional<std::string> {
    if (type == "DIV") return std::nullopt;
    return type;
  };
  Result<std::map<RecordId, RecordId>> map = CopyDatabase(source, &target, spec);
  ASSERT_TRUE(map.ok()) << map.status();
  EXPECT_EQ(target.RecordCount(), 1u);
  EXPECT_EQ(target.OwnerOf("MANAGES", map->at(worker)), 0u);
}

TEST(CopyDatabaseTest, DeferredLinkDanglingOwnerIsAnError) {
  // Regression: a deferred self-set connect whose owner simply was not
  // copied (here: a dangling raw-store owner id) used to be dropped
  // silently; it must fail exactly like the eager path does.
  Database source = *Database::Create(OrgSchema());
  RecordId worker =
      *source.StoreRecord({"EMP", {{"NAME", Value::String("WORKER")}}, {}});
  constexpr RecordId kDangling = 9999;
  ASSERT_TRUE(
      source.mutable_store().LinkLast("MANAGES", kDangling, worker).ok());
  Database target = *Database::Create(OrgSchema());
  Result<std::map<RecordId, RecordId>> map =
      CopyDatabase(source, &target, CopySpec{});
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kInternal);
  EXPECT_NE(map.status().message().find("was not copied first"),
            std::string::npos)
      << map.status();
}

TEST(CopyDatabaseTest, ManyTypesCopyOwnersBeforeMembers) {
  // Pins TopoOrderTypes over a deep ownership chain: every owner must be
  // copied (and so assigned a target id) before its member.
  constexpr int kTypes = 40;
  Schema schema("CHAIN");
  for (int i = 0; i < kTypes; ++i) {
    RecordTypeDef t;
    t.name = "T" + std::to_string(i);
    t.fields.push_back({.name = "N", .type = FieldType::kInt});
    ASSERT_TRUE(schema.AddRecordType(t).ok());
  }
  for (int i = 1; i < kTypes; ++i) {
    SetDef s;
    s.name = "S" + std::to_string(i);
    s.owner = "T" + std::to_string(i - 1);
    s.member = "T" + std::to_string(i);
    s.insertion = InsertionClass::kManual;
    s.retention = RetentionClass::kOptional;
    s.ordering = SetOrdering::kChronological;
    ASSERT_TRUE(schema.AddSet(s).ok());
  }
  ASSERT_TRUE(schema.Validate().ok());
  Database source = *Database::Create(schema);
  // Store members before owners so source id order contradicts topo order.
  std::vector<RecordId> ids(kTypes);
  for (int i = kTypes - 1; i >= 0; --i) {
    ids[i] = *source.StoreRecord(
        {"T" + std::to_string(i), {{"N", Value::Int(i)}}, {}});
  }
  for (int i = 1; i < kTypes; ++i) {
    ASSERT_TRUE(
        source.Connect("S" + std::to_string(i), ids[i], ids[i - 1]).ok());
  }
  Database target = *Database::Create(schema);
  Result<std::map<RecordId, RecordId>> map =
      CopyDatabase(source, &target, CopySpec{});
  ASSERT_TRUE(map.ok()) << map.status();
  for (int i = 1; i < kTypes; ++i) {
    EXPECT_LT(map->at(ids[i - 1]), map->at(ids[i])) << "type T" << i;
    EXPECT_EQ(target.OwnerOf("S" + std::to_string(i), map->at(ids[i])),
              map->at(ids[i - 1]));
  }
}

TEST(CopyDatabaseTest, BulkAndRecordEnginesProduceIdenticalDatabases) {
  for (Database source :
       {MakeCompanyDatabase(), testing::MakeSchoolDatabase()}) {
    Database bulk_target = *Database::Create(source.schema());
    Database record_target = *Database::Create(source.schema());
    Result<std::map<RecordId, RecordId>> bulk_map = [&] {
      ScopedDataCopyEngine scoped(DataCopyEngine::kColumnarBulk);
      return CopyDatabase(source, &bulk_target, CopySpec{});
    }();
    Result<std::map<RecordId, RecordId>> record_map = [&] {
      ScopedDataCopyEngine scoped(DataCopyEngine::kRecordAtATime);
      return CopyDatabase(source, &record_target, CopySpec{});
    }();
    ASSERT_TRUE(bulk_map.ok()) << bulk_map.status();
    ASSERT_TRUE(record_map.ok()) << record_map.status();
    EXPECT_EQ(*bulk_map, *record_map);
    EXPECT_EQ(*DumpDatabaseText(bulk_target), *DumpDatabaseText(record_target));
  }
}

TEST(CopyDatabaseTest, BulkAndRecordEnginesAgreeOnConstraintErrors) {
  // Same failing copy under both engines: identical status, including the
  // record named in the message.
  Database source = MakeCompanyDatabase();
  Schema schema = source.schema();
  ConstraintDef c;
  c.name = "AGE-REQUIRED";
  c.kind = ConstraintKind::kNonNull;
  c.record = "EMP";
  c.fields = {"AGE"};
  ASSERT_TRUE(schema.AddConstraint(c).ok());
  RecordId machinery = source.SystemMembers("ALL-DIV")[0];
  RecordId adams = source.Members("DIV-EMP", machinery)[0];
  ASSERT_TRUE(source.ModifyRecord(adams, {{"AGE", Value::Null()}}).ok());
  std::vector<std::string> messages;
  for (DataCopyEngine engine :
       {DataCopyEngine::kColumnarBulk, DataCopyEngine::kRecordAtATime}) {
    ScopedDataCopyEngine scoped(engine);
    Database target = *Database::Create(schema);
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(source, &target, CopySpec{});
    ASSERT_FALSE(map.ok());
    EXPECT_EQ(map.status().code(), StatusCode::kConstraintViolation);
    messages.push_back(map.status().ToString());
  }
  EXPECT_EQ(messages[0], messages[1]);
}

TEST(CopyDatabaseTest, BulkAndRecordEnginesAgreeOnDuplicateKeyErrors) {
  // Duplicate unique keys smuggled in through the raw store fail the copy
  // with the same message under both engines.
  Database source = testing::MakeDatabase(testing::SchoolDdl());
  source.mutable_store().Insert("COURSE",
                                {{"CNO", Value::String("CS101")},
                                 {"CNAME", Value::String("INTRO")}});
  source.mutable_store().Insert("COURSE",
                                {{"CNO", Value::String("CS101")},
                                 {"CNAME", Value::String("INTRO AGAIN")}});
  std::vector<std::string> messages;
  for (DataCopyEngine engine :
       {DataCopyEngine::kColumnarBulk, DataCopyEngine::kRecordAtATime}) {
    ScopedDataCopyEngine scoped(engine);
    Database target = testing::MakeDatabase(testing::SchoolDdl());
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(source, &target, CopySpec{});
    ASSERT_FALSE(map.ok());
    EXPECT_EQ(map.status().code(), StatusCode::kConstraintViolation);
    EXPECT_NE(map.status().message().find("duplicate key"), std::string::npos)
        << map.status();
    messages.push_back(map.status().ToString());
  }
  EXPECT_EQ(messages[0], messages[1]);
}

/// COMPANY with DIV-EMP chronological: members keep arrival order, so a
/// copy into the key-sorted COMPANY schema must place every one of them.
Database MakeChronologicalCompany(
    const std::vector<std::vector<const char*>>& divisions) {
  Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
  schema.FindSet("DIV-EMP")->keys.clear();
  schema.FindSet("DIV-EMP")->ordering = SetOrdering::kChronological;
  Database db = *Database::Create(schema);
  for (size_t d = 0; d < divisions.size(); ++d) {
    RecordId div = *db.StoreRecord(
        {"DIV", {{"DIV-NAME", Value::String("DIV-" + std::to_string(d))}}, {}});
    for (const char* name : divisions[d]) {
      EXPECT_TRUE(db.StoreRecord({"EMP",
                                  {{"EMP-NAME", Value::String(name)}},
                                  {{"DIV-EMP", div}}})
                      .ok());
    }
  }
  return db;
}

std::vector<std::string> MemberNames(const Database& db, RecordId div) {
  std::vector<std::string> names;
  for (RecordId m : db.Members("DIV-EMP", div)) {
    names.push_back(db.GetField(m, "EMP-NAME")->as_string());
  }
  return names;
}

TEST(CopyDatabaseTest, BulkAndRecordEnginesPlaceSortedMembersIdentically) {
  Database source = MakeChronologicalCompany(
      {{"CLARK", "ADAMS", "EVANS", "BAKER", "DAVIS"}, {"ZED", "ABLE", "MOSS"}});
  std::vector<std::string> dumps;
  for (DataCopyEngine engine :
       {DataCopyEngine::kColumnarBulk, DataCopyEngine::kRecordAtATime}) {
    ScopedDataCopyEngine scoped(engine);
    Database target = testing::MakeDatabase(testing::CompanyDdl());
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(source, &target, CopySpec{});
    ASSERT_TRUE(map.ok()) << map.status();
    std::vector<RecordId> divs = target.SystemMembers("ALL-DIV");
    ASSERT_EQ(divs.size(), 2u);
    EXPECT_EQ(MemberNames(target, divs[0]),
              (std::vector<std::string>{"ADAMS", "BAKER", "CLARK", "DAVIS",
                                        "EVANS"}));
    EXPECT_EQ(MemberNames(target, divs[1]),
              (std::vector<std::string>{"ABLE", "MOSS", "ZED"}));
    dumps.push_back(*DumpDatabaseText(target));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(CopyDatabaseTest, BulkAndRecordEnginesAgreeOnDuplicateSetKeys) {
  // A chronological occurrence may repeat a key; the sorted target refuses
  // the second ADAMS with the same status under both engines.
  Database source =
      MakeChronologicalCompany({{"CLARK", "ADAMS", "BAKER", "ADAMS"}});
  std::vector<std::string> messages;
  for (DataCopyEngine engine :
       {DataCopyEngine::kColumnarBulk, DataCopyEngine::kRecordAtATime}) {
    ScopedDataCopyEngine scoped(engine);
    Database target = testing::MakeDatabase(testing::CompanyDdl());
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(source, &target, CopySpec{});
    ASSERT_FALSE(map.ok());
    EXPECT_EQ(map.status().code(), StatusCode::kConstraintViolation);
    EXPECT_NE(map.status().message().find(
                  "duplicate set key in occurrence of DIV-EMP"),
              std::string::npos)
        << map.status();
    messages.push_back(map.status().ToString());
  }
  EXPECT_EQ(messages[0], messages[1]);
}

// --- columnar-source staging (extent-to-extent fast path) -----------------

constexpr char kColumnarDdl[] = R"(
SCHEMA NAME IS COLSRC
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
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS ALL-DIV.
  OWNER IS SYSTEM.
  MEMBER IS DIV.
  ORDER IS CHRONOLOGICAL.
  END SET.
  SET NAME IS DIV-EMP.
  OWNER IS DIV.
  MEMBER IS EMP.
  ORDER IS CHRONOLOGICAL.
  END SET.
END SET SECTION.
END SCHEMA.
)";

/// A small bulk-loaded source: both types adopted as columnar segments
/// (never promoted), with null cells in string and int columns.
Database BuildColumnarSource() {
  Database db = testing::MakeDatabase(kColumnarDdl);
  Store& store = db.mutable_store();
  ExtentTable divs("DIV", {"DIV-NAME", "DIV-LOC"},
                   {FieldType::kString, FieldType::kString});
  divs.AppendRow(0, {Value::String("MACHINERY"), Value::String("EAST")});
  divs.AppendRow(0, {Value::String("AEROSPACE"), Value::Null()});
  const ExtentTable& div_rows = store.AdoptExtents(std::move(divs));
  EXPECT_TRUE(
      store.LinkLast("ALL-DIV", kSystemOwner, div_rows.IdAt(0)).ok());
  EXPECT_TRUE(
      store.LinkLast("ALL-DIV", kSystemOwner, div_rows.IdAt(1)).ok());
  ExtentTable emps("EMP", {"EMP-NAME", "DEPT-NAME", "AGE"},
                   {FieldType::kString, FieldType::kString, FieldType::kInt});
  emps.AppendRow(
      0, {Value::String("ADAMS"), Value::String("SALES"), Value::Int(33)});
  emps.AppendRow(0, {Value::String("BAKER"), Value::Null(), Value::Int(41)});
  emps.AppendRow(
      0, {Value::String("COOK"), Value::String("ADMIN"), Value::Null()});
  const ExtentTable& emp_rows = store.AdoptExtents(std::move(emps));
  EXPECT_TRUE(
      store.LinkLast("DIV-EMP", div_rows.IdAt(0), emp_rows.IdAt(0)).ok());
  EXPECT_TRUE(
      store.LinkLast("DIV-EMP", div_rows.IdAt(0), emp_rows.IdAt(1)).ok());
  EXPECT_TRUE(
      store.LinkLast("DIV-EMP", div_rows.IdAt(1), emp_rows.IdAt(2)).ok());
  db.RebuildIndexes();
  return db;
}

/// True when no columnar row of `type` has been promoted into the record
/// heap — i.e. the copy read the extents directly.
bool StillFullyColumnar(const Database& db, const std::string& type) {
  for (const Store::ColumnarRun& run : db.raw_store().ColumnarRuns(type)) {
    if (run.live != run.table->rows()) return false;
  }
  return true;
}

TEST(CopyDatabaseTest, ColumnarSourceBulkMatchesRecordEngine) {
  // Fresh source per engine: promotion is one-way, and the bulk engine
  // must see the same columnar image the record engine promotes.
  std::vector<std::string> dumps;
  std::vector<std::map<RecordId, RecordId>> maps;
  for (DataCopyEngine engine :
       {DataCopyEngine::kColumnarBulk, DataCopyEngine::kRecordAtATime}) {
    Database source = BuildColumnarSource();
    Database target = testing::MakeDatabase(kColumnarDdl);
    ScopedDataCopyEngine scoped(engine);
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(source, &target, CopySpec{});
    ASSERT_TRUE(map.ok()) << map.status();
    maps.push_back(*map);
    dumps.push_back(*DumpDatabaseText(target));
    if (engine == DataCopyEngine::kColumnarBulk) {
      // The fast path reads extents in place; nothing may be promoted.
      EXPECT_TRUE(StillFullyColumnar(source, "DIV"));
      EXPECT_TRUE(StillFullyColumnar(source, "EMP"));
    }
  }
  EXPECT_EQ(maps[0], maps[1]);
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(CopyDatabaseTest, ColumnarChainedCopiesMatchRecordEngine) {
  // A bulk target is itself columnar; copying it again must keep matching
  // the record engine (copy-of-copy chain).
  std::vector<std::string> dumps;
  for (DataCopyEngine engine :
       {DataCopyEngine::kColumnarBulk, DataCopyEngine::kRecordAtATime}) {
    Database source = BuildColumnarSource();
    Database mid = testing::MakeDatabase(kColumnarDdl);
    Database final_target = testing::MakeDatabase(kColumnarDdl);
    ScopedDataCopyEngine scoped(engine);
    ASSERT_TRUE(CopyDatabase(source, &mid, CopySpec{}).ok());
    ASSERT_TRUE(CopyDatabase(mid, &final_target, CopySpec{}).ok());
    if (engine == DataCopyEngine::kColumnarBulk) {
      EXPECT_TRUE(StillFullyColumnar(mid, "EMP"));
    }
    dumps.push_back(*DumpDatabaseText(final_target));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(CopyDatabaseTest, ColumnarSourceDroppedFieldGetsDefault) {
  // A source column mapped away leaves the target column at its declared
  // default; null source cells stay null (present-but-null, not default).
  CopySpec spec;
  spec.map_field = [](const std::string&,
                      const std::string& field) -> std::optional<std::string> {
    if (field == "DEPT-NAME") return std::nullopt;
    return field;
  };
  std::vector<std::string> dumps;
  for (DataCopyEngine engine :
       {DataCopyEngine::kColumnarBulk, DataCopyEngine::kRecordAtATime}) {
    Database source = BuildColumnarSource();
    Database target = testing::MakeDatabase(kColumnarDdl);
    ScopedDataCopyEngine scoped(engine);
    ASSERT_TRUE(CopyDatabase(source, &target, spec).ok());
    if (engine == DataCopyEngine::kColumnarBulk) {
      EXPECT_TRUE(StillFullyColumnar(source, "EMP"));
    }
    dumps.push_back(*DumpDatabaseText(target));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(CopyDatabaseTest, PartiallyPromotedColumnarSourceCopiesIdentically) {
  // Promoting even one row makes the type ineligible for the extent read
  // path; the record-read fallback must produce the identical database.
  std::vector<std::string> dumps;
  for (DataCopyEngine engine :
       {DataCopyEngine::kColumnarBulk, DataCopyEngine::kRecordAtATime}) {
    Database source = BuildColumnarSource();
    RecordId second_emp = source.raw_store().AllOfType("EMP")[1];
    ASSERT_NE(source.raw_store().Get(second_emp), nullptr);  // promotes
    EXPECT_FALSE(StillFullyColumnar(source, "EMP"));
    Database target = testing::MakeDatabase(kColumnarDdl);
    ScopedDataCopyEngine scoped(engine);
    ASSERT_TRUE(CopyDatabase(source, &target, CopySpec{}).ok());
    dumps.push_back(*DumpDatabaseText(target));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

// --- one copy path: the extra_connects hook on both engines --------------

IntroduceIntermediateParams Figure44() {
  IntroduceIntermediateParams p;
  p.set_name = "DIV-EMP";
  p.intermediate = "DEPT";
  p.upper_set = "DIV-DEPT";
  p.lower_set = "DEPT-EMP";
  p.group_field = "DEPT-NAME";
  return p;
}

/// COMPANY with EMP-NAME unique, the vertical split's precondition.
Database CompanyWithUniqueNames() {
  Schema schema = MakeCompanyDatabase().schema();
  ConstraintDef unique;
  unique.name = "UNIQ-EMP-NAME";
  unique.kind = ConstraintKind::kUniqueness;
  unique.record = "EMP";
  unique.fields = {"EMP-NAME"};
  EXPECT_TRUE(schema.AddConstraint(unique).ok());
  Database db = *Database::Create(schema);
  testing::FillCompany(&db, 3, 7);
  return db;
}

/// The three transformations whose specs carry extra_connects. Each builds
/// a fresh source, since a record-engine copy promotes columnar sources.
struct HookCase {
  const char* name;
  std::function<Database()> source;
  std::function<TransformationPtr()> step;
};

std::vector<HookCase> HookCases() {
  SplitRecordParams split;
  split.record = "EMP";
  split.detail = "EMP-DATA";
  split.set_name = "EMP-DETAIL";
  split.link_field = "EMP-NAME";
  split.moved_fields = {"DEPT-NAME", "AGE"};
  auto filled = [] {
    Database db = testing::MakeDatabase(testing::CompanyDdl());
    testing::FillCompany(&db, 4, 9);
    return db;
  };
  return {
      {"introduce-intermediate", filled,
       [] { return MakeIntroduceIntermediate(Figure44()); }},
      // Staged extent-to-extent while the hook's reads promote the rows.
      {"introduce-intermediate, columnar source", BuildColumnarSource,
       [] { return MakeIntroduceIntermediate(Figure44()); }},
      {"split-record-vertical", CompanyWithUniqueNames,
       [split] { return MakeSplitRecordVertical(split); }},
      {"collapse-intermediate",
       [filled] {
         TransformationPtr introduce = MakeIntroduceIntermediate(Figure44());
         return *TranslateDatabase(filled(), {introduce.get()});
       },
       [] { return MakeCollapseIntermediate(Figure44()); }},
  };
}

Result<Database> TranslateOne(const HookCase& c) {
  TransformationPtr step = c.step();
  return TranslateDatabase(c.source(), {step.get()});
}

TEST(CopyDatabaseTest, HookSpecsLandMemberRowsAsColumnarSegments) {
  // The default engine is the bulk engine for every spec: the hook no
  // longer sends a spec to the record-at-a-time engine.
  for (const HookCase& c : HookCases()) {
    Result<Database> target = TranslateOne(c);
    ASSERT_TRUE(target.ok()) << c.name << ": " << target.status();
    EXPECT_FALSE(target->raw_store().ColumnarRuns("EMP").empty()) << c.name;
  }
}

TEST(CopyDatabaseTest, HookSpecsMatchAcrossEngines) {
  for (const HookCase& c : HookCases()) {
    std::vector<std::string> dumps;
    std::vector<std::vector<std::vector<RecordId>>> ids;
    for (DataCopyEngine engine : kBothEngines) {
      ScopedDataCopyEngine scoped(engine);
      Result<Database> target = TranslateOne(c);
      ASSERT_TRUE(target.ok()) << c.name << ": " << target.status();
      dumps.push_back(*DumpDatabaseText(*target));
      // Helper records take the ids just before their type's records.
      ids.emplace_back();
      for (const RecordTypeDef& r : target->schema().record_types()) {
        ids.back().push_back(target->raw_store().AllOfType(ToUpper(r.name)));
      }
    }
    EXPECT_EQ(dumps[0], dumps[1]) << c.name;
    EXPECT_EQ(ids[0], ids[1]) << c.name;
  }
}

/// A hook that connects nothing and fails on DAVIS, the last EMP copied.
CopySpec HookFailingOnDavis() {
  CopySpec spec;
  spec.extra_connects =
      [](const Database& src, RecordId id, const std::string& type,
         const std::map<RecordId, RecordId>&,
         Database*) -> Result<std::map<std::string, RecordId>> {
    if (type == "EMP" && src.GetField(id, "EMP-NAME")->as_string() == "DAVIS") {
      return Status::Internal("hook failure on DAVIS");
    }
    return std::map<std::string, RecordId>();
  };
  return spec;
}

TEST(CopyDatabaseTest, EarlierRecordErrorWinsOverHookError) {
  // ADAMS (copied first) breaks a non-null rule; the hook fails later, on
  // DAVIS. Both engines report ADAMS.
  Database source = MakeCompanyDatabase();
  Schema schema = source.schema();
  ConstraintDef c;
  c.name = "AGE-REQUIRED";
  c.kind = ConstraintKind::kNonNull;
  c.record = "EMP";
  c.fields = {"AGE"};
  ASSERT_TRUE(schema.AddConstraint(c).ok());
  RecordId machinery = source.SystemMembers("ALL-DIV")[0];
  RecordId adams = source.Members("DIV-EMP", machinery)[0];
  ASSERT_TRUE(source.ModifyRecord(adams, {{"AGE", Value::Null()}}).ok());
  std::vector<std::string> messages;
  for (DataCopyEngine engine : kBothEngines) {
    ScopedDataCopyEngine scoped(engine);
    Database target = *Database::Create(schema);
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(source, &target, HookFailingOnDavis());
    ASSERT_FALSE(map.ok());
    EXPECT_EQ(map.status().code(), StatusCode::kConstraintViolation);
    EXPECT_NE(map.status().message().find("record " + std::to_string(adams)),
              std::string::npos)
        << map.status();
    messages.push_back(map.status().ToString());
  }
  EXPECT_EQ(messages[0], messages[1]);
}

TEST(CopyDatabaseTest, HookErrorReturnedAfterEarlierRecordsLand) {
  std::vector<std::string> dumps;
  for (DataCopyEngine engine : kBothEngines) {
    ScopedDataCopyEngine scoped(engine);
    Database source = MakeCompanyDatabase();
    Database target = *Database::Create(source.schema());
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(source, &target, HookFailingOnDavis());
    ASSERT_FALSE(map.ok());
    EXPECT_EQ(map.status().ToString(),
              Status::Internal("hook failure on DAVIS").ToString());
    // Both divisions and the three EMPs before DAVIS were copied.
    EXPECT_EQ(target.RecordCount(), 5u);
    dumps.push_back(*DumpDatabaseText(target));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(CopyDatabaseTest, HookStoresAgainstUpToDateIndexes) {
  // The hook stores a DIV whose location repeats an already copied one.
  // The bulk engine adopted the copied DIVs without indexing them, so it
  // must rebuild the indexes before the hook's StoreRecord checks
  // uniqueness, as the record engine's incremental indexes would.
  Schema schema = MakeCompanyDatabase().schema();
  ConstraintDef unique;
  unique.name = "UNIQ-DIV-LOC";
  unique.kind = ConstraintKind::kUniqueness;
  unique.record = "DIV";
  unique.fields = {"DIV-LOC"};
  ASSERT_TRUE(schema.AddConstraint(unique).ok());
  CopySpec spec;
  spec.extra_connects =
      [](const Database&, RecordId, const std::string& type,
         const std::map<RecordId, RecordId>&,
         Database* target) -> Result<std::map<std::string, RecordId>> {
    if (type == "EMP" && target->AllOfType("DIV").size() == 2) {
      StoreRequest div{"DIV",
                       {{"DIV-NAME", Value::String("Z")},
                        {"DIV-LOC", Value::String("EAST")}},
                       {}};
      DBPC_RETURN_IF_ERROR(target->StoreRecord(div).status());
    }
    return std::map<std::string, RecordId>();
  };
  for (DataCopyEngine engine : kBothEngines) {
    ScopedDataCopyEngine scoped(engine);
    Database source = MakeCompanyDatabase();
    Database target = *Database::Create(schema);
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(source, &target, spec);
    ASSERT_FALSE(map.ok());
    EXPECT_EQ(map.status().ToString(),
              Status::ConstraintViolation(
                  "duplicate key for UNIQ-DIV-LOC on DIV")
                  .ToString());
  }
}

// --- the record-read staging loop ------------------------------------------

/// MakeCompanyDatabase plus EMP "EVANS", inserted through the raw store with
/// a field the schema does not declare.
Database CompanyWithUndeclaredField(const std::string& field) {
  Database db = MakeCompanyDatabase();
  RecordId textiles = db.SystemMembers("ALL-DIV")[1];
  RecordId evans = db.mutable_store().Insert(
      "EMP", {{"EMP-NAME", Value::String("EVANS")},
              {"DEPT-NAME", Value::String("SALES")},
              {"AGE", Value::Int(50)},
              {field, Value::String("EV")}});
  EXPECT_TRUE(db.mutable_store().LinkLast("DIV-EMP", textiles, evans).ok());
  db.RebuildIndexes();
  return db;
}

/// Copies `source` with `spec` under both engines into empty COMPANY
/// databases; returns the status (and the dump, on success) of each.
std::vector<std::string> CopyUnderBothEngines(
    const std::function<Database()>& source, const CopySpec& spec) {
  std::vector<std::string> outcomes;
  for (DataCopyEngine engine : kBothEngines) {
    ScopedDataCopyEngine scoped(engine);
    Database src = source();
    Database target = testing::MakeDatabase(testing::CompanyDdl());
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(src, &target, spec);
    outcomes.push_back(map.ok() ? *DumpDatabaseText(target)
                                : map.status().ToString());
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
  return outcomes;
}

CopySpec RenameField(const std::string& from, const std::string& to) {
  CopySpec spec;
  spec.map_field = [from, to](const std::string&, const std::string& field)
      -> std::optional<std::string> { return field == from ? to : field; };
  return spec;
}

TEST(CopyDatabaseTest, UndeclaredSourceFieldMappedOntoColumn) {
  // NICKNAME sorts after DEPT-NAME, so its value wins the column.
  std::vector<std::string> outcomes = CopyUnderBothEngines(
      [] { return CompanyWithUndeclaredField("NICKNAME"); },
      RenameField("NICKNAME", "DEPT-NAME"));
  EXPECT_NE(outcomes[0].find("DEPT-NAME = 'EV'"), std::string::npos)
      << outcomes[0];
}

TEST(CopyDatabaseTest, UndeclaredSourceFieldMappedOntoVirtualField) {
  std::vector<std::string> outcomes = CopyUnderBothEngines(
      [] { return CompanyWithUndeclaredField("NICKNAME"); },
      RenameField("NICKNAME", "DIV-NAME"));
  EXPECT_NE(outcomes[0].find("cannot store virtual field EMP.DIV-NAME"),
            std::string::npos)
      << outcomes[0];
}

TEST(CopyDatabaseTest, UndeclaredSourceFieldMappedOntoNoField) {
  std::vector<std::string> outcomes = CopyUnderBothEngines(
      [] { return CompanyWithUndeclaredField("NICKNAME"); }, CopySpec{});
  EXPECT_NE(outcomes[0].find("unknown field NICKNAME for record type EMP"),
            std::string::npos)
      << outcomes[0];
}

TEST(CopyDatabaseTest, ExtraFieldOverridesMappedField) {
  CopySpec spec;
  spec.extra_fields = [](const Database&, RecordId,
                         const std::string& type) -> Result<FieldMap> {
    if (type != "EMP") return FieldMap();
    return FieldMap{{"age", Value::Int(99)}};
  };
  std::vector<std::string> outcomes =
      CopyUnderBothEngines(MakeCompanyDatabase, spec);
  EXPECT_NE(outcomes[0].find("AGE = 99"), std::string::npos) << outcomes[0];
  EXPECT_EQ(outcomes[0].find("AGE = 34"), std::string::npos) << outcomes[0];
}

TEST(CopyDatabaseTest, ExtraFieldAndSourceFieldCompeteForUnknownFieldError) {
  // The source's undeclared ZETA and the hook's ALPHA are both unknown;
  // the lexicographically first one is reported.
  CopySpec spec;
  spec.extra_fields = [](const Database&, RecordId,
                         const std::string& type) -> Result<FieldMap> {
    if (type != "EMP") return FieldMap();
    return FieldMap{{"ALPHA", Value::Int(1)}};
  };
  std::vector<std::string> outcomes = CopyUnderBothEngines(
      [] { return CompanyWithUndeclaredField("ZETA"); }, spec);
  EXPECT_NE(outcomes[0].find("unknown field ALPHA for record type EMP"),
            std::string::npos)
      << outcomes[0];
}

// --- shared chronological order --------------------------------------------

std::vector<int64_t> Sections(const Database& db, const std::string& set,
                              RecordId owner) {
  std::vector<int64_t> sections;
  for (RecordId m : db.Members(set, owner)) {
    sections.push_back(db.GetField(m, "SECTION-NO")->as_int());
  }
  return sections;
}

TEST(CopyDatabaseTest, EveryChronologicalSetKeepsItsOrder) {
  // OFFERING is a member of two chronological sets. Ordering its copy by
  // CRS-OFF alone reversed F78's SEM-OFF occurrence.
  Database source = testing::MakeCrossedSchoolDatabase();
  for (DataCopyEngine engine : kBothEngines) {
    ScopedDataCopyEngine scoped(engine);
    Database target = *Database::Create(source.schema());
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(source, &target, CopySpec{});
    ASSERT_TRUE(map.ok()) << map.status();
    for (const char* owner_type : {"COURSE", "SEMESTER"}) {
      const char* set = owner_type == std::string("COURSE") ? "CRS-OFF"
                                                            : "SEM-OFF";
      for (RecordId owner : source.AllOfType(owner_type)) {
        EXPECT_EQ(Sections(target, set, map->at(owner)),
                  Sections(source, set, owner))
            << set;
      }
    }
    EXPECT_EQ(*DumpDatabaseText(target), *DumpDatabaseText(source));
  }
}

TEST(CopyDatabaseTest, BothEnginesPlaceALongSortedOccurrenceIdentically) {
  // One DIV-EMP occurrence of 1,201 members arriving out of key order
  // (chronological in the source, a null name first in key order), so
  // every placement in the key-sorted target searches a long occurrence.
  Schema schema = testing::MakeDatabase(testing::CompanyDdl()).schema();
  schema.FindSet("DIV-EMP")->keys.clear();
  schema.FindSet("DIV-EMP")->ordering = SetOrdering::kChronological;
  Database source = *Database::Create(schema);
  RecordId div = *source.StoreRecord(
      {"DIV", {{"DIV-NAME", Value::String("BIG")}}, {}});
  std::vector<std::string> expected;
  for (int i = 0; i < 1200; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "E%04d", (i * 7919) % 1200);
    expected.push_back(name);
    ASSERT_TRUE(source
                    .StoreRecord({"EMP",
                                  {{"EMP-NAME", Value::String(name)},
                                   {"AGE", Value::Int(i % 50)}},
                                  {{"DIV-EMP", div}}})
                    .ok());
  }
  ASSERT_TRUE(source.StoreRecord({"EMP", {}, {{"DIV-EMP", div}}}).ok());
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> dumps;
  for (DataCopyEngine engine : kBothEngines) {
    ScopedDataCopyEngine scoped(engine);
    Database target = testing::MakeDatabase(testing::CompanyDdl());
    Result<std::map<RecordId, RecordId>> map =
        CopyDatabase(source, &target, CopySpec{});
    ASSERT_TRUE(map.ok()) << map.status();
    std::vector<RecordId> members =
        target.raw_store().Members("DIV-EMP", map->at(div));
    ASSERT_EQ(members.size(), 1201u);
    EXPECT_TRUE(target.GetField(members[0], "EMP-NAME")->is_null());
    members.erase(members.begin());
    std::vector<std::string> names;
    for (RecordId m : members) {
      names.push_back(target.GetField(m, "EMP-NAME")->as_string());
    }
    EXPECT_EQ(names, expected);
    dumps.push_back(*DumpDatabaseText(target));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

}  // namespace
}  // namespace dbpc
