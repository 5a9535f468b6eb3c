// Engine index subsystem: maintenance through every mutation path, probe
// vs. scan equivalence (the trace-invisibility contract at the unit level),
// and the OpStats accounting that E11 measures.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/predicate.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::FillCompany;
using testing::MakeCompanyDatabase;
using testing::MakeDatabase;
using testing::MakeSchoolDatabase;

constexpr IndexOptions kIndexesOff{.enabled = false,
                                   .auto_join_indexes = false};

Predicate Eq(const std::string& field, Value v) {
  return Predicate::Compare(field, CompareOp::kEq,
                            Operand::Literal(std::move(v)));
}

/// Runs SelectWhere with indexes on and off and requires identical rows;
/// returns the indexed result.
std::vector<RecordId> SelectBothWays(Database* db, const std::string& type,
                                     const Predicate& pred,
                                     const HostEnv& env = EmptyHostEnv()) {
  db->SetIndexOptions(IndexOptions{});
  Result<std::vector<RecordId>> probed = db->SelectWhere(type, pred, env);
  db->SetIndexOptions(kIndexesOff);
  Result<std::vector<RecordId>> scanned = db->SelectWhere(type, pred, env);
  db->SetIndexOptions(IndexOptions{});
  EXPECT_TRUE(probed.ok()) << probed.status();
  EXPECT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_EQ(*probed, *scanned) << "probe/scan divergence on "
                               << pred.ToString();
  return *probed;
}

TEST(IndexTest, SelectWhereProbeMatchesScanAndCountsProbes) {
  Database db = MakeCompanyDatabase();
  // EMP-NAME is a DIV-EMP set key, so it carries an eager secondary index.
  db.ResetStats();
  std::vector<RecordId> rows =
      SelectBothWays(&db, "EMP", Eq("EMP-NAME", Value::String("ADAMS")));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(db.stats().index_probes, 0u);
  EXPECT_GT(db.stats().index_hits, 0u);

  db.ResetStats();
  db.SetIndexOptions(kIndexesOff);
  ASSERT_TRUE(db.SelectWhere("EMP", Eq("EMP-NAME", Value::String("ADAMS")),
                             EmptyHostEnv())
                  .ok());
  EXPECT_EQ(db.stats().index_probes, 0u);
  EXPECT_EQ(db.stats().index_hits, 0u);
}

TEST(IndexTest, ProbeReducesEngineOps) {
  Database db = MakeDatabase(testing::CompanyDdl());
  FillCompany(&db, 20, 10);
  Predicate pred = Eq("EMP-NAME", Value::String("EMP-0007-00003"));

  db.ResetStats();
  ASSERT_TRUE(db.SelectWhere("EMP", pred, EmptyHostEnv()).ok());
  uint64_t probed_ops = db.stats().Total();

  db.SetIndexOptions(kIndexesOff);
  db.ResetStats();
  ASSERT_TRUE(db.SelectWhere("EMP", pred, EmptyHostEnv()).ok());
  uint64_t scanned_ops = db.stats().Total();
  EXPECT_GE(scanned_ops, 10 * probed_ops)
      << "probed=" << probed_ops << " scanned=" << scanned_ops;
}

TEST(IndexTest, ResidualConjunctsAndHostVarsAreHonored) {
  Database db = MakeCompanyDatabase();
  HostEnv env = [](const std::string& name) -> Result<Value> {
    if (name == "D") return Value::String("SALES");
    return Status::NotFound("host variable " + name);
  };
  // Indexed equality on EMP-NAME plus a residual AGE range and a hostvar
  // equality: the probe may only narrow candidates, never change results.
  Predicate pred = Predicate::And(
      Eq("EMP-NAME", Value::String("BAKER")),
      Predicate::And(Predicate::Compare("AGE", CompareOp::kLt,
                                        Operand::Literal(Value::Int(30))),
                     Predicate::Compare("DEPT-NAME", CompareOp::kEq,
                                        Operand::HostVar("D"))));
  EXPECT_EQ(SelectBothWays(&db, "EMP", pred, env).size(), 1u);

  // A hostvar that fails to resolve must surface the same error either way
  // (the probe path refuses rather than swallowing the scan's error).
  Predicate broken = Predicate::Compare("EMP-NAME", CompareOp::kEq,
                                        Operand::HostVar("MISSING"));
  Result<std::vector<RecordId>> probed =
      db.SelectWhere("EMP", broken, EmptyHostEnv());
  db.SetIndexOptions(kIndexesOff);
  Result<std::vector<RecordId>> scanned =
      db.SelectWhere("EMP", broken, EmptyHostEnv());
  EXPECT_EQ(probed.ok(), scanned.ok());
  EXPECT_FALSE(probed.ok());
}

TEST(IndexTest, OrAndNotShapesFallBackToScan) {
  Database db = MakeCompanyDatabase();
  db.ResetStats();
  Predicate pred = Predicate::Or(Eq("EMP-NAME", Value::String("ADAMS")),
                                 Eq("EMP-NAME", Value::String("DAVIS")));
  EXPECT_EQ(SelectBothWays(&db, "EMP", pred).size(), 2u);
  Predicate neg = Predicate::Not(Eq("EMP-NAME", Value::String("ADAMS")));
  EXPECT_EQ(SelectBothWays(&db, "EMP", neg).size(), 3u);
}

TEST(IndexTest, NumericEqualityMatchesQueryCompareSemantics) {
  Database db = MakeCompanyDatabase();
  ASSERT_TRUE(db.EnsureFieldIndex("EMP", "AGE"));
  // QueryCompare equates Int(34) with the numeric string "34"; the index
  // must agree with the scan on both probe spellings.
  EXPECT_EQ(SelectBothWays(&db, "EMP", Eq("AGE", Value::Int(34))).size(), 1u);
  EXPECT_EQ(SelectBothWays(&db, "EMP", Eq("AGE", Value::String("34"))).size(),
            1u);
  EXPECT_TRUE(SelectBothWays(&db, "EMP", Eq("AGE", Value::String("x")))
                  .empty());
}

TEST(IndexTest, ModifyRecordMovesIndexEntry) {
  Database db = MakeCompanyDatabase();
  std::vector<RecordId> adams =
      SelectBothWays(&db, "EMP", Eq("EMP-NAME", Value::String("ADAMS")));
  ASSERT_EQ(adams.size(), 1u);
  ASSERT_TRUE(
      db.ModifyRecord(adams[0], {{"EMP-NAME", Value::String("AARON")}}).ok());

  std::optional<std::vector<RecordId>> old_bucket =
      db.ProbeIndex("EMP", "EMP-NAME", Value::String("ADAMS"));
  ASSERT_TRUE(old_bucket.has_value());
  EXPECT_TRUE(old_bucket->empty());
  std::optional<std::vector<RecordId>> new_bucket =
      db.ProbeIndex("EMP", "EMP-NAME", Value::String("AARON"));
  ASSERT_TRUE(new_bucket.has_value());
  EXPECT_EQ(*new_bucket, adams);
  SelectBothWays(&db, "EMP", Eq("EMP-NAME", Value::String("AARON")));
}

TEST(IndexTest, EraseRecordCascadeRemovesCharacterizedMembers) {
  Database db = MakeSchoolDatabase();
  ASSERT_TRUE(db.EnsureFieldIndex("OFFERING", "YEAR"));
  std::optional<std::vector<RecordId>> y79 =
      db.ProbeIndex("OFFERING", "YEAR", Value::Int(1979));
  ASSERT_TRUE(y79.has_value());
  ASSERT_EQ(y79->size(), 2u);  // CS101/S79 and CS202/S79

  // Erasing CS101 cascades through its characterizing CRS-OFF members.
  std::vector<RecordId> cs101 =
      SelectBothWays(&db, "COURSE", Eq("CNO", Value::String("CS101")));
  ASSERT_EQ(cs101.size(), 1u);
  ASSERT_TRUE(db.EraseRecord(cs101[0]).ok());

  y79 = db.ProbeIndex("OFFERING", "YEAR", Value::Int(1979));
  ASSERT_TRUE(y79.has_value());
  EXPECT_EQ(y79->size(), 1u);
  EXPECT_TRUE(db.ProbeIndex("OFFERING", "YEAR", Value::Int(1978))->empty());
  SelectBothWays(&db, "OFFERING", Eq("YEAR", Value::Int(1979)));
}

TEST(IndexTest, ConnectAndDisconnectLeaveFieldIndexesIntact) {
  Database db = MakeDatabase(R"(
SCHEMA NAME IS CD
RECORD SECTION.
  RECORD NAME IS OWN.
  FIELDS ARE.
    O-NAME PIC X(10).
  END RECORD.
  RECORD NAME IS MEM.
  FIELDS ARE.
    M-NAME PIC X(10).
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS OWN-MEM.
  OWNER IS OWN.
  MEMBER IS MEM.
  INSERTION IS MANUAL.
  RETENTION IS OPTIONAL.
  SET KEYS ARE (M-NAME).
  END SET.
END SET SECTION.
END SCHEMA.
)");
  RecordId own = *db.StoreRecord({"OWN", {{"O-NAME", Value::String("A")}}, {}});
  RecordId mem = *db.StoreRecord({"MEM", {{"M-NAME", Value::String("M1")}}, {}});

  auto probe = [&] {
    std::optional<std::vector<RecordId>> bucket =
        db.ProbeIndex("MEM", "M-NAME", Value::String("M1"));
    EXPECT_TRUE(bucket.has_value());
    return bucket.value_or(std::vector<RecordId>{});
  };
  EXPECT_EQ(probe(), std::vector<RecordId>{mem});
  ASSERT_TRUE(db.Connect("OWN-MEM", mem, own).ok());
  EXPECT_EQ(probe(), std::vector<RecordId>{mem});
  ASSERT_TRUE(db.Disconnect("OWN-MEM", mem).ok());
  EXPECT_EQ(probe(), std::vector<RecordId>{mem});
}

TEST(IndexTest, BulkLoadRequiresRebuildIndexes) {
  Database db = MakeCompanyDatabase();
  // A bulk load through the raw store bypasses index maintenance: probes
  // are stale until RebuildIndexes() — exactly what mutable_store()'s
  // contract says.
  db.mutable_store().Insert("EMP", {{"EMP-NAME", Value::String("ZELDA")},
                                    {"DEPT-NAME", Value::String("SALES")},
                                    {"AGE", Value::Int(30)}});
  std::optional<std::vector<RecordId>> stale =
      db.ProbeIndex("EMP", "EMP-NAME", Value::String("ZELDA"));
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(stale->empty());

  db.RebuildIndexes();
  EXPECT_EQ(db.ProbeIndex("EMP", "EMP-NAME", Value::String("ZELDA"))->size(),
            1u);
  EXPECT_EQ(
      SelectBothWays(&db, "EMP", Eq("EMP-NAME", Value::String("ZELDA")))
          .size(),
      1u);
}

TEST(IndexTest, TypeMismatchedStoredValueDisablesProbesNotResults) {
  Database db = MakeCompanyDatabase();
  // A bulk-loaded EMP-NAME of the wrong dynamic type breaks the
  // key-equality == value-equality invariant for the whole index: after
  // rebuild the field must drop out of IndexedFields and SelectWhere must
  // quietly scan — with identical results.
  db.mutable_store().Insert("EMP", {{"EMP-NAME", Value::Int(7)},
                                    {"DEPT-NAME", Value::String("SALES")},
                                    {"AGE", Value::Int(30)}});
  db.RebuildIndexes();
  for (const auto& [type, field] : db.IndexedFields()) {
    EXPECT_FALSE(type == "EMP" && field == "EMP-NAME");
  }
  EXPECT_FALSE(
      db.ProbeIndex("EMP", "EMP-NAME", Value::String("ADAMS")).has_value());
  EXPECT_EQ(
      SelectBothWays(&db, "EMP", Eq("EMP-NAME", Value::String("ADAMS")))
          .size(),
      1u);
}

TEST(IndexTest, IndexedFieldsListsEagerIndexesAndHonorsDisable) {
  Database db = MakeCompanyDatabase();
  bool saw_emp_name = false;
  for (const auto& [type, field] : db.IndexedFields()) {
    if (type == "EMP" && field == "EMP-NAME") saw_emp_name = true;
  }
  EXPECT_TRUE(saw_emp_name);
  db.SetIndexOptions(kIndexesOff);
  EXPECT_TRUE(db.IndexedFields().empty());
  EXPECT_FALSE(db.EnsureFieldIndex("EMP", "AGE"));
}

TEST(IndexTest, MembersRefMatchesMembersAndCountsScans) {
  Database db = MakeCompanyDatabase();
  std::vector<RecordId> divs = db.AllOfType("DIV");
  ASSERT_FALSE(divs.empty());
  db.ResetStats();
  const std::vector<RecordId>& borrowed = db.MembersRef("DIV-EMP", divs[0]);
  uint64_t after_ref = db.stats().members_scanned;
  EXPECT_EQ(borrowed.size(), after_ref);
  EXPECT_EQ(db.Members("DIV-EMP", divs[0]), borrowed);
}

// --- index buckets: the smallest id inline, the rest in a sorted vector ---

/// Stores one EMP named `name` into a DIV of its own (set keys are unique
/// per occurrence, the EMP-NAME index spans every EMP).
RecordId StoreEmpInOwnDiv(Database* db, const std::string& name) {
  static int divisions = 0;
  RecordId div = *db->StoreRecord(
      {"DIV",
       {{"DIV-NAME", Value::String("D" + std::to_string(++divisions))}},
       {}});
  Result<RecordId> emp = db->StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String(name)}}, {{"DIV-EMP", div}}});
  EXPECT_TRUE(emp.ok()) << emp.status();
  return emp.ok() ? *emp : 0;
}

std::optional<std::vector<RecordId>> ProbeName(const Database& db,
                                               const std::string& name) {
  return db.ProbeIndex("EMP", "EMP-NAME", Value::String(name));
}

using Ids = std::vector<RecordId>;

TEST(IndexBucketTest, IdsStayAscendingWhenTheInlineIdIsErased) {
  Database db = MakeDatabase(testing::CompanyDdl());
  RecordId e1 = StoreEmpInOwnDiv(&db, "SAME");
  RecordId e2 = StoreEmpInOwnDiv(&db, "SAME");
  RecordId e3 = StoreEmpInOwnDiv(&db, "SAME");
  RecordId e4 = StoreEmpInOwnDiv(&db, "SAME");
  EXPECT_EQ(ProbeName(db, "SAME"), std::make_optional(Ids{e1, e2, e3, e4}));
  // e1 is the inline id; e2 takes its place, the others stay in order.
  ASSERT_TRUE(db.EraseRecord(e1).ok());
  EXPECT_EQ(ProbeName(db, "SAME"), std::make_optional(Ids{e2, e3, e4}));
  ASSERT_TRUE(db.EraseRecord(e3).ok());
  EXPECT_EQ(ProbeName(db, "SAME"), std::make_optional(Ids{e2, e4}));
  ASSERT_TRUE(db.EraseRecord(e2).ok());
  EXPECT_EQ(ProbeName(db, "SAME"), std::make_optional(Ids{e4}));
  db.ResetStats();
  ASSERT_TRUE(db.EraseRecord(e4).ok());
  EXPECT_EQ(ProbeName(db, "SAME"), std::make_optional(Ids{}));
  EXPECT_EQ(db.stats().index_hits, 0u);
  // The emptied key takes a record again.
  RecordId e5 = StoreEmpInOwnDiv(&db, "SAME");
  EXPECT_EQ(ProbeName(db, "SAME"), std::make_optional(Ids{e5}));
}

TEST(IndexBucketTest, ModifyMovesAnIdBetweenKeys) {
  Database db = MakeDatabase(testing::CompanyDdl());
  RecordId e1 = StoreEmpInOwnDiv(&db, "ONE");
  RecordId e2 = StoreEmpInOwnDiv(&db, "TWO");
  RecordId e3 = StoreEmpInOwnDiv(&db, "TWO");
  RecordId e4 = StoreEmpInOwnDiv(&db, "TWO");
  // The smallest id joins a key: it becomes the inline id, and the old
  // inline id moves into the sorted rest.
  ASSERT_TRUE(db.ModifyRecord(e1, {{"EMP-NAME", Value::String("TWO")}}).ok());
  EXPECT_EQ(ProbeName(db, "ONE"), std::make_optional(Ids{}));
  EXPECT_EQ(ProbeName(db, "TWO"), std::make_optional(Ids{e1, e2, e3, e4}));
  // A middle id leaves, then comes back between its neighbours.
  ASSERT_TRUE(db.ModifyRecord(e3, {{"EMP-NAME", Value::String("ONE")}}).ok());
  EXPECT_EQ(ProbeName(db, "ONE"), std::make_optional(Ids{e3}));
  EXPECT_EQ(ProbeName(db, "TWO"), std::make_optional(Ids{e1, e2, e4}));
  ASSERT_TRUE(db.ModifyRecord(e3, {{"EMP-NAME", Value::String("TWO")}}).ok());
  EXPECT_EQ(ProbeName(db, "TWO"), std::make_optional(Ids{e1, e2, e3, e4}));
  // The inline id leaves while others remain.
  ASSERT_TRUE(db.ModifyRecord(e1, {{"EMP-NAME", Value::String("ONE")}}).ok());
  EXPECT_EQ(ProbeName(db, "ONE"), std::make_optional(Ids{e1}));
  EXPECT_EQ(ProbeName(db, "TWO"), std::make_optional(Ids{e2, e3, e4}));
  // A rebuild from the store reaches the same buckets.
  db.RebuildIndexes();
  EXPECT_EQ(ProbeName(db, "ONE"), std::make_optional(Ids{e1}));
  EXPECT_EQ(ProbeName(db, "TWO"), std::make_optional(Ids{e2, e3, e4}));
}

}  // namespace
}  // namespace dbpc
