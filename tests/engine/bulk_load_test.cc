// The bulk extent path: SnapshotExtents / BulkLoad round trips, and
// RebuildIndexes correctness after bulk loads through mutable_store() —
// including the uniqueness-probe rebuild.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/predicate.h"
#include "storage/extent.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::CompanyDdl;
using testing::MakeCompanyDatabase;
using testing::MakeDatabase;
using testing::SchoolDdl;

Predicate Eq(const std::string& field, Value v) {
  return Predicate::Compare(field, CompareOp::kEq,
                            Operand::Literal(std::move(v)));
}

TEST(SnapshotExtentsTest, ColumnsAreActualFieldsInDeclarationOrder) {
  Database db = MakeCompanyDatabase();
  Result<ExtentTable> table = db.SnapshotExtents("EMP");
  ASSERT_TRUE(table.ok()) << table.status();
  // Virtual DIV-NAME is not a stored column.
  EXPECT_EQ(table->field_names(),
            (std::vector<std::string>{"EMP-NAME", "DEPT-NAME", "AGE"}));
  EXPECT_EQ(table->rows(), db.AllOfType("EMP").size());
}

TEST(SnapshotExtentsTest, RowsMatchStoreAscendingById) {
  Database db = MakeCompanyDatabase();
  Result<ExtentTable> table = db.SnapshotExtents("EMP");
  ASSERT_TRUE(table.ok()) << table.status();
  std::vector<RecordId> ids = db.AllOfType("EMP");
  ASSERT_EQ(table->rows(), ids.size());
  for (size_t r = 0; r < ids.size(); ++r) {
    EXPECT_EQ(table->IdAt(r), ids[r]);
    const StoredRecord* rec = db.raw_store().Get(ids[r]);
    ASSERT_NE(rec, nullptr);
    for (size_t c = 0; c < table->columns(); ++c) {
      auto it = rec->fields.find(table->field_names()[c]);
      Value expect = it == rec->fields.end() ? Value::Null() : it->second;
      EXPECT_TRUE(table->At(r, c) == expect)
          << "row " << r << " col " << table->field_names()[c];
    }
  }
}

TEST(SnapshotExtentsTest, UnknownTypeIsNotFound) {
  Database db = MakeCompanyDatabase();
  Result<ExtentTable> table = db.SnapshotExtents("NOPE");
  EXPECT_EQ(table.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotExtentsTest, SnapshotDoesNotDisturbOpStats) {
  Database db = MakeCompanyDatabase();
  db.ResetStats();
  ASSERT_TRUE(db.SnapshotExtents("EMP").ok());
  EXPECT_EQ(db.stats().Total(), 0u);
}

TEST(BulkLoadTest, RoundTripPreservesRecordsAndReturnsAscendingIds) {
  Database source = MakeCompanyDatabase();
  Database target = MakeDatabase(CompanyDdl());
  for (const char* type : {"DIV", "EMP"}) {
    Result<ExtentTable> table = source.SnapshotExtents(type);
    ASSERT_TRUE(table.ok()) << table.status();
    Result<std::vector<RecordId>> ids = target.BulkLoad(*table);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ASSERT_EQ(ids->size(), table->rows());
    for (size_t i = 1; i < ids->size(); ++i) {
      EXPECT_LT((*ids)[i - 1], (*ids)[i]);
    }
    // Values land verbatim.
    for (size_t r = 0; r < table->rows(); ++r) {
      const StoredRecord* rec = target.raw_store().Get((*ids)[r]);
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(rec->type, type);
      for (size_t c = 0; c < table->columns(); ++c) {
        EXPECT_TRUE(rec->fields.at(table->field_names()[c]) ==
                    table->At(r, c));
      }
    }
  }
  EXPECT_EQ(target.RecordCount(), source.RecordCount());
}

TEST(BulkLoadTest, RebuildsSecondaryIndexesForProbes) {
  Database source = MakeCompanyDatabase();
  Database target = MakeDatabase(CompanyDdl());
  Result<ExtentTable> table = source.SnapshotExtents("EMP");
  ASSERT_TRUE(table.ok()) << table.status();
  Result<std::vector<RecordId>> ids = target.BulkLoad(*table);
  ASSERT_TRUE(ids.ok()) << ids.status();

  // EMP-NAME carries an eager secondary index (DIV-EMP set key); BulkLoad
  // must leave it answering probes over the loaded rows.
  auto probe = target.ProbeIndex("EMP", "EMP-NAME", Value::String("ADAMS"));
  ASSERT_TRUE(probe.has_value());
  ASSERT_EQ(probe->size(), 1u);
  EXPECT_EQ(target.raw_store().Get((*probe)[0])->fields.at("EMP-NAME")
                .as_string(),
            "ADAMS");

  // Probe and scan agree after the bulk load.
  Predicate pred = Eq("EMP-NAME", Value::String("DAVIS"));
  target.SetIndexOptions(IndexOptions{});
  Result<std::vector<RecordId>> probed =
      target.SelectWhere("EMP", pred, EmptyHostEnv());
  target.SetIndexOptions({.enabled = false, .auto_join_indexes = false});
  Result<std::vector<RecordId>> scanned =
      target.SelectWhere("EMP", pred, EmptyHostEnv());
  ASSERT_TRUE(probed.ok());
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(*probed, *scanned);
  EXPECT_EQ(probed->size(), 1u);
}

TEST(BulkLoadTest, RejectsUnknownTypeUnknownColumnAndVirtualColumn) {
  Database db = MakeDatabase(CompanyDdl());
  ExtentTable unknown_type("NOPE", {"F"}, {FieldType::kString});
  EXPECT_EQ(db.BulkLoad(unknown_type).status().code(), StatusCode::kNotFound);

  ExtentTable unknown_col("EMP", {"NO-SUCH"}, {FieldType::kString});
  Status s = db.BulkLoad(unknown_col).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("no field"), std::string::npos) << s;

  ExtentTable virtual_col("EMP", {"DIV-NAME"}, {FieldType::kString});
  s = db.BulkLoad(virtual_col).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("virtual"), std::string::npos) << s;
}

TEST(RebuildIndexesTest, RestoresProbesAfterMutableStoreLoad) {
  Database db = MakeDatabase(CompanyDdl());
  for (int i = 0; i < 50; ++i) {
    db.mutable_store().Insert(
        "EMP", {{"EMP-NAME", Value::String("E" + std::to_string(i))},
                {"DEPT-NAME", Value::String("SALES")},
                {"AGE", Value::Int(20 + i % 40)}});
  }
  db.RebuildIndexes();
  auto probe = db.ProbeIndex("EMP", "EMP-NAME", Value::String("E7"));
  ASSERT_TRUE(probe.has_value());
  ASSERT_EQ(probe->size(), 1u);
  EXPECT_EQ(db.raw_store().Get((*probe)[0])->fields.at("EMP-NAME").as_string(),
            "E7");
}

TEST(RebuildIndexesTest, RebuildsUniquenessProbeAfterMutableStoreLoad) {
  Database db = MakeDatabase(SchoolDdl());
  db.mutable_store().Insert("COURSE", {{"CNO", Value::String("CS101")},
                                       {"CNAME", Value::String("INTRO")}});
  db.RebuildIndexes();
  // The rebuilt uniqueness probe must see the bulk-loaded key: storing a
  // duplicate CNO through the validated path is a constraint violation...
  StoreRequest dup{"COURSE",
                   {{"CNO", Value::String("CS101")},
                    {"CNAME", Value::String("INTRO AGAIN")}},
                   {}};
  Result<RecordId> stored = db.StoreRecord(dup);
  ASSERT_FALSE(stored.ok());
  EXPECT_EQ(stored.status().code(), StatusCode::kConstraintViolation);
  EXPECT_NE(stored.status().message().find("duplicate key"),
            std::string::npos)
      << stored.status();
  // ...while a fresh key stores fine.
  StoreRequest fresh{"COURSE",
                     {{"CNO", Value::String("CS102")},
                      {"CNAME", Value::String("DATA")}},
                     {}};
  EXPECT_TRUE(db.StoreRecord(fresh).ok());
}

TEST(RebuildIndexesTest, LowCardinalityFieldProbesLikeAScan) {
  // 1,200 EMPs over three DEPT-NAME keys: every bucket holds one inline id
  // and several hundred more. Both index builds (EnsureFieldIndex on first
  // use, RebuildIndexes after it) must answer each key with the ids a scan
  // keeps, ascending, and charge one index_hit per id.
  Database db = MakeDatabase(CompanyDdl());
  const char* const kDepts[] = {"SALES", "PLANS", "TOOLS"};
  ExtentTable table("EMP", {"EMP-NAME", "DEPT-NAME", "AGE"},
                    {FieldType::kString, FieldType::kString, FieldType::kInt});
  for (int i = 0; i < 1200; ++i) {
    // Keys recur in an irregular pattern, not in runs, 400 ids each.
    table.AppendRow(0, {Value::String("E" + std::to_string(i)),
                        Value::String(kDepts[(i + i / 3 + i / 11) % 3]),
                        Value::Int(20 + i % 40)});
  }
  ASSERT_TRUE(db.BulkLoad(table).ok());
  ASSERT_TRUE(db.EnsureFieldIndex("EMP", "DEPT-NAME"));
  for (int build = 0; build < 2; ++build) {
    SCOPED_TRACE(build == 0 ? "EnsureFieldIndex" : "RebuildIndexes");
    size_t total = 0;
    for (const char* dept : kDepts) {
      std::vector<RecordId> scanned;
      for (RecordId id : db.raw_store().OfType("EMP")) {
        if (db.raw_store().Get(id)->fields.at("DEPT-NAME").as_string() ==
            dept) {
          scanned.push_back(id);
        }
      }
      db.ResetStats();
      auto probed = db.ProbeIndex("EMP", "DEPT-NAME", Value::String(dept));
      ASSERT_TRUE(probed.has_value());
      EXPECT_EQ(*probed, scanned) << dept;
      EXPECT_EQ(db.stats().index_probes, 1u);
      EXPECT_EQ(db.stats().index_hits, scanned.size());
      EXPECT_GT(scanned.size(), 350u);
      total += scanned.size();
    }
    EXPECT_EQ(total, 1200u);
    db.RebuildIndexes();
  }
}

}  // namespace
}  // namespace dbpc
