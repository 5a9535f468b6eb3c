#include "storage/store.h"

#include <gtest/gtest.h>

namespace dbpc {
namespace {

TEST(StoreTest, InsertAssignsMonotonicIds) {
  Store store;
  RecordId a = store.Insert("R", {});
  RecordId b = store.Insert("R", {});
  EXPECT_LT(a, b);
  EXPECT_TRUE(store.Exists(a));
  EXPECT_EQ(store.LiveCount(), 2u);
}

TEST(StoreTest, GetReturnsStoredFields) {
  Store store;
  RecordId id = store.Insert("R", {{"F", Value::Int(7)}});
  const StoredRecord* rec = store.Get(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->type, "R");
  EXPECT_EQ(rec->fields.at("F").as_int(), 7);
  EXPECT_EQ(store.Get(999), nullptr);
}

TEST(StoreTest, RemoveDeletesRecord) {
  Store store;
  RecordId id = store.Insert("R", {});
  ASSERT_TRUE(store.Remove(id).ok());
  EXPECT_FALSE(store.Exists(id));
  EXPECT_EQ(store.Remove(id).code(), StatusCode::kNotFound);
}

TEST(StoreTest, AllOfTypeFiltersAndOrders) {
  Store store;
  RecordId a = store.Insert("A", {});
  (void)store.Insert("B", {});
  RecordId a2 = store.Insert("A", {});
  EXPECT_EQ(store.AllOfType("A"), (std::vector<RecordId>{a, a2}));
  EXPECT_EQ(store.AllRecords().size(), 3u);
}

TEST(StoreTest, LinkPositionsMembers) {
  Store store;
  RecordId owner = store.Insert("O", {});
  RecordId m1 = store.Insert("M", {});
  RecordId m2 = store.Insert("M", {});
  RecordId m3 = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("S", owner, m1).ok());
  ASSERT_TRUE(store.LinkLast("S", owner, m3).ok());
  ASSERT_TRUE(store.Link("S", owner, m2, 1).ok());
  EXPECT_EQ(store.Members("S", owner), (std::vector<RecordId>{m1, m2, m3}));
  EXPECT_EQ(store.OwnerOf("S", m2), owner);
}

TEST(StoreTest, LinkBeyondEndClampsToAppend) {
  Store store;
  RecordId owner = store.Insert("O", {});
  RecordId m = store.Insert("M", {});
  ASSERT_TRUE(store.Link("S", owner, m, 99).ok());
  EXPECT_EQ(store.Members("S", owner).back(), m);
}

TEST(StoreTest, DoubleLinkRejected) {
  Store store;
  RecordId owner = store.Insert("O", {});
  RecordId m = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("S", owner, m).ok());
  EXPECT_EQ(store.LinkLast("S", owner, m).code(), StatusCode::kAlreadyExists);
}

TEST(StoreTest, UnlinkRemovesMembership) {
  Store store;
  RecordId owner = store.Insert("O", {});
  RecordId m = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("S", owner, m).ok());
  ASSERT_TRUE(store.Unlink("S", m).ok());
  EXPECT_EQ(store.OwnerOf("S", m), 0u);
  EXPECT_TRUE(store.Members("S", owner).empty());
  EXPECT_EQ(store.Unlink("S", m).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Unlink("NO-SET", m).code(), StatusCode::kNotFound);
}

TEST(StoreTest, IndependentSetsDoNotInterfere) {
  Store store;
  RecordId o1 = store.Insert("O", {});
  RecordId o2 = store.Insert("P", {});
  RecordId m = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("S1", o1, m).ok());
  ASSERT_TRUE(store.LinkLast("S2", o2, m).ok());
  EXPECT_EQ(store.OwnerOf("S1", m), o1);
  EXPECT_EQ(store.OwnerOf("S2", m), o2);
  ASSERT_TRUE(store.Unlink("S1", m).ok());
  EXPECT_EQ(store.OwnerOf("S2", m), o2);
}

TEST(StoreTest, SystemOwnerIsJustAnotherOwnerId) {
  Store store;
  RecordId m = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("SYS", kSystemOwner, m).ok());
  EXPECT_EQ(store.OwnerOf("SYS", m), kSystemOwner);
  EXPECT_EQ(store.Members("SYS", kSystemOwner).size(), 1u);
}

TEST(StoreTest, AllOfTypeKeepsInsertionOrderAcrossRemovals) {
  // Regression for the per-type directory: results must stay in ascending
  // id (insertion) order — exactly what the old full-heap walk produced —
  // with removed ids dropped and later inserts appended.
  Store store;
  RecordId a1 = store.Insert("A", {});
  RecordId b1 = store.Insert("B", {});
  RecordId a2 = store.Insert("A", {});
  RecordId a3 = store.Insert("A", {});
  RecordId b2 = store.Insert("B", {});
  ASSERT_TRUE(store.Remove(a2).ok());
  RecordId a4 = store.Insert("A", {});
  EXPECT_EQ(store.AllOfType("A"), (std::vector<RecordId>{a1, a3, a4}));
  EXPECT_EQ(store.AllOfType("B"), (std::vector<RecordId>{b1, b2}));
  EXPECT_TRUE(store.AllOfType("C").empty());
  EXPECT_EQ(store.AllRecords(), (std::vector<RecordId>{a1, b1, a3, b2, a4}));
}

TEST(StoreTest, OfTypeReferenceSurvivesInsertsOfOtherTypes) {
  // The reference-stability contract the extent loader leans on: the vector
  // OfType returns lives in a node-stable map, so inserting records — even
  // enough distinct types to rehash the per-type directory — never moves
  // it. Only same-type inserts change its contents.
  Store store;
  RecordId a1 = store.Insert("A", {});
  const std::vector<RecordId>& ref = store.OfType("A");
  const std::vector<RecordId>* address = &ref;
  for (int i = 0; i < 200; ++i) {
    store.Insert("T" + std::to_string(i), {});
  }
  EXPECT_EQ(&store.OfType("A"), address);
  EXPECT_EQ(ref, (std::vector<RecordId>{a1}));
  RecordId a2 = store.Insert("A", {});
  EXPECT_EQ(&store.OfType("A"), address);
  EXPECT_EQ(ref, (std::vector<RecordId>{a1, a2}));
}

TEST(StoreTest, GetPointerSurvivesLaterInserts) {
  // Records never move once materialized: bulk loaders may hold a
  // StoredRecord* while later inserts grow the slab, adoptions extend it
  // with columnar ids, and promotions materialize rows around it.
  Store store;
  RecordId id = store.Insert("A", {{"F", Value::Int(7)}});
  const StoredRecord* rec = store.Get(id);
  for (int i = 0; i < 1000; ++i) store.Insert("A", {});
  EXPECT_EQ(store.Get(id), rec);
  RecordId first_promoted = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) store.Insert("A", {});
    ExtentTable t("B", {"G"}, {FieldType::kInt});
    for (int r = 0; r < 10; ++r) t.AppendRow(0, {Value::Int(round * 10 + r)});
    const ExtentTable& rows = store.AdoptExtents(std::move(t));
    ASSERT_NE(store.Get(rows.IdAt(3)), nullptr);  // promotes the row
    if (round == 0) first_promoted = rows.IdAt(3);
  }
  EXPECT_EQ(store.Get(id), rec);
  EXPECT_EQ(rec->fields.at("F").as_int(), 7);
  EXPECT_EQ(store.Get(first_promoted)->fields.at("G").as_int(), 3);
}

TEST(StoreTest, ColumnarRunsExposeAdoptedSegmentsByType) {
  Store store;
  store.Insert("A", {{"F", Value::Int(0)}});  // heap rows are not runs
  ExtentTable a("A", {"F"}, {FieldType::kInt});
  a.AppendRow(0, {Value::Int(1)});
  a.AppendRow(0, {Value::Int(2)});
  ExtentTable b("B", {"G"}, {FieldType::kInt});
  b.AppendRow(0, {Value::Int(3)});
  const ExtentTable& a_rows = store.AdoptExtents(std::move(a));
  store.AdoptExtents(std::move(b));
  std::vector<Store::ColumnarRun> runs = store.ColumnarRuns("A");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].table, &a_rows);
  EXPECT_EQ(runs[0].first_id, a_rows.IdAt(0));
  EXPECT_EQ(runs[0].live, 2u);
  // Promotion vacates the row inside the run (live drops, vacated set):
  // bulk readers can tell the run is no longer a faithful full image.
  ASSERT_NE(store.Get(a_rows.IdAt(1)), nullptr);
  runs = store.ColumnarRuns("A");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].live, 1u);
  EXPECT_TRUE((*runs[0].vacated)[1]);
  EXPECT_TRUE(store.ColumnarRuns("C").empty());
}

TEST(StoreTest, CloneIsDeep) {
  Store store;
  RecordId owner = store.Insert("O", {});
  RecordId m = store.Insert("M", {{"F", Value::Int(1)}});
  RecordId m2 = store.Insert("M", {});
  ASSERT_TRUE(store.LinkLast("S", owner, m).ok());
  ExtentTable t("M", {"F"}, {FieldType::kInt});
  t.AppendRow(0, {Value::Int(3)});
  t.AppendRow(0, {Value::Int(4)});
  const ExtentTable& rows = store.AdoptExtents(std::move(t));
  const RecordId c1 = rows.IdAt(0);
  const RecordId c2 = rows.IdAt(1);

  Store copy = store.Clone();
  // The clone's records are its own allocations, not shared pointers.
  EXPECT_NE(copy.Get(m), store.Get(m));
  ASSERT_TRUE(copy.Unlink("S", m).ok());
  copy.GetMutable(m)->fields["F"] = Value::Int(2);
  ASSERT_TRUE(copy.Remove(m2).ok());
  ASSERT_NE(copy.Get(c1), nullptr);  // promotes in the clone only
  ASSERT_TRUE(copy.Remove(c2).ok());
  copy.Insert("M", {});
  // Original unaffected.
  EXPECT_EQ(store.OwnerOf("S", m), owner);
  EXPECT_EQ(store.Get(m)->fields.at("F").as_int(), 1);
  EXPECT_TRUE(store.Exists(m2));
  EXPECT_TRUE(store.Exists(c2));
  EXPECT_EQ(store.ColumnarRuns("M")[0].live, 2u);
  EXPECT_EQ(store.LiveCount(), 5u);
  EXPECT_EQ(store.AllOfType("M"), (std::vector<RecordId>{m, m2, c1, c2}));
  EXPECT_EQ(copy.LiveCount(), 4u);
}

TEST(StoreTest, LookupsOnIdsThatHoldNoRecord) {
  Store store;
  // Before any insert, nothing resolves.
  EXPECT_EQ(store.Get(1), nullptr);
  EXPECT_FALSE(store.Exists(1));

  RecordId heap = store.Insert("A", {{"F", Value::Int(1)}});
  RecordId removed = store.Insert("A", {});
  ExtentTable t("A", {"F"}, {FieldType::kInt});
  t.AppendRow(0, {Value::Int(2)});
  t.AppendRow(0, {Value::Int(3)});
  const ExtentTable& rows = store.AdoptExtents(std::move(t));
  const RecordId columnar = rows.IdAt(0);
  const RecordId columnar_removed = rows.IdAt(1);
  ASSERT_TRUE(store.Remove(removed).ok());
  ASSERT_TRUE(store.Remove(columnar_removed).ok());
  const RecordId past_end = columnar_removed + 1;

  for (RecordId id : {RecordId{0}, kSystemOwner, past_end, past_end + 1000,
                      removed, columnar_removed}) {
    SCOPED_TRACE(id);
    EXPECT_FALSE(store.Exists(id));
    EXPECT_EQ(store.Get(id), nullptr);
    EXPECT_EQ(store.GetMutable(id), nullptr);
    EXPECT_EQ(store.Remove(id).code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(store.LiveCount(), 2u);

  // A columnar id exists without promotion; Get materializes it once.
  EXPECT_TRUE(store.Exists(columnar));
  EXPECT_EQ(store.ColumnarRuns("A")[0].live, 1u);
  const StoredRecord* rec = store.Get(columnar);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->id, columnar);
  EXPECT_EQ(rec->fields.at("F").as_int(), 2);
  EXPECT_EQ(store.Get(columnar), rec);
  EXPECT_EQ(store.ColumnarRuns("A")[0].live, 0u);
  EXPECT_EQ(store.LiveCount(), 2u);
  // A promoted row is removed from the heap like any inserted record.
  ASSERT_TRUE(store.Remove(columnar).ok());
  EXPECT_FALSE(store.Exists(columnar));
  EXPECT_EQ(store.Remove(columnar).code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.Exists(heap));
  EXPECT_EQ(store.LiveCount(), 1u);
  // Ids are never reused.
  EXPECT_EQ(store.Insert("A", {}), past_end);
}

TEST(StoreTest, AllRecordsAndLiveCountAfterMixedRemovals) {
  Store store;
  RecordId h1 = store.Insert("A", {});
  RecordId h2 = store.Insert("B", {});
  ExtentTable t("A", {"F"}, {FieldType::kInt});
  for (int r = 0; r < 4; ++r) t.AppendRow(0, {Value::Int(r)});
  const ExtentTable& rows = store.AdoptExtents(std::move(t));
  RecordId h3 = store.Insert("B", {});
  ASSERT_NE(store.Get(rows.IdAt(2)), nullptr);  // promoted, still live
  EXPECT_EQ(store.LiveCount(), 7u);

  ASSERT_TRUE(store.Remove(h2).ok());           // heap record
  ASSERT_TRUE(store.Remove(rows.IdAt(0)).ok());  // columnar row
  ASSERT_TRUE(store.Remove(rows.IdAt(2)).ok());  // promoted row
  EXPECT_EQ(store.LiveCount(), 4u);
  EXPECT_EQ(store.AllRecords(),
            (std::vector<RecordId>{h1, rows.IdAt(1), rows.IdAt(3), h3}));
  EXPECT_EQ(store.AllOfType("A"),
            (std::vector<RecordId>{h1, rows.IdAt(1), rows.IdAt(3)}));
  EXPECT_EQ(store.AllOfType("B"), (std::vector<RecordId>{h3}));

  for (RecordId id : store.AllRecords()) ASSERT_TRUE(store.Remove(id).ok());
  EXPECT_EQ(store.LiveCount(), 0u);
  EXPECT_TRUE(store.AllRecords().empty());
}

}  // namespace
}  // namespace dbpc
