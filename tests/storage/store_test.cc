#include "storage/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

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

std::vector<RecordId> Ids(Store::TypeView view) {
  std::vector<RecordId> ids;
  for (RecordId id : view) ids.push_back(id);
  return ids;
}

TEST(StoreTest, OfTypeReferenceSurvivesInsertsOfOtherTypes) {
  // The view's contract: it points into a node-stable map, so inserting
  // records — even enough distinct types to rehash the per-type directory —
  // never invalidates it, and it always shows the type's current live ids,
  // across same-type inserts and removals (compactions included).
  Store store;
  RecordId a1 = store.Insert("A", {});
  Store::TypeView view = store.OfType("A");
  for (int i = 0; i < 200; ++i) {
    store.Insert("T" + std::to_string(i), {});
  }
  EXPECT_EQ(Ids(view), (std::vector<RecordId>{a1}));
  EXPECT_EQ(view.size(), 1u);
  RecordId a2 = store.Insert("A", {});
  EXPECT_EQ(Ids(view), (std::vector<RecordId>{a1, a2}));
  EXPECT_EQ(view.size(), 2u);
  ASSERT_TRUE(store.Remove(a1).ok());
  EXPECT_EQ(Ids(view), (std::vector<RecordId>{a2}));
  ASSERT_TRUE(store.Remove(a2).ok());  // tombstones outnumber live: compacts
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.begin(), view.end());
  RecordId a3 = store.Insert("A", {});
  EXPECT_EQ(Ids(view), (std::vector<RecordId>{a3}));
  EXPECT_EQ(view.size(), 1u);
  EXPECT_TRUE(store.OfType("NEVER-HELD").empty());
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

// --- the per-type directory ----------------------------------------------
//
// Every fuzz axis compares two runs over the same Store, so a directory
// defect shared by both runs never diverges; these tests pin the directory
// against an explicit reference instead.

TEST(StoreTest, RemovingMostOfATypeThenRemovingAndInsertingAgain) {
  Store store;
  std::vector<RecordId> a;
  std::vector<RecordId> b;
  for (int i = 0; i < 10; ++i) {
    a.push_back(store.Insert("A", {}));
    b.push_back(store.Insert("B", {}));
  }
  // Keep a[0], a[3] and a[6]. The directory crosses its compaction point
  // (tombstones > live) on the sixth removal, and the view must read the
  // same before and after.
  std::vector<RecordId> want = a;
  for (int i : {1, 2, 4, 5, 7, 8, 9}) {
    ASSERT_TRUE(store.Remove(a[i]).ok());
    want.erase(std::find(want.begin(), want.end(), a[i]));
    EXPECT_EQ(Ids(store.OfType("A")), want) << "after removing a[" << i << "]";
    EXPECT_EQ(store.OfType("A").size(), want.size());
  }
  ASSERT_TRUE(store.Remove(a[3]).ok());
  RecordId a10 = store.Insert("A", {});
  EXPECT_EQ(Ids(store.OfType("A")), (std::vector<RecordId>{a[0], a[6], a10}));
  for (RecordId id : {a[0], a[6], a10}) ASSERT_TRUE(store.Remove(id).ok());
  EXPECT_TRUE(store.OfType("A").empty());
  RecordId a11 = store.Insert("A", {});
  EXPECT_EQ(Ids(store.OfType("A")), (std::vector<RecordId>{a11}));
  EXPECT_EQ(store.AllOfType("A"), (std::vector<RecordId>{a11}));
  EXPECT_EQ(Ids(store.OfType("B")), b);
  EXPECT_EQ(store.LiveCount(), 11u);
}

TEST(StoreTest, CloneThenRemoveLeavesTheOtherDirectoryUnchanged) {
  Store store;
  std::vector<RecordId> a;
  for (int i = 0; i < 6; ++i) a.push_back(store.Insert("A", {}));
  Store copy = store.Clone();
  for (int i : {0, 1, 2, 4}) ASSERT_TRUE(copy.Remove(a[i]).ok());  // compacts
  EXPECT_EQ(Ids(copy.OfType("A")), (std::vector<RecordId>{a[3], a[5]}));
  EXPECT_EQ(Ids(store.OfType("A")), a);
  EXPECT_EQ(store.OfType("A").size(), 6u);
  ASSERT_TRUE(store.Remove(a[3]).ok());
  EXPECT_EQ(Ids(copy.OfType("A")), (std::vector<RecordId>{a[3], a[5]}));
  EXPECT_EQ(Ids(store.OfType("A")),
            (std::vector<RecordId>{a[0], a[1], a[2], a[4], a[5]}));
  // A tombstone the copy inherits is the copy's own to compact.
  Store second = store.Clone();
  ASSERT_TRUE(second.Remove(a[0]).ok());
  ASSERT_TRUE(second.Remove(a[1]).ok());
  ASSERT_TRUE(second.Remove(a[2]).ok());
  EXPECT_EQ(Ids(second.OfType("A")), (std::vector<RecordId>{a[4], a[5]}));
  EXPECT_EQ(store.OfType("A").size(), 5u);
}

TEST(StoreTest, RemovingColumnarAndPromotedRowsUpdatesTheView) {
  Store store;
  RecordId h = store.Insert("A", {});
  ExtentTable t("A", {"F"}, {FieldType::kInt});
  for (int r = 0; r < 4; ++r) t.AppendRow(0, {Value::Int(r)});
  const ExtentTable& rows = store.AdoptExtents(std::move(t));
  EXPECT_EQ(Ids(store.OfType("A")),
            (std::vector<RecordId>{h, rows.IdAt(0), rows.IdAt(1),
                                   rows.IdAt(2), rows.IdAt(3)}));
  ASSERT_NE(store.Get(rows.IdAt(1)), nullptr);  // promotes
  ASSERT_TRUE(store.Remove(rows.IdAt(0)).ok());  // still columnar
  ASSERT_TRUE(store.Remove(rows.IdAt(1)).ok());  // promoted
  EXPECT_EQ(Ids(store.OfType("A")),
            (std::vector<RecordId>{h, rows.IdAt(2), rows.IdAt(3)}));
  EXPECT_EQ(store.OfType("A").size(), 3u);
  EXPECT_EQ(store.ColumnarRuns("A")[0].live, 2u);
  ASSERT_TRUE(store.Remove(h).ok());  // compacts: 3 tombstones, 2 live
  EXPECT_EQ(Ids(store.OfType("A")),
            (std::vector<RecordId>{rows.IdAt(2), rows.IdAt(3)}));
}

TEST(StoreTest, SecondRemoveIsNotFoundAndLeavesSizeUnchanged) {
  Store store;
  RecordId a1 = store.Insert("A", {});
  RecordId a2 = store.Insert("A", {});
  RecordId a3 = store.Insert("A", {});
  ExtentTable t("A", {"F"}, {FieldType::kInt});
  t.AppendRow(0, {Value::Int(1)});
  const RecordId c = store.AdoptExtents(std::move(t)).IdAt(0);
  ASSERT_TRUE(store.Remove(a2).ok());
  ASSERT_TRUE(store.Remove(c).ok());
  for (RecordId id : {a2, c}) {
    SCOPED_TRACE(id);
    EXPECT_EQ(store.Remove(id).code(), StatusCode::kNotFound);
    EXPECT_EQ(store.OfType("A").size(), 2u);
    EXPECT_EQ(Ids(store.OfType("A")), (std::vector<RecordId>{a1, a3}));
  }
  EXPECT_EQ(store.LiveCount(), 2u);
}

/// Checks every read of the directory against `model` (type -> live ids);
/// `next_id` bounds the ids ever issued.
void CheckAgainstModel(const Store& store,
                        const std::map<std::string, std::set<RecordId>>& model,
                        RecordId next_id) {
  std::set<RecordId> all;
  for (const auto& [type, ids] : model) {
    SCOPED_TRACE(type);
    const std::vector<RecordId> want(ids.begin(), ids.end());
    ASSERT_EQ(Ids(store.OfType(type)), want);
    ASSERT_EQ(store.OfType(type).size(), want.size());
    ASSERT_EQ(store.AllOfType(type), want);
    all.insert(ids.begin(), ids.end());
  }
  ASSERT_EQ(store.AllRecords(), std::vector<RecordId>(all.begin(), all.end()));
  ASSERT_EQ(store.LiveCount(), all.size());
  for (RecordId id = 0; id <= next_id; ++id) {
    ASSERT_EQ(store.Exists(id), all.count(id) == 1) << "id " << id;
  }
}

TEST(StoreTest, DirectoryMatchesAReferenceModelUnderRandomOperations) {
  // Random Insert, AdoptExtents, Get (which promotes columnar rows) and
  // Remove over three types, in alternating growth and shrink phases so
  // that every type crosses the compaction point many times.
  const std::vector<std::string> types = {"A", "B", "C"};
  for (uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    auto pick = [&rng](size_t n) {
      return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
    };
    Store store;
    std::map<std::string, std::set<RecordId>> model;
    std::map<RecordId, std::string> type_of;  // every id ever issued
    std::map<std::string, size_t> tombstones;  // mirrors the compaction rule
    RecordId next_id = 1;
    int compactions = 0;
    for (const std::string& type : types) model[type];
    for (int step = 0; step < 1200; ++step) {
      const bool shrinking = (step / 60) % 2 == 1;
      const size_t roll = pick(100);
      const std::string& type = types[pick(types.size())];
      std::vector<RecordId> live;
      for (const auto& [t, ids] : model) {
        live.insert(live.end(), ids.begin(), ids.end());
      }
      if (roll < (shrinking ? 10u : 45u)) {
        RecordId id = store.Insert(type, {{"F", Value::Int(step)}});
        ASSERT_EQ(id, next_id++);
        model[type].insert(id);
        type_of[id] = type;
      } else if (roll < (shrinking ? 12u : 65u)) {
        ExtentTable t(type, {"F"}, {FieldType::kInt});
        const size_t n = pick(7);
        for (size_t r = 0; r < n; ++r) {
          t.AppendRow(0, {Value::Int(static_cast<int64_t>(r))});
        }
        const ExtentTable& rows = store.AdoptExtents(std::move(t));
        for (size_t r = 0; r < n; ++r) {
          ASSERT_EQ(rows.IdAt(r), next_id++);
          model[type].insert(rows.IdAt(r));
          type_of[rows.IdAt(r)] = type;
        }
      } else if (roll < (shrinking ? 20u : 80u)) {
        if (next_id == 1) continue;
        const RecordId id = 1 + pick(next_id - 1);
        const StoredRecord* rec = store.Get(id);
        const bool is_live = model[type_of[id]].count(id) == 1;
        ASSERT_EQ(rec != nullptr, is_live) << "Get " << id;
        if (rec != nullptr) {
          EXPECT_EQ(rec->id, id);
          EXPECT_EQ(rec->type, type_of[id]);
        }
      } else {
        // Mostly live ids; sometimes any issued id, removed ones included.
        RecordId id = 0;
        if (!live.empty() && pick(10) != 0) {
          id = live[pick(live.size())];
        } else if (next_id > 1) {
          id = 1 + pick(next_id - 1);
        } else {
          continue;
        }
        const std::string& id_type = type_of[id];
        const bool is_live = model[id_type].erase(id) == 1;
        ASSERT_EQ(store.Remove(id).code(),
                  is_live ? StatusCode::kOk : StatusCode::kNotFound)
            << "Remove " << id;
        if (is_live && ++tombstones[id_type] > model[id_type].size()) {
          tombstones[id_type] = 0;
          ++compactions;
        }
      }
      ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(store, model, next_id))
          << "step " << step;
    }
    EXPECT_GE(compactions, 20);
  }
}

// --- Unlink's bisection, and the bulk linker's positional Link ----------

TEST(StoreUnlinkTest, FindsAMemberOfAnAscendingOccurrenceAndKeepsOrder) {
  Store store;
  RecordId owner = store.Insert("O", {});
  std::vector<RecordId> members;
  for (int i = 0; i < 9; ++i) {
    members.push_back(store.Insert("M", {}));
    ASSERT_TRUE(store.LinkLast("S", owner, members.back()).ok());
  }
  // First, last and middle entries: each found where the ids ascend.
  for (size_t at : {size_t{0}, size_t{7}, size_t{3}}) {
    RecordId m = members[at];
    ASSERT_TRUE(store.Unlink("S", m).ok());
    members.erase(members.begin() + static_cast<long>(at));
    EXPECT_EQ(store.Members("S", owner), members);
    EXPECT_FALSE(store.IsMember("S", m));
  }
  EXPECT_EQ(store.Unlink("S", members[0] + 100).code(),
            StatusCode::kNotFound);
}

TEST(StoreUnlinkTest, FallsBackToAScanOutOfIdOrder) {
  Store store;
  RecordId owner = store.Insert("O", {});
  std::vector<RecordId> m;
  for (int i = 0; i < 5; ++i) {
    m.push_back(store.Insert("M", {}));
    ASSERT_TRUE(store.LinkLast("S", owner, m.back()).ok());
  }
  // Disconnect and reconnect an early member: [m0 m2 m3 m4 m1].
  ASSERT_TRUE(store.Unlink("S", m[1]).ok());
  ASSERT_TRUE(store.LinkLast("S", owner, m[1]).ok());
  ASSERT_EQ(store.Members("S", owner),
            (std::vector<RecordId>{m[0], m[2], m[3], m[4], m[1]}));
  // Bisecting for m1 lands on m2; the scan finds m1 at the end.
  ASSERT_TRUE(store.Unlink("S", m[1]).ok());
  EXPECT_EQ(store.Members("S", owner),
            (std::vector<RecordId>{m[0], m[2], m[3], m[4]}));
  // Key order unlike id order: [m4 m3 m2 m0], every member removable.
  Store sorted;
  RecordId o = sorted.Insert("O", {});
  std::vector<RecordId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(sorted.Insert("M", {}));
  for (RecordId id : ids) ASSERT_TRUE(sorted.Link("S", o, id, 0).ok());
  ASSERT_TRUE(sorted.Unlink("S", ids[1]).ok());
  EXPECT_EQ(sorted.Members("S", o),
            (std::vector<RecordId>{ids[3], ids[2], ids[0]}));
  ASSERT_TRUE(sorted.Unlink("S", ids[3]).ok());
  ASSERT_TRUE(sorted.Unlink("S", ids[0]).ok());
  EXPECT_EQ(sorted.Members("S", o), (std::vector<RecordId>{ids[2]}));
}

TEST(StoreBulkLinkerTest, PositionalLinkMatchesStoreLink) {
  Store linked;
  Store reference;
  for (Store* store : {&linked, &reference}) {
    for (int i = 0; i < 6; ++i) store->Insert("M", {});
  }
  const RecordId o1 = linked.Insert("O", {});
  const RecordId o2 = reference.Insert("O", {});
  ASSERT_EQ(o1, o2);
  Store::BulkLinker linker = linked.LinkerFor("S", 6);
  struct Step {
    RecordId owner;
    RecordId member;
    size_t position;
  };
  // Front, back, middle, beyond the end (clamped) and a second owner.
  for (const Step& step : {Step{o1, 1, 0}, Step{o1, 2, 0}, Step{o1, 3, 2},
                           Step{o1, 4, 1}, Step{o1, 5, 99},
                           Step{kSystemOwner, 6, 0}}) {
    ASSERT_TRUE(linker.Link(step.owner, step.member, step.position).ok());
    ASSERT_TRUE(
        reference.Link("S", step.owner, step.member, step.position).ok());
    EXPECT_EQ(linker.Members(step.owner), reference.Members("S", step.owner));
  }
  EXPECT_EQ(linked.Members("S", o1), reference.Members("S", o1));
  EXPECT_EQ(linked.OwnerOf("S", 4), o1);
  // The already-a-member refusal, text included.
  Status again = linker.Link(kSystemOwner, 3, 0);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(again.message(), reference.Link("S", kSystemOwner, 3, 0).message());
  EXPECT_EQ(linked.Members("S", o1), reference.Members("S", o1));
  EXPECT_EQ(linker.Members(kSystemOwner), (std::vector<RecordId>{6}));
}

}  // namespace
}  // namespace dbpc
