#include "engine/find_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::MakeCompanyDatabase;

std::vector<std::string> Names(const Database& db,
                               const std::vector<RecordId>& ids,
                               const std::string& field = "EMP-NAME") {
  std::vector<std::string> out;
  for (RecordId id : ids) out.push_back(db.GetField(id, field)->ToDisplay());
  return out;
}

Result<std::vector<RecordId>> RunFind(const Database& db, const std::string& text) {
  Result<Retrieval> r = ParseRetrieval(text);
  if (!r.ok()) return r.status();
  Retrieval retrieval = *r;
  DBPC_RETURN_IF_ERROR(ResolveFindQuery(db.schema(), &retrieval.query));
  return EvaluateRetrieval(db, retrieval, EmptyHostEnv(), EmptyCollectionEnv());
}

// The paper's first example (section 4.2): all employees older than 30.
TEST(FindQueryTest, PaperExampleOne) {
  Database db = MakeCompanyDatabase();
  Result<std::vector<RecordId>> ids = RunFind(
      db, "FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))");
  ASSERT_TRUE(ids.ok()) << ids.status();
  EXPECT_EQ(Names(db, *ids),
            (std::vector<std::string>{"ADAMS", "CLARK", "DAVIS"}));
}

// The paper's second example: SALES employees of the MACHINERY division.
TEST(FindQueryTest, PaperExampleTwo) {
  Database db = MakeCompanyDatabase();
  Result<std::vector<RecordId>> ids = RunFind(
      db,
      "FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, "
      "EMP(DEPT-NAME = 'SALES'))");
  ASSERT_TRUE(ids.ok()) << ids.status();
  EXPECT_EQ(Names(db, *ids), (std::vector<std::string>{"ADAMS", "BAKER"}));
}

TEST(FindQueryTest, ResultsFollowSetOrdering) {
  Database db = MakeCompanyDatabase();
  Result<std::vector<RecordId>> ids =
      RunFind(db, "FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)");
  ASSERT_TRUE(ids.ok());
  // MACHINERY's employees (sorted by name) then TEXTILES'.
  EXPECT_EQ(Names(db, *ids),
            (std::vector<std::string>{"ADAMS", "BAKER", "CLARK", "DAVIS"}));
}

TEST(FindQueryTest, SortWrapperReorders) {
  Database db = MakeCompanyDatabase();
  Result<std::vector<RecordId>> ids = RunFind(
      db, "SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)) ON (AGE)");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(Names(db, *ids),
            (std::vector<std::string>{"BAKER", "DAVIS", "ADAMS", "CLARK"}));
}

TEST(FindQueryTest, QualificationOnVirtualField) {
  Database db = MakeCompanyDatabase();
  Result<std::vector<RecordId>> ids = RunFind(
      db,
      "FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(DIV-NAME = 'TEXTILES'))");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(Names(db, *ids), (std::vector<std::string>{"DAVIS"}));
}

TEST(FindQueryTest, HostVariableInQualification) {
  Database db = MakeCompanyDatabase();
  Result<Retrieval> r = ParseRetrieval(
      "FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > :MINAGE))");
  ASSERT_TRUE(r.ok());
  Retrieval retrieval = *r;
  ASSERT_TRUE(ResolveFindQuery(db.schema(), &retrieval.query).ok());
  HostEnv env = [](const std::string& name) -> Result<Value> {
    if (name == "MINAGE") return Value::Int(40);
    return Status::NotFound(name);
  };
  Result<std::vector<RecordId>> ids =
      EvaluateRetrieval(db, retrieval, env, EmptyCollectionEnv());
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(Names(db, *ids), (std::vector<std::string>{"CLARK"}));
}

TEST(FindQueryTest, CollectionStartChainsRetrievals) {
  Database db = MakeCompanyDatabase();
  Result<std::vector<RecordId>> divs =
      RunFind(db, "FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-LOC = 'EAST'))");
  ASSERT_TRUE(divs.ok());
  Result<Retrieval> r = ParseRetrieval("FIND(EMP: EASTDIVS, DIV-EMP, EMP)");
  ASSERT_TRUE(r.ok());
  Retrieval retrieval = *r;
  ASSERT_TRUE(ResolveFindQuery(db.schema(), &retrieval.query).ok());
  CollectionEnv collections =
      [&](const std::string& name) -> Result<std::vector<RecordId>> {
    if (name == "EASTDIVS") return *divs;
    return Status::NotFound(name);
  };
  Result<std::vector<RecordId>> ids =
      EvaluateRetrieval(db, retrieval, EmptyHostEnv(), collections);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(Names(db, *ids),
            (std::vector<std::string>{"ADAMS", "BAKER", "CLARK"}));
}

TEST(FindQueryTest, ToStringRoundTrips) {
  const std::string text =
      "FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, "
      "EMP(DEPT-NAME = 'SALES'))";
  Result<FindQuery> q = ParseFindQuery(text);
  ASSERT_TRUE(q.ok());
  Result<FindQuery> again = ParseFindQuery(q->ToString());
  ASSERT_TRUE(again.ok()) << again.status() << " from " << q->ToString();
  EXPECT_EQ(*q, *again);
}

TEST(FindQueryTest, SortRetrievalToStringRoundTrips) {
  const std::string text =
      "SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))) "
      "ON (EMP-NAME, AGE)";
  Result<Retrieval> r = ParseRetrieval(text);
  ASSERT_TRUE(r.ok());
  Result<Retrieval> again = ParseRetrieval(r->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*r, *again);
}

TEST(FindQueryTest, ResolveRejectsNonSystemOpeningSet) {
  Database db = MakeCompanyDatabase();
  Result<FindQuery> q = ParseFindQuery("FIND(EMP: SYSTEM, DIV-EMP, EMP)");
  ASSERT_TRUE(q.ok());
  FindQuery query = *q;
  EXPECT_EQ(ResolveFindQuery(db.schema(), &query).code(),
            StatusCode::kInvalidArgument);
}

TEST(FindQueryTest, ResolveRejectsWrongTarget) {
  Database db = MakeCompanyDatabase();
  FindQuery query = *ParseFindQuery("FIND(DIV: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)");
  EXPECT_FALSE(ResolveFindQuery(db.schema(), &query).ok());
}

TEST(FindQueryTest, ResolveRejectsUnknownStep) {
  Database db = MakeCompanyDatabase();
  FindQuery query = *ParseFindQuery("FIND(EMP: SYSTEM, NO-SUCH, EMP)");
  EXPECT_EQ(ResolveFindQuery(db.schema(), &query).code(),
            StatusCode::kNotFound);
}

TEST(FindQueryTest, ResolveRejectsMismatchedChain) {
  Database db = MakeCompanyDatabase();
  // ALL-DIV yields DIVs; EMP does not match.
  FindQuery query = *ParseFindQuery("FIND(EMP: SYSTEM, ALL-DIV, EMP)");
  EXPECT_FALSE(ResolveFindQuery(db.schema(), &query).ok());
}

TEST(FindQueryTest, ResolveRejectsQualificationOnUnknownField) {
  Database db = MakeCompanyDatabase();
  FindQuery query = *ParseFindQuery(
      "FIND(DIV: SYSTEM, ALL-DIV, DIV(NO-FIELD = 1))");
  EXPECT_EQ(ResolveFindQuery(db.schema(), &query).code(),
            StatusCode::kNotFound);
}

TEST(FindQueryTest, EvaluateUnresolvedQueryFails) {
  Database db = MakeCompanyDatabase();
  FindQuery query = *ParseFindQuery("FIND(DIV: SYSTEM, ALL-DIV, DIV)");
  Result<std::vector<RecordId>> ids =
      EvaluateFind(db, query, EmptyHostEnv(), EmptyCollectionEnv());
  EXPECT_FALSE(ids.ok());
}

// --- SortRecords at a size where an unstable sort would show ---
//
// Below 16 elements std::sort is an insertion sort, which is stable, so
// these cases sort 240 records. Each expectation sorts row numbers by
// (key, row), a total order, so it does not lean on the stability it
// checks.

constexpr int kSortDivs = 4;
constexpr int kSortEmpsPerDiv = 60;
constexpr int kSortEmps = kSortDivs * kSortEmpsPerDiv;

/// EMP-NAME of the i-th EMP stored: a permutation of E000..E239, so a
/// division's retrieval order (by EMP-NAME) is not its store order.
std::string SortEmpName(int i) {
  char name[8];
  std::snprintf(name, sizeof(name), "E%03d", (i * 37) % kSortEmps);
  return name;
}

/// `ids` ordered by (key_of(id), position in `ids`).
template <typename KeyOf>
std::vector<RecordId> ExpectedSort(const std::vector<RecordId>& ids,
                                   KeyOf key_of) {
  std::vector<size_t> rows(ids.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  std::sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    return std::make_pair(key_of(ids[a]), a) <
           std::make_pair(key_of(ids[b]), b);
  });
  std::vector<RecordId> out;
  for (size_t r : rows) out.push_back(ids[r]);
  return out;
}

struct SortEmp {
  std::optional<int64_t> age;
  std::string dept;
};

/// kSortDivs divisions of kSortEmpsPerDiv EMPs. The i-th EMP stored has
/// AGE 30, 40 or 50 by i % 3 (none when `null_age_every` divides i + 1) and
/// one of three DEPT-NAMEs by (i / 2) % 3.
Database MakeSortCompany(std::map<RecordId, SortEmp>* emps,
                         int null_age_every = 0) {
  static const char* kDepts[] = {"SALES", "PLANG", "ADMIN"};
  Database db = testing::MakeDatabase(testing::CompanyDdl());
  int i = 0;
  for (int d = 0; d < kSortDivs; ++d) {
    RecordId div = *db.StoreRecord(
        {"DIV", {{"DIV-NAME", Value::String("DIV-" + std::to_string(d))}}, {}});
    for (int e = 0; e < kSortEmpsPerDiv; ++e, ++i) {
      SortEmp emp{std::nullopt, kDepts[(i / 2) % 3]};
      StoreRequest request{"EMP",
                           {{"EMP-NAME", Value::String(SortEmpName(i))},
                            {"DEPT-NAME", Value::String(emp.dept)}},
                           {{"DIV-EMP", div}}};
      if (null_age_every == 0 || (i + 1) % null_age_every != 0) {
        emp.age = 30 + 10 * (i % 3);
        request.fields["AGE"] = Value::Int(*emp.age);
      }
      (*emps)[*db.StoreRecord(request)] = emp;
    }
  }
  return db;
}

constexpr char kSortFind[] = "FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)";

TEST(SortRecordsTest, TiesKeepRetrievalOrder) {
  std::map<RecordId, SortEmp> emps;
  Database db = MakeSortCompany(&emps);
  Result<std::vector<RecordId>> found = RunFind(db, kSortFind);
  Result<std::vector<RecordId>> sorted =
      RunFind(db, std::string("SORT(") + kSortFind + ") ON (AGE)");
  ASSERT_TRUE(found.ok()) << found.status();
  ASSERT_TRUE(sorted.ok()) << sorted.status();
  ASSERT_EQ(found->size(), static_cast<size_t>(kSortEmps));
  EXPECT_FALSE(std::is_sorted(found->begin(), found->end()));
  std::vector<RecordId> expected;
  for (int64_t age : {30, 40, 50}) {
    for (RecordId id : *found) {
      if (emps[id].age == age) expected.push_back(id);
    }
  }
  EXPECT_EQ(*sorted, expected);
}

TEST(SortRecordsTest, TwoKeysSortLexicographically) {
  std::map<RecordId, SortEmp> emps;
  Database db = MakeSortCompany(&emps);
  Result<std::vector<RecordId>> found = RunFind(db, kSortFind);
  Result<std::vector<RecordId>> sorted = RunFind(
      db, std::string("SORT(") + kSortFind + ") ON (DEPT-NAME, AGE)");
  ASSERT_TRUE(found.ok()) << found.status();
  ASSERT_TRUE(sorted.ok()) << sorted.status();
  EXPECT_EQ(*sorted, ExpectedSort(*found, [&](RecordId id) {
              return std::make_pair(emps[id].dept, *emps[id].age);
            }));
}

TEST(SortRecordsTest, NullKeysSortFirst) {
  std::map<RecordId, SortEmp> emps;
  Database db = MakeSortCompany(&emps, /*null_age_every=*/5);
  Result<std::vector<RecordId>> found = RunFind(db, kSortFind);
  Result<std::vector<RecordId>> sorted =
      RunFind(db, std::string("SORT(") + kSortFind + ") ON (AGE)");
  ASSERT_TRUE(found.ok()) << found.status();
  ASSERT_TRUE(sorted.ok()) << sorted.status();
  std::vector<RecordId> expected = ExpectedSort(*found, [&](RecordId id) {
    return std::make_pair(emps[id].age.has_value(), emps[id].age.value_or(0));
  });
  EXPECT_EQ(*sorted, expected);
  EXPECT_FALSE(emps[sorted->front()].age.has_value());
}

TEST(SortRecordsTest, NumbersCompareAcrossIntAndDouble) {
  Database db = testing::MakeDatabase(testing::CompanyDdl());
  // Stored past StoreRecord's coercion, so AGE holds ints, doubles equal to
  // one of those ints, doubles between them, strings and nulls. Value's
  // order ranks null < number < string and compares int with double
  // numerically.
  std::vector<RecordId> ids;
  std::map<RecordId, std::tuple<int, double, std::string>> keys;
  for (int i = 0; i < kSortEmps; ++i) {
    const int n = (i * 11) % 7;
    Value age;
    std::tuple<int, double, std::string> key{0, 0.0, ""};
    switch (i % 5) {
      case 0:
        age = Value::Int(n);
        key = {1, n, ""};
        break;
      case 1:
        age = Value::Double(n);
        key = {1, n, ""};
        break;
      case 2:
        age = Value::Double(n + 0.5);
        key = {1, n + 0.5, ""};
        break;
      case 3:
        age = Value::String(std::to_string(n));
        key = {2, 0.0, std::to_string(n)};
        break;
      default:
        break;  // null
    }
    RecordId id = db.mutable_store().Insert(
        "EMP", {{"EMP-NAME", Value::String(SortEmpName(i))}, {"AGE", age}});
    ids.push_back(id);
    keys[id] = key;
  }
  Result<std::vector<RecordId>> sorted = SortRecords(db, ids, {"AGE"});
  ASSERT_TRUE(sorted.ok()) << sorted.status();
  EXPECT_EQ(*sorted, ExpectedSort(ids, [&](RecordId id) { return keys[id]; }));
}

TEST(SortRecordsTest, KeyReadThroughChainedVirtualField) {
  // Figure 4.4: EMP.DIV-NAME is DEPT.DIV-NAME, itself DIV.DIV-NAME.
  Database db = testing::MakeDatabase(testing::CompanyRevisedDdl());
  std::map<RecordId, std::pair<std::string, std::string>> keys;
  int i = 0;
  for (int d = 0; d < kSortDivs; ++d) {
    std::string div_name = "DIV-" + std::to_string(d);
    RecordId div = *db.StoreRecord(
        {"DIV", {{"DIV-NAME", Value::String(div_name)}}, {}});
    for (const char* dept_name : {"PLANG", "SALES"}) {
      RecordId dept = *db.StoreRecord({"DEPT",
                                       {{"DEPT-NAME", Value::String(dept_name)}},
                                       {{"DIV-DEPT", div}}});
      for (int e = 0; e < kSortEmpsPerDiv / 2; ++e, ++i) {
        RecordId emp = *db.StoreRecord(
            {"EMP",
             {{"EMP-NAME", Value::String(SortEmpName(i))},
              {"AGE", Value::Int(30)}},
             {{"DEPT-EMP", dept}}});
        keys[emp] = {div_name, SortEmpName(i)};
      }
    }
  }
  const std::string find =
      "FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-DEPT, DEPT, DEPT-EMP, EMP)";
  Result<std::vector<RecordId>> found = RunFind(db, find);
  Result<std::vector<RecordId>> sorted =
      RunFind(db, "SORT(" + find + ") ON (DIV-NAME, EMP-NAME)");
  ASSERT_TRUE(found.ok()) << found.status();
  ASSERT_TRUE(sorted.ok()) << sorted.status();
  ASSERT_EQ(found->size(), static_cast<size_t>(kSortEmps));
  std::vector<RecordId> expected =
      ExpectedSort(*found, [&](RecordId id) { return keys[id]; });
  EXPECT_NE(*found, expected);
  EXPECT_EQ(*sorted, expected);
}

TEST(SortRecordsTest, UnknownFieldReturnsGetFieldsError) {
  std::map<RecordId, SortEmp> emps;
  Database db = MakeSortCompany(&emps);
  std::vector<RecordId> ids = db.AllOfType("EMP");
  Result<std::vector<RecordId>> sorted =
      SortRecords(db, ids, {"AGE", "NO-SUCH"});
  ASSERT_FALSE(sorted.ok());
  Status read = db.GetField(ids.front(), "NO-SUCH").status();
  EXPECT_EQ(sorted.status().code(), read.code());
  EXPECT_EQ(sorted.status().message(), read.message());
  EXPECT_EQ(read.message(), "field EMP.NO-SUCH");
}

TEST(PredicateTest, AndOrNotEvaluation) {
  Database db = MakeCompanyDatabase();
  Predicate p = Predicate::And(
      Predicate::Compare("DEPT-NAME", CompareOp::kEq,
                         Operand::Literal(Value::String("SALES"))),
      Predicate::Not(Predicate::Compare("AGE", CompareOp::kLt,
                                        Operand::Literal(Value::Int(30)))));
  Result<std::vector<RecordId>> ids = db.SelectWhere("EMP", p, EmptyHostEnv());
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(Names(db, *ids), (std::vector<std::string>{"ADAMS", "DAVIS"}));
}

TEST(PredicateTest, NullComparisonsAreFalse) {
  Database db = MakeCompanyDatabase();
  RecordId machinery = db.SystemMembers("ALL-DIV")[0];
  RecordId emp = *db.StoreRecord(
      {"EMP", {{"EMP-NAME", Value::String("NOAGE")}}, {{"DIV-EMP", machinery}}});
  Predicate lt = Predicate::Compare("AGE", CompareOp::kLt,
                                    Operand::Literal(Value::Int(100)));
  Result<bool> r = lt.Evaluate(db.FieldGetter(emp), EmptyHostEnv());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  Predicate is_null = Predicate::Compare("AGE", CompareOp::kIsNull,
                                         Operand::Literal(Value::Null()));
  EXPECT_TRUE(*is_null.Evaluate(db.FieldGetter(emp), EmptyHostEnv()));
}

TEST(PredicateTest, RenameFieldRewritesReferences) {
  Predicate p = Predicate::Or(
      Predicate::Compare("A", CompareOp::kEq, Operand::Literal(Value::Int(1))),
      Predicate::Compare("A", CompareOp::kGt, Operand::Literal(Value::Int(5))));
  EXPECT_EQ(p.RenameField("A", "B"), 2);
  std::vector<std::string> fields;
  p.CollectFields(&fields);
  EXPECT_EQ(fields, (std::vector<std::string>{"B"}));
}

TEST(PredicateTest, ToStringAndEquality) {
  Predicate p = Predicate::Compare("AGE", CompareOp::kGe,
                                   Operand::HostVar("MIN"));
  EXPECT_EQ(p.ToString(), "AGE >= :MIN");
  Predicate q = p;
  EXPECT_EQ(p, q);
  EXPECT_EQ(q.RenameField("AGE", "YEARS"), 1);
  EXPECT_FALSE(p == q);
}

TEST(PredicateTest, CollectHostVars) {
  Predicate p = Predicate::And(
      Predicate::Compare("A", CompareOp::kEq, Operand::HostVar("X")),
      Predicate::Compare("B", CompareOp::kEq, Operand::HostVar("Y")));
  std::vector<std::string> vars;
  p.CollectHostVars(&vars);
  EXPECT_EQ(vars, (std::vector<std::string>{"X", "Y"}));
}

TEST(QueryCompareTest, NumericStringAgainstNumber) {
  // PIC X ages still compare numerically against int literals.
  EXPECT_EQ(QueryCompare(Value::String("31"), Value::Int(30)).value(), 1);
  EXPECT_EQ(QueryCompare(Value::String("9"), Value::Int(30)).value(), -1);
  EXPECT_FALSE(QueryCompare(Value::Null(), Value::Int(1)).has_value());
}

}  // namespace
}  // namespace dbpc
