// Experiment E11 — engine index access paths (equality probes and hash
// value-joins vs. full scans).
//
// Claim: the engine's equality indexes turn the dominant O(N) / O(N·M)
// access paths — SelectWhere equality lookups, qualified FIND steps and
// value-joins — into O(1)/O(k) probes without changing results. Method:
// populate a COMPANY+LOCATION instance at 10^2..10^5 records, run each
// workload with index probing enabled and disabled (the data and queries
// are identical; IndexOptions only switches the access path) and compare
// measured engine operations (OpStats totals) and wall time. Results are
// also diffed: a workload whose indexed rows differ from its scan rows
// voids the measurement.
//
//   bench_index_paths                  full table (10^2..10^5 records)
//   bench_index_paths --smoke          10^3 only + hard assertions; exit 1
//                                      unless equality-select and value-join
//                                      are >= 10x cheaper with indexes on
//   bench_index_paths --json <file>    also write the rows as JSON (the
//                                      BENCH_engine.json baseline format)
//
// A second table prices single engine operations in ns/op, with the host
// stamp, on the migrate-shaped COMPANY database: Store::Get, GetField on an
// actual and on a virtual field, and a key-sorted StoreRecord into
// occurrences of 64 (DIV-EMP) and 1540 (ALL-DIV) members.
//
// Like E10 this is a plain table program: op counts are deterministic,
// and wall time is reported per-workload rather than via google-benchmark
// because the interesting ratio (indexed vs. scan) spans orders of
// magnitude that timing harness repetition would only slow down.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/find_query.h"
#include "lang/parser.h"
#include "schema/ddl_parser.h"

namespace dbpc {
namespace {

/// COMPANY (Figure 4.3 shape) plus an unassociated LOCATION type sharing
/// the DIV-LOC value domain — the value-join target — and a system-owned
/// ALL-EMP entry point for qualified FIND steps. The large sets are
/// chronological (keyed ordering costs a linear member walk per insert,
/// which would dominate population at 10^5); EMP point lookups index
/// through the UNIQUE constraint instead.
const char* kIndexBenchDdl = R"(
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
  END RECORD.
  RECORD NAME IS LOCATION.
  FIELDS ARE.
    LOC-CODE PIC X(12).
    CITY PIC X(16).
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS ALL-DIV.
  OWNER IS SYSTEM.
  MEMBER IS DIV.
  SET KEYS ARE (DIV-NAME).
  END SET.
  SET NAME IS ALL-EMP.
  OWNER IS SYSTEM.
  MEMBER IS EMP.
  END SET.
  SET NAME IS DIV-EMP.
  OWNER IS DIV.
  MEMBER IS EMP.
  END SET.
END SET SECTION.
CONSTRAINT SECTION.
  CONSTRAINT UNIQ-EMP-NAME IS UNIQUE ON EMP (EMP-NAME).
END CONSTRAINT SECTION.
END SCHEMA.
)";

constexpr int kDivisions = 20;

/// `n` employees spread over kDivisions divisions plus `n` locations, of
/// which only the first kDivisions LOC-CODEs match a DIV-LOC (so the join
/// fan-in stays fixed while the scanned type grows).
Database MakeInstance(int n) {
  Database db = testing::MakeDatabase(kIndexBenchDdl);
  std::vector<RecordId> divs;
  for (int d = 0; d < kDivisions; ++d) {
    char div_name[32], loc[32];
    std::snprintf(div_name, sizeof(div_name), "DIV-%04d", d);
    std::snprintf(loc, sizeof(loc), "LOC-%07d", d);
    divs.push_back(bench::Value(
        db.StoreRecord({"DIV",
                        {{"DIV-NAME", Value::String(div_name)},
                         {"DIV-LOC", Value::String(loc)}},
                        {}}),
        "store DIV"));
  }
  static const char* kDepts[] = {"SALES", "PLANG", "ADMIN"};
  for (int e = 0; e < n; ++e) {
    char emp_name[32];
    std::snprintf(emp_name, sizeof(emp_name), "EMP-%07d", e);
    bench::Check(db.StoreRecord({"EMP",
                                 {{"EMP-NAME", Value::String(emp_name)},
                                  {"DEPT-NAME", Value::String(kDepts[e % 3])},
                                  {"AGE", Value::Int(20 + e % 45)}},
                                 {{"DIV-EMP", divs[e % kDivisions]}}})
                     .status(),
                 "store EMP");
  }
  for (int l = 0; l < n; ++l) {
    char code[32], city[32];
    std::snprintf(code, sizeof(code), "LOC-%07d", l);
    std::snprintf(city, sizeof(city), "CITY-%05d", l % 97);
    bench::Check(db.StoreRecord({"LOCATION",
                                 {{"LOC-CODE", Value::String(code)},
                                  {"CITY", Value::String(city)}},
                                 {}})
                     .status(),
                 "store LOCATION");
  }
  return db;
}

struct Measurement {
  uint64_t ops = 0;
  int64_t wall_us = 0;
  /// Concatenated result ids, compared across the on/off runs.
  std::vector<RecordId> rows;
};

using Workload = std::function<std::vector<RecordId>(const Database&)>;

Measurement Run(Database* db, bool with_indexes, const Workload& w) {
  db->SetIndexOptions(
      {.enabled = with_indexes, .auto_join_indexes = with_indexes});
  db->ResetStats();
  Measurement m;
  auto start = std::chrono::steady_clock::now();
  m.rows = w(*db);
  m.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  m.ops = db->stats().Total();
  return m;
}

/// 50 SelectWhere point lookups by the uniqueness-constrained EMP-NAME
/// (the probe reuses the engine's unique_index_, no secondary index).
Workload EqualitySelect(int n) {
  return [n](const Database& db) {
    std::vector<RecordId> rows;
    for (int q = 0; q < 50; ++q) {
      char emp_name[32];
      std::snprintf(emp_name, sizeof(emp_name), "EMP-%07d", (q * 37) % n);
      Predicate pred =
          Predicate::Compare("EMP-NAME", CompareOp::kEq,
                             Operand::Literal(Value::String(emp_name)));
      std::vector<RecordId> ids = bench::Value(
          db.SelectWhere("EMP", pred, EmptyHostEnv()), "SelectWhere");
      rows.insert(rows.end(), ids.begin(), ids.end());
    }
    return rows;
  };
}

std::vector<RecordId> Evaluate(const Database& db, const Retrieval& r) {
  Retrieval resolved = r;
  bench::Check(ResolveFindQuery(db.schema(), &resolved.query), "resolve");
  return bench::Value(EvaluateRetrieval(db, resolved, EmptyHostEnv(),
                                        EmptyCollectionEnv()),
                      "evaluate");
}

/// 50 qualified FIND steps over the ALL-EMP entry: the equality conjunct
/// prefilters through the same EMP-NAME index.
Workload QualifiedFind(int n) {
  return [n](const Database& db) {
    std::vector<RecordId> rows;
    for (int q = 0; q < 50; ++q) {
      char text[128];
      std::snprintf(text, sizeof(text),
                    "FIND(EMP: SYSTEM, ALL-EMP, EMP(EMP-NAME = 'EMP-%07d'))",
                    (q * 53) % n);
      Retrieval r = bench::Value(ParseRetrieval(text), "parse retrieval");
      std::vector<RecordId> ids = Evaluate(db, r);
      rows.insert(rows.end(), ids.begin(), ids.end());
    }
    return rows;
  };
}

/// 5 value-joins relating every DIV to the LOCATION sharing its DIV-LOC:
/// kDivisions probe values against the n-record LOCATION type.
Workload ValueJoin() {
  return [](const Database& db) {
    std::vector<RecordId> rows;
    for (int q = 0; q < 5; ++q) {
      Retrieval r = bench::Value(
          ParseRetrieval("FIND(LOCATION: SYSTEM, ALL-DIV, DIV, "
                         "JOIN LOCATION THROUGH (LOC-CODE, DIV-LOC))"),
          "parse join");
      std::vector<RecordId> ids = Evaluate(db, r);
      rows.insert(rows.end(), ids.begin(), ids.end());
    }
    return rows;
  };
}

struct Row {
  std::string workload;
  int records = 0;
  Measurement on, off;
  bool rows_match = true;

  double Speedup() const {
    return on.ops == 0 ? 0.0
                       : static_cast<double>(off.ops) /
                             static_cast<double>(on.ops);
  }
};

Row MeasureRow(Database* db, const std::string& name, int n,
               const Workload& w) {
  Row row;
  row.workload = name;
  row.records = n;
  // Scan first so the indexed run cannot warm anything for it; the lazy
  // join index the indexed run builds is the access path under test.
  row.off = Run(db, /*with_indexes=*/false, w);
  row.on = Run(db, /*with_indexes=*/true, w);
  row.rows_match = row.on.rows == row.off.rows;
  return row;
}

// --- per-operation costs ----------------------------------------------------
//
// testing::CompanyDdl is the migrate shape: ALL-DIV sorted by DIV-NAME,
// DIV-EMP sorted by EMP-NAME, and EMP.DIV-NAME virtual via DIV-EMP. The
// instance has 1540 divisions, `emp_divisions` of them with 64 employees
// (all of them at full size: 100,100 records). Reads run over every record
// in a fixed shuffled order, best of 5 passes. Sorted stores add members in
// key order, as a copy does, so each one scans its whole occurrence: one
// new EMP per populated division (64 members each), then 64 new DIVs into
// ALL-DIV (1540 growing to 1603 members).

constexpr int kPerOpDivisions = 1540;
constexpr int kPerOpEmpsPerDiv = 64;
volatile size_t g_sink = 0;  // keeps the timed reads from being elided

double NsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Best-of-`passes` ns per call of `op` over `ids`.
template <typename Op>
double ReadNsPerOp(const std::vector<RecordId>& ids, int passes, Op op) {
  double best = 0;
  for (int p = 0; p < passes; ++p) {
    auto start = std::chrono::steady_clock::now();
    for (RecordId id : ids) op(id);
    double ns = NsSince(start) / static_cast<double>(ids.size());
    if (p == 0 || ns < best) best = ns;
  }
  return best;
}

int RunPerOp(bool smoke) {
  const int emp_divisions = smoke ? 16 : kPerOpDivisions;
  Database db = testing::MakeDatabase(testing::CompanyDdl());
  std::vector<RecordId> divs;
  char name[32];
  for (int d = 0; d < kPerOpDivisions; ++d) {
    std::snprintf(name, sizeof(name), "DIV-%04d", d);
    divs.push_back(bench::Value(
        db.StoreRecord({"DIV", {{"DIV-NAME", Value::String(name)}}, {}}),
        "store DIV"));
  }
  for (int d = 0; d < emp_divisions; ++d) {
    for (int e = 0; e < kPerOpEmpsPerDiv; ++e) {
      std::snprintf(name, sizeof(name), "E%05d-%04d", d, e);
      bench::Check(db.StoreRecord({"EMP",
                                   {{"EMP-NAME", Value::String(name)},
                                    {"AGE", Value::Int(20 + e % 45)}},
                                   {{"DIV-EMP", divs[d]}}})
                       .status(),
                   "store EMP");
    }
  }
  std::vector<RecordId> all = db.raw_store().AllRecords();
  const size_t records = all.size();
  std::vector<RecordId> emps = db.AllOfType("EMP");
  std::mt19937_64 rng(11);
  std::shuffle(all.begin(), all.end(), rng);
  std::shuffle(emps.begin(), emps.end(), rng);

  struct OpRow {
    const char* operation;
    size_t ops;
    double ns;
  };
  std::vector<OpRow> rows;
  const Store& store = db.raw_store();
  size_t sink = 0;  // published through g_sink so no read is elided
  rows.push_back({"Store::Get", all.size(),
                  ReadNsPerOp(all, 5, [&](RecordId id) {
                    sink += store.Get(id)->fields.size();
                  })});
  rows.push_back({"GetField actual (EMP.AGE)", emps.size(),
                  ReadNsPerOp(emps, 5, [&](RecordId id) {
                    sink += db.GetField(id, "AGE").ok();
                  })});
  rows.push_back({"GetField virtual (EMP.DIV-NAME)", emps.size(),
                  ReadNsPerOp(emps, 5, [&](RecordId id) {
                    sink += db.GetField(id, "DIV-NAME").ok();
                  })});
  {
    auto start = std::chrono::steady_clock::now();
    for (int d = 0; d < emp_divisions; ++d) {
      std::snprintf(name, sizeof(name), "E%05d-%04d", d, kPerOpEmpsPerDiv);
      bench::Check(db.StoreRecord({"EMP",
                                   {{"EMP-NAME", Value::String(name)}},
                                   {{"DIV-EMP", divs[d]}}})
                       .status(),
                   "store EMP");
    }
    rows.push_back({"StoreRecord sorted, 64 members",
                    static_cast<size_t>(emp_divisions),
                    NsSince(start) / emp_divisions});
  }
  {
    constexpr int kStores = 64;
    auto start = std::chrono::steady_clock::now();
    for (int d = 0; d < kStores; ++d) {
      std::snprintf(name, sizeof(name), "DIV-%04d", kPerOpDivisions + d);
      bench::Check(
          db.StoreRecord({"DIV", {{"DIV-NAME", Value::String(name)}}, {}})
              .status(),
          "store DIV");
    }
    rows.push_back({"StoreRecord sorted, 1540 members",
                    static_cast<size_t>(kStores), NsSince(start) / kStores});
  }

  std::printf("\nE11 per-operation costs: %d divisions, %d of them with %d "
              "EMP (%zu records)\nhost: %s\n%-34s %8s %10s\n",
              kPerOpDivisions, emp_divisions, kPerOpEmpsPerDiv, records,
              bench::HostStamp().c_str(), "operation", "ops", "ns/op");
  for (const OpRow& row : rows) {
    std::printf("%-34s %8zu %10.1f\n", row.operation, row.ops, row.ns);
  }
  g_sink = sink;
  return 0;
}

int RunAll(bool smoke, const std::string& json_path) {
  std::vector<int> sizes =
      smoke ? std::vector<int>{1000} : std::vector<int>{100, 1000, 10000, 100000};

  std::printf("E11 engine index paths: %d divisions, N employees + N locations\n"
              "%-16s %8s %12s %12s %8s %10s %10s %s\n",
              kDivisions, "workload", "N", "ops(scan)", "ops(index)", "x",
              "us(scan)", "us(index)", "rows");
  std::vector<Row> rows;
  bool sound = true;
  for (int n : sizes) {
    Database db = MakeInstance(n);
    rows.push_back(MeasureRow(&db, "equality-select", n, EqualitySelect(n)));
    rows.push_back(MeasureRow(&db, "qualified-find", n, QualifiedFind(n)));
    rows.push_back(MeasureRow(&db, "value-join", n, ValueJoin()));
  }
  for (const Row& row : rows) {
    std::printf("%-16s %8d %12llu %12llu %7.1fx %10lld %10lld %s\n",
                row.workload.c_str(), row.records,
                static_cast<unsigned long long>(row.off.ops),
                static_cast<unsigned long long>(row.on.ops), row.Speedup(),
                static_cast<long long>(row.off.wall_us),
                static_cast<long long>(row.on.wall_us),
                row.rows_match ? "match" : "DIVERGE");
    if (!row.rows_match) sound = false;
  }
  if (!sound) {
    std::fprintf(stderr,
                 "bench_index_paths: FAILED (indexed results diverge from "
                 "scan results)\n");
    return 1;
  }

  // The assertion gate: >= 10x engine-op reduction on equality-select and
  // value-join at the largest-common size (10^4 full, 10^3 smoke).
  const int gate_n = smoke ? 1000 : 10000;
  for (const Row& row : rows) {
    if (row.records != gate_n) continue;
    if (row.workload == "qualified-find") continue;  // set scan dominates
    if (row.Speedup() < 10.0) {
      std::fprintf(stderr,
                   "bench_index_paths: FAILED (%s at N=%d only %.1fx, "
                   "want >= 10x)\n",
                   row.workload.c_str(), gate_n, row.Speedup());
      return 1;
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench_index_paths: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    out << "{\n  \"experiment\": \"E11\",\n  \"tool\": \"bench_index_paths\","
        << "\n  \"unit\": \"engine ops (OpStats total)\",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out << "    {\"workload\": \"" << row.workload
          << "\", \"records\": " << row.records
          << ", \"ops_scan\": " << row.off.ops
          << ", \"ops_indexed\": " << row.on.ops
          << ", \"wall_us_scan\": " << row.off.wall_us
          << ", \"wall_us_indexed\": " << row.on.wall_us << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  std::printf("index paths sound: identical rows, gates met at N=%d\n",
              gate_n);
  return RunPerOp(smoke);
}

}  // namespace
}  // namespace dbpc

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_index_paths [--smoke] [--json <file>]\n");
      return 2;
    }
  }
  return dbpc::RunAll(smoke, json_path);
}
