#ifndef DBPC_BENCH_BENCH_UTIL_H_
#define DBPC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "lang/parser.h"
#include "restructure/transformation.h"
#include "testing/fixtures.h"

namespace dbpc::bench {

/// Aborts the benchmark on unexpected library errors (benchmarks must not
/// silently measure failure paths).
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark setup failed (%s): %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T Value(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

inline Program MustParseProgram(const std::string& source) {
  return Value(ParseProgram(source), "parse program");
}

/// One-line description of the measuring host and build, printed beside
/// wall-clock rows: nanosecond figures mean little without it.
inline std::string HostStamp() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
#ifdef __OPTIMIZE__
  const char* optimized = "yes";
#else
  const char* optimized = "no";
#endif
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=\"" + cpu + "\" compiler=\"gcc " + __VERSION__ +
         "\" optimized=" + optimized;
}

/// The Figure 4.2 -> 4.4 restructuring used across benchmarks.
inline IntroduceIntermediateParams Figure44Params() {
  IntroduceIntermediateParams p;
  p.set_name = "DIV-EMP";
  p.intermediate = "DEPT";
  p.upper_set = "DIV-DEPT";
  p.lower_set = "DEPT-EMP";
  p.group_field = "DEPT-NAME";
  return p;
}

/// A company database with `divisions` x `emps_per_div` employees.
inline Database FilledCompany(int divisions, int emps_per_div) {
  Database db = testing::MakeDatabase(testing::CompanyDdl());
  testing::FillCompany(&db, divisions, emps_per_div);
  return db;
}

}  // namespace dbpc::bench

#endif  // DBPC_BENCH_BENCH_UTIL_H_
