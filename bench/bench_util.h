#ifndef DBPC_BENCH_BENCH_UTIL_H_
#define DBPC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
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

/// The CPU model name from /proc/cpuinfo ("unknown" where there is none).
inline std::string HostCpu() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
      break;
    }
  }
  return "unknown";
}

#ifdef __OPTIMIZE__
inline constexpr bool kOptimizedBuild = true;
#else
inline constexpr bool kOptimizedBuild = false;
#endif

/// One-line description of the measuring host and build, printed beside
/// wall-clock rows: nanosecond figures mean little without it.
inline std::string HostStamp() {
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=\"" + HostCpu() + "\" compiler=\"gcc " + __VERSION__ +
         "\" optimized=" + (kOptimizedBuild ? "yes" : "no");
}

/// HostStamp's fields as a JSON object, for the `host` key of BENCH files.
inline std::string HostJson() {
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + EscapeJsonString(HostCpu()) +
         "\", \"compiler\": \"gcc " + EscapeJsonString(__VERSION__) +
         "\", \"optimized\": " + (kOptimizedBuild ? "true" : "false") + "}";
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
