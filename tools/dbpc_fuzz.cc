// dbpc_fuzz — differential conversion fuzzer.
//
// Generates random (schema, restructuring plan, database, program) cases
// and checks each against every differential axis: the three conversion
// strategies of paper section 2.1.2 — program rewrite, DML emulation,
// bridge — replayed under identical I/O scripts and diffed against the
// source program's trace (the section 1.1 "runs equivalently" check), plus
// the optimizer, index, columnar, cache and trace axes, which each hold one
// component to its own contract. Each axis is documented once, in the axis
// table of src/fuzz/driver.cc. Divergences are shrunk to minimal repros.
//
//   dbpc_fuzz --seed 1 --iterations 500
//   dbpc_fuzz --strategy bridge --no-shrink --iterations 50
//   dbpc_fuzz --diff-cache --iterations 500
//   dbpc_fuzz --replay samples/fuzz-regressions/*.repro
//   dbpc_fuzz --print-case 42
//
// Flags:
//   --seed <n>          base seed (default 1); the case seeds are the first
//                       draws of one stream seeded with it
//   --iterations <n>    cases to run (default 100)
//   --strategy <name>   rewrite | emulation | bridge | optimizer | index |
//                       columnar | cache | trace; repeatable, default all
//   --diff-optimizer, --diff-index, --diff-columnar, --diff-cache
//                       shorthand for that --strategy alone
//   --shrink / --no-shrink
//                       minimize failing cases (default on)
//   --max-failures <n>  stop after this many divergences (default 5)
//   --write-repros <dir>
//                       write each shrunk failure as <dir>/seed-<n>.repro
//   --trace             capture a span tree of each divergent run (see
//                       common/span.h); written into the repro's
//                       == TRACE == section
//   --replay <file>     replay repro files instead of fuzzing; repeatable
//   --print-case <n>    print the generated case for seed <n>, run it, and
//                       report each strategy's outcome — for a divergence,
//                       the event index plus a two-line context window
//                       around it from both traces
//
// Counts and seeds are unsigned decimal integers; anything else is a usage
// error. Exit status: 0 when the run is clean (all repros hold / no
// divergences and no setup errors), 1 otherwise, 2 on usage errors.

#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/dbpc.h"

namespace {

using namespace dbpc;

int Usage() {
  std::fprintf(stderr,
               "usage: dbpc_fuzz [--seed <n>] [--iterations <n>] "
               "[--strategy rewrite|emulation|bridge|optimizer|index|"
               "columnar|cache|trace]... "
               "[--diff-optimizer] [--diff-index] [--diff-columnar] "
               "[--diff-cache] "
               "[--shrink|"
               "--no-shrink] [--max-failures <n>] [--write-repros <dir>] "
               "[--trace] [--replay <file>]... [--print-case <seed>]\n");
  return 2;
}

/// An unsigned decimal integer no larger than `max`: no sign, no blanks
/// and no trailing characters.
std::optional<uint64_t> ParseCount(const char* text, uint64_t max) {
  uint64_t value = 0;
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value > max) return std::nullopt;
  return value;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int ReplayAll(const std::vector<std::string>& paths,
              const std::vector<FuzzStrategy>& strategies) {
  int failed = 0;
  for (const std::string& path : paths) {
    Result<std::string> text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "dbpc_fuzz: %s: %s\n", path.c_str(),
                   text.status().ToString().c_str());
      ++failed;
      continue;
    }
    Result<FuzzRepro> repro = ParseRepro(*text);
    if (!repro.ok()) {
      std::fprintf(stderr, "dbpc_fuzz: %s: %s\n", path.c_str(),
                   repro.status().ToString().c_str());
      ++failed;
      continue;
    }
    Status status = ReplayRepro(*repro, strategies);
    if (status.ok()) {
      std::printf("PASS %s\n", path.c_str());
    } else {
      std::printf("FAIL %s: %s\n", path.c_str(), status.ToString().c_str());
      ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}

void WriteRepros(const FuzzReport& report, const std::string& dir) {
  for (const FuzzFailure& f : report.failures) {
    FuzzRepro repro;
    repro.note = "shrunk from seed " + std::to_string(f.seed) + " [" +
                 FuzzStrategyName(f.strategy) + "] " + f.detail;
    repro.c = f.shrunk;
    repro.span_tree = f.span_tree;
    std::string path = dir + "/seed-" + std::to_string(f.seed) + ".repro";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "dbpc_fuzz: cannot write %s\n", path.c_str());
      continue;
    }
    out << ReproToText(repro);
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  std::vector<FuzzStrategy> strategies;
  std::vector<std::string> replay_paths;
  std::string repro_dir;
  bool print_case = false;
  uint64_t print_seed = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The value of a count flag; nullopt (a usage error) when it is
    // missing or malformed.
    auto count = [&](uint64_t max) -> std::optional<uint64_t> {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      std::optional<uint64_t> n = ParseCount(v, max);
      if (!n) {
        std::fprintf(stderr,
                     "dbpc_fuzz: %s wants an unsigned integer, got '%s'\n",
                     arg.c_str(), v);
      }
      return n;
    };
    if (arg == "--seed") {
      std::optional<uint64_t> v = count(UINT64_MAX);
      if (!v) return Usage();
      options.seed = *v;
    } else if (arg == "--iterations") {
      std::optional<uint64_t> v = count(INT_MAX);
      if (!v) return Usage();
      options.iterations = static_cast<int>(*v);
    } else if (arg == "--strategy") {
      const char* v = next();
      if (v == nullptr) return Usage();
      Result<FuzzStrategy> s = ParseFuzzStrategyName(v);
      if (!s.ok()) {
        std::fprintf(stderr, "dbpc_fuzz: %s\n", s.status().ToString().c_str());
        return 2;
      }
      strategies.push_back(*s);
    } else if (arg == "--diff-optimizer") {
      strategies = {FuzzStrategy::kOptimizerDiff};
    } else if (arg == "--diff-index") {
      strategies = {FuzzStrategy::kIndexDiff};
    } else if (arg == "--diff-columnar") {
      strategies = {FuzzStrategy::kColumnarDiff};
    } else if (arg == "--diff-cache") {
      strategies = {FuzzStrategy::kCacheDiff};
    } else if (arg == "--shrink") {
      options.shrink = true;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--max-failures") {
      std::optional<uint64_t> v = count(INT_MAX);
      if (!v) return Usage();
      options.max_failures = static_cast<int>(*v);
    } else if (arg == "--write-repros") {
      const char* v = next();
      if (v == nullptr) return Usage();
      repro_dir = v;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return Usage();
      replay_paths.push_back(v);
    } else if (arg == "--print-case") {
      std::optional<uint64_t> v = count(UINT64_MAX);
      if (!v) return Usage();
      print_case = true;
      print_seed = *v;
    } else {
      return Usage();
    }
  }
  if (!strategies.empty()) options.strategies = strategies;

  if (print_case) {
    FuzzRepro repro;
    repro.note = "generated case, seed " + std::to_string(print_seed);
    repro.c = GenerateFuzzCase(print_seed);
    std::fputs(ReproToText(repro).c_str(), stdout);
    // Run the case and show per-strategy verdicts; a divergence prints its
    // event index with a context window from both traces (the prefix case
    // shows "<end of trace>" on the side that stopped early).
    CaseRun run = RunFuzzCase(repro.c, options.strategies);
    if (!run.setup.ok()) {
      std::printf("setup: %s\n", run.setup.ToString().c_str());
      return 1;
    }
    bool divergent = false;
    for (const StrategyRun& s : run.strategies) {
      switch (s.outcome) {
        case StrategyOutcome::kEquivalent:
          std::printf("strategy %s: equivalent\n",
                      FuzzStrategyName(s.strategy));
          break;
        case StrategyOutcome::kSkipped:
          std::printf("strategy %s: skipped (%s)\n",
                      FuzzStrategyName(s.strategy), s.detail.c_str());
          break;
        case StrategyOutcome::kDivergent:
          divergent = true;
          std::printf("strategy %s: DIVERGENT (%s)\n",
                      FuzzStrategyName(s.strategy), s.detail.c_str());
          if (s.divergence >= 0) {
            std::fputs(Trace::DivergenceContext(s.source_trace,
                                                s.target_trace, s.divergence)
                           .c_str(),
                       stdout);
          }
          break;
      }
    }
    return divergent ? 1 : 0;
  }

  if (!replay_paths.empty()) {
    return ReplayAll(replay_paths, options.strategies);
  }

  FuzzReport report = RunFuzz(options);
  std::fputs(report.ToText().c_str(), stdout);
  if (!repro_dir.empty() && !report.failures.empty()) {
    WriteRepros(report, repro_dir);
  }
  return report.Clean() ? 0 : 1;
}
