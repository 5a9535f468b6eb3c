#ifndef DBPC_FUZZ_FUZZ_H_
#define DBPC_FUZZ_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "common/status.h"
#include "common/trace.h"

namespace dbpc {

/// Deterministic, seed-driven differential testing of the whole Figure 4.1
/// pipeline. The harness generates random (schema, restructuring plan,
/// database, program) quadruples, converts via each strategy — program
/// rewrite, DML emulation, bridge — replays source and converted runs under
/// identical `IoScript`s and diffs the observable traces with
/// `Trace::FirstDivergence`. This is the paper's operational "runs
/// equivalently" definition (section 1.1) made into a standing oracle:
/// any accepted conversion whose trace diverges from the source program's
/// is a bug somewhere in the pipeline, and the harness shrinks it to a
/// small repro for `samples/fuzz-regressions/`.

/// splitmix64: tiny, deterministic, well-mixed. All generation derives from
/// one of these so a (seed, iteration) pair is fully reproducible.
class FuzzRng {
 public:
  explicit FuzzRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi] inclusive.
  int Range(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

  bool Chance(int percent) { return Range(1, 100) <= percent; }

  size_t Index(size_t n) { return static_cast<size_t>(Next() % n); }

  template <typename T>
  const T& Pick(const std::vector<T>& pool) {
    return pool[Index(pool.size())];
  }

 private:
  uint64_t state_;
};

/// The differential axes: the three conversion strategies of paper section
/// 2.1.2, each diffed against the source program's run, plus five axes that
/// each hold one component to its own contract. Each axis is documented once,
/// next to its entry in the axis table in driver.cc; `--strategy` takes the
/// names FuzzStrategyName returns.
enum class FuzzStrategy {
  kRewrite,        ///< "rewrite": full pipeline conversion
  kEmulation,      ///< "emulation": per-call DML emulation (DmlEmulator)
  kBridge,         ///< "bridge": bridge program over a rebuilt source view
  kOptimizerDiff,  ///< "optimizer": optimized vs. unoptimized conversion
  kIndexDiff,      ///< "index": index probing on vs. off
  kColumnarDiff,   ///< "columnar": bulk vs. record-at-a-time copy engine
  kCacheDiff,      ///< "cache": memoized vs. uncached pipeline
  kTraceDiff,      ///< "trace": traced vs. untraced conversion and runs
};

const char* FuzzStrategyName(FuzzStrategy s);
Result<FuzzStrategy> ParseFuzzStrategyName(const std::string& name);
std::vector<FuzzStrategy> AllFuzzStrategies();

/// One generated (or shrunk, or replayed) test case, held entirely as the
/// textual artifacts the framework's parsers accept. Text is the shrink
/// and repro currency: every mutation is re-checked by re-parsing.
struct FuzzCase {
  std::string ddl;      ///< source schema (Figure 4.3 DDL)
  std::string plan;     ///< restructuring plan (plan language)
  std::string data;     ///< source database dump (engine/textio format)
  std::string program;  ///< CPL source
  std::vector<std::string> terminal_input;  ///< IoScript terminal lines
};

/// What a checked-in repro asserts when replayed.
enum class ReproExpectation {
  /// Setup succeeds and every strategy is equivalent or skipped.
  kEquivalent,
  /// Some artifact fails to parse with a structured error — the regression
  /// was a crash (e.g. an uncaught exception out of the lexer), and the
  /// repro proves the failure is now a clean Status.
  kParseError,
};

struct FuzzRepro {
  std::string note;  ///< one-line provenance comment
  ReproExpectation expect = ReproExpectation::kEquivalent;
  FuzzCase c;
  /// Span tree of the divergent run that produced this repro (text export,
  /// `== TRACE ==` section). Documentation for the human reading the file;
  /// replay ignores it.
  std::string span_tree;
};

std::string ReproToText(const FuzzRepro& repro);
Result<FuzzRepro> ParseRepro(const std::string& text);

/// Per-strategy verdict for one case.
enum class StrategyOutcome {
  kEquivalent,  ///< traces identical
  kSkipped,     ///< strategy legitimately does not apply (refused program,
                ///< analyst-level conversion, lossy plan for the bridge)
  kDivergent,   ///< accepted conversion, traces differ — a bug
};

struct StrategyRun {
  FuzzStrategy strategy = FuzzStrategy::kRewrite;
  StrategyOutcome outcome = StrategyOutcome::kSkipped;
  /// First differing trace event for kDivergent, -1 otherwise.
  ptrdiff_t divergence = -1;
  std::string detail;
  Trace source_trace;
  Trace target_trace;
};

/// Outcome of running one case through the differential driver.
struct CaseRun {
  /// Non-OK when an artifact failed to parse / load / translate; no
  /// strategies ran. Parse failures here are what kParseError repros check.
  Status setup = Status::OK();
  std::vector<StrategyRun> strategies;

  bool Divergent() const {
    for (const StrategyRun& s : strategies) {
      if (s.outcome == StrategyOutcome::kDivergent) return true;
    }
    return false;
  }
};

/// Generates the deterministic case for `seed` (schema, plan, data,
/// program, script all derived from it).
FuzzCase GenerateFuzzCase(uint64_t seed);

/// The per-case seeds of a sweep from base `seed`: the first `iterations`
/// draws of one FuzzRng(seed) stream, so different base seeds fuzz
/// different cases.
std::vector<uint64_t> FuzzCaseSeeds(uint64_t seed, int iterations);

/// Runs one case through every requested strategy. With a non-null
/// `spans` collector the run emits span trees — one root for the rewrite
/// pipeline conversion, one for the source run, one per strategy — with
/// per-stage and per-statement subspans. Tracing never changes outcomes.
CaseRun RunFuzzCase(const FuzzCase& c,
                    const std::vector<FuzzStrategy>& strategies,
                    SpanCollector* spans = nullptr);

/// Greedy shrinker: repeatedly removes program statements, data records,
/// plan clauses and script lines while the case still diverges (for any of
/// `strategies`). Deterministic; returns the smallest case found.
FuzzCase ShrinkFuzzCase(const FuzzCase& failing,
                        const std::vector<FuzzStrategy>& strategies);

/// One divergence found by the fuzz loop.
struct FuzzFailure {
  uint64_t seed = 0;  ///< per-case derived seed
  int iteration = 0;
  FuzzStrategy strategy = FuzzStrategy::kRewrite;
  ptrdiff_t divergence = -1;
  std::string detail;
  /// Trace::DivergenceContext of the diverging pair (empty for failures
  /// with no trace pair, e.g. a converted program that failed to run).
  std::string context;
  /// With FuzzOptions::trace: text span tree of the divergent run,
  /// written into the repro's `== TRACE ==` section.
  std::string span_tree;
  FuzzCase original;
  FuzzCase shrunk;  ///< == original when shrinking was disabled
};

struct FuzzOptions {
  uint64_t seed = 1;
  int iterations = 100;
  std::vector<FuzzStrategy> strategies = AllFuzzStrategies();
  bool shrink = true;
  /// Stop after this many divergent cases (each is shrunk, which is slow).
  int max_failures = 5;
  /// Capture a span tree for every divergent case by re-running the
  /// failing strategy with a collector (FuzzFailure::span_tree). Passing
  /// cases are not traced; the trace axis checks that tracing never
  /// changes outcomes.
  bool trace = false;
};

struct FuzzReport {
  int iterations = 0;
  /// Per-strategy comparison tallies across all iterations.
  int equivalent = 0;
  int skipped = 0;
  int divergent = 0;
  /// Cases whose artifacts failed to parse / load / translate — generator
  /// bugs, counted separately so they cannot masquerade as equivalence.
  int setup_errors = 0;
  std::vector<FuzzFailure> failures;

  bool Clean() const { return divergent == 0 && setup_errors == 0; }
  std::string ToText() const;
};

/// The fuzz loop: `iterations` generated cases, differential run, shrink on
/// divergence.
FuzzReport RunFuzz(const FuzzOptions& options);

/// Replays a repro file: runs the case and checks its expectation. Returns
/// OK when the expectation holds; a descriptive error otherwise.
Status ReplayRepro(const FuzzRepro& repro,
                   const std::vector<FuzzStrategy>& strategies);

}  // namespace dbpc

#endif  // DBPC_FUZZ_FUZZ_H_
