#include "fuzz/fuzz.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "emulate/emulator.h"
#include "engine/textio.h"
#include "gtest/gtest.h"
#include "lang/parser.h"
#include "restructure/plan_parser.h"
#include "restructure/transformation.h"
#include "schema/ddl_parser.h"

namespace dbpc {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FuzzGeneratorTest, SameSeedSameCase) {
  FuzzCase a = GenerateFuzzCase(123456789);
  FuzzCase b = GenerateFuzzCase(123456789);
  EXPECT_EQ(a.ddl, b.ddl);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.program, b.program);
  EXPECT_EQ(a.terminal_input, b.terminal_input);
}

TEST(FuzzGeneratorTest, DifferentSeedsDiverge) {
  // Not every pair of seeds must differ, but across a handful at least one
  // artifact has to change — a constant generator would fuzz nothing.
  FuzzCase base = GenerateFuzzCase(1);
  bool any_different = false;
  for (uint64_t seed = 2; seed <= 6; ++seed) {
    FuzzCase other = GenerateFuzzCase(seed);
    if (other.ddl != base.ddl || other.plan != base.plan ||
        other.data != base.data || other.program != base.program) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(FuzzGeneratorTest, GeneratedArtifactsSetUpCleanly) {
  // Every generated case must come up through the real parsers and
  // loaders; a setup error is a generator bug, not a finding.
  for (uint64_t seed = 10; seed < 20; ++seed) {
    FuzzCase c = GenerateFuzzCase(seed);
    CaseRun run = RunFuzzCase(c, AllFuzzStrategies());
    EXPECT_TRUE(run.setup.ok()) << "seed " << seed << ": " << run.setup;
  }
}

TEST(FuzzStrategyTest, EveryAxisNameRoundTrips) {
  std::vector<FuzzStrategy> all = AllFuzzStrategies();
  EXPECT_EQ(all.size(), 8u);
  for (FuzzStrategy s : all) {
    Result<FuzzStrategy> back = ParseFuzzStrategyName(FuzzStrategyName(s));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, s);
  }
  EXPECT_EQ(*ParseFuzzStrategyName("trace"), FuzzStrategy::kTraceDiff);
  EXPECT_FALSE(ParseFuzzStrategyName("bogus").ok());
}

TEST(FuzzReproTest, RoundTripsThroughText) {
  FuzzRepro repro;
  repro.note = "round-trip check";
  repro.expect = ReproExpectation::kEquivalent;
  repro.c = GenerateFuzzCase(42);
  Result<FuzzRepro> back = ParseRepro(ReproToText(repro));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->expect, repro.expect);
  EXPECT_EQ(back->c.ddl, repro.c.ddl);
  EXPECT_EQ(back->c.plan, repro.c.plan);
  EXPECT_EQ(back->c.data, repro.c.data);
  EXPECT_EQ(back->c.program, repro.c.program);
  EXPECT_EQ(back->c.terminal_input, repro.c.terminal_input);
}

TEST(FuzzReproTest, RejectsUnknownSection) {
  Result<FuzzRepro> r = ParseRepro("== EXPECT ==\nEQUIVALENT\n== BOGUS ==\n");
  EXPECT_FALSE(r.ok());
}

TEST(FuzzReproTest, TraceSectionRoundTrips) {
  FuzzRepro repro;
  repro.note = "trace round-trip";
  repro.c = GenerateFuzzCase(42);
  repro.span_tree =
      "convert FUZZ\n"
      "  program_analyzer classification=automatic\n"
      "  program_converter\n";
  std::string text = ReproToText(repro);
  EXPECT_NE(text.find("== TRACE =="), std::string::npos) << text;
  Result<FuzzRepro> back = ParseRepro(text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->span_tree, repro.span_tree);
  EXPECT_EQ(back->c.program, repro.c.program);
}

TEST(FuzzReproTest, EmptyTraceSectionIsOmitted) {
  FuzzRepro repro;
  repro.c = GenerateFuzzCase(42);
  EXPECT_EQ(ReproToText(repro).find("== TRACE =="), std::string::npos);
}

TEST(FuzzCaseTest, TracingNeverChangesStrategyOutcomes) {
  for (uint64_t seed : {3u, 17u, 99u}) {
    FuzzCase c = GenerateFuzzCase(seed);
    CaseRun plain = RunFuzzCase(c, AllFuzzStrategies());
    SpanCollector spans;
    CaseRun traced = RunFuzzCase(c, AllFuzzStrategies(), &spans);
    ASSERT_EQ(plain.setup.ok(), traced.setup.ok()) << "seed " << seed;
    ASSERT_EQ(plain.strategies.size(), traced.strategies.size());
    for (size_t i = 0; i < plain.strategies.size(); ++i) {
      EXPECT_EQ(plain.strategies[i].outcome, traced.strategies[i].outcome)
          << "seed " << seed << " strategy "
          << FuzzStrategyName(plain.strategies[i].strategy);
      EXPECT_EQ(plain.strategies[i].source_trace,
                traced.strategies[i].source_trace);
      EXPECT_EQ(plain.strategies[i].target_trace,
                traced.strategies[i].target_trace);
    }
    if (plain.setup.ok()) {
      // At minimum the source run and each strategy rooted a tree.
      EXPECT_GE(spans.RootCount(), 1u + plain.strategies.size())
          << spans.ToText(false);
    }
  }
}

TEST(FuzzLoopTest, SmallRunIsClean) {
  FuzzOptions options;
  options.seed = 1;
  options.iterations = 25;
  FuzzReport report = RunFuzz(options);
  EXPECT_EQ(report.iterations, 25);
  EXPECT_TRUE(report.Clean()) << report.ToText();
  // The sweep must actually compare something, not skip everything.
  EXPECT_GT(report.equivalent, 0);
}

// Each base seed draws its cases from its own stream: neighbouring base
// seeds must not re-run each other's cases shifted by one iteration.
TEST(FuzzLoopTest, ConsecutiveBaseSeedsFuzzDisjointCases) {
  std::vector<uint64_t> one = FuzzCaseSeeds(1, 1000);
  std::vector<uint64_t> two = FuzzCaseSeeds(2, 1000);
  std::set<uint64_t> seen(one.begin(), one.end());
  EXPECT_EQ(seen.size(), 1000u);
  int shared = 0;
  for (uint64_t seed : two) shared += static_cast<int>(seen.count(seed));
  EXPECT_EQ(shared, 0);
}

// Every checked-in regression repro must replay green: these cases each
// exposed a real conversion bug (silent output reorders, source-schema
// sort keys surviving into target programs, unhandled lexer overflow)
// that is now fixed.
TEST(FuzzRegressionCorpusTest, CheckedInReprosReplay) {
  std::filesystem::path dir(DBPC_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    Result<FuzzRepro> repro = ParseRepro(ReadFile(entry.path()));
    ASSERT_TRUE(repro.ok()) << entry.path() << ": " << repro.status();
    Status replay = ReplayRepro(*repro, AllFuzzStrategies());
    EXPECT_TRUE(replay.ok()) << entry.path() << ": " << replay;
    ++replayed;
  }
  EXPECT_GE(replayed, 1) << "no .repro files found in " << dir;
}

// The emulator refuses a mapping that needs an analyst, as the pipeline
// does. These two repros were filed for emulated runs that printed
// records in another order than the source run.
TEST(FuzzRegressionCorpusTest, EmulatorRefusesAnalystLevelMappings) {
  for (const char* name : {"seed-8913683988413733765.repro",
                           "seed-15006406392148470312.repro"}) {
    Result<FuzzRepro> repro = ParseRepro(
        ReadFile(std::filesystem::path(DBPC_FUZZ_CORPUS_DIR) / name));
    ASSERT_TRUE(repro.ok()) << name << ": " << repro.status();
    Schema schema = std::move(ParseDdl(repro->c.ddl)).value();
    RestructuringPlan plan = std::move(ParsePlan(repro->c.plan)).value();
    Program program = std::move(ParseProgram(repro->c.program)).value();
    Database source =
        std::move(LoadDatabaseText(schema, repro->c.data)).value();
    Database target =
        std::move(TranslateDatabase(source, plan.View())).value();
    DmlEmulator emulator =
        std::move(DmlEmulator::Create(schema, plan.View())).value();
    IoScript script;
    script.terminal_input = repro->c.terminal_input;
    Result<DmlEmulator::EmulationRun> run =
        emulator.Run(program, &target, script);
    ASSERT_FALSE(run.ok()) << name << " ran:\n" << run->run.trace.ToString();
    EXPECT_EQ(run.status().code(), StatusCode::kNeedsAnalyst)
        << name << ": " << run.status();
  }
}

}  // namespace
}  // namespace dbpc
