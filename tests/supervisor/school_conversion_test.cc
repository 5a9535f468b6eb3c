// Conversion sweep over the Figure 3.1 school database: multi-parent
// members (OFFERING belongs to both its COURSE and its SEMESTER),
// characterizing dependencies and the cardinality rule interact with the
// transformation rules here in ways the single-parent COMPANY schema
// cannot exercise.

#include <gtest/gtest.h>

#include "equivalence/checker.h"
#include "lang/parser.h"
#include "restructure/data_copy.h"
#include "restructure/plan_parser.h"
#include "supervisor/supervisor.h"
#include "testing/fixtures.h"

namespace dbpc {
namespace {

using testing::MakeSchoolDatabase;

const char* const kSchoolPrograms[] = {
    // Offerings of one course, through the course side.
    R"(PROGRAM COURSE-OFFERINGS.
  FOR EACH O IN FIND(OFFERING: SYSTEM, ALL-COURSE, COURSE(CNO = 'CS101'),
      CRS-OFF, OFFERING) DO
    GET S OF O INTO SEM.
    GET SECTION-NO OF O INTO SEC.
    DISPLAY 'CS101 ' & SEM & ' SEC ' & SEC.
  END-FOR.
END PROGRAM.)",
    // The same offerings reached through the semester side.
    R"(PROGRAM SEMESTER-LOAD.
  FOR EACH O IN FIND(OFFERING: SYSTEM, ALL-SEM, SEMESTER(YEAR = 1979),
      SEM-OFF, OFFERING) DO
    GET CNO OF O INTO C.
    DISPLAY C.
  END-FOR.
END PROGRAM.)",
    // Store with two owner selections (both sets are AUTOMATIC/MANDATORY).
    R"(PROGRAM ADD-OFFERING.
  STORE OFFERING (SECTION-NO = 7, YEAR = 1978)
    IN CRS-OFF WHERE (CNO = 'CS202')
    IN SEM-OFF WHERE (S = 'F78').
  DISPLAY 'ADDED'.
END PROGRAM.)",
    // Cascade delete through the characterizing sets.
    R"(PROGRAM RETIRE-COURSE.
  FOR EACH C IN FIND(COURSE: SYSTEM, ALL-COURSE, COURSE(CNO = 'CS101')) DO
    DELETE C.
  END-FOR.
  FOR EACH O IN FIND(OFFERING: SYSTEM, ALL-SEM, SEMESTER, SEM-OFF, OFFERING) DO
    GET CNO OF O INTO K.
    DISPLAY 'LEFT ' & K.
  END-FOR.
END PROGRAM.)",
    // Navigational scan of courses (template lifting on the school schema).
    R"(PROGRAM LIST-COURSES.
  FIND FIRST COURSE WITHIN ALL-COURSE.
  WHILE DB-STATUS = '0000' DO
    GET CNAME INTO N.
    DISPLAY N.
    FIND NEXT COURSE WITHIN ALL-COURSE.
  END-WHILE.
END PROGRAM.)",
};

const char* const kSchoolPlans[] = {
    R"(RESTRUCTURE PLAN RENAME-OFFERING.
  RENAME RECORD OFFERING TO CLASS.
  RENAME SET CRS-OFF TO COURSE-CLASSES.
  RENAME FIELD SECTION-NO OF CLASS TO SECTION-NUM.
END PLAN.)",
    R"(RESTRUCTURE PLAN SORT-OFFERINGS.
  ORDER SET CRS-OFF BY (YEAR, SECTION-NO).
END PLAN.)",
    R"(RESTRUCTURE PLAN DROP-DEPENDENCIES.
  DROP DEPENDENCY OF CRS-OFF.
  DROP DEPENDENCY OF SEM-OFF.
END PLAN.)",
    R"(RESTRUCTURE PLAN ANNOTATE.
  ADD FIELD ROOM TO OFFERING TYPE X(6) DEFAULT 'TBA'.
END PLAN.)",
};

class SchoolConversionTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchoolConversionTest, AcceptedConversionsRunEquivalently) {
  int plan_index = std::get<0>(GetParam());
  int program_index = std::get<1>(GetParam());
  RestructuringPlan plan =
      std::move(ParsePlan(kSchoolPlans[plan_index])).value();
  Program program =
      std::move(ParseProgram(kSchoolPrograms[program_index])).value();

  Database source = MakeSchoolDatabase();
  SupervisorOptions options;
  options.analyst = ApproveAllAnalyst();
  ConversionSupervisor supervisor = *ConversionSupervisor::Create(
      source.schema(), plan.View(), options);
  PipelineOutcome outcome = *supervisor.ConvertProgram(program);
  if (outcome.classification != Convertibility::kAutomatic) {
    GTEST_SKIP() << ConvertibilityName(outcome.classification);
  }
  Result<Database> target = supervisor.TranslateDatabase(source);
  ASSERT_TRUE(target.ok()) << target.status();
  EquivalenceReport report = *CheckEquivalence(
      source, program, *target, outcome.conversion.converted, IoScript());
  EXPECT_TRUE(report.equivalent)
      << "plan " << plan.name << "\n"
      << report.detail << "\noriginal:\n"
      << program.ToSource() << "\nconverted:\n"
      << outcome.conversion.converted.ToSource();
}

INSTANTIATE_TEST_SUITE_P(
    PlansTimesPrograms, SchoolConversionTest,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 5)));

TEST(SchoolConversionTest, SemesterWalkKeepsOfferingOrder) {
  // F78's SEM-OFF lists CS202's offering before CS101's, against the order
  // of their courses: the translated database must keep that order under
  // either copy engine, or the converted walk prints it reversed.
  RestructuringPlan plan = std::move(ParsePlan(kSchoolPlans[0])).value();
  Program program = std::move(ParseProgram(R"(PROGRAM F78-SECTIONS.
  FOR EACH O IN FIND(OFFERING: SYSTEM, ALL-SEM, SEMESTER(S = 'F78'),
      SEM-OFF, OFFERING) DO
    GET SECTION-NO OF O INTO SEC.
    DISPLAY SEC.
  END-FOR.
END PROGRAM.)")).value();
  Database source = testing::MakeCrossedSchoolDatabase();
  for (DataCopyEngine engine :
       {DataCopyEngine::kColumnarBulk, DataCopyEngine::kRecordAtATime}) {
    ScopedDataCopyEngine scoped(engine);
    ConversionSupervisor supervisor = *ConversionSupervisor::Create(
        source.schema(), plan.View(), SupervisorOptions());
    PipelineOutcome outcome = *supervisor.ConvertProgram(program);
    ASSERT_EQ(outcome.classification, Convertibility::kAutomatic);
    Result<Database> target = supervisor.TranslateDatabase(source);
    ASSERT_TRUE(target.ok()) << target.status();
    EquivalenceReport report = *CheckEquivalence(
        source, program, *target, outcome.conversion.converted, IoScript());
    EXPECT_TRUE(report.equivalent) << report.detail;
  }
}

TEST(SchoolConversionTest, DropDependencyGuardsBothSets) {
  // A course delete must gain explicit offering deletion when CRS-OFF's
  // dependency is dropped; the SEM-OFF dependency (also dropped) must not
  // produce a loop on course deletes (courses do not own SEM-OFF).
  RestructuringPlan plan = std::move(ParsePlan(kSchoolPlans[2])).value();
  Program program = std::move(ParseProgram(kSchoolPrograms[3])).value();
  Database source = MakeSchoolDatabase();
  ConversionSupervisor supervisor = *ConversionSupervisor::Create(
      source.schema(), plan.View(), SupervisorOptions{});
  PipelineOutcome outcome = *supervisor.ConvertProgram(program);
  ASSERT_TRUE(outcome.accepted);
  const Stmt& loop = outcome.conversion.converted.body[0];
  ASSERT_EQ(loop.body.size(), 2u) << outcome.conversion.converted.ToSource();
  EXPECT_EQ(loop.body[0].kind, StmtKind::kForEach);
  EXPECT_EQ(loop.body[0].retrieval->query.steps[0].name, "CRS-OFF");
}

TEST(SchoolConversionTest, CardinalityTightenedConversionNotesBehaviour) {
  // Tightening the twice-a-year rule to once-a-year: existing data violates
  // it, so the data translation refuses — the paper's "conversion when not
  // all information is preserved is a different and more difficult
  // problem" boundary.
  RestructuringPlan plan = std::move(ParsePlan(R"(
RESTRUCTURE PLAN TIGHTEN.
  DROP CONSTRAINT TWICE-A-YEAR.
  ADD CONSTRAINT ONCE-A-YEAR IS CARDINALITY ON SET CRS-OFF LIMIT 1 PER YEAR.
END PLAN.)")).value();
  Database source = MakeSchoolDatabase();
  // CS101 has two 1979 offerings? No: one in 1978, one in 1979 each; add a
  // second 1979 offering so the tightened rule is violated.
  RecordId cs101 = source.SystemMembers("ALL-COURSE")[0];
  RecordId s79 = source.SystemMembers("ALL-SEM")[1];
  ASSERT_TRUE(source
                  .StoreRecord({"OFFERING",
                                {{"SECTION-NO", Value::Int(2)},
                                 {"YEAR", Value::Int(1979)}},
                                {{"CRS-OFF", cs101}, {"SEM-OFF", s79}}})
                  .ok());
  ConversionSupervisor supervisor = *ConversionSupervisor::Create(
      source.schema(), plan.View(), SupervisorOptions{});
  Result<Database> target = supervisor.TranslateDatabase(source);
  ASSERT_FALSE(target.ok());
  EXPECT_EQ(target.status().code(), StatusCode::kConstraintViolation);
}

}  // namespace
}  // namespace dbpc
