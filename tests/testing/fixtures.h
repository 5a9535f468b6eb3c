#ifndef DBPC_TESTS_TESTING_FIXTURES_H_
#define DBPC_TESTS_TESTING_FIXTURES_H_

#include <string>

#include "engine/database.h"
#include "schema/schema.h"

namespace dbpc::testing {

/// The Figure 4.3 company schema (DIV owns EMP through DIV-EMP; EMP carries
/// a VIRTUAL DIV-NAME) verbatim from the paper, in the Maryland DDL.
std::string CompanyDdl();

/// The Figure 4.4 revision: DIV -> DIV-DEPT -> DEPT -> DEPT-EMP -> EMP.
std::string CompanyRevisedDdl();

/// The Figure 3.1 school database as an owner-coupled-set schema:
/// COURSE and SEMESTER own COURSE-OFFERING (AUTOMATIC, MANDATORY),
/// plus the "course offered at most twice per year" cardinality rule.
std::string SchoolDdl();

/// Parses `ddl` and creates an empty database; aborts the test on failure.
Database MakeDatabase(const std::string& ddl);

/// Company database with divisions MACHINERY (SALES dept employees ADAMS,
/// BAKER; PLANNING dept employee CLARK) and TEXTILES (SALES dept employee
/// DAVIS), matching the shapes used by the paper's FIND examples.
Database MakeCompanyDatabase();

/// Populates an (empty) company database with `divisions` divisions and
/// `emps_per_div` employees each, deterministic contents (benchmarks).
void FillCompany(Database* db, int divisions, int emps_per_div);

/// School database with a handful of courses, semesters and offerings.
Database MakeSchoolDatabase();

/// School database whose OFFERINGs were not stored in the order of their
/// courses: o1 (CS101, S79, section 1), o2 (CS202, F78, section 2), o3
/// (CS101, F78, section 3). So F78's SEM-OFF occurrence lists [o2 o3]
/// while CS101's CRS-OFF occurrence lists [o1 o3].
Database MakeCrossedSchoolDatabase();

}  // namespace dbpc::testing

#endif  // DBPC_TESTS_TESTING_FIXTURES_H_
