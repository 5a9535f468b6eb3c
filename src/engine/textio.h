#ifndef DBPC_ENGINE_TEXTIO_H_
#define DBPC_ENGINE_TEXTIO_H_

#include <string>
#include <vector>

#include "engine/database.h"

namespace dbpc {

/// The record types of `schema`, set owners before their members (self-sets
/// aside): the order in which a load or a copy can connect each record as
/// it stores it. Fails with kUnsupported when the owner/member graph is
/// cyclic.
Result<std::vector<std::string>> OwnerFirstTypes(const Schema& schema);

/// The records of `type` in an order that reproduces the member sequence
/// of every occurrence of `sets` (sets with member `type`) when the records
/// are appended to them in that order: a topological sort over each
/// occurrence's successor edges, the smallest id first among the ready
/// records, in O(n log n). When every occurrence already lists its members
/// in ascending id order, the type's ids come back as they are. Conflicting
/// sequences leave the records they cannot place to storage order. The
/// dumper passes a type's chronological sets; the copier passes the source
/// sets whose target counterpart is chronological.
std::vector<RecordId> ChronologicalOrder(
    const Database& db, const std::string& type,
    const std::vector<const SetDef*>& sets);

/// Serializes a database instance to a line-oriented text form (the 1979
/// equivalent of an unload tape):
///
///   DATABASE <schema-name>.
///   RECORD <type> #<n> (FIELD = literal, ...) [IN <set> #<owner-n>, ...].
///   END DATABASE.
///
/// `#<n>` are per-dump sequence numbers (not storage ids); owners are
/// referenced by their sequence number, and records are emitted in
/// owner-before-member order so a load can connect as it goes. Member
/// order within chronological sets is preserved (across *all*
/// chronological sets a record belongs to). Fails with kUnsupported when
/// the schema's owner/member graph is cyclic: no owner-before-member
/// emission order exists, and silently dropping every record would lose
/// the database.
Result<std::string> DumpDatabaseText(const Database& db);

/// Loads a dump produced by DumpDatabaseText into an empty database over
/// `schema` (which must match the dump's structural expectations; all
/// constraints are enforced during the load). The schema name in the dump
/// is informational and not required to match.
Result<Database> LoadDatabaseText(const Schema& schema,
                                  const std::string& text);

}  // namespace dbpc

#endif  // DBPC_ENGINE_TEXTIO_H_
