#ifndef DBPC_RESTRUCTURE_DATA_COPY_H_
#define DBPC_RESTRUCTURE_DATA_COPY_H_

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "engine/database.h"

namespace dbpc {

/// Declarative description of how records flow from a source database into
/// a target database under a restructuring. All hooks are optional;
/// defaults copy names/values unchanged. The copier stores records in
/// owner-before-member order and preserves member ordering for sets that
/// are chronological in the target.
///
/// map_type, map_field, map_set and extra_fields must be pure functions of
/// their arguments: the copier memoizes map_field per (type, field) and
/// map_set per set, and the engines differ in how often and in which order
/// they run them. extra_connects runs on the schedule stated below.
struct CopySpec {
  /// Target record type name for a source type; nullopt drops the type.
  std::function<std::optional<std::string>(const std::string& type)> map_type;

  /// Target field name for a source field; nullopt drops the field.
  std::function<std::optional<std::string>(const std::string& type,
                                           const std::string& field)>
      map_field;

  /// Target set name for a source set membership; nullopt drops it.
  std::function<std::optional<std::string>(const std::string& set_name)>
      map_set;

  /// Additional target fields for a record (e.g. materialized virtuals).
  std::function<Result<FieldMap>(const Database& source, RecordId id,
                                 const std::string& type)>
      extra_fields;

  /// Additional target set connections (set name -> target owner id),
  /// which override a mapped source membership of the same set. May store
  /// helper records in `target` (the intermediate-record transformation
  /// does). `id_map` maps the records of every earlier source type to
  /// target ids. Both engines keep one contract:
  ///  - For each source type, the copier calls the hook once per record,
  ///    in emission order, before any record of that type lands. Helper
  ///    records therefore get the ids just before the type's own records.
  ///  - The first hook error stops the calls. The records before it are
  ///    copied as usual, and an error of theirs wins; if none fails, the
  ///    hook error is returned.
  /// The bulk engine calls the hook as it stages each row, with the
  /// target's indexes brought up to date first; the record engine calls
  /// it in a pass over the type before its first StoreRecord.
  std::function<Result<std::map<std::string, RecordId>>(
      const Database& source, RecordId id, const std::string& type,
      const std::map<RecordId, RecordId>& id_map, Database* target)>
      extra_connects;
};

/// Which engine CopyDatabase moves records with. The columnar bulk engine,
/// the one production code copies with, stages each type's rows through
/// extent tables (storage/extent.h), materializes them through the raw
/// store, and rebuilds the target's access-path indexes once at the end.
/// The record-at-a-time engine is its reference: it calls StoreRecord per
/// record with incremental index maintenance. The two produce identical
/// observable results — the same id map, target records, set memberships,
/// index state, and error statuses — which the fuzzer's --diff-columnar
/// axis enforces.
enum class DataCopyEngine {
  kColumnarBulk,
  kRecordAtATime,
};

/// Thread-local engine selection (each service worker thread picks
/// independently; defaults to kColumnarBulk).
DataCopyEngine GetDataCopyEngine();
void SetDataCopyEngine(DataCopyEngine engine);

/// RAII engine override for a scope: the differential fuzzer, the copy
/// tests and E14 select the reference engine through it.
class ScopedDataCopyEngine {
 public:
  explicit ScopedDataCopyEngine(DataCopyEngine engine)
      : previous_(GetDataCopyEngine()) {
    SetDataCopyEngine(engine);
  }
  ~ScopedDataCopyEngine() { SetDataCopyEngine(previous_); }
  ScopedDataCopyEngine(const ScopedDataCopyEngine&) = delete;
  ScopedDataCopyEngine& operator=(const ScopedDataCopyEngine&) = delete;

 private:
  DataCopyEngine previous_;
};

/// Copies every record and membership of `source` into `target` (an empty
/// database over the restructured schema) according to `spec`. Constraint
/// enforcement stays on, so a translation that would produce an invalid
/// target database fails loudly. Returns the source->target id map.
Result<std::map<RecordId, RecordId>> CopyDatabase(const Database& source,
                                                  Database* target,
                                                  const CopySpec& spec);

}  // namespace dbpc

#endif  // DBPC_RESTRUCTURE_DATA_COPY_H_
