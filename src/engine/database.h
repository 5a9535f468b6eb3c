#ifndef DBPC_ENGINE_DATABASE_H_
#define DBPC_ENGINE_DATABASE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "engine/predicate.h"
#include "schema/schema.h"
#include "storage/extent.h"
#include "storage/store.h"

namespace dbpc {

/// Cumulative operation counters. Benchmarks diff these to attribute cost
/// (e.g. the emulation strategy's extra record touches, paper section 2.1.2).
struct OpStats {
  uint64_t records_read = 0;
  uint64_t records_written = 0;
  uint64_t records_erased = 0;
  uint64_t members_scanned = 0;
  uint64_t links_changed = 0;
  /// Access-path index lookups (one per probed equality key).
  uint64_t index_probes = 0;
  /// Candidate records produced by index probes (bucket entries touched).
  uint64_t index_hits = 0;

  uint64_t Total() const {
    return records_read + records_written + records_erased + members_scanned +
           links_changed + index_probes + index_hits;
  }
};

/// Position at which `member` belongs among `members`, the member list of
/// one occurrence of `set` (paper section 4.2): a linear scan that stops at
/// the first member whose key is greater, failing on a duplicate full key.
/// Chronological sets append. The set's upper-cased key names and the new
/// member's key values are resolved once; each existing member is read
/// through `store` (which promotes a columnar row) and compared in place,
/// charging `stats` (when non-null) one members_scanned and two
/// records_read. The member's key values come from `new_fields` when given
/// — `member` is then being re-placed and its own entry in `members` is
/// passed over — and otherwise from its stored record, read only when there
/// is a member to compare against. The engine and both copy engines place
/// sorted members through this one function.
Result<size_t> SortedSetPosition(const Store& store, const SetDef& set,
                                 const std::vector<RecordId>& members,
                                 RecordId member, const FieldMap* new_fields,
                                 OpStats* stats);

/// Key string of uniqueness constraint `c` for a record with `fields`, or
/// nullopt when a key component is absent or null: null components exempt
/// the record from uniqueness.
std::optional<std::string> UniqueKeyOf(const ConstraintDef& c,
                                       const FieldMap& fields);

/// Whether one more member with `new_member_fields` fits cardinality
/// constraint `c` on `owner`'s occurrence of `set`; `exclude_member`
/// (nonzero when a linked member is re-checked) is not counted. A grouped
/// limit charges `stats` (when non-null) one members_scanned per member
/// compared. The engine and the bulk copy engine share this and
/// UniqueKeyOf.
Status CheckCardinality(const Store& store, const ConstraintDef& c,
                        const SetDef& set, RecordId owner,
                        const FieldMap& new_member_fields,
                        RecordId exclude_member, OpStats* stats);

/// Knobs for the engine's internal access-path indexes. Indexes are
/// trace-invisible: whenever a probe could change an observable outcome
/// (errors included) the engine falls back to a scan, so results are
/// byte-identical with indexing on or off — only OpStats differ.
struct IndexOptions {
  /// Master switch; off forces every access through scans.
  bool enabled = true;
  /// Build secondary indexes lazily for value-join target fields.
  bool auto_join_indexes = true;
};

/// A STORE request: new record contents plus the set occurrences it joins.
/// For each AUTOMATIC set the member participates in, `connect` must name
/// the owner (system-owned sets connect implicitly); MANUAL sets connect
/// only when requested.
struct StoreRequest {
  std::string type;
  FieldMap fields;
  /// set name -> owner record id.
  std::map<std::string, RecordId> connect;
};

/// A schema-conforming database instance: storage plus full enforcement of
/// the schema's structural rules and explicit integrity constraints
/// (paper section 3.1). All three data-model facades and the conversion
/// baselines operate through this one engine.
class Database {
 public:
  /// Validates the schema and creates an empty instance.
  static Result<Database> Create(Schema schema);

  const Schema& schema() const { return schema_; }

  // --- update operations ------------------------------------------------

  /// Stores a new record, connects it into sets, and enforces every
  /// applicable constraint. On success returns the record id.
  Result<RecordId> StoreRecord(const StoreRequest& request);

  /// Erases a record with CODASYL ERASE semantics: characterizing members
  /// are erased recursively, OPTIONAL members are disconnected, and
  /// MANDATORY (non-characterizing) members block the erase. A refused
  /// erase, including one refused deep in the cascade, changes nothing.
  Status EraseRecord(RecordId id);

  /// Updates fields of an existing record; re-sorts set positions when a
  /// set key changes and re-checks constraints.
  Status ModifyRecord(RecordId id, const FieldMap& updates);

  /// Connects `member` into the `set_name` occurrence owned by `owner`
  /// (MANUAL sets, or reconnect of OPTIONAL members).
  Status Connect(const std::string& set_name, RecordId member, RecordId owner);

  /// Disconnects `member` from `set_name`. Fails for MANDATORY sets.
  Status Disconnect(const std::string& set_name, RecordId member);

  // --- read operations ----------------------------------------------------

  bool Exists(RecordId id) const { return store_.Exists(id); }

  /// Record type name of `id`.
  Result<std::string> TypeOf(RecordId id) const;

  /// Field value, resolving VIRTUAL fields through their set to the owner
  /// (null when the record is unconnected). Unknown fields are errors.
  Result<Value> GetField(RecordId id, const std::string& field) const;

  /// All fields of the record including resolved virtual fields.
  Result<FieldMap> GetAllFields(RecordId id) const;

  /// Ordered members of a set occurrence. For system-owned sets pass
  /// `kSystemOwner` (or use SystemMembers).
  std::vector<RecordId> Members(const std::string& set_name,
                                RecordId owner) const;

  /// Like Members (including stats accounting) but returns a reference into
  /// storage instead of a copy. Invalidated by any database mutation; use
  /// only when no mutation happens while iterating.
  const std::vector<RecordId>& MembersRef(const std::string& set_name,
                                          RecordId owner) const;

  std::vector<RecordId> SystemMembers(const std::string& set_name) const {
    return Members(set_name, kSystemOwner);
  }

  /// Owner of `member` in `set_name`; 0 when not connected.
  RecordId OwnerOf(const std::string& set_name, RecordId member) const;

  /// All records of a type in insertion order (Access A via A scans).
  std::vector<RecordId> AllOfType(const std::string& type) const;

  /// Records of `type` satisfying `pred`.
  Result<std::vector<RecordId>> SelectWhere(const std::string& type,
                                            const Predicate& pred,
                                            const HostEnv& host_env) const;

  /// Number of live records across all types.
  size_t RecordCount() const { return store_.LiveCount(); }

  /// Field-getter closure for `id`, for use with Predicate::Evaluate.
  std::function<Result<Value>(const std::string&)> FieldGetter(
      RecordId id) const;

  const OpStats& stats() const { return stats_; }
  void ResetStats() { stats_ = OpStats(); }

  // --- access-path indexes ------------------------------------------------

  const IndexOptions& index_options() const { return index_options_; }
  void SetIndexOptions(IndexOptions options) { index_options_ = options; }

  /// Ids of live `type` records whose actual field `field` equals `value`
  /// under query (QueryCompare) semantics, ascending by id — i.e. exactly
  /// the ids an AllOfType scan with an equality test would keep, in the
  /// same order. Returns nullopt when no index can answer the probe
  /// exactly (disabled, unindexed field, NaN anywhere, or a probe/field
  /// type pairing whose equality is broader than key equality); the caller
  /// must then scan.
  std::optional<std::vector<RecordId>> ProbeIndex(const std::string& type,
                                                  const std::string& field,
                                                  const Value& value) const;

  /// Superset variant of ProbeIndex for callers that re-verify candidates
  /// (e.g. by evaluating the full predicate on them): may additionally be
  /// served from a single-field uniqueness index, whose display-form keys
  /// can collide, so the result may contain ids whose field is not equal
  /// to `value` — but it never misses one that is.
  std::optional<std::vector<RecordId>> ProbeCandidates(
      const std::string& type, const std::string& field,
      const Value& value) const;

  /// Ensures a secondary index exists for (type, field), building it from
  /// the store on first use (value-join support). Returns true when an
  /// index is available afterwards. No-op returning false when indexing is
  /// disabled, auto_join_indexes is off, or the field is not indexable
  /// (virtual or unknown).
  bool EnsureFieldIndex(const std::string& type, const std::string& field) const;

  /// (TYPE, FIELD) pairs with a currently usable secondary index, sorted.
  /// Single-field uniqueness constraints are reported too: their probes are
  /// served by the uniqueness index.
  std::vector<std::pair<std::string, std::string>> IndexedFields() const;

  /// Drops and rebuilds every access-path index (secondary and uniqueness)
  /// from the store. Call after bulk-loading through mutable_store().
  void RebuildIndexes();

  // --- bulk extent path ---------------------------------------------------

  /// Columnar snapshot of every live record of `type`: one column per
  /// actual (non-virtual) field of the schema type, in declaration order,
  /// rows ascending by id. A raw-store scan — no OpStats accounting — so
  /// diagnostic consumers can snapshot without disturbing the counters.
  /// Returns NotFound for an unknown record type.
  Result<ExtentTable> SnapshotExtents(const std::string& type) const;

  /// Bulk-loads every row of `table` into the store and rebuilds all
  /// access-path indexes once at the end (the extent loader behind
  /// "bulk-loading through mutable_store()"). Columns must name actual
  /// fields of the table's record type; values are stored as-is — like a
  /// mutable_store() load, nothing is coerced and no constraints or set
  /// memberships are checked, so callers stage validated rows. Returns
  /// the assigned record ids, ascending, one per row.
  Result<std::vector<RecordId>> BulkLoad(const ExtentTable& table);

  /// Direct storage access for the data translator and tests. Mutating
  /// through this bypasses constraint enforcement *and* index maintenance;
  /// call RebuildIndexes() afterwards.
  Store& mutable_store() { return store_; }
  const Store& raw_store() const { return store_; }

 private:
  explicit Database(Schema schema) : schema_(std::move(schema)) {}

  /// The schema's names as field reads resolve them, bound once by Create
  /// from the validated schema: one BoundType per record type, in
  /// declaration order, each with its fields in declaration order. Every
  /// name is upper case. Values only, with no pointer into schema_ or
  /// store_, so the implicit copy and move stay correct.
  struct BoundField {
    std::string name;
    bool is_virtual = false;
    /// Virtual fields only: the set to the owner, and the owner's field.
    std::string via_set;
    std::string using_field;
  };
  struct BoundType {
    std::string name;
    std::vector<BoundField> fields;
  };

  /// One secondary access path over an actual field: canonical equality key
  /// -> live record ids ascending. For the probe shapes ProbeIndex accepts,
  /// bucket membership coincides exactly with QueryCompare equality.
  struct FieldIndex {
    /// Field declared INT/DOUBLE: keys are canonical "%.17g" renderings of
    /// the value-as-double (QueryCompare's equality classes). String
    /// fields key on the exact text.
    bool numeric = false;
    /// Live values that break the key-equality <=> value-equality
    /// correspondence (stored NaN compares equal to every number; a value
    /// whose dynamic type contradicts the declared field type can match
    /// across keys). Probes are refused while nonzero.
    uint64_t unusable = 0;
    std::unordered_map<std::string, std::vector<RecordId>> buckets;
  };

  /// A single-field uniqueness constraint whose unique_index_ doubles as an
  /// equality probe path for SelectWhere (no duplicate secondary index).
  struct UniqueProbe {
    std::string constraint;
    FieldType type = FieldType::kString;
    /// Same role as FieldIndex::unusable; additionally counts INT values at
    /// or beyond 2^53, where distinct ints collapse under QueryCompare's
    /// double comparison but keep distinct ToLiteral keys.
    uint64_t unusable = 0;
  };

  /// Registers eager secondary indexes (set key fields, multi-field
  /// uniqueness components) and uniqueness probe paths at creation.
  void RegisterAutoIndexes();

  /// Adds / removes `rec`'s entries in every index registered for its type.
  void IndexInsert(const StoredRecord& rec);
  void IndexRemove(const StoredRecord& rec);

  /// Secondary index for (type, field), both upper case; null when absent.
  FieldIndex* FindFieldIndex(const std::string& type_upper,
                             const std::string& field_upper) const;

  /// Exact-probe key for `value` against a field of the index's class, or
  /// nullopt when key equality would not capture QueryCompare equality.
  static std::optional<std::string> ProbeKey(const FieldIndex& index,
                                             const Value& value);

  /// Probe via a single-field uniqueness constraint. Result may include
  /// false positives (display-form keys collide) but never misses a match;
  /// callers must re-verify. nullopt when the probe cannot be served.
  std::optional<std::vector<RecordId>> ProbeUnique(const UniqueProbe& probe,
                                                   const Value& value) const;

  /// Index-served candidate superset for `pred` on `type`, or nullopt when
  /// the engine must scan. Guards ensure a probe is only used when the
  /// scan could not have surfaced an error the probe would hide.
  std::optional<std::vector<RecordId>> SelectCandidates(
      const std::string& type, const Predicate& pred,
      const HostEnv& host_env) const;

  /// SortedSetPosition over `set`'s occurrence of `owner`, charged to the
  /// engine's OpStats. `new_fields` re-places an already linked member.
  Result<size_t> SortedPosition(const SetDef& set, RecordId owner,
                                RecordId member,
                                const FieldMap* new_fields = nullptr) const;

  Status ConnectInternal(const SetDef& set, RecordId member, RecordId owner);

  /// The refusal EraseRecord(id) would reach, decided before anything
  /// changes: a walk over the owned sets in schema order that recurses
  /// through characterizing members and charges no OpStats. `doomed` holds
  /// the members the walk has passed; they count as already erased.
  Status CheckErasable(RecordId id,
                       std::unordered_set<RecordId>* doomed) const;
  /// The erase cascade itself, once CheckErasable has passed.
  Status EraseUnchecked(RecordId id);

  Schema schema_;
  std::vector<BoundType> binding_;
  Store store_;
  /// constraint name -> serialized key -> record id.
  std::unordered_map<std::string, std::unordered_map<std::string, RecordId>>
      unique_index_;
  IndexOptions index_options_;
  /// "TYPE\x1fFIELD" -> secondary index. Ordered so one type's indexes form
  /// a contiguous prefix range; mutable for lazily built join indexes.
  mutable std::map<std::string, FieldIndex> field_indexes_;
  /// "TYPE\x1fFIELD" -> uniqueness probe path for that field.
  std::map<std::string, UniqueProbe> unique_probes_;
  mutable OpStats stats_;
};

}  // namespace dbpc

#endif  // DBPC_ENGINE_DATABASE_H_
