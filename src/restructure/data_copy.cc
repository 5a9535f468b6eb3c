#include "restructure/data_copy.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "engine/textio.h"
#include "storage/extent.h"

namespace dbpc {

namespace {

thread_local DataCopyEngine g_data_copy_engine = DataCopyEngine::kColumnarBulk;

/// The records of source `type` in emission order: the source sets whose
/// target counterpart is chronological keep their member sequences, since
/// target appends reproduce them. Self-sets cannot drive the emission
/// order: owners must still precede members, which id order already
/// guarantees for them.
std::vector<RecordId> EmissionOrder(const Database& source,
                                    const std::string& type,
                                    const CopySpec& spec,
                                    const Schema& target_schema) {
  std::vector<const SetDef*> sets;
  for (const SetDef* s : source.schema().SetsWithMember(type)) {
    if (EqualsIgnoreCase(s->owner, s->member)) continue;
    std::optional<std::string> mapped =
        spec.map_set ? spec.map_set(ToUpper(s->name))
                     : std::optional<std::string>(ToUpper(s->name));
    if (!mapped.has_value()) continue;
    const SetDef* target_set = target_schema.FindSet(*mapped);
    if (target_set != nullptr &&
        target_set->ordering == SetOrdering::kChronological) {
      sets.push_back(s);
    }
  }
  return ChronologicalOrder(source, type, sets);
}

/// Memoized spec.map_field for one source type: the hook is an opaque
/// std::function, so per-record per-field calls on the hot translation
/// path become one call per distinct field name. Target names come back
/// already upper-cased.
class FieldMapper {
 public:
  FieldMapper(const CopySpec& spec, const std::string& type)
      : spec_(spec), type_(type) {}

  const std::optional<std::string>& Map(const std::string& field) {
    auto it = memo_.find(field);
    if (it == memo_.end()) {
      std::optional<std::string> mapped =
          spec_.map_field ? spec_.map_field(type_, field)
                          : std::optional<std::string>(field);
      if (mapped.has_value()) mapped = ToUpper(*mapped);
      it = memo_.emplace(field, std::move(mapped)).first;
    }
    return it->second;
  }

 private:
  const CopySpec& spec_;
  const std::string& type_;
  std::unordered_map<std::string, std::optional<std::string>> memo_;
};

/// A self-set membership waiting for both endpoints to exist in the
/// target. `source_set` keeps the original set name for error messages.
struct DeferredLink {
  std::string target_set;
  std::string source_set;
  RecordId member;
  RecordId owner;
};

/// Connects self-set memberships once every record of the type exists. A
/// deferred endpoint legitimately missing from `id_map` means its type was
/// intentionally mapped away by the spec; any other miss is the same
/// silent data loss the eager path reports as an Internal error.
Status ConnectDeferredLinks(const Database& source, Database* target,
                            const CopySpec& spec,
                            const std::map<RecordId, RecordId>& id_map,
                            const std::vector<DeferredLink>& deferred_links) {
  for (const DeferredLink& link : deferred_links) {
    auto member = id_map.find(link.member);
    auto owner = id_map.find(link.owner);
    if (member == id_map.end() || owner == id_map.end()) {
      RecordId missing =
          member == id_map.end() ? link.member : link.owner;
      const StoredRecord* rec = source.raw_store().Get(missing);
      bool mapped_away = rec != nullptr && spec.map_type &&
                         !spec.map_type(ToUpper(rec->type)).has_value();
      if (mapped_away) continue;
      return Status::Internal("owner of record " +
                              std::to_string(link.member) + " in set " +
                              link.source_set + " was not copied first");
    }
    DBPC_RETURN_IF_ERROR(
        target->Connect(link.target_set, member->second, owner->second));
  }
  return Status::OK();
}

/// "translating record <id> of <TYPE>: <msg>" — the wrapper CopyDatabase
/// puts around engine-level store errors.
Status WrapTranslate(RecordId id, const std::string& type, const Status& s) {
  return Status(s.code(), "translating record " + std::to_string(id) +
                              " of " + type + ": " + s.message());
}

// --- record-at-a-time engine ---------------------------------------------

Result<std::map<RecordId, RecordId>> CopyDatabaseRecords(
    const Database& source, Database* target, const CopySpec& spec) {
  std::map<RecordId, RecordId> id_map;
  std::vector<DeferredLink> deferred_links;
  DBPC_ASSIGN_OR_RETURN(std::vector<std::string> order,
                        OwnerFirstTypes(source.schema()));
  for (const std::string& type : order) {
    std::optional<std::string> target_type =
        spec.map_type ? spec.map_type(type) : std::optional<std::string>(type);
    if (!target_type.has_value()) continue;
    FieldMapper mapper(spec, type);
    std::vector<RecordId> ordered =
        EmissionOrder(source, type, spec, target->schema());
    // The extra_connects pass (data_copy.h): every hook call of the type
    // before its first record lands, up to the first hook error.
    std::vector<std::map<std::string, RecordId>> extra_links;
    Status hook_error;
    if (spec.extra_connects) {
      for (RecordId id : ordered) {
        Result<std::map<std::string, RecordId>> links =
            spec.extra_connects(source, id, type, id_map, target);
        if (!links.ok()) {
          hook_error = links.status();
          ordered.resize(extra_links.size());
          break;
        }
        extra_links.push_back(std::move(*links));
      }
    }
    for (size_t i = 0; i < ordered.size(); ++i) {
      const RecordId id = ordered[i];
      const StoredRecord* rec = source.raw_store().Get(id);
      StoreRequest request;
      request.type = *target_type;
      for (const auto& [field, value] : rec->fields) {
        const std::optional<std::string>& target_field = mapper.Map(field);
        if (!target_field.has_value()) continue;
        request.fields[*target_field] = value;
      }
      if (spec.extra_fields) {
        DBPC_ASSIGN_OR_RETURN(FieldMap extra,
                              spec.extra_fields(source, id, type));
        for (auto& [field, value] : extra) {
          request.fields[ToUpper(field)] = std::move(value);
        }
      }
      for (const SetDef* set : source.schema().SetsWithMember(type)) {
        if (set->system_owned()) continue;
        RecordId owner = source.OwnerOf(ToUpper(set->name), id);
        if (owner == 0) continue;
        std::optional<std::string> target_set =
            spec.map_set ? spec.map_set(ToUpper(set->name))
                         : std::optional<std::string>(ToUpper(set->name));
        if (!target_set.has_value()) continue;
        if (EqualsIgnoreCase(set->owner, set->member)) {
          // Self-set: the owner may not be copied yet; connect afterwards.
          deferred_links.push_back(
              {ToUpper(*target_set), set->name, id, owner});
          continue;
        }
        auto mapped_owner = id_map.find(owner);
        if (mapped_owner == id_map.end()) {
          return Status::Internal("owner of record " + std::to_string(id) +
                                  " in set " + set->name +
                                  " was not copied first");
        }
        request.connect[ToUpper(*target_set)] = mapped_owner->second;
      }
      if (spec.extra_connects) {
        for (const auto& [set, owner] : extra_links[i]) {
          request.connect[ToUpper(set)] = owner;
        }
      }
      Result<RecordId> new_id = target->StoreRecord(request);
      if (!new_id.ok()) {
        return WrapTranslate(id, type, new_id.status());
      }
      id_map[id] = *new_id;
    }
    DBPC_RETURN_IF_ERROR(hook_error);
  }
  DBPC_RETURN_IF_ERROR(
      ConnectDeferredLinks(source, target, spec, id_map, deferred_links));
  return id_map;
}

// --- columnar bulk engine -------------------------------------------------

/// Stages each type's rows into an extent table (fields already mapped,
/// coerced, and validated; connections planned), then materializes the
/// staged rows through the raw store in the same order StoreRecord would
/// have inserted them, checking constraints against the evolving target
/// exactly as StoreRecord does. Index maintenance is skipped per record
/// and replaced by one RebuildIndexes() over the finished store — for a
/// copy-only workload the two leave identical index state.
///
/// extra_connects runs first for each row as it is staged, so helper
/// records land before the type's table is adopted, as in the record
/// engine's hook pass.
///
/// Error discipline: staging stops at the first failing row; rows staged
/// before it are materialized (any materialization error on them takes
/// precedence, as it would have fired first record-at-a-time), then the
/// staged error is returned. Either way the target's indexes are rebuilt
/// before returning so the database stays consistent.
Result<std::map<RecordId, RecordId>> CopyDatabaseBulk(const Database& source,
                                                      Database* target,
                                                      const CopySpec& spec) {
  std::map<RecordId, RecordId> id_map;
  // Hash mirror of id_map for the hot owner lookups during staging.
  std::unordered_map<RecordId, RecordId> id_lookup;
  std::vector<DeferredLink> deferred_links;
  DBPC_ASSIGN_OR_RETURN(std::vector<std::string> order,
                        OwnerFirstTypes(source.schema()));
  // Source types owning at least one set: only their ids are ever probed
  // through id_lookup (plan_requests), so only they are mirrored there.
  std::unordered_set<std::string> owner_types;
  for (const SetDef& s : source.schema().sets()) {
    if (s.system_owned()) continue;
    owner_types.insert(ToUpper(s.owner));
  }
  const Schema& target_schema = target->schema();
  bool indexes_stale = false;  // rows adopted since the last rebuild
  auto rebuild_indexes = [&] {
    if (indexes_stale) target->RebuildIndexes();
    indexes_stale = false;
  };
  auto fail = [&](const Status& s) -> Status {
    rebuild_indexes();
    return s;
  };
  for (const std::string& type : order) {
    std::optional<std::string> target_type =
        spec.map_type ? spec.map_type(type) : std::optional<std::string>(type);
    if (!target_type.has_value()) continue;
    std::vector<RecordId> ordered =
        EmissionOrder(source, type, spec, target_schema);
    if (ordered.empty()) continue;
    const RecordTypeDef* def = target_schema.FindRecordType(*target_type);
    if (def == nullptr) {
      return fail(WrapTranslate(
          ordered.front(), type,
          Status::NotFound("record type " + *target_type)));
    }
    const std::string target_type_upper = ToUpper(def->name);
    const bool mirror_ids = owner_types.count(type) > 0;
    // The hook may store helper records, and StoreRecord reads the
    // target's indexes: bring them up to date with the rows adopted so far.
    if (spec.extra_connects) rebuild_indexes();

    // Hoisted per-type tables: column layout, source-set mappings,
    // target-set link plan inputs, and the constraints that apply.
    // Where a field lands: dropped, a column, a virtual field (an error if
    // present) or an unknown name (an error).
    enum class FieldKind { kDrop, kColumn, kVirtual, kUnknown };
    struct FieldAction {
      FieldKind kind = FieldKind::kDrop;
      int index = -1;      // column ordinal, or ordinal among virtual fields
      std::string target;  // target name (for the unknown-field error)
    };
    std::vector<std::string> col_names;
    std::vector<FieldType> col_types;
    std::unordered_map<std::string, FieldAction> target_fields;  // by name
    int n_virtual = 0;
    for (const FieldDef& f : def->fields) {
      const std::string name = ToUpper(f.name);
      if (f.is_virtual) {
        target_fields.emplace(name, FieldAction{FieldKind::kVirtual,
                                                n_virtual++, ""});
        continue;
      }
      target_fields.emplace(
          name, FieldAction{FieldKind::kColumn,
                            static_cast<int>(col_names.size()), ""});
      col_names.push_back(name);
      col_types.push_back(f.type);
    }
    FieldMapper mapper(spec, type);

    struct SourceSetInfo {
      const SetDef* set;
      std::string name_upper;
      std::string target_upper;
      bool self_set;
      Store::SetReader reader;  // bound source occurrence index
      // One-entry owner-mapping cache: bulk sources link long owner runs.
      RecordId last_owner = 0;
      RecordId last_mapped = 0;
    };
    std::vector<SourceSetInfo> source_sets;
    for (const SetDef* set : source.schema().SetsWithMember(type)) {
      if (set->system_owned()) continue;
      SourceSetInfo info;
      info.set = set;
      info.name_upper = ToUpper(set->name);
      std::optional<std::string> mapped_set =
          spec.map_set ? spec.map_set(info.name_upper)
                       : std::optional<std::string>(info.name_upper);
      // A set mapped away by the spec is a per-row no-op in the record
      // engine (checked after the owner probe, but with no side effects
      // either way), so it can be dropped from the plan entirely.
      if (!mapped_set.has_value()) continue;
      info.target_upper = ToUpper(*mapped_set);
      info.self_set = EqualsIgnoreCase(set->owner, set->member);
      info.reader = source.raw_store().ReaderFor(info.name_upper);
      source_sets.push_back(std::move(info));
    }

    struct TargetSetInfo {
      const SetDef* set;
      std::string name_upper;
      bool system_owned;
      bool must_connect;
      bool chronological;
      // One-entry caches serving the long owner runs of bulk loads.
      RecordId last_valid_owner = 0;  // already passed the type check
      std::optional<Store::BulkLinker> linker;  // created on first link
    };
    std::vector<TargetSetInfo> target_sets;
    for (const SetDef* set : target_schema.SetsWithMember(def->name)) {
      TargetSetInfo info;
      info.set = set;
      info.name_upper = ToUpper(set->name);
      info.system_owned = set->system_owned();
      info.chronological = set->ordering == SetOrdering::kChronological;
      info.must_connect = set->insertion == InsertionClass::kAutomatic;
      for (const ConstraintDef& c : target_schema.constraints()) {
        if (c.kind == ConstraintKind::kExistence &&
            EqualsIgnoreCase(c.set_name, set->name)) {
          info.must_connect = true;
        }
      }
      target_sets.push_back(std::move(info));
    }

    struct ConstraintEntry {
      const ConstraintDef* c;
      const SetDef* set;  // kCardinalityLimit: resolved c.set_name
    };
    std::vector<ConstraintEntry> constraints;  // declaration order
    std::vector<const ConstraintDef*> uniques;
    for (const ConstraintDef& c : target_schema.constraints()) {
      if ((c.kind == ConstraintKind::kNonNull ||
           c.kind == ConstraintKind::kUniqueness) &&
          EqualsIgnoreCase(c.record, def->name)) {
        constraints.push_back({&c, nullptr});
        if (c.kind == ConstraintKind::kUniqueness) uniques.push_back(&c);
      } else if (c.kind == ConstraintKind::kCardinalityLimit) {
        constraints.push_back({&c, target_schema.FindSet(c.set_name)});
      }
    }

    // --- staging: mapped fields + planned links per row -------------------
    struct PlannedLink {
      TargetSetInfo* info;
      RecordId owner;
    };
    ExtentTable staged(target_type_upper, col_names, col_types);
    std::vector<RecordId> staged_source;
    // Planned links of all staged rows, flattened: row r owns the slice
    // [link_ends[r-1], link_ends[r]) of staged_links. One growing vector
    // instead of a heap allocation per row. A row that fails mid-plan may
    // leave a dangling tail past link_ends.back(); it is never read (the
    // staging loop stops there).
    std::vector<PlannedLink> staged_links;
    std::vector<size_t> link_ends;
    staged_source.reserve(ordered.size());
    staged_links.reserve(ordered.size());
    link_ends.reserve(ordered.size());
    std::optional<Status> pending;  // first staging error; returned after
                                    // the rows staged before it land

    // The connections requested for the row being staged: a tiny flat
    // last-wins map keyed by target set name. Member types belong to a
    // handful of sets, so a per-row std::map is pure allocator traffic.
    struct RequestedLink {
      const std::string* set_upper;  // into source_sets or hook_links
      RecordId owner;
      bool consumed;
    };
    std::vector<RequestedLink> requested;
    // The row's extra_connects result, set names upper-cased.
    std::map<std::string, RecordId> hook_links;
    auto request = [&](const std::string& set_upper, RecordId owner) {
      for (RequestedLink& req : requested) {
        if (*req.set_upper == set_upper) {
          req.owner = owner;  // later requests win, like map assign
          return;
        }
      }
      requested.push_back({&set_upper, owner, false});
    };

    // Row staging steps shared by both staging loops. Each returns false
    // when the row (and the staging loop) must stop with `pending` set.
    // call_hook comes first in a row: the record engine runs every hook
    // call of the type before any of the type's records is stored.
    auto call_hook = [&](RecordId id) {
      if (!spec.extra_connects) return true;
      Result<std::map<std::string, RecordId>> links =
          spec.extra_connects(source, id, type, id_map, target);
      if (!links.ok()) {
        pending = links.status();
        return false;
      }
      hook_links.clear();
      for (const auto& [set, owner] : *links) hook_links[ToUpper(set)] = owner;
      return true;
    };
    auto plan_requests = [&](RecordId id) {
      requested.clear();
      // Eager connection requests (self-sets defer, exactly like the
      // record engine). Owners referenced here belong to earlier topo
      // types, already landed.
      for (SourceSetInfo& info : source_sets) {
        RecordId owner = info.reader.OwnerOf(id);
        if (owner == 0) continue;
        if (info.self_set) {
          deferred_links.push_back(
              {info.target_upper, info.set->name, id, owner});
          continue;
        }
        RecordId mapped;
        if (owner == info.last_owner) {
          mapped = info.last_mapped;
        } else {
          auto hit = id_lookup.find(owner);
          if (hit != id_lookup.end()) {
            mapped = hit->second;
          } else {
            // id_lookup only mirrors set-owning types; an owner of an
            // unexpected type (reachable through mutable_store) is still
            // in id_map and must survive to plan_links, where its type
            // check fails exactly like the record engine's.
            auto slow = id_map.find(owner);
            if (slow == id_map.end()) {
              pending = Status::Internal(
                  "owner of record " + std::to_string(id) + " in set " +
                  info.set->name + " was not copied first");
              return false;
            }
            mapped = slow->second;
          }
          info.last_owner = owner;
          info.last_mapped = mapped;
        }
        request(info.target_upper, mapped);
      }
      for (const auto& [set_upper, owner] : hook_links) {
        request(set_upper, owner);
      }
      return true;
    };
    auto plan_links = [&](RecordId id) {
      for (TargetSetInfo& info : target_sets) {
        RequestedLink* req = nullptr;
        for (RequestedLink& r : requested) {
          if (!r.consumed && *r.set_upper == info.name_upper) {
            req = &r;
            break;
          }
        }
        if (info.system_owned) {
          staged_links.push_back({&info, kSystemOwner});
          if (req != nullptr) req->consumed = true;
          continue;
        }
        if (req != nullptr) {
          RecordId owner = req->owner;
          // Repeat owners (bulk sources link long runs) skip revalidation:
          // nothing in a copy removes or retypes a landed owner.
          if (owner != info.last_valid_owner) {
            const StoredRecord* owner_rec = target->raw_store().Get(owner);
            if (owner_rec == nullptr) {
              pending = WrapTranslate(
                  id, type,
                  Status::NotFound("owner record " + std::to_string(owner) +
                                   " for set " + info.set->name));
              return false;
            }
            if (!EqualsIgnoreCase(owner_rec->type, info.set->owner)) {
              pending = WrapTranslate(
                  id, type,
                  Status::TypeError("record " + std::to_string(owner) +
                                    " is a " + owner_rec->type + ", not a " +
                                    info.set->owner + " (owner of " +
                                    info.set->name + ")"));
              return false;
            }
            info.last_valid_owner = owner;
          }
          staged_links.push_back({&info, owner});
          req->consumed = true;
          continue;
        }
        if (info.must_connect) {
          pending = WrapTranslate(
              id, type,
              Status::ConstraintViolation(
                  "record type " + def->name +
                  " is an AUTOMATIC member of set " + info.set->name +
                  " but no owner was supplied"));
          return false;
        }
      }
      // Leftover request: report the lexicographically first set name, the
      // order a std::map of requests would have yielded.
      const std::string* leftover = nullptr;
      for (const RequestedLink& r : requested) {
        if (r.consumed) continue;
        if (leftover == nullptr || *r.set_upper < *leftover) {
          leftover = r.set_upper;
        }
      }
      if (leftover != nullptr) {
        pending = WrapTranslate(
            id, type,
            Status::InvalidArgument("record type " + def->name +
                                    " is not a member of set " + *leftover));
        return false;
      }
      return true;
    };

    // --- field choice ------------------------------------------------------
    // StoreRecord's field walk decides per target name: a source field's
    // action is resolved (and memoized) the first time the type shows it,
    // an extra_fields entry's by its upper-cased name, overriding a source
    // field mapped onto that name.
    auto target_action = [&](const std::string& target_upper) {
      auto it = target_fields.find(target_upper);
      return it != target_fields.end()
                 ? it->second
                 : FieldAction{FieldKind::kUnknown, -1, target_upper};
    };
    std::unordered_map<std::string, FieldAction> source_actions;
    auto source_action = [&](const std::string& field) -> const FieldAction& {
      auto it = source_actions.find(field);
      if (it == source_actions.end()) {
        const std::optional<std::string>& mapped = mapper.Map(field);
        it = source_actions
                 .emplace(field, mapped.has_value() ? target_action(*mapped)
                                                    : FieldAction())
                 .first;
      }
      return it->second;
    };

    // --- columnar-source staging ------------------------------------------
    // When the source rows of this type are themselves a fully columnar,
    // unpromoted image (a bulk-loaded database) and every source column
    // maps onto a target column of the same declared type, rows are staged
    // extent-to-extent with typed appends: the source is never promoted,
    // and no per-row FieldMap or Value round trip exists. Anything
    // irregular — an extra_fields hook, heap or vacated rows of the type,
    // emission order differing from id order, a column that needs
    // coercion, carries type exceptions, or maps onto a virtual/unknown
    // field — takes the record-read loop below instead, which handles every
    // case byte-identically (promotion keeps record reads faithful).
    struct RunPlan {
      Store::ColumnarRun run;
      std::vector<int> src_of_target;  // target col -> source col (or -1)
    };
    std::vector<RunPlan> run_plans;
    bool columnar_src = spec.extra_fields == nullptr;
    if (columnar_src) {
      std::vector<Store::ColumnarRun> runs = source.raw_store().ColumnarRuns(type);
      if (runs.empty()) columnar_src = false;
      size_t columnar_rows = 0;
      for (const Store::ColumnarRun& run : runs) {
        if (!columnar_src) break;
        if (run.live != run.table->rows()) {  // promoted or removed rows
          columnar_src = false;
          break;
        }
        columnar_rows += run.live;
        RunPlan plan{run, std::vector<int>(col_names.size(), -1)};
        // Visit source columns in name order so that two columns mapped
        // onto one target resolve like the record loop's sorted field
        // walk: the lexicographically later source name wins.
        std::vector<int> by_name(run.table->columns());
        for (size_t c = 0; c < by_name.size(); ++c) {
          by_name[c] = static_cast<int>(c);
        }
        std::sort(by_name.begin(), by_name.end(), [&](int a, int b) {
          return run.table->field_names()[static_cast<size_t>(a)] <
                 run.table->field_names()[static_cast<size_t>(b)];
        });
        for (int c : by_name) {
          const FieldAction& action =
              source_action(run.table->field_names()[static_cast<size_t>(c)]);
          if (action.kind == FieldKind::kDrop) continue;
          if (action.kind != FieldKind::kColumn) {
            columnar_src = false;  // per-row virtual/unknown-field errors
            break;
          }
          const size_t target_col = static_cast<size_t>(action.index);
          if (run.table->field_types()[static_cast<size_t>(c)] !=
              col_types[target_col]) {
            columnar_src = false;  // would need per-value coercion
            break;
          }
          plan.src_of_target[target_col] = c;
        }
        if (!columnar_src) break;
        // A mapped column whose extent holds type exceptions needs Value
        // reads (and can fail coercion mid-row); leave it to record reads.
        for (const Extent& extent : run.table->extents()) {
          for (int src : plan.src_of_target) {
            if (src >= 0 &&
                extent.column(static_cast<size_t>(src)).has_exceptions()) {
              columnar_src = false;
              break;
            }
          }
          if (!columnar_src) break;
        }
        if (!columnar_src) break;
        run_plans.push_back(std::move(plan));
      }
      if (columnar_src && columnar_rows != ordered.size()) {
        columnar_src = false;  // heap rows of the type exist
      }
      if (columnar_src) {
        // Emission order must be exactly the runs' ascending id sequence.
        size_t pos = 0;
        for (const RunPlan& plan : run_plans) {
          const size_t rows = plan.run.table->rows();
          for (size_t r = 0; r < rows && columnar_src; ++r) {
            if (ordered[pos++] !=
                plan.run.first_id + static_cast<RecordId>(r)) {
              columnar_src = false;
            }
          }
          if (!columnar_src) break;
        }
      }
    }
    if (columnar_src) {
      std::vector<const Value*> col_defaults(col_names.size());
      {
        size_t col = 0;
        for (const FieldDef& f : def->fields) {
          if (!f.is_virtual) col_defaults[col++] = &f.default_value;
        }
      }
      bool stop = false;
      for (const RunPlan& plan : run_plans) {
        size_t row = 0;  // table-global row, id = first_id + row
        for (const Extent& extent : plan.run.table->extents()) {
          const size_t extent_rows = extent.rows();
          for (size_t er = 0; er < extent_rows; ++er, ++row) {
            const RecordId id =
                plan.run.first_id + static_cast<RecordId>(row);
            // Field errors are statically impossible here, so the hook,
            // request and link planning back-to-back match the record
            // loop's order.
            if (!call_hook(id) || !plan_requests(id) || !plan_links(id)) {
              stop = true;
              break;
            }
            Extent& out = staged.BeginRow(id);
            for (size_t col = 0; col < col_names.size(); ++col) {
              const int src = plan.src_of_target[col];
              ExtentColumn& out_col = out.MutableColumn(col);
              if (src < 0) {
                out_col.Append(*col_defaults[col]);
                continue;
              }
              const ExtentColumn& src_col =
                  extent.column(static_cast<size_t>(src));
              // A null source cell is a present-but-null field, never the
              // target default — exactly what promotion would yield.
              if (src_col.IsNull(er)) {
                out_col.AppendNull();
                continue;
              }
              switch (col_types[col]) {
                case FieldType::kInt:
                  out_col.AppendInt(src_col.ints()[er]);
                  break;
                case FieldType::kDouble:
                  out_col.AppendDouble(src_col.doubles()[er]);
                  break;
                case FieldType::kString:
                  out_col.AppendString(
                      src_col.dictionary_encoded()
                          ? src_col.dictionary()[src_col.codes()[er]]
                          : src_col.plain()[er]);
                  break;
              }
            }
            staged_source.push_back(id);
            link_ends.push_back(staged_links.size());
          }
          if (stop) break;
        }
        if (stop) break;
      }
    } else {
      // --- record-read staging ---------------------------------------------
      // StoreRecord's target-state-independent field walk (virtual / coerce
      // / default / unknown), reading the chosen values in place.
      const Store& src_store = source.raw_store();
      std::vector<const Value*> chosen(col_names.size());
      std::vector<const Value*> ptrs(col_names.size());
      std::vector<char> virt_present(static_cast<size_t>(n_virtual));
      std::vector<Value> scratch;  // coerced temporaries, one row at a time
      scratch.reserve(col_names.size());
      std::optional<std::string> first_unknown;
      // Later names overwrite earlier ones, like assignment into a map of
      // target fields; the first unknown name in that map's order is the
      // one reported.
      auto choose = [&](const FieldAction& action, const Value* value) {
        switch (action.kind) {
          case FieldKind::kDrop:
            break;
          case FieldKind::kColumn:
            chosen[static_cast<size_t>(action.index)] = value;
            break;
          case FieldKind::kVirtual:
            virt_present[static_cast<size_t>(action.index)] = 1;
            break;
          case FieldKind::kUnknown:
            if (!first_unknown || action.target < *first_unknown) {
              first_unknown = action.target;
            }
            break;
        }
      };
      for (RecordId id : ordered) {
        if (!call_hook(id)) break;
        const StoredRecord* rec = src_store.Get(id);
        std::fill(chosen.begin(), chosen.end(), nullptr);
        std::fill(virt_present.begin(), virt_present.end(), 0);
        scratch.clear();
        first_unknown.reset();
        for (const auto& [fname, value] : rec->fields) {
          choose(source_action(fname), &value);
        }
        FieldMap extra;  // outlives the row: `chosen` may point into it
        if (spec.extra_fields) {
          Result<FieldMap> fields = spec.extra_fields(source, id, type);
          if (!fields.ok()) {
            pending = fields.status();
            break;
          }
          extra = std::move(*fields);
          for (const auto& [fname, value] : extra) {
            choose(target_action(ToUpper(fname)), &value);
          }
        }
        if (!plan_requests(id)) break;
        size_t col = 0;
        int vidx = 0;
        bool row_error = false;
        for (const FieldDef& f : def->fields) {
          if (f.is_virtual) {
            if (virt_present[static_cast<size_t>(vidx)]) {
              pending = WrapTranslate(
                  id, type,
                  Status::InvalidArgument("cannot store virtual field " +
                                          def->name + "." + f.name));
              row_error = true;
              break;
            }
            ++vidx;
            continue;
          }
          const Value* v = chosen[col];
          if (v == nullptr) {
            ptrs[col] = &f.default_value;
          } else if (v->is_null() || v->Matches(f.type)) {
            ptrs[col] = v;  // CoerceTo is the identity here
          } else {
            Result<Value> coerced = v->CoerceTo(f.type);
            if (!coerced.ok()) {
              pending = WrapTranslate(id, type, coerced.status());
              row_error = true;
              break;
            }
            scratch.push_back(std::move(*coerced));
            ptrs[col] = &scratch.back();
          }
          ++col;
        }
        if (row_error) break;
        if (first_unknown) {
          pending = WrapTranslate(
              id, type,
              Status::InvalidArgument("unknown field " + *first_unknown +
                                      " for record type " + def->name));
          break;
        }
        if (!plan_links(id)) break;
        staged.AppendRow(id, ptrs.data());
        staged_source.push_back(id);
        link_ends.push_back(staged_links.size());
      }
    }

    // Uniqueness state StoreRecord would have read from unique_index_,
    // seeded from target records that already exist (the hook's included)
    // and grown as staged rows land.
    std::unordered_map<std::string, std::unordered_set<std::string>>
        unique_seen;
    for (const ConstraintDef* c : uniques) {
      auto& seen = unique_seen[c->name];
      for (RecordId id : target->raw_store().OfType(target_type_upper)) {
        std::optional<std::string> key =
            UniqueKeyOf(*c, target->raw_store().Get(id)->fields);
        if (key.has_value()) seen.insert(std::move(*key));
      }
    }

    // --- materialization: staged rows land through the raw store ----------
    // The whole staged table is adopted as a columnar segment up front —
    // rows become live records without a per-row FieldMap — and constraints
    // then run per row against the evolving target, in the schema
    // declaration order StoreRecord uses. Adopting before validating is
    // observationally identical to the record engine's insert-per-row:
    // every state-dependent check below (uniqueness, cardinality, sorted
    // position) observes set membership or unique_seen, never bare record
    // existence, and links still happen row by row in the original order.
    // On a constraint failure the not-yet-validated tail is dropped again.
    Store& store = target->mutable_store();
    const size_t staged_rows = staged_source.size();
    const ExtentTable& adopted = store.AdoptExtents(std::move(staged));
    if (staged_rows > 0) indexes_stale = true;
    auto drop_rows_from = [&](size_t first_row) {
      for (size_t rr = first_row; rr < staged_rows; ++rr) {
        (void)store.Remove(adopted.IdAt(rr));
      }
    };
    // Column positions per constraint, resolved once per type. A nonnull
    // component that is not a stored column can never be satisfied; a
    // uniqueness component that is not a stored column exempts every row
    // (UniqueKeyOf returns no key for an absent component).
    struct ConstraintCols {
      std::vector<int> cols;
      bool component_missing = false;
    };
    std::vector<ConstraintCols> constraint_cols(constraints.size());
    for (size_t i = 0; i < constraints.size(); ++i) {
      const ConstraintDef& c = *constraints[i].c;
      if (c.kind == ConstraintKind::kCardinalityLimit) continue;
      for (const std::string& f : c.fields) {
        int col = adopted.ColumnIndex(ToUpper(f));
        constraint_cols[i].cols.push_back(col);
        if (col < 0) constraint_cols[i].component_missing = true;
      }
    }
    std::vector<std::pair<const ConstraintDef*, std::string>> row_keys;
    // Adopted ids are one consecutive run (AssignIds), so row r's identity
    // is pure arithmetic — no per-row extent lookup.
    const RecordId first_new_id = staged_rows > 0 ? adopted.IdAt(0) : 0;
    for (size_t r = 0; r < staged_rows; ++r) {
      const RecordId src_id = staged_source[r];
      const RecordId new_id = first_new_id + static_cast<RecordId>(r);
      const size_t link_begin = r == 0 ? 0 : link_ends[r - 1];
      const size_t link_end = link_ends[r];
      row_keys.clear();
      FieldMap row_fields;  // built lazily; only cardinality checks need it
      bool row_fields_built = false;
      for (size_t ci = 0; ci < constraints.size(); ++ci) {
        const ConstraintDef& c = *constraints[ci].c;
        const ConstraintCols& cc = constraint_cols[ci];
        if (c.kind == ConstraintKind::kNonNull) {
          for (size_t k = 0; k < c.fields.size(); ++k) {
            if (cc.cols[k] < 0 ||
                adopted.IsNull(r, static_cast<size_t>(cc.cols[k]))) {
              drop_rows_from(r);
              return fail(WrapTranslate(
                  src_id, type,
                  Status::ConstraintViolation("field " + def->name + "." +
                                              c.fields[k] +
                                              " may not be null (" + c.name +
                                              ")")));
            }
          }
        } else if (c.kind == ConstraintKind::kUniqueness) {
          if (cc.component_missing) continue;
          std::string key;
          bool null_component = false;
          for (int col : cc.cols) {
            if (adopted.IsNull(r, static_cast<size_t>(col))) {
              null_component = true;
              break;
            }
            key += adopted.At(r, static_cast<size_t>(col)).ToLiteral();
            key += '\x1f';
          }
          if (null_component) continue;  // UniqueKeyOf: null -> exempt
          if (unique_seen[c.name].count(key) > 0) {
            drop_rows_from(r);
            return fail(WrapTranslate(
                src_id, type,
                Status::ConstraintViolation("duplicate key for " + c.name +
                                            " on " + def->name)));
          }
          row_keys.emplace_back(&c, std::move(key));
        } else if (c.kind == ConstraintKind::kCardinalityLimit) {
          for (size_t li = link_begin; li < link_end; ++li) {
            const PlannedLink& link = staged_links[li];
            if (link.info->set != constraints[ci].set) continue;
            if (!row_fields_built) {
              for (size_t col = 0; col < adopted.columns(); ++col) {
                row_fields[adopted.field_names()[col]] = adopted.At(r, col);
              }
              row_fields_built = true;
            }
            Status s = CheckCardinality(store, c, *constraints[ci].set,
                                        link.owner, row_fields,
                                        /*exclude_member=*/0,
                                        /*stats=*/nullptr);
            if (!s.ok()) {
              drop_rows_from(r);
              return fail(WrapTranslate(src_id, type, s));
            }
          }
        }
      }
      for (size_t li = link_begin; li < link_end; ++li) {
        const PlannedLink& link = staged_links[li];
        TargetSetInfo& set_info = *link.info;
        Status s;
        if (set_info.chronological) {
          // Chronological insertion is a pure append (SortedSetPosition
          // returns members.size() with no key scan), so the bound bulk
          // linker is an exact, occurrence-table-free equivalent.
          if (!set_info.linker.has_value()) {
            set_info.linker.emplace(
                store.LinkerFor(set_info.name_upper, staged_rows));
          }
          s = set_info.linker->LinkLast(link.owner, new_id);
        } else {
          Result<size_t> pos = SortedSetPosition(
              store, *set_info.set,
              store.Members(set_info.name_upper, link.owner), new_id,
              /*new_fields=*/nullptr, /*stats=*/nullptr);
          s = pos.ok() ? store.Link(set_info.name_upper, link.owner, new_id,
                                    *pos)
                       : pos.status();
        }
        if (!s.ok()) {
          // Roll back: unlink what was linked, drop this row and the tail.
          for (size_t lj = link_begin; lj < li; ++lj) {
            (void)store.Unlink(staged_links[lj].info->name_upper, new_id);
          }
          drop_rows_from(r);
          return fail(WrapTranslate(src_id, type, s));
        }
      }
      for (auto& [uc, key] : row_keys) {
        unique_seen[uc->name].insert(std::move(key));
      }
      // Source ids arrive mostly ascending, so the end hint makes the map
      // append-cheap; insert_or_assign keeps the record engine's last-wins
      // behavior for an id reachable under two types.
      id_map.insert_or_assign(id_map.end(), src_id, new_id);
      if (mirror_ids) id_lookup.insert_or_assign(src_id, new_id);
    }
    if (pending.has_value()) return fail(*pending);
  }
  rebuild_indexes();
  DBPC_RETURN_IF_ERROR(
      ConnectDeferredLinks(source, target, spec, id_map, deferred_links));
  return id_map;
}

}  // namespace

DataCopyEngine GetDataCopyEngine() { return g_data_copy_engine; }

void SetDataCopyEngine(DataCopyEngine engine) { g_data_copy_engine = engine; }

Result<std::map<RecordId, RecordId>> CopyDatabase(const Database& source,
                                                  Database* target,
                                                  const CopySpec& spec) {
  if (GetDataCopyEngine() == DataCopyEngine::kColumnarBulk) {
    return CopyDatabaseBulk(source, target, spec);
  }
  return CopyDatabaseRecords(source, target, spec);
}

}  // namespace dbpc
