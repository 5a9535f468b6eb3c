#include "engine/database.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace dbpc {

Result<Database> Database::Create(Schema schema) {
  DBPC_RETURN_IF_ERROR(schema.Validate());
  Database db(std::move(schema));
  for (const RecordTypeDef& type : db.schema_.record_types()) {
    BoundType& bound = db.binding_.emplace_back();
    bound.name = ToUpper(type.name);
    for (const FieldDef& f : type.fields) {
      bound.fields.push_back({ToUpper(f.name), f.is_virtual,
                              ToUpper(f.via_set), ToUpper(f.using_field)});
    }
  }
  db.RegisterAutoIndexes();
  return db;
}

namespace {

/// The entry of `bound` named `name`: an exact match on the canonical
/// upper-case name, else the first case-insensitive one, as the schema's
/// own lookups would find it.
template <typename Bound>
const Bound* FindBound(const std::vector<Bound>& bound,
                       const std::string& name) {
  for (const Bound& b : bound) {
    if (b.name == name) return &b;
  }
  for (const Bound& b : bound) {
    if (EqualsIgnoreCase(b.name, name)) return &b;
  }
  return nullptr;
}

/// Canonicalizes field map keys to upper case so lookups are uniform.
FieldMap CanonicalFields(const FieldMap& in) {
  FieldMap out;
  for (const auto& [name, value] : in) {
    out[ToUpper(name)] = value;
  }
  return out;
}

constexpr char kIndexKeySep = '\x1f';

/// Distinct int64 values at or beyond 2^53 can collapse under
/// QueryCompare's double comparison while keeping distinct decimal
/// renderings, so text keys stop capturing query equality there.
constexpr int64_t kIntExactLimit = int64_t{1} << 53;

std::string FieldIndexKey(const std::string& type_upper,
                          const std::string& field_upper) {
  return type_upper + kIndexKeySep + field_upper;
}

/// Key under which a stored value is bucketed, or nullopt when the value
/// breaks the index (NaN, or a dynamic type contradicting the declared
/// field class); callers count those as unusable. Nulls never reach here.
std::optional<std::string> StoredIndexKey(bool numeric, const Value& v) {
  if (numeric) {
    if (v.is_int()) return QueryNumericKey(static_cast<double>(v.as_int()));
    if (v.is_double() && !std::isnan(v.as_double())) {
      return QueryNumericKey(v.as_double());
    }
    return std::nullopt;
  }
  if (v.is_string()) return v.as_string();
  return std::nullopt;
}

/// True when a stored value keeps the uniqueness index's display-form keys
/// faithful to QueryCompare equality for its declared field type.
bool UniqueProbeUsable(FieldType type, const Value& v) {
  switch (type) {
    case FieldType::kInt:
      return v.is_int() && v.as_int() < kIntExactLimit &&
             v.as_int() > -kIntExactLimit;
    case FieldType::kDouble:
      return v.is_double() && !std::isnan(v.as_double());
    case FieldType::kString:
      return v.is_string();
  }
  return false;
}

void SortedInsert(std::vector<RecordId>* ids, RecordId id) {
  auto pos = std::lower_bound(ids->begin(), ids->end(), id);
  if (pos == ids->end() || *pos != id) ids->insert(pos, id);
}

void SortedErase(std::vector<RecordId>* ids, RecordId id) {
  auto pos = std::lower_bound(ids->begin(), ids->end(), id);
  if (pos != ids->end() && *pos == id) ids->erase(pos);
}

}  // namespace

void Database::RegisterAutoIndexes() {
  // Uniqueness probe paths first: a single-field uniqueness constraint
  // already maintains unique_index_, so its field gets no duplicate
  // secondary index.
  for (const ConstraintDef& c : schema_.constraints()) {
    if (c.kind != ConstraintKind::kUniqueness || c.fields.size() != 1) {
      continue;
    }
    const RecordTypeDef* type = schema_.FindRecordType(c.record);
    if (type == nullptr) continue;
    const FieldDef* f = type->FindField(c.fields[0]);
    if (f == nullptr || f->is_virtual) continue;
    UniqueProbe probe;
    probe.constraint = c.name;
    probe.type = f->type;
    unique_probes_.emplace(
        FieldIndexKey(ToUpper(type->name), ToUpper(f->name)),
        std::move(probe));
  }
  auto register_secondary = [this](const RecordTypeDef& type,
                                   const std::string& field) {
    const FieldDef* f = type.FindField(field);
    if (f == nullptr || f->is_virtual) return;
    std::string key = FieldIndexKey(ToUpper(type.name), ToUpper(f->name));
    if (unique_probes_.count(key) > 0) return;
    field_indexes_[key].numeric = f->type != FieldType::kString;
  };
  // Set key fields: SortedPosition and sorted-set queries select on them.
  for (const SetDef& set : schema_.sets()) {
    const RecordTypeDef* member = schema_.FindRecordType(set.member);
    if (member == nullptr) continue;
    for (const std::string& key : set.keys) {
      register_secondary(*member, key);
    }
  }
  // Components of multi-field uniqueness keys are selective on their own.
  for (const ConstraintDef& c : schema_.constraints()) {
    if (c.kind != ConstraintKind::kUniqueness || c.fields.size() < 2) {
      continue;
    }
    const RecordTypeDef* type = schema_.FindRecordType(c.record);
    if (type == nullptr) continue;
    for (const std::string& f : c.fields) {
      register_secondary(*type, f);
    }
  }
}

void Database::IndexInsert(const StoredRecord& rec) {
  std::string prefix = ToUpper(rec.type) + kIndexKeySep;
  for (auto it = field_indexes_.lower_bound(prefix);
       it != field_indexes_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    auto fit = rec.fields.find(it->first.substr(prefix.size()));
    if (fit == rec.fields.end() || fit->second.is_null()) continue;
    std::optional<std::string> key =
        StoredIndexKey(it->second.numeric, fit->second);
    if (!key.has_value()) {
      ++it->second.unusable;
      continue;
    }
    SortedInsert(&it->second.buckets[*key], rec.id);
  }
  for (auto it = unique_probes_.lower_bound(prefix);
       it != unique_probes_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    auto fit = rec.fields.find(it->first.substr(prefix.size()));
    if (fit == rec.fields.end() || fit->second.is_null()) continue;
    if (!UniqueProbeUsable(it->second.type, fit->second)) {
      ++it->second.unusable;
    }
  }
}

void Database::IndexRemove(const StoredRecord& rec) {
  std::string prefix = ToUpper(rec.type) + kIndexKeySep;
  for (auto it = field_indexes_.lower_bound(prefix);
       it != field_indexes_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    auto fit = rec.fields.find(it->first.substr(prefix.size()));
    if (fit == rec.fields.end() || fit->second.is_null()) continue;
    std::optional<std::string> key =
        StoredIndexKey(it->second.numeric, fit->second);
    if (!key.has_value()) {
      if (it->second.unusable > 0) --it->second.unusable;
      continue;
    }
    auto bucket = it->second.buckets.find(*key);
    if (bucket == it->second.buckets.end()) continue;
    SortedErase(&bucket->second, rec.id);
    if (bucket->second.empty()) it->second.buckets.erase(bucket);
  }
  for (auto it = unique_probes_.lower_bound(prefix);
       it != unique_probes_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    auto fit = rec.fields.find(it->first.substr(prefix.size()));
    if (fit == rec.fields.end() || fit->second.is_null()) continue;
    if (!UniqueProbeUsable(it->second.type, fit->second) &&
        it->second.unusable > 0) {
      --it->second.unusable;
    }
  }
}

Database::FieldIndex* Database::FindFieldIndex(
    const std::string& type_upper, const std::string& field_upper) const {
  auto it = field_indexes_.find(FieldIndexKey(type_upper, field_upper));
  return it == field_indexes_.end() ? nullptr : &it->second;
}

std::optional<std::string> Database::ProbeKey(const FieldIndex& index,
                                              const Value& value) {
  if (index.numeric) {
    // Native numbers and fully numeric strings compare numerically against
    // a numeric field; anything else would compare as display text, which
    // key equality does not model.
    std::optional<double> n = QueryNumeric(value);
    if (!n.has_value() || std::isnan(*n)) return std::nullopt;
    return QueryNumericKey(*n);
  }
  // A native-number probe compares numerically against parseable stored
  // strings ("05" = 5), which spans buckets; only text probes are exact.
  if (value.is_string()) return value.as_string();
  return std::nullopt;
}

std::optional<std::vector<RecordId>> Database::ProbeIndex(
    const std::string& type, const std::string& field,
    const Value& value) const {
  if (!index_options_.enabled) return std::nullopt;
  FieldIndex* index = FindFieldIndex(ToUpper(type), ToUpper(field));
  if (index == nullptr || index->unusable > 0) return std::nullopt;
  if (value.is_null()) {
    // Null equals nothing under query semantics.
    ++stats_.index_probes;
    return std::vector<RecordId>();
  }
  std::optional<std::string> key = ProbeKey(*index, value);
  if (!key.has_value()) return std::nullopt;
  ++stats_.index_probes;
  auto bucket = index->buckets.find(*key);
  if (bucket == index->buckets.end()) return std::vector<RecordId>();
  stats_.index_hits += bucket->second.size();
  return bucket->second;
}

std::optional<std::vector<RecordId>> Database::ProbeUnique(
    const UniqueProbe& probe, const Value& value) const {
  if (probe.unusable > 0) return std::nullopt;
  if (value.is_null()) {
    ++stats_.index_probes;
    return std::vector<RecordId>();
  }
  // Numeric probes against a string field match numerically against
  // parseable stored strings; the text key cannot model that.
  if (probe.type == FieldType::kString && !value.is_string()) {
    return std::nullopt;
  }
  Result<Value> coerced = value.CoerceTo(probe.type);
  if (!coerced.ok()) return std::nullopt;
  if (probe.type == FieldType::kDouble && std::isnan(coerced->as_double())) {
    return std::nullopt;
  }
  if (probe.type == FieldType::kInt &&
      (coerced->as_int() >= kIntExactLimit ||
       coerced->as_int() <= -kIntExactLimit)) {
    return std::nullopt;
  }
  ++stats_.index_probes;
  auto index = unique_index_.find(probe.constraint);
  if (index == unique_index_.end()) return std::vector<RecordId>();
  auto hit = index->second.find(coerced->ToLiteral() + "\x1f");
  if (hit == index->second.end()) return std::vector<RecordId>();
  ++stats_.index_hits;
  return std::vector<RecordId>{hit->second};
}

std::optional<std::vector<RecordId>> Database::ProbeCandidates(
    const std::string& type, const std::string& field,
    const Value& value) const {
  if (!index_options_.enabled) return std::nullopt;
  auto probe = unique_probes_.find(
      FieldIndexKey(ToUpper(type), ToUpper(field)));
  if (probe != unique_probes_.end()) {
    std::optional<std::vector<RecordId>> out =
        ProbeUnique(probe->second, value);
    if (out.has_value()) return out;
  }
  return ProbeIndex(type, field, value);
}

bool Database::EnsureFieldIndex(const std::string& type,
                                const std::string& field) const {
  if (!index_options_.enabled) return false;
  std::string type_upper = ToUpper(type);
  std::string field_upper = ToUpper(field);
  if (FindFieldIndex(type_upper, field_upper) != nullptr) return true;
  if (!index_options_.auto_join_indexes) return false;
  const RecordTypeDef* tdef = schema_.FindRecordType(type_upper);
  if (tdef == nullptr) return false;
  const FieldDef* f = tdef->FindField(field_upper);
  if (f == nullptr || f->is_virtual) return false;
  FieldIndex& index =
      field_indexes_[FieldIndexKey(type_upper, field_upper)];
  index.numeric = f->type != FieldType::kString;
  for (RecordId id : store_.OfType(type_upper)) {
    const StoredRecord* rec = store_.Get(id);
    auto fit = rec->fields.find(field_upper);
    if (fit == rec->fields.end() || fit->second.is_null()) continue;
    std::optional<std::string> key =
        StoredIndexKey(index.numeric, fit->second);
    if (!key.has_value()) {
      ++index.unusable;
      continue;
    }
    // OfType is ascending, so appending keeps buckets sorted.
    index.buckets[*key].push_back(id);
  }
  return true;
}

std::vector<std::pair<std::string, std::string>> Database::IndexedFields()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  if (!index_options_.enabled) return out;  // probes would refuse anyway
  auto split = [&out](const std::string& key) {
    size_t sep = key.find(kIndexKeySep);
    out.emplace_back(key.substr(0, sep), key.substr(sep + 1));
  };
  for (const auto& [key, index] : field_indexes_) {
    if (index.unusable == 0) split(key);
  }
  for (const auto& [key, probe] : unique_probes_) {
    if (probe.unusable == 0) split(key);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Database::RebuildIndexes() {
  unique_index_.clear();
  for (auto& [key, index] : field_indexes_) {
    index.buckets.clear();
    index.unusable = 0;
  }
  for (auto& [key, probe] : unique_probes_) {
    probe.unusable = 0;
  }
  // Fast path: when every live record carries its canonical (upper-case
  // schema) type string — true for anything StoreRecord or BulkLoad ever
  // inserted — rebuild type by type from the ascending id directories,
  // with the per-type index, probe, and constraint lookups hoisted out of
  // the record loop. Appending to buckets in directory order keeps them
  // sorted without per-record insertion sorts.
  size_t covered = 0;
  for (const RecordTypeDef& type : schema_.record_types()) {
    covered += store_.OfType(ToUpper(type.name)).size();
  }
  if (covered == store_.LiveCount()) {
    for (const RecordTypeDef& type : schema_.record_types()) {
      const std::string type_upper = ToUpper(type.name);
      const std::string prefix = type_upper + kIndexKeySep;
      struct SecondaryTarget {
        std::string field;
        FieldIndex* index;
      };
      std::vector<SecondaryTarget> secondary;
      for (auto it = field_indexes_.lower_bound(prefix);
           it != field_indexes_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
           ++it) {
        secondary.push_back({it->first.substr(prefix.size()), &it->second});
      }
      struct ProbeTarget {
        std::string field;
        UniqueProbe* probe;
      };
      std::vector<ProbeTarget> probes;
      for (auto it = unique_probes_.lower_bound(prefix);
           it != unique_probes_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
           ++it) {
        probes.push_back({it->first.substr(prefix.size()), &it->second});
      }
      std::vector<const ConstraintDef*> uniques;
      for (const ConstraintDef& c : schema_.constraints()) {
        if (c.kind == ConstraintKind::kUniqueness &&
            EqualsIgnoreCase(c.record, type.name)) {
          uniques.push_back(&c);
        }
      }
      if (secondary.empty() && probes.empty() && uniques.empty()) continue;
      for (RecordId id : store_.OfType(type_upper)) {
        const StoredRecord* rec = store_.Get(id);
        for (auto& target : secondary) {
          auto fit = rec->fields.find(target.field);
          if (fit == rec->fields.end() || fit->second.is_null()) continue;
          std::optional<std::string> key =
              StoredIndexKey(target.index->numeric, fit->second);
          if (!key.has_value()) {
            ++target.index->unusable;
            continue;
          }
          target.index->buckets[*key].push_back(id);
        }
        for (auto& target : probes) {
          auto fit = rec->fields.find(target.field);
          if (fit == rec->fields.end() || fit->second.is_null()) continue;
          if (!UniqueProbeUsable(target.probe->type, fit->second)) {
            ++target.probe->unusable;
          }
        }
        for (const ConstraintDef* c : uniques) {
          std::optional<std::string> key = UniqueKeyOf(*c, rec->fields);
          if (key.has_value()) unique_index_[c->name][*key] = id;
        }
      }
    }
    return;
  }
  // Legacy path for stores holding oddly-cased or unknown type strings
  // (only reachable through mutable_store()): the original global walk.
  for (RecordId id : store_.AllRecords()) {
    const StoredRecord* rec = store_.Get(id);
    IndexInsert(*rec);
    for (const ConstraintDef& c : schema_.constraints()) {
      if (c.kind != ConstraintKind::kUniqueness ||
          !EqualsIgnoreCase(c.record, rec->type)) {
        continue;
      }
      std::optional<std::string> key = UniqueKeyOf(c, rec->fields);
      if (key.has_value()) unique_index_[c.name][*key] = id;
    }
  }
}

Result<ExtentTable> Database::SnapshotExtents(const std::string& type) const {
  const RecordTypeDef* def = schema_.FindRecordType(type);
  if (def == nullptr) {
    return Status::NotFound("record type " + type);
  }
  std::vector<std::string> names;
  std::vector<FieldType> types;
  names.reserve(def->fields.size());
  types.reserve(def->fields.size());
  for (const FieldDef& f : def->fields) {
    if (f.is_virtual) continue;
    names.push_back(ToUpper(f.name));
    types.push_back(f.type);
  }
  // A raw-store scan, not navigational access: no OpStats accounting, so
  // diagnostic consumers (statistics collection, fingerprints) can snapshot
  // without disturbing the counters a program run is being measured by.
  return ExtentTable::FromStore(store_, ToUpper(def->name), std::move(names),
                                std::move(types));
}

Result<std::vector<RecordId>> Database::BulkLoad(const ExtentTable& table) {
  const RecordTypeDef* def = schema_.FindRecordType(table.type());
  if (def == nullptr) {
    return Status::NotFound("record type " + table.type());
  }
  for (const std::string& name : table.field_names()) {
    const FieldDef* f = def->FindField(name);
    if (f == nullptr) {
      return Status::InvalidArgument("record type " + def->name +
                                     " has no field " + name);
    }
    if (f->is_virtual) {
      return Status::InvalidArgument("cannot bulk-load virtual field " +
                                     def->name + "." + f->name);
    }
  }
  const std::string type_upper = ToUpper(def->name);
  // Column positions sorted by field name: each row's FieldMap is then
  // built with end-position emplace_hints, linear in the column count.
  std::vector<size_t> order(table.columns());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&table](size_t a, size_t b) {
    return table.field_names()[a] < table.field_names()[b];
  });
  std::vector<RecordId> ids;
  ids.reserve(table.rows());
  table.Scan([&](const Extent& extent, size_t) {
    for (size_t r = 0; r < extent.rows(); ++r) {
      FieldMap fields;
      for (size_t c : order) {
        fields.emplace_hint(fields.end(), table.field_names()[c],
                            extent.column(c).At(r));
      }
      ids.push_back(store_.Insert(type_upper, std::move(fields)));
    }
  });
  RebuildIndexes();
  return ids;
}

std::optional<std::string> UniqueKeyOf(const ConstraintDef& c,
                                       const FieldMap& fields) {
  std::string key;
  for (const std::string& f : c.fields) {
    auto it = fields.find(ToUpper(f));
    if (it == fields.end() || it->second.is_null()) {
      // Null key components exempt the record from uniqueness, the
      // standard interpretation for partial keys.
      return std::nullopt;
    }
    key += it->second.ToLiteral();
    key += "\x1f";
  }
  return key;
}

Result<RecordId> Database::StoreRecord(const StoreRequest& request) {
  const RecordTypeDef* type = schema_.FindRecordType(request.type);
  if (type == nullptr) {
    return Status::NotFound("record type " + request.type);
  }
  FieldMap incoming = CanonicalFields(request.fields);
  FieldMap fields;
  for (const FieldDef& f : type->fields) {
    std::string fname = ToUpper(f.name);
    auto it = incoming.find(fname);
    if (f.is_virtual) {
      if (it != incoming.end()) {
        return Status::InvalidArgument("cannot store virtual field " +
                                       type->name + "." + f.name);
      }
      continue;
    }
    if (it == incoming.end()) {
      fields[fname] = f.default_value;
      continue;
    }
    DBPC_ASSIGN_OR_RETURN(Value coerced, it->second.CoerceTo(f.type));
    fields[fname] = std::move(coerced);
    incoming.erase(it);
  }
  if (!incoming.empty()) {
    return Status::InvalidArgument("unknown field " + incoming.begin()->first +
                                   " for record type " + type->name);
  }

  // Plan connections before touching storage.
  struct PlannedLink {
    const SetDef* set;
    RecordId owner;
  };
  std::vector<PlannedLink> links;
  std::map<std::string, RecordId> requested;
  for (const auto& [set_name, owner] : request.connect) {
    requested[ToUpper(set_name)] = owner;
  }
  for (const SetDef* set : schema_.SetsWithMember(type->name)) {
    std::string sname = ToUpper(set->name);
    auto it = requested.find(sname);
    if (set->system_owned()) {
      // Every record of the member type belongs to the singular occurrence.
      links.push_back({set, kSystemOwner});
      if (it != requested.end()) requested.erase(it);
      continue;
    }
    if (it != requested.end()) {
      RecordId owner = it->second;
      const StoredRecord* owner_rec = store_.Get(owner);
      if (owner_rec == nullptr) {
        return Status::NotFound("owner record " + std::to_string(owner) +
                                " for set " + set->name);
      }
      if (!EqualsIgnoreCase(owner_rec->type, set->owner)) {
        return Status::TypeError("record " + std::to_string(owner) +
                                 " is a " + owner_rec->type + ", not a " +
                                 set->owner + " (owner of " + set->name + ")");
      }
      links.push_back({set, owner});
      requested.erase(it);
      continue;
    }
    bool must_connect = set->insertion == InsertionClass::kAutomatic;
    for (const ConstraintDef& c : schema_.constraints()) {
      if (c.kind == ConstraintKind::kExistence &&
          EqualsIgnoreCase(c.set_name, set->name)) {
        must_connect = true;
      }
    }
    if (must_connect) {
      return Status::ConstraintViolation(
          "record type " + type->name + " is an AUTOMATIC member of set " +
          set->name + " but no owner was supplied");
    }
  }
  if (!requested.empty()) {
    return Status::InvalidArgument("record type " + type->name +
                                   " is not a member of set " +
                                   requested.begin()->first);
  }

  // Field-level constraints.
  for (const ConstraintDef& c : schema_.constraints()) {
    if (c.kind == ConstraintKind::kNonNull &&
        EqualsIgnoreCase(c.record, type->name)) {
      for (const std::string& f : c.fields) {
        auto it = fields.find(ToUpper(f));
        if (it == fields.end() || it->second.is_null()) {
          return Status::ConstraintViolation("field " + type->name + "." + f +
                                             " may not be null (" + c.name +
                                             ")");
        }
      }
    }
    if (c.kind == ConstraintKind::kUniqueness &&
        EqualsIgnoreCase(c.record, type->name)) {
      std::optional<std::string> key = UniqueKeyOf(c, fields);
      if (key.has_value() && unique_index_[c.name].count(*key) > 0) {
        return Status::ConstraintViolation("duplicate key for " + c.name +
                                           " on " + type->name);
      }
    }
    if (c.kind == ConstraintKind::kCardinalityLimit) {
      const SetDef* set = schema_.FindSet(c.set_name);
      for (const PlannedLink& link : links) {
        if (link.set == set) {
          DBPC_RETURN_IF_ERROR(CheckCardinality(store_, c, *set, link.owner,
                                                fields, /*exclude=*/0,
                                                &stats_));
        }
      }
    }
  }

  RecordId id = store_.Insert(ToUpper(type->name), std::move(fields));
  ++stats_.records_written;
  for (const PlannedLink& link : links) {
    Status s = ConnectInternal(*link.set, id, link.owner);
    if (!s.ok()) {
      // Roll back: unlink what was linked, drop the record.
      for (const PlannedLink& done : links) {
        if (done.set == link.set) break;
        (void)store_.Unlink(ToUpper(done.set->name), id);
      }
      (void)store_.Remove(id);
      return s;
    }
  }
  // Maintain indexes only after full success.
  const StoredRecord* rec = store_.Get(id);
  for (const ConstraintDef& c : schema_.constraints()) {
    if (c.kind == ConstraintKind::kUniqueness &&
        EqualsIgnoreCase(c.record, type->name)) {
      std::optional<std::string> key = UniqueKeyOf(c, rec->fields);
      if (key.has_value()) unique_index_[c.name][*key] = id;
    }
  }
  IndexInsert(*rec);
  return id;
}

Result<size_t> SortedSetPosition(const Store& store, const SetDef& set,
                                 const std::vector<RecordId>& members,
                                 RecordId member, const FieldMap* new_fields,
                                 OpStats* stats) {
  if (set.ordering == SetOrdering::kChronological) return members.size();
  if (members.empty()) return size_t{0};
  static const Value kAbsent;  // a missing key field compares as null
  const FieldMap& fields =
      new_fields != nullptr ? *new_fields : store.Get(member)->fields;
  struct Key {
    std::string name;
    const Value* value;  // the new member's
  };
  std::vector<Key> keys;
  keys.reserve(set.keys.size());
  for (const std::string& key : set.keys) {
    std::string name = ToUpper(key);
    auto it = fields.find(name);
    keys.push_back(
        {std::move(name), it == fields.end() ? &kAbsent : &it->second});
  }
  size_t pos = 0;
  for (RecordId existing : members) {
    if (new_fields != nullptr && existing == member) continue;
    const FieldMap& other = store.Get(existing)->fields;
    if (stats != nullptr) {
      ++stats->members_scanned;
      stats->records_read += 2;
    }
    int cmp = 0;
    for (size_t k = 0; k < keys.size() && cmp == 0; ++k) {
      auto it = other.find(keys[k].name);
      cmp = (it == other.end() ? kAbsent : it->second).Compare(*keys[k].value);
    }
    if (cmp == 0) {
      return Status::ConstraintViolation(
          "duplicate set key in occurrence of " + set.name);
    }
    if (cmp > 0) break;
    ++pos;
  }
  return pos;
}

Result<size_t> Database::SortedPosition(const SetDef& set, RecordId owner,
                                        RecordId member,
                                        const FieldMap* new_fields) const {
  return SortedSetPosition(store_, set,
                           store_.Members(ToUpper(set.name), owner), member,
                           new_fields, &stats_);
}

Status CheckCardinality(const Store& store, const ConstraintDef& c,
                        const SetDef& set, RecordId owner,
                        const FieldMap& new_member_fields,
                        RecordId exclude_member, OpStats* stats) {
  const std::vector<RecordId>& members =
      store.Members(ToUpper(set.name), owner);
  int64_t count = 0;
  if (c.group_field.empty()) {
    count = static_cast<int64_t>(members.size());
    if (exclude_member != 0) {
      for (RecordId m : members) {
        if (m == exclude_member) {
          --count;
          break;
        }
      }
    }
  } else {
    std::string gf = ToUpper(c.group_field);
    auto it = new_member_fields.find(gf);
    Value group = it == new_member_fields.end() ? Value() : it->second;
    for (RecordId m : members) {
      if (m == exclude_member) continue;
      if (stats != nullptr) ++stats->members_scanned;
      const StoredRecord* rec = store.Get(m);
      auto mit = rec->fields.find(gf);
      Value mv = mit == rec->fields.end() ? Value() : mit->second;
      if (mv == group) ++count;
    }
  }
  if (count + 1 > c.limit) {
    return Status::ConstraintViolation(
        "cardinality limit " + std::to_string(c.limit) + " of " + c.name +
        " on set " + set.name + " exceeded");
  }
  return Status::OK();
}

Status Database::ConnectInternal(const SetDef& set, RecordId member,
                                 RecordId owner) {
  DBPC_ASSIGN_OR_RETURN(size_t pos, SortedPosition(set, owner, member));
  DBPC_RETURN_IF_ERROR(store_.Link(ToUpper(set.name), owner, member, pos));
  ++stats_.links_changed;
  return Status::OK();
}

Status Database::EraseRecord(RecordId id) {
  std::unordered_set<RecordId> doomed;
  DBPC_RETURN_IF_ERROR(CheckErasable(id, &doomed));
  return EraseUnchecked(id);
}

Status Database::CheckErasable(RecordId id,
                               std::unordered_set<RecordId>* doomed) const {
  const StoredRecord* rec = store_.Get(id);
  if (rec == nullptr || doomed->count(id) != 0) {
    return Status::NotFound("record " + std::to_string(id));
  }
  for (const SetDef* set : schema_.SetsOwnedBy(rec->type)) {
    // The occurrence as EraseUnchecked will find it: doomed members have
    // been erased, and so unlinked, by then.
    std::vector<RecordId> members;
    for (RecordId m : store_.Members(ToUpper(set->name), id)) {
      if (doomed->count(m) == 0) members.push_back(m);
    }
    if (members.empty()) continue;
    if (set->member_characterizes_owner) {
      for (RecordId m : members) {
        DBPC_RETURN_IF_ERROR(CheckErasable(m, doomed));
        doomed->insert(m);
      }
      continue;
    }
    if (set->retention == RetentionClass::kMandatory) {
      return Status::ConstraintViolation(
          "record owns MANDATORY members in set " + set->name);
    }
  }
  return Status::OK();
}

Status Database::EraseUnchecked(RecordId id) {
  const StoredRecord* rec = store_.Get(id);
  if (rec == nullptr) {
    return Status::NotFound("record " + std::to_string(id));
  }
  std::string type = rec->type;
  // Owned members: cascade, disconnect, or refuse.
  for (const SetDef* set : schema_.SetsOwnedBy(type)) {
    std::vector<RecordId> members = store_.Members(ToUpper(set->name), id);
    if (members.empty()) continue;
    if (set->member_characterizes_owner) {
      for (RecordId m : members) {
        DBPC_RETURN_IF_ERROR(EraseUnchecked(m));
      }
      continue;
    }
    if (set->retention == RetentionClass::kMandatory) {
      return Status::ConstraintViolation(
          "record owns MANDATORY members in set " + set->name);
    }
    for (RecordId m : members) {
      DBPC_RETURN_IF_ERROR(store_.Unlink(ToUpper(set->name), m));
      ++stats_.links_changed;
    }
  }
  // Remove from sets where this record is a member.
  for (const SetDef* set : schema_.SetsWithMember(type)) {
    if (store_.IsMember(ToUpper(set->name), id)) {
      DBPC_RETURN_IF_ERROR(store_.Unlink(ToUpper(set->name), id));
      ++stats_.links_changed;
    }
  }
  // Drop index entries.
  const StoredRecord* current = store_.Get(id);
  for (const ConstraintDef& c : schema_.constraints()) {
    if (c.kind == ConstraintKind::kUniqueness &&
        EqualsIgnoreCase(c.record, type)) {
      std::optional<std::string> key = UniqueKeyOf(c, current->fields);
      if (key.has_value()) unique_index_[c.name].erase(*key);
    }
  }
  IndexRemove(*current);
  DBPC_RETURN_IF_ERROR(store_.Remove(id));
  ++stats_.records_erased;
  return Status::OK();
}

Status Database::ModifyRecord(RecordId id, const FieldMap& updates) {
  StoredRecord* rec = store_.GetMutable(id);
  if (rec == nullptr) {
    return Status::NotFound("record " + std::to_string(id));
  }
  const RecordTypeDef* type = schema_.FindRecordType(rec->type);
  if (type == nullptr) return Status::NotFound("record type " + rec->type);
  FieldMap canonical = CanonicalFields(updates);
  FieldMap next = rec->fields;
  for (const auto& [name, value] : canonical) {
    const FieldDef* f = type->FindField(name);
    if (f == nullptr) {
      return Status::NotFound("field " + rec->type + "." + name);
    }
    if (f->is_virtual) {
      return Status::InvalidArgument("cannot modify virtual field " +
                                     rec->type + "." + name);
    }
    DBPC_ASSIGN_OR_RETURN(Value coerced, value.CoerceTo(f->type));
    next[name] = std::move(coerced);
  }

  // Field constraints against the post-image.
  for (const ConstraintDef& c : schema_.constraints()) {
    if (c.kind == ConstraintKind::kNonNull &&
        EqualsIgnoreCase(c.record, rec->type)) {
      for (const std::string& f : c.fields) {
        auto it = next.find(ToUpper(f));
        if (it == next.end() || it->second.is_null()) {
          return Status::ConstraintViolation("field " + rec->type + "." + f +
                                             " may not be null (" + c.name +
                                             ")");
        }
      }
    }
    if (c.kind == ConstraintKind::kUniqueness &&
        EqualsIgnoreCase(c.record, rec->type)) {
      std::optional<std::string> old_key = UniqueKeyOf(c, rec->fields);
      std::optional<std::string> new_key = UniqueKeyOf(c, next);
      if (new_key.has_value() && new_key != old_key) {
        auto& index = unique_index_[c.name];
        auto hit = index.find(*new_key);
        if (hit != index.end() && hit->second != id) {
          return Status::ConstraintViolation("duplicate key for " + c.name +
                                             " on " + rec->type);
        }
      }
    }
    if (c.kind == ConstraintKind::kCardinalityLimit &&
        !c.group_field.empty()) {
      const SetDef* set = schema_.FindSet(c.set_name);
      if (set != nullptr && EqualsIgnoreCase(set->member, rec->type)) {
        std::string gf = ToUpper(c.group_field);
        auto changed = canonical.find(gf);
        if (changed != canonical.end()) {
          RecordId owner = store_.OwnerOf(ToUpper(set->name), id);
          if (owner != 0) {
            DBPC_RETURN_IF_ERROR(CheckCardinality(
                store_, c, *set, owner, next, /*exclude=*/id, &stats_));
          }
        }
      }
    }
  }

  // Does any set key change? Then re-place within each affected occurrence.
  // New positions are found before anything is written, so a duplicate set
  // key rejects the MODIFY with the record, its indexes and its set
  // positions unchanged.
  struct Move {
    std::string set_upper;
    RecordId owner;
    size_t pos;
  };
  std::vector<Move> moves;
  for (const SetDef* set : schema_.SetsWithMember(rec->type)) {
    if (set->ordering != SetOrdering::kSortedByKeys) continue;
    bool key_changed = false;
    for (const std::string& key : set->keys) {
      auto it = canonical.find(ToUpper(key));
      if (it != canonical.end()) {
        auto old_it = rec->fields.find(ToUpper(key));
        Value old_val = old_it == rec->fields.end() ? Value() : old_it->second;
        if (!(old_val == it->second)) {
          key_changed = true;
          break;
        }
      }
    }
    if (!key_changed) continue;
    std::string set_upper = ToUpper(set->name);
    RecordId owner = store_.OwnerOf(set_upper, id);
    if (owner == 0) continue;
    DBPC_ASSIGN_OR_RETURN(size_t pos, SortedPosition(*set, owner, id, &next));
    moves.push_back({std::move(set_upper), owner, pos});
  }

  // Apply; maintain indexes around the field swap.
  for (const ConstraintDef& c : schema_.constraints()) {
    if (c.kind == ConstraintKind::kUniqueness &&
        EqualsIgnoreCase(c.record, rec->type)) {
      std::optional<std::string> old_key = UniqueKeyOf(c, rec->fields);
      if (old_key.has_value()) unique_index_[c.name].erase(*old_key);
    }
  }
  IndexRemove(*rec);
  rec->fields = std::move(next);
  ++stats_.records_written;
  IndexInsert(*rec);
  for (const ConstraintDef& c : schema_.constraints()) {
    if (c.kind == ConstraintKind::kUniqueness &&
        EqualsIgnoreCase(c.record, rec->type)) {
      std::optional<std::string> new_key = UniqueKeyOf(c, rec->fields);
      if (new_key.has_value()) unique_index_[c.name][*new_key] = id;
    }
  }
  for (const Move& move : moves) {
    DBPC_RETURN_IF_ERROR(store_.Unlink(move.set_upper, id));
    DBPC_RETURN_IF_ERROR(store_.Link(move.set_upper, move.owner, id, move.pos));
    stats_.links_changed += 2;
  }
  return Status::OK();
}

Status Database::Connect(const std::string& set_name, RecordId member,
                         RecordId owner) {
  const SetDef* set = schema_.FindSet(set_name);
  if (set == nullptr) return Status::NotFound("set " + set_name);
  const StoredRecord* mrec = store_.Get(member);
  if (mrec == nullptr) {
    return Status::NotFound("record " + std::to_string(member));
  }
  if (!EqualsIgnoreCase(mrec->type, set->member)) {
    return Status::TypeError("record " + std::to_string(member) +
                             " is not a " + set->member);
  }
  if (set->system_owned()) {
    owner = kSystemOwner;
  } else {
    const StoredRecord* orec = store_.Get(owner);
    if (orec == nullptr) {
      return Status::NotFound("owner record " + std::to_string(owner));
    }
    if (!EqualsIgnoreCase(orec->type, set->owner)) {
      return Status::TypeError("record " + std::to_string(owner) +
                               " is not a " + set->owner);
    }
  }
  for (const ConstraintDef& c : schema_.constraints()) {
    if (c.kind == ConstraintKind::kCardinalityLimit &&
        EqualsIgnoreCase(c.set_name, set->name)) {
      DBPC_RETURN_IF_ERROR(CheckCardinality(store_, c, *set, owner,
                                            mrec->fields, /*exclude=*/0,
                                            &stats_));
    }
  }
  return ConnectInternal(*set, member, owner);
}

Status Database::Disconnect(const std::string& set_name, RecordId member) {
  const SetDef* set = schema_.FindSet(set_name);
  if (set == nullptr) return Status::NotFound("set " + set_name);
  if (set->retention == RetentionClass::kMandatory) {
    return Status::ConstraintViolation("set " + set->name +
                                       " membership is MANDATORY");
  }
  DBPC_RETURN_IF_ERROR(store_.Unlink(ToUpper(set->name), member));
  ++stats_.links_changed;
  return Status::OK();
}

Result<std::string> Database::TypeOf(RecordId id) const {
  const StoredRecord* rec = store_.Get(id);
  if (rec == nullptr) {
    return Status::NotFound("record " + std::to_string(id));
  }
  return rec->type;
}

Result<Value> Database::GetField(RecordId id, const std::string& field) const {
  const StoredRecord* rec = store_.Get(id);
  if (rec == nullptr) {
    return Status::NotFound("record " + std::to_string(id));
  }
  ++stats_.records_read;
  const BoundType* type = FindBound(binding_, rec->type);
  if (type == nullptr) return Status::NotFound("record type " + rec->type);
  const BoundField* f = FindBound(type->fields, field);
  if (f == nullptr) {
    return Status::NotFound("field " + rec->type + "." + field);
  }
  if (!f->is_virtual) {
    auto it = rec->fields.find(f->name);
    return it == rec->fields.end() ? Value() : it->second;
  }
  RecordId owner = store_.OwnerOf(f->via_set, id);
  if (owner == 0 || owner == kSystemOwner) return Value();
  return GetField(owner, f->using_field);
}

Result<FieldMap> Database::GetAllFields(RecordId id) const {
  const StoredRecord* rec = store_.Get(id);
  if (rec == nullptr) {
    return Status::NotFound("record " + std::to_string(id));
  }
  const BoundType* type = FindBound(binding_, rec->type);
  if (type == nullptr) return Status::NotFound("record type " + rec->type);
  FieldMap out;
  for (const BoundField& f : type->fields) {
    DBPC_ASSIGN_OR_RETURN(Value v, GetField(id, f.name));
    out[f.name] = std::move(v);
  }
  return out;
}

std::vector<RecordId> Database::Members(const std::string& set_name,
                                        RecordId owner) const {
  return MembersRef(set_name, owner);
}

const std::vector<RecordId>& Database::MembersRef(const std::string& set_name,
                                                  RecordId owner) const {
  const std::vector<RecordId>& members =
      store_.Members(ToUpper(set_name), owner);
  stats_.members_scanned += members.size();
  return members;
}

RecordId Database::OwnerOf(const std::string& set_name,
                           RecordId member) const {
  ++stats_.members_scanned;
  return store_.OwnerOf(ToUpper(set_name), member);
}

std::vector<RecordId> Database::AllOfType(const std::string& type) const {
  std::vector<RecordId> out = store_.AllOfType(ToUpper(type));
  stats_.records_read += out.size();
  return out;
}

std::function<Result<Value>(const std::string&)> Database::FieldGetter(
    RecordId id) const {
  return [this, id](const std::string& field) { return GetField(id, field); };
}

std::optional<std::vector<RecordId>> Database::SelectCandidates(
    const std::string& type, const Predicate& pred,
    const HostEnv& host_env) const {
  if (!index_options_.enabled) return std::nullopt;
  const RecordTypeDef* tdef = schema_.FindRecordType(type);
  if (tdef == nullptr) return std::nullopt;
  // A probe skips records the scan would have evaluated, so it is only
  // sound when that evaluation could not have raised an error: every
  // referenced field must exist on the type and every host variable must
  // resolve.
  std::vector<std::string> fields;
  pred.CollectFields(&fields);
  for (const std::string& f : fields) {
    if (tdef->FindField(f) == nullptr) return std::nullopt;
  }
  std::vector<std::string> host_vars;
  pred.CollectHostVars(&host_vars);
  std::map<std::string, Value> resolved;
  for (const std::string& v : host_vars) {
    Result<Value> r = host_env(v);
    if (!r.ok()) return std::nullopt;
    resolved[v] = *r;
  }
  std::vector<const Predicate*> conjuncts;
  CollectEqualityConjuncts(pred, &conjuncts);
  std::optional<std::vector<RecordId>> best;
  for (const Predicate* c : conjuncts) {
    const Value& probe = c->operand().kind == Operand::Kind::kHostVar
                             ? resolved[c->operand().host_var]
                             : c->operand().literal;
    std::optional<std::vector<RecordId>> candidates =
        ProbeCandidates(tdef->name, c->field(), probe);
    if (!candidates.has_value()) continue;
    if (!best.has_value() || candidates->size() < best->size()) {
      best = std::move(candidates);
    }
    if (best->empty()) break;
  }
  return best;
}

Result<std::vector<RecordId>> Database::SelectWhere(
    const std::string& type, const Predicate& pred,
    const HostEnv& host_env) const {
  std::vector<RecordId> out;
  std::optional<std::vector<RecordId>> candidates =
      SelectCandidates(type, pred, host_env);
  if (candidates.has_value()) {
    // Candidate lists are ascending by id, so filtering preserves the
    // scan's result order. The full predicate still runs on every
    // candidate: uniqueness probes may over-approximate, and residual
    // conjuncts must hold too.
    for (RecordId id : *candidates) {
      DBPC_ASSIGN_OR_RETURN(bool keep,
                            pred.Evaluate(FieldGetter(id), host_env));
      if (keep) out.push_back(id);
    }
    return out;
  }
  for (RecordId id : AllOfType(type)) {
    DBPC_ASSIGN_OR_RETURN(bool keep, pred.Evaluate(FieldGetter(id), host_env));
    if (keep) out.push_back(id);
  }
  return out;
}

}  // namespace dbpc
