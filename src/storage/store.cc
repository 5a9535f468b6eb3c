#include "storage/store.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace dbpc {

Store::Slab::Slab(const Slab& other) : live(other.live) {
  slots.reserve(other.slots.size());
  for (const std::unique_ptr<StoredRecord>& rec : other.slots) {
    slots.push_back(rec ? std::make_unique<StoredRecord>(*rec) : nullptr);
  }
}

Store::Slab& Store::Slab::operator=(const Slab& other) {
  if (this != &other) *this = Slab(other);
  return *this;
}

RecordId Store::Insert(std::string type, FieldMap fields) {
  RecordId id = next_id_++;
  TypeIds& dir = by_type_[type];
  dir.ids.push_back(id);
  ++dir.live;
  heap_.slots.resize(next_id_);
  heap_.slots[id] = std::make_unique<StoredRecord>(
      StoredRecord{id, std::move(type), std::move(fields)});
  ++heap_.live;
  return id;
}

const ExtentTable& Store::AdoptExtents(ExtentTable table) {
  const RecordId first = next_id_;
  const size_t rows = table.rows();
  next_id_ += rows;
  // Slots for the new ids stay null until their rows are promoted.
  heap_.slots.resize(next_id_);
  table.AssignIds(first);
  TypeIds& dir = by_type_[table.type()];
  dir.ids.reserve(dir.ids.size() + rows);
  for (size_t r = 0; r < rows; ++r) {
    dir.ids.push_back(first + static_cast<RecordId>(r));
  }
  dir.live += rows;
  ColumnarSegment seg{std::move(table), std::vector<bool>(rows, false), rows};
  // insert_or_assign: an empty adoption leaves next_id_ unchanged, so a
  // later adoption may legitimately reuse the key of a zero-row segment.
  auto it = segments_.insert_or_assign(first, std::move(seg)).first;
  columnar_live_ += rows;
  return it->second.table;
}

std::pair<Store::ColumnarSegment*, size_t> Store::SegmentRow(
    RecordId id) const {
  if (segments_.empty()) return {nullptr, 0};
  auto it = segments_.upper_bound(id);
  if (it == segments_.begin()) return {nullptr, 0};
  --it;
  ColumnarSegment& seg = it->second;
  const size_t row = static_cast<size_t>(id - it->first);
  if (row >= seg.table.rows() || seg.vacated[row]) return {nullptr, 0};
  return {&seg, row};
}

const StoredRecord* Store::Promote(RecordId id) const {
  auto [seg, row] = SegmentRow(id);
  if (seg == nullptr) return nullptr;
  const ExtentTable& table = seg->table;
  StoredRecord rec;
  rec.id = id;
  rec.type = table.type();
  for (size_t c = 0; c < table.columns(); ++c) {
    rec.fields.emplace(table.field_names()[c], table.At(row, c));
  }
  seg->vacated[row] = true;
  --seg->live;
  --columnar_live_;
  heap_.slots[id] = std::make_unique<StoredRecord>(std::move(rec));
  ++heap_.live;
  return heap_.slots[id].get();
}

void Store::DropFromDirectory(const std::string& type, RecordId id) {
  auto it = by_type_.find(type);
  if (it == by_type_.end()) return;
  TypeIds& dir = it->second;
  // Tombstones keep their id in the low bits, so the list stays sorted.
  auto pos = std::lower_bound(
      dir.ids.begin(), dir.ids.end(), id,
      [](RecordId entry, RecordId target) {
        return (entry & ~kTombstone) < target;
      });
  if (pos == dir.ids.end() || *pos != id) return;  // absent or tombstoned
  *pos |= kTombstone;
  --dir.live;
  if (dir.ids.size() - dir.live > dir.live) {
    dir.ids.erase(std::remove_if(dir.ids.begin(), dir.ids.end(),
                                 [](RecordId entry) {
                                   return (entry & kTombstone) != 0;
                                 }),
                  dir.ids.end());
  }
}

Status Store::Remove(RecordId id) {
  if (const StoredRecord* rec = heap_.At(id)) {
    DropFromDirectory(rec->type, id);
    heap_.slots[id].reset();
    --heap_.live;
    return Status::OK();
  }
  auto [seg, row] = SegmentRow(id);
  if (seg == nullptr) {
    return Status::NotFound("record " + std::to_string(id));
  }
  DropFromDirectory(seg->table.type(), id);
  seg->vacated[row] = true;
  --seg->live;
  --columnar_live_;
  return Status::OK();
}

bool Store::Exists(RecordId id) const {
  return heap_.At(id) != nullptr || SegmentRow(id).first != nullptr;
}

const StoredRecord* Store::Get(RecordId id) const {
  const StoredRecord* rec = heap_.At(id);
  return rec != nullptr ? rec : Promote(id);
}

StoredRecord* Store::GetMutable(RecordId id) {
  return const_cast<StoredRecord*>(Get(id));
}

Store::TypeView Store::OfType(const std::string& type) const {
  auto it = by_type_.find(type);
  return TypeView(it == by_type_.end() ? nullptr : &it->second);
}

std::vector<RecordId> Store::AllOfType(const std::string& type) const {
  TypeView view = OfType(type);
  std::vector<RecordId> ids;
  ids.reserve(view.size());
  for (RecordId id : view) ids.push_back(id);
  return ids;
}

std::vector<RecordId> Store::AllRecords() const {
  std::vector<RecordId> heap_ids;
  heap_ids.reserve(heap_.live);
  for (RecordId id = 1; id < heap_.slots.size(); ++id) {
    if (heap_.slots[id] != nullptr) heap_ids.push_back(id);
  }
  if (columnar_live_ == 0) return heap_ids;
  std::vector<RecordId> columnar_ids;
  columnar_ids.reserve(columnar_live_);
  for (const auto& [first, seg] : segments_) {
    for (size_t r = 0; r < seg.table.rows(); ++r) {
      if (!seg.vacated[r]) {
        columnar_ids.push_back(first + static_cast<RecordId>(r));
      }
    }
  }
  // Both runs are ascending (slab order; rows within a segment ascend).
  std::vector<RecordId> out;
  out.reserve(heap_ids.size() + columnar_ids.size());
  std::merge(heap_ids.begin(), heap_ids.end(), columnar_ids.begin(),
             columnar_ids.end(), std::back_inserter(out));
  return out;
}

std::vector<Store::ColumnarRun> Store::ColumnarRuns(
    const std::string& type) const {
  std::vector<ColumnarRun> runs;
  for (const auto& [first, seg] : segments_) {
    if (seg.table.type() != type) continue;
    runs.push_back({&seg.table, first, &seg.vacated, seg.live});
  }
  return runs;
}

Status Store::Link(const std::string& set_name, RecordId owner,
                   RecordId member, size_t position) {
  SetIndex& idx = sets_[set_name];
  // Single probe: emplace only succeeds when not yet a member.
  if (!idx.owner_of.emplace(member, owner).second) {
    return Status::AlreadyExists("record " + std::to_string(member) +
                                 " already a member of " + set_name);
  }
  std::vector<RecordId>& members = idx.members_of[owner];
  if (position > members.size()) position = members.size();
  members.insert(members.begin() + static_cast<ptrdiff_t>(position), member);
  return Status::OK();
}

Status Store::LinkLast(const std::string& set_name, RecordId owner,
                       RecordId member) {
  SetIndex& idx = sets_[set_name];
  if (!idx.owner_of.emplace(member, owner).second) {
    return Status::AlreadyExists("record " + std::to_string(member) +
                                 " already a member of " + set_name);
  }
  idx.members_of[owner].push_back(member);
  return Status::OK();
}

Status Store::Unlink(const std::string& set_name, RecordId member) {
  auto set_it = sets_.find(set_name);
  if (set_it == sets_.end()) {
    return Status::NotFound("set " + set_name + " has no occurrences");
  }
  SetIndex& idx = set_it->second;
  auto it = idx.owner_of.find(member);
  if (it == idx.owner_of.end()) {
    return Status::NotFound("record " + std::to_string(member) +
                            " not a member of " + set_name);
  }
  std::vector<RecordId>& members = idx.members_of[it->second];
  members.erase(std::remove(members.begin(), members.end(), member),
                members.end());
  idx.owner_of.erase(it);
  return Status::OK();
}

RecordId Store::OwnerOf(const std::string& set_name, RecordId member) const {
  auto set_it = sets_.find(set_name);
  if (set_it == sets_.end()) return 0;
  auto it = set_it->second.owner_of.find(member);
  return it == set_it->second.owner_of.end() ? 0 : it->second;
}

const std::vector<RecordId>& Store::Members(const std::string& set_name,
                                            RecordId owner) const {
  static const std::vector<RecordId> kEmpty;
  auto set_it = sets_.find(set_name);
  if (set_it == sets_.end()) return kEmpty;
  auto it = set_it->second.members_of.find(owner);
  return it == set_it->second.members_of.end() ? kEmpty : it->second;
}

}  // namespace dbpc
