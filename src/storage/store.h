#ifndef DBPC_STORAGE_STORE_H_
#define DBPC_STORAGE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "storage/extent.h"
#include "storage/record.h"

namespace dbpc {

/// Untyped record heap plus owner-coupled set membership, shared by all
/// three data-model facades. The store knows nothing about schemas; the
/// `Database` engine layers validation and constraint enforcement on top.
///
/// The record heap is a slab indexed by record id: `Get` and `Exists` index
/// an array, and a record never moves once materialized, so a
/// `const StoredRecord*` stays valid until that record is removed or the
/// store destroyed. Ids are never reused. A per-type directory keeps each
/// type's ids ascending; `Remove` tombstones its entry in place (see
/// `OfType`), so removal costs O(log n) amortized in the type's size.
///
/// Set occurrences are kept as explicit ordered member lists per owner, the
/// in-memory analogue of 1970s chain/pointer-array set implementations.
///
/// Bulk loads may hand the store whole extent tables via `AdoptExtents`:
/// the rows become live records immediately but stay columnar until a
/// record-at-a-time accessor first touches them, at which point they are
/// promoted (materialized) into the record heap. Record-at-a-time callers
/// cannot tell the difference — `Get` et al. are a view over both layouts.
class Store {
  struct SetIndex;  // defined below; named by BulkLinker
  struct TypeIds;   // defined below; named by TypeView

 public:
  /// Inserts a record and returns its new id.
  RecordId Insert(std::string type, FieldMap fields);

  /// Adopts a staged extent table as a columnar segment. Every row receives
  /// a fresh consecutive id (readable through `ExtentTable::IdAt` on the
  /// returned table) and becomes a live record of `table.type()`. Returns a
  /// reference to the adopted table, stable until the store is destroyed.
  const ExtentTable& AdoptExtents(ExtentTable table);

  /// Removes a record. The caller must already have disconnected it from
  /// every set (the engine's Erase handles ordering).
  Status Remove(RecordId id);

  bool Exists(RecordId id) const;
  const StoredRecord* Get(RecordId id) const;
  StoredRecord* GetMutable(RecordId id);

  /// Read-side accessor bound to one set: the set index is resolved once
  /// instead of per OwnerOf probe. An absent set binds to a null reader
  /// (every owner is 0, like OwnerOf). The bound index node is stable
  /// across unrelated set creation, so a reader stays valid as long as
  /// the store does.
  class SetReader {
   public:
    SetReader() = default;
    RecordId OwnerOf(RecordId member) const {
      if (idx_ == nullptr) return 0;
      auto it = idx_->owner_of.find(member);
      return it == idx_->owner_of.end() ? 0 : it->second;
    }

   private:
    friend class Store;
    explicit SetReader(const SetIndex* idx) : idx_(idx) {}
    const SetIndex* idx_ = nullptr;
  };
  SetReader ReaderFor(const std::string& set_name_upper) const {
    auto it = sets_.find(set_name_upper);
    return SetReader(it == sets_.end() ? nullptr : &it->second);
  }

  /// Read-only view of one type's directory entry: yields the type's live
  /// ids in ascending id (i.e. insertion) order, and `size()` is their
  /// count. The view itself stays valid across inserts and removals of any
  /// type and always shows the current contents, but an iterator is
  /// invalidated, like a vector's, by an insert or a `Remove` of the same
  /// type: a `Remove` may compact the entry. Callers that remove while they
  /// walk iterate `AllOfType` instead. A view of a type the store has never
  /// held stays empty; take a new view after its first insert.
  class TypeView {
   public:
    class iterator {
     public:
      iterator() = default;
      RecordId operator*() const { return *pos_; }
      iterator& operator++() {
        ++pos_;
        SkipTombstones();
        return *this;
      }
      bool operator==(const iterator& other) const {
        return pos_ == other.pos_;
      }
      bool operator!=(const iterator& other) const {
        return pos_ != other.pos_;
      }

     private:
      friend class TypeView;
      iterator(const RecordId* pos, const RecordId* end)
          : pos_(pos), end_(end) {
        SkipTombstones();
      }
      void SkipTombstones() {
        while (pos_ != end_ && (*pos_ & kTombstone) != 0) ++pos_;
      }
      const RecordId* pos_ = nullptr;
      const RecordId* end_ = nullptr;
    };

    iterator begin() const {
      if (dir_ == nullptr) return iterator();
      const RecordId* data = dir_->ids.data();
      return iterator(data, data + dir_->ids.size());
    }
    iterator end() const {
      if (dir_ == nullptr) return iterator();
      const RecordId* stop = dir_->ids.data() + dir_->ids.size();
      return iterator(stop, stop);
    }
    size_t size() const { return dir_ == nullptr ? 0 : dir_->live; }
    bool empty() const { return size() == 0; }

   private:
    friend class Store;
    explicit TypeView(const TypeIds* dir) : dir_(dir) {}
    const TypeIds* dir_ = nullptr;
  };

  /// All live records of `type`, ascending, served from the per-type
  /// directory: O(live-of-type), not a heap walk. Each type keeps an
  /// ascending id list in which `Remove` finds its entry by binary search
  /// and marks it as a tombstone. The list is compacted when tombstones
  /// outnumber live entries, so a walk visits at most 2·size() entries and
  /// each compaction is paid for by the removals since the last one.
  TypeView OfType(const std::string& type) const;

  /// Copying form of OfType for callers that mutate while iterating.
  std::vector<RecordId> AllOfType(const std::string& type) const;

  /// All live record ids in insertion order.
  std::vector<RecordId> AllRecords() const;

  /// One adopted, not-yet-fully-promoted columnar segment of a type, as
  /// exposed to bulk readers. Row r holds record `first_id + r` and is
  /// live iff !(*vacated)[r]; promoted or removed rows must be read
  /// through `Get` instead.
  struct ColumnarRun {
    const ExtentTable* table;
    RecordId first_id;
    const std::vector<bool>* vacated;
    size_t live = 0;
  };

  /// The columnar segments holding rows of `type`, ascending by first id.
  /// Bulk consumers that scan these directly skip per-record promotion —
  /// the whole point of keeping adopted extents columnar.
  std::vector<ColumnarRun> ColumnarRuns(const std::string& type) const;

  size_t LiveCount() const { return heap_.live + columnar_live_; }

  // --- set membership -------------------------------------------------

  /// Links `member` into the `set_name` occurrence owned by `owner` at
  /// `position` within the member list. Fails if already a member.
  Status Link(const std::string& set_name, RecordId owner, RecordId member,
              size_t position);

  /// Appends `member` to the occurrence owned by `owner`.
  Status LinkLast(const std::string& set_name, RecordId owner,
                  RecordId member);

  /// Unlinks `member` from its occurrence of `set_name`. The member is
  /// found by bisecting the member list by id, which lands on it whenever
  /// the list is in ascending id order (appends and copies leave most
  /// occurrences so); otherwise a scan finds it. Member order is kept.
  Status Unlink(const std::string& set_name, RecordId member);

  /// Bulk linker bound to one set: the set index is resolved once instead
  /// of per link, and repeat owners (bulk loads link long owner runs) hit a
  /// one-entry cache instead of the occurrence table. `Link` and
  /// `LinkLast` have the store's semantics, including the
  /// already-a-member failure.
  class BulkLinker {
   public:
    Status Link(RecordId owner, RecordId member, size_t position) {
      if (!idx_->owner_of.emplace(member, owner).second) {
        return Status::AlreadyExists("record " + std::to_string(member) +
                                     " already a member of " + set_name_);
      }
      std::vector<RecordId>& members = Occurrence(owner);
      if (position > members.size()) position = members.size();
      members.insert(members.begin() + static_cast<ptrdiff_t>(position),
                     member);
      return Status::OK();
    }
    Status LinkLast(RecordId owner, RecordId member) {
      return Link(owner, member, SIZE_MAX);
    }
    /// Ordered members of `owner`'s occurrence, like `Store::Members`.
    const std::vector<RecordId>& Members(RecordId owner) {
      return Occurrence(owner);
    }

   private:
    friend class Store;
    BulkLinker(SetIndex* idx, std::string set_name)
        : idx_(idx), set_name_(std::move(set_name)) {}
    std::vector<RecordId>& Occurrence(RecordId owner) {
      if (cached_members_ == nullptr || owner != cached_owner_) {
        cached_owner_ = owner;
        cached_members_ = &idx_->members_of[owner];
      }
      return *cached_members_;
    }
    SetIndex* idx_;
    std::string set_name_;
    RecordId cached_owner_ = 0;
    // Stable across inserts: unordered_map never moves mapped values.
    std::vector<RecordId>* cached_members_ = nullptr;
  };
  /// `expected_links` (when nonzero) pre-sizes the occurrence table for
  /// that many additional memberships, sparing bulk loads the rehashes.
  BulkLinker LinkerFor(const std::string& set_name_upper,
                       size_t expected_links = 0) {
    SetIndex& idx = sets_[set_name_upper];
    if (expected_links > 0) {
      idx.owner_of.reserve(idx.owner_of.size() + expected_links);
    }
    return BulkLinker(&idx, set_name_upper);
  }

  /// Owner of `member` within `set_name`, or 0 when not a member.
  RecordId OwnerOf(const std::string& set_name, RecordId member) const;

  /// Ordered members of the occurrence owned by `owner`; empty when the
  /// occurrence is empty or absent.
  const std::vector<RecordId>& Members(const std::string& set_name,
                                       RecordId owner) const;

  bool IsMember(const std::string& set_name, RecordId member) const {
    return OwnerOf(set_name, member) != 0;
  }

  /// Deep copy (used by the bridge baseline and by benchmarks).
  Store Clone() const { return *this; }

 private:
  struct SetIndex {
    std::unordered_map<RecordId, RecordId> owner_of;
    std::unordered_map<RecordId, std::vector<RecordId>> members_of;
  };

  /// One adopted extent table, keyed in `segments_` by the id of its first
  /// row (row r is record first_id + r). `vacated` marks rows that were
  /// promoted into the record heap or removed outright.
  struct ColumnarSegment {
    ExtentTable table;
    std::vector<bool> vacated;
    size_t live = 0;
  };

  /// Segment and row holding `id`, or {nullptr, 0} when `id` is not a live
  /// un-promoted columnar row. Mutable access from const methods is fine:
  /// the columnar members exist to serve logically-const promotion.
  std::pair<ColumnarSegment*, size_t> SegmentRow(RecordId id) const;

  /// One type's directory entry: its ids ascending, removed ids marked in
  /// place by `kTombstone` until the next compaction (see OfType). Ids are
  /// issued from 1 and stay below 2^63, so the top bit is free.
  struct TypeIds {
    std::vector<RecordId> ids;
    size_t live = 0;  // entries without kTombstone
  };
  static constexpr RecordId kTombstone = RecordId{1} << 63;

  /// Tombstones `id` in the directory entry of `type`.
  void DropFromDirectory(const std::string& type, RecordId id);

  /// Materializes columnar row `id` into the record heap; nullptr when
  /// `id` is not a live columnar row. Promotion never changes the set of
  /// live records or any observable value, so it is logically const.
  const StoredRecord* Promote(RecordId id) const;

  /// The record heap: slot `id` holds record `id`, null when the id is
  /// unissued, removed, or a still-columnar row. Records live behind their
  /// own allocation so growing the slot array never moves one. Copies are
  /// deep (`Clone`, `Database` copies).
  struct Slab {
    std::vector<std::unique_ptr<StoredRecord>> slots;
    size_t live = 0;  // non-null slots

    Slab() = default;
    Slab(const Slab& other);
    Slab& operator=(const Slab& other);
    Slab(Slab&&) noexcept = default;
    Slab& operator=(Slab&&) noexcept = default;

    StoredRecord* At(RecordId id) const {
      return id < slots.size() ? slots[id].get() : nullptr;
    }
  };

  RecordId next_id_ = 1;
  mutable Slab heap_;
  mutable std::map<RecordId, ColumnarSegment> segments_;
  /// Live rows across all segments (not yet promoted or removed).
  mutable size_t columnar_live_ = 0;
  std::unordered_map<std::string, SetIndex> sets_;
  /// type -> ids, ascending (ids are allocated monotonically, so appending
  /// on insert keeps each list in insertion order). Node-stable, so a
  /// TypeView survives inserts of other types.
  std::unordered_map<std::string, TypeIds> by_type_;
};

}  // namespace dbpc

#endif  // DBPC_STORAGE_STORE_H_
