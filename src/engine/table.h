#ifndef DSSP_ENGINE_TABLE_H_
#define DSSP_ENGINE_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "engine/query_result.h"
#include "sql/value.h"

namespace dssp::engine {

// In-memory storage for one base relation. Rows live in slots; deleted slots
// go on a free list and are reused. A column carries a hash index
// (value-hash -> slots) only when something probes it: the primary-key and
// UNIQUE columns, the referencing column of every foreign key (the
// referenced side is a primary key), and whatever EnsureIndex adds — the
// Database registers there every column a query, update or delete template
// compares with `=`. Equality probes of indexed columns — the dominant
// predicate shape in the paper's benchmark applications — are O(matches);
// probes of other columns scan the live slots. Row maintenance (Insert,
// DeleteSlot, UpdateSlot) touches only the indexed columns, so an update of
// an unindexed low-cardinality column is O(1).
//
// An index is a flat open-addressing table from value hash to the newest
// slot holding that hash, plus per-slot next/prev links that chain the slots
// sharing a hash, newest first. Adding a slot pushes it on the front of its
// chain; removing one splices it out in O(1), however many rows share the
// value (a low-cardinality column such as a parent id that is 0 on every
// row costs no more than a primary key). The chain order — newest first,
// survivors keeping their relative order — is the equal_range order a
// std::unordered_multimap gives the same insert/erase history, which
// SlotsWithValue and so every result order depend on.
//
// Alongside the row store, every column maintains a typed columnar sidecar
// (runtime tag + int64/double/string-pointer arrays, slot-indexed) that the
// vectorized engine (engine/batch.h) reads with tight per-type loops instead
// of touching sql::Value variants row by row. The sidecar is kept in sync by
// Insert/DeleteSlot/UpdateSlot; entries of dead slots are stale and must be
// guarded by live().
class Table {
 public:
  explicit Table(const catalog::TableSchema& schema);

  // Not copyable (indexes reference slots); movable.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const catalog::TableSchema& schema() const { return *schema_; }

  // Inserts `row` (full row in schema column order). Fails on arity/type
  // mismatch or primary-key violation. Foreign keys are checked by the
  // Database (it can see the referenced tables).
  Status Insert(Row row);

  // Deletes the row in `slot` (must be live).
  void DeleteSlot(size_t slot);

  // Overwrites column `col` of the live row in `slot`. The caller must not
  // change primary-key columns (enforced by the Database layer).
  void UpdateSlot(size_t slot, size_t col, sql::Value value);

  bool IsLive(size_t slot) const { return live_[slot]; }
  const Row& RowAt(size_t slot) const { return rows_[slot]; }

  // All live slots, ascending.
  std::vector<size_t> AllSlots() const;

  // Indexes column `col` from now on; a populated table indexes its live
  // rows at once. Not thread-safe against concurrent readers: call it during
  // setup, like template registration.
  void EnsureIndex(size_t col);

  bool IsIndexed(size_t col) const { return indexed_[col] != 0; }

  // True for the columns a Table indexes from creation: primary-key, UNIQUE
  // and foreign-key referencing columns. Known from the schema alone, so a
  // query compiler can rely on the index without a populated table.
  static bool AlwaysIndexed(const catalog::TableSchema& schema,
                            std::string_view column);

  // Live slots where column `col` equals `value`: the hash index's bucket
  // order for an indexed column, ascending slot order otherwise. Either way
  // the set is the live rows whose value hashes like `value` and compares
  // equal to it.
  std::vector<size_t> SlotsWithValue(size_t col, const sql::Value& value) const;

  // True if some live row has `value` in column `col`.
  bool ContainsValue(size_t col, const sql::Value& value) const;

  size_t num_rows() const { return num_live_; }

  // ----- Allocation-free scan API (the vectorized engine's entry points;
  // AllSlots/SlotsWithValue materialize a vector per call and remain only
  // for the row-at-a-time reference interpreter). -----

  // Total slot count, including dead slots; guard reads with live().
  size_t slot_count() const { return rows_.size(); }

  // One byte per slot, nonzero = live. Ascending iteration over live slots
  // visits rows in AllSlots order.
  const char* live() const { return live_.data(); }

  // Streaming equivalent of SlotsWithValue: invokes fn(slot) for each live
  // slot whose `col` equals `value`, in exactly the order SlotsWithValue
  // would return them (the engine's result order depends on it).
  template <typename Fn>
  void ForEachSlotWithValue(size_t col, const sql::Value& value,
                            Fn&& fn) const {
    if (indexed_[col]) {
      const ColumnIndex& index = indexes_[col];
      for (uint32_t slot = index.Head(IndexKey(col, value)); slot != kNoSlot;
           slot = index.next[slot]) {
        if (rows_[slot][col] == value) fn(slot);
      }
      return;
    }
    if (!ComparableWithColumn(col, value)) return;
    const uint64_t hash = value.Hash();
    for (size_t slot = 0; slot < rows_.size(); ++slot) {
      if (live_[slot] && rows_[slot][col] == value &&
          rows_[slot][col].Hash() == hash) {
        fn(slot);
      }
    }
  }

  // ----- Columnar sidecar (slot-indexed, parallel to the row store). -----

  // Runtime type tag per slot. Matches sql::ValueType's numeric values.
  enum : uint8_t {
    kTagNull = 0,
    kTagInt64 = 1,
    kTagDouble = 2,
    kTagString = 3,
  };

  // Tags for `col`; maintained for every column.
  const uint8_t* tags(size_t col) const { return columns_[col].tag.data(); }

  // Raw int64 values; valid where tags()==kTagInt64. Maintained for
  // int64- and double-declared columns (a double column stores int64 values
  // verbatim so exact int-vs-int comparison semantics survive).
  const int64_t* ints(size_t col) const { return columns_[col].i64.data(); }

  // Values as double (AsDouble image); valid where the tag is numeric.
  // Maintained for double-declared columns.
  const double* doubles(size_t col) const {
    return columns_[col].f64.data();
  }

  // Pointers to the row store's strings; nullptr where the value is NULL.
  // Maintained for string-declared columns. The pointees are stable until
  // the owning slot is deleted or overwritten.
  const std::string* const* strings(size_t col) const {
    return columns_[col].str.data();
  }

 private:
  // Typed mirror of one column. Only the arrays relevant to the declared
  // column type are populated (see SyncColumn).
  struct ColumnStore {
    std::vector<uint8_t> tag;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<const std::string*> str;
  };

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // One column's hash index (see the class comment). The head table is
  // linear-probing with backward-shift deletion, so it holds no tombstones
  // and allocates nothing per key.
  struct ColumnIndex {
    struct Bucket {
      // The 64-bit key split in two keeps a bucket at 12 bytes.
      uint32_t key_lo = 0;
      uint32_t key_hi = 0;
      uint32_t head = kNoSlot;  // kNoSlot: the bucket is empty.
    };
    std::vector<Bucket> buckets;  // Power-of-two size, or empty.
    size_t num_keys = 0;
    // Per slot: the next older / newer slot with the same key.
    std::vector<uint32_t> next;
    std::vector<uint32_t> prev;

    // The newest slot with `key`, or kNoSlot.
    uint32_t Head(uint64_t key) const {
      return buckets.empty() ? kNoSlot : buckets[Find(key)].head;
    }
    // Pushes `slot` on the front of `key`'s chain.
    void Link(uint64_t key, size_t slot);
    // Splices `slot` (currently linked under `key`) out of its chain.
    void Unlink(uint64_t key, size_t slot);

   private:
    // The bucket holding `key`, or the empty bucket where it would go.
    // `buckets` must not be empty.
    size_t Find(uint64_t key) const {
      const size_t mask = buckets.size() - 1;
      for (size_t i = key & mask;; i = (i + 1) & mask) {
        const Bucket& b = buckets[i];
        if (b.head == kNoSlot) return i;
        if (b.key_lo == static_cast<uint32_t>(key) &&
            b.key_hi == static_cast<uint32_t>(key >> 32)) {
          return i;
        }
      }
    }
    void Grow();
  };

  uint64_t IndexKey(size_t col, const sql::Value& value) const;
  // False when `value` is a non-NULL value of the other type class than
  // column `col` (string vs numeric): no row can equal it, and comparing
  // would abort. The index answers such probes with nothing; so does a scan.
  bool ComparableWithColumn(size_t col, const sql::Value& value) const;
  void IndexRow(size_t slot);
  void UnindexRow(size_t slot);
  void SyncColumn(size_t slot, size_t col);

  const catalog::TableSchema* schema_;
  std::vector<Row> rows_;
  std::vector<char> live_;
  std::vector<size_t> free_slots_;
  size_t num_live_ = 0;
  // One index per column, empty unless indexed_[col]. Different values
  // whose hashes collide share a chain; probes re-check the stored value.
  std::vector<char> indexed_;
  std::vector<ColumnIndex> indexes_;
  std::vector<ColumnStore> columns_;
};

}  // namespace dssp::engine

#endif  // DSSP_ENGINE_TABLE_H_
