#include "engine/table.h"

#include "common/hash.h"

namespace dssp::engine {

Table::Table(const catalog::TableSchema& schema) : schema_(&schema) {
  indexed_.resize(schema.num_columns(), 0);
  indexes_.resize(schema.num_columns());
  columns_.resize(schema.num_columns());
  for (size_t col = 0; col < schema.num_columns(); ++col) {
    if (AlwaysIndexed(schema, schema.columns()[col].name)) EnsureIndex(col);
  }
}

bool Table::AlwaysIndexed(const catalog::TableSchema& schema,
                          std::string_view column) {
  if (schema.IsPrimaryKeyColumn(column) || schema.IsUniqueColumn(column)) {
    return true;
  }
  for (const catalog::ForeignKey& fk : schema.foreign_keys()) {
    if (fk.column == column) return true;
  }
  return false;
}

uint64_t Table::IndexKey(size_t col, const sql::Value& value) const {
  return HashCombine(static_cast<uint64_t>(col), value.Hash());
}

bool Table::ComparableWithColumn(size_t col, const sql::Value& value) const {
  if (value.is_null()) return true;
  const bool string_column =
      schema_->columns()[col].type == catalog::ColumnType::kString;
  return string_column == (value.type() == sql::ValueType::kString);
}

void Table::ColumnIndex::Grow() {
  std::vector<Bucket> old = std::move(buckets);
  buckets.assign(old.empty() ? 16 : old.size() * 2, Bucket{});
  for (const Bucket& b : old) {
    if (b.head != kNoSlot) {
      buckets[Find(static_cast<uint64_t>(b.key_hi) << 32 | b.key_lo)] = b;
    }
  }
}

void Table::ColumnIndex::Link(uint64_t key, size_t slot) {
  if (slot >= next.size()) {
    next.resize(slot + 1, kNoSlot);
    prev.resize(slot + 1, kNoSlot);
  }
  // Keep the load factor at or below 3/4.
  if (4 * (num_keys + 1) > 3 * buckets.size()) Grow();
  Bucket& b = buckets[Find(key)];
  prev[slot] = kNoSlot;
  next[slot] = b.head;
  if (b.head == kNoSlot) {
    b.key_lo = static_cast<uint32_t>(key);
    b.key_hi = static_cast<uint32_t>(key >> 32);
    ++num_keys;
  } else {
    prev[b.head] = static_cast<uint32_t>(slot);
  }
  b.head = static_cast<uint32_t>(slot);
}

void Table::ColumnIndex::Unlink(uint64_t key, size_t slot) {
  const uint32_t older = next[slot];
  const uint32_t newer = prev[slot];
  if (older != kNoSlot) prev[older] = newer;
  if (newer != kNoSlot) {
    next[newer] = older;
    return;
  }
  // `slot` heads its chain: the bucket moves on to the next older slot, or
  // empties when there is none.
  size_t i = Find(key);
  DSSP_CHECK(buckets[i].head == slot);
  if (older != kNoSlot) {
    buckets[i].head = older;
    return;
  }
  --num_keys;
  // Backward-shift deletion: pull each later bucket of the probe run whose
  // home position does not lie in (i, j] into the hole.
  const size_t mask = buckets.size() - 1;
  for (size_t j = (i + 1) & mask; buckets[j].head != kNoSlot;
       j = (j + 1) & mask) {
    const size_t home = buckets[j].key_lo & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      buckets[i] = buckets[j];
      i = j;
    }
  }
  buckets[i] = Bucket{};
}

void Table::EnsureIndex(size_t col) {
  DSSP_CHECK(col < schema_->num_columns());
  if (indexed_[col]) return;
  indexed_[col] = 1;
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) {
      indexes_[col].Link(IndexKey(col, rows_[slot][col]), slot);
    }
  }
}

void Table::IndexRow(size_t slot) {
  const Row& row = rows_[slot];
  for (size_t col = 0; col < row.size(); ++col) {
    if (!indexed_[col]) continue;
    indexes_[col].Link(IndexKey(col, row[col]), slot);
  }
}

void Table::UnindexRow(size_t slot) {
  const Row& row = rows_[slot];
  for (size_t col = 0; col < row.size(); ++col) {
    if (!indexed_[col]) continue;
    indexes_[col].Unlink(IndexKey(col, row[col]), slot);
  }
}

void Table::SyncColumn(size_t slot, size_t col) {
  ColumnStore& cs = columns_[col];
  const catalog::ColumnType declared = schema_->columns()[col].type;
  if (cs.tag.size() <= slot) {
    const size_t n = rows_.size();
    cs.tag.resize(n, kTagNull);
    if (declared == catalog::ColumnType::kInt64 ||
        declared == catalog::ColumnType::kDouble) {
      cs.i64.resize(n, 0);
    }
    if (declared == catalog::ColumnType::kDouble) cs.f64.resize(n, 0.0);
    if (declared == catalog::ColumnType::kString) {
      cs.str.resize(n, nullptr);
    }
  }
  const sql::Value& v = rows_[slot][col];
  switch (v.type()) {
    case sql::ValueType::kNull:
      cs.tag[slot] = kTagNull;
      if (declared == catalog::ColumnType::kString) cs.str[slot] = nullptr;
      break;
    case sql::ValueType::kInt64:
      // Reaches int64-declared columns and (via ValueFitsColumn widening)
      // double-declared columns, which keep both the exact integer and its
      // double image so kernels can match Value::Compare bit-for-bit.
      cs.tag[slot] = kTagInt64;
      cs.i64[slot] = v.AsInt64();
      if (declared == catalog::ColumnType::kDouble) {
        cs.f64[slot] = v.AsDouble();
      }
      break;
    case sql::ValueType::kDouble:
      cs.tag[slot] = kTagDouble;
      cs.f64[slot] = v.AsDouble();
      break;
    case sql::ValueType::kString:
      cs.tag[slot] = kTagString;
      cs.str[slot] = &v.AsString();
      break;
  }
}

Status Table::Insert(Row row) {
  if (row.size() != schema_->num_columns()) {
    return InvalidArgumentError("row arity mismatch for table " +
                                schema_->name());
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!catalog::ValueFitsColumn(row[i].type(), schema_->columns()[i].type)) {
      return InvalidArgumentError(
          "type mismatch for " + schema_->name() + "." +
          schema_->columns()[i].name + ": got " +
          sql::ValueTypeName(row[i].type()));
    }
  }
  // Primary-key uniqueness.
  if (!schema_->primary_key().empty()) {
    const size_t pk0 =
        *schema_->ColumnIndex(schema_->primary_key()[0]);
    for (size_t slot : SlotsWithValue(pk0, row[pk0])) {
      bool all_equal = true;
      for (const std::string& pk_col : schema_->primary_key()) {
        const size_t c = *schema_->ColumnIndex(pk_col);
        if (!(rows_[slot][c] == row[c])) {
          all_equal = false;
          break;
        }
      }
      if (all_equal) {
        return ConstraintViolationError("duplicate primary key in " +
                                        schema_->name());
      }
    }
  }
  // UNIQUE-column constraints (NULLs are exempt, as in SQL).
  for (const std::string& unique : schema_->unique_columns()) {
    const size_t col = *schema_->ColumnIndex(unique);
    if (!row[col].is_null() && ContainsValue(col, row[col])) {
      return ConstraintViolationError("duplicate value for unique column " +
                                      schema_->name() + "." + unique);
    }
  }
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    rows_[slot] = std::move(row);
    live_[slot] = 1;
  } else {
    slot = rows_.size();
    DSSP_CHECK(slot < kNoSlot);
    rows_.push_back(std::move(row));
    live_.push_back(1);
  }
  ++num_live_;
  IndexRow(slot);
  for (size_t col = 0; col < schema_->num_columns(); ++col) {
    SyncColumn(slot, col);
  }
  return Status::Ok();
}

void Table::DeleteSlot(size_t slot) {
  DSSP_CHECK(slot < rows_.size() && live_[slot]);
  UnindexRow(slot);
  live_[slot] = 0;
  free_slots_.push_back(slot);
  --num_live_;
  // Sidecar entries of a dead slot are never read (kernels consult live()),
  // but the string pointer would dangle once the row is overwritten on slot
  // reuse — drop it eagerly.
  for (size_t col = 0; col < schema_->num_columns(); ++col) {
    if (!columns_[col].str.empty()) columns_[col].str[slot] = nullptr;
  }
}

void Table::UpdateSlot(size_t slot, size_t col, sql::Value value) {
  DSSP_CHECK(slot < rows_.size() && live_[slot]);
  DSSP_CHECK(col < schema_->num_columns());
  if (!indexed_[col]) {
    rows_[slot][col] = std::move(value);
    SyncColumn(slot, col);
    return;
  }
  // Re-index just the touched column.
  indexes_[col].Unlink(IndexKey(col, rows_[slot][col]), slot);
  rows_[slot][col] = std::move(value);
  indexes_[col].Link(IndexKey(col, rows_[slot][col]), slot);
  SyncColumn(slot, col);
}

std::vector<size_t> Table::AllSlots() const {
  std::vector<size_t> slots;
  slots.reserve(num_live_);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (live_[i]) slots.push_back(i);
  }
  return slots;
}

std::vector<size_t> Table::SlotsWithValue(size_t col,
                                          const sql::Value& value) const {
  std::vector<size_t> slots;
  ForEachSlotWithValue(col, value, [&](size_t slot) { slots.push_back(slot); });
  return slots;
}

bool Table::ContainsValue(size_t col, const sql::Value& value) const {
  bool found = false;
  ForEachSlotWithValue(col, value, [&](size_t) { found = true; });
  return found;
}

}  // namespace dssp::engine
