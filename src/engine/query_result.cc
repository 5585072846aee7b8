#include "engine/query_result.h"

#include <algorithm>

#include "common/hash.h"

namespace dssp::engine {

namespace {

std::string EncodeRow(const Row& row) {
  std::string out;
  for (const sql::Value& v : row) out += v.EncodeForKey();
  return out;
}

std::vector<std::string> EncodedRows(const std::vector<Row>& rows,
                                     bool sorted) {
  std::vector<std::string> encoded;
  encoded.reserve(rows.size());
  for (const Row& row : rows) encoded.push_back(EncodeRow(row));
  if (sorted) std::sort(encoded.begin(), encoded.end());
  return encoded;
}

}  // namespace

bool QueryResult::SameResult(const QueryResult& other) const {
  if (column_names() != other.column_names()) return false;
  if (num_rows() != other.num_rows()) return false;
  if (ordered() != other.ordered()) return false;
  const std::vector<std::string> a = EncodedRows(rows(), !ordered());
  const std::vector<std::string> b =
      EncodedRows(other.rows(), !other.ordered());
  return a == b;
}

uint64_t QueryResult::Fingerprint() const {
  uint64_t h = Hash64(ordered() ? "ordered" : "unordered");
  for (const std::string& name : column_names()) {
    h = HashCombine(h, Hash64(name));
  }
  for (const std::string& row : EncodedRows(rows(), !ordered())) {
    h = HashCombine(h, Hash64(row));
  }
  return h;
}

std::string QueryResult::Serialize() const {
  std::string out;
  out.push_back(ordered() ? 1 : 0);
  const uint64_t ncols = num_columns();
  out.append(reinterpret_cast<const char*>(&ncols), sizeof(ncols));
  for (const std::string& name : column_names()) {
    const uint64_t len = name.size();
    out.append(reinterpret_cast<const char*>(&len), sizeof(len));
    out += name;
  }
  const uint64_t nrows = num_rows();
  out.append(reinterpret_cast<const char*>(&nrows), sizeof(nrows));
  for (const Row& row : rows()) {
    for (const sql::Value& v : row) out += v.EncodeForKey();
  }
  return out;
}

StatusOr<QueryResult> QueryResult::Deserialize(std::string_view data) {
  size_t pos = 0;
  const auto read_u64 = [&](uint64_t* out) {
    if (pos + sizeof(uint64_t) > data.size()) return false;
    std::memcpy(out, data.data() + pos, sizeof(uint64_t));
    pos += sizeof(uint64_t);
    return true;
  };
  if (data.empty()) return InvalidArgumentError("empty result blob");
  const bool ordered = data[pos++] != 0;

  uint64_t ncols = 0;
  if (!read_u64(&ncols) || ncols > (1u << 20)) {
    return InvalidArgumentError("malformed result blob (columns)");
  }
  std::vector<std::string> names;
  names.reserve(ncols);
  for (uint64_t i = 0; i < ncols; ++i) {
    uint64_t len = 0;
    if (!read_u64(&len) || pos + len > data.size()) {
      return InvalidArgumentError("malformed result blob (column name)");
    }
    names.emplace_back(data.substr(pos, len));
    pos += len;
  }

  // Every value takes at least one byte, which bounds a sane row count; a
  // result without columns has no rows.
  uint64_t nrows = 0;
  if (!read_u64(&nrows) ||
      nrows > (ncols == 0 ? 0 : (data.size() - pos) / ncols)) {
    return InvalidArgumentError("malformed result blob (row count)");
  }
  std::vector<Row> rows;
  rows.reserve(nrows);
  for (uint64_t r = 0; r < nrows; ++r) {
    // Each value decodes straight into its slot of the row.
    Row& row = rows.emplace_back(ncols);
    for (sql::Value& value : row) {
      if (!sql::Value::DecodeFromKey(data, &pos, &value)) {
        return InvalidArgumentError("malformed result blob (value)");
      }
    }
  }
  if (pos != data.size()) {
    return InvalidArgumentError("trailing bytes in result blob");
  }
  return QueryResult(std::move(names), std::move(rows), ordered);
}

std::string QueryResult::ToDebugString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < num_columns(); ++i) {
    if (i != 0) out += " | ";
    out += column_names()[i];
  }
  out += "\n";
  size_t shown = 0;
  for (const Row& row : rows()) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(num_rows() - max_rows) +
             " more rows)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out += " | ";
      out += row[i].ToSqlLiteral();
    }
    out += "\n";
  }
  out += "(" + std::to_string(num_rows()) + " rows)";
  return out;
}

}  // namespace dssp::engine
