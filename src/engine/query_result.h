#ifndef DSSP_ENGINE_QUERY_RESULT_H_
#define DSSP_ENGINE_QUERY_RESULT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sql/value.h"

namespace dssp::engine {

using Row = std::vector<sql::Value>;

// The materialized result of a query: the unit the DSSP caches, encrypts,
// and invalidates. An immutable value: copies share one representation, so
// a copy costs a reference-count increment, and a moved-from result reads as
// empty.
class QueryResult {
 public:
  QueryResult() : rep_(EmptyRep()) {}
  QueryResult(std::vector<std::string> column_names, std::vector<Row> rows,
              bool ordered)
      : rep_(std::make_shared<const Rep>(
            Rep{std::move(column_names), std::move(rows), ordered})) {}
  QueryResult(const QueryResult&) = default;
  QueryResult& operator=(const QueryResult&) = default;
  QueryResult(QueryResult&& other) noexcept
      : rep_(std::exchange(other.rep_, EmptyRep())) {}
  QueryResult& operator=(QueryResult&& other) noexcept {
    rep_ = std::exchange(other.rep_, EmptyRep());
    return *this;
  }

  const std::vector<std::string>& column_names() const {
    return rep_->column_names;
  }
  const std::vector<Row>& rows() const { return rep_->rows; }

  // True if the query had an ORDER BY (row order is part of the result).
  bool ordered() const { return rep_->ordered; }

  size_t num_rows() const { return rep_->rows.size(); }
  size_t num_columns() const { return rep_->column_names.size(); }
  bool empty() const { return rep_->rows.empty(); }

  // Result equality per the paper's correctness definition Q[D] = Q[D+U]:
  // sequence equality for ordered results, multiset equality otherwise.
  bool SameResult(const QueryResult& other) const;

  // Deterministic digest consistent with SameResult.
  uint64_t Fingerprint() const;

  // Serialized form (what gets encrypted and shipped over the simulated
  // network). Approximately proportional to real wire size.
  std::string Serialize() const;

  // Inverse of Serialize. Returns an error on malformed input.
  static StatusOr<QueryResult> Deserialize(std::string_view data);

  // Approximate wire size in bytes.
  size_t ByteSize() const { return Serialize().size(); }

  // Human-readable table for examples/demos.
  std::string ToDebugString(size_t max_rows = 20) const;

 private:
  struct Rep {
    std::vector<std::string> column_names;
    std::vector<Row> rows;
    bool ordered = false;
  };

  // A shared empty Rep with no control block, so taking it touches no
  // reference count.
  static std::shared_ptr<const Rep> EmptyRep() {
    static const Rep kEmpty;
    return std::shared_ptr<const Rep>(std::shared_ptr<const Rep>(), &kEmpty);
  }

  std::shared_ptr<const Rep> rep_;  // Never null.
};

}  // namespace dssp::engine

#endif  // DSSP_ENGINE_QUERY_RESULT_H_
