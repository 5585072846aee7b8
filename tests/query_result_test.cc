#include <gtest/gtest.h>

#include "engine/query_result.h"

namespace dssp::engine {
namespace {

using sql::Value;

QueryResult Make(std::vector<Row> rows, bool ordered) {
  return QueryResult({"a", "b"}, std::move(rows), ordered);
}

TEST(QueryResultTest, Accessors) {
  const QueryResult r = Make({{Value(1), Value("x")}}, false);
  EXPECT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.num_columns(), 2u);
  EXPECT_FALSE(r.empty());
  EXPECT_FALSE(r.ordered());
  EXPECT_TRUE(QueryResult().empty());
}

TEST(QueryResultTest, UnorderedEqualityIsMultiset) {
  const QueryResult a =
      Make({{Value(1), Value("x")}, {Value(2), Value("y")}}, false);
  const QueryResult b =
      Make({{Value(2), Value("y")}, {Value(1), Value("x")}}, false);
  EXPECT_TRUE(a.SameResult(b));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(QueryResultTest, UnorderedMultisetCountsMatter) {
  const QueryResult a =
      Make({{Value(1), Value("x")}, {Value(1), Value("x")}}, false);
  const QueryResult b =
      Make({{Value(1), Value("x")}, {Value(2), Value("y")}}, false);
  EXPECT_FALSE(a.SameResult(b));
}

TEST(QueryResultTest, OrderedEqualityIsSequence) {
  const QueryResult a =
      Make({{Value(1), Value("x")}, {Value(2), Value("y")}}, true);
  const QueryResult b =
      Make({{Value(2), Value("y")}, {Value(1), Value("x")}}, true);
  EXPECT_FALSE(a.SameResult(b));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(QueryResultTest, OrderednessDistinguishesResults) {
  const QueryResult a = Make({{Value(1), Value("x")}}, true);
  const QueryResult b = Make({{Value(1), Value("x")}}, false);
  EXPECT_FALSE(a.SameResult(b));
}

TEST(QueryResultTest, ColumnNamesMatter) {
  const QueryResult a({"a"}, {{Value(1)}}, false);
  const QueryResult b({"z"}, {{Value(1)}}, false);
  EXPECT_FALSE(a.SameResult(b));
}

TEST(QueryResultTest, SerializeDeserializeRoundTrip) {
  const QueryResult original(
      {"id", "name", "score"},
      {{Value(1), Value("alice"), Value(3.5)},
       {Value(2), Value::Null(), Value(-1.0)},
       {Value(int64_t{1} << 40), Value(""), Value(0.0)}},
      true);
  auto decoded = QueryResult::Deserialize(original.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->SameResult(original));
  EXPECT_EQ(decoded->column_names(), original.column_names());
  EXPECT_TRUE(decoded->ordered());
}

TEST(QueryResultTest, EmptyResultRoundTrip) {
  const QueryResult original({"only"}, {}, false);
  auto decoded = QueryResult::Deserialize(original.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->SameResult(original));
}

TEST(QueryResultTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(QueryResult::Deserialize("").ok());
  EXPECT_FALSE(QueryResult::Deserialize("x").ok());
  const std::string good = Make({{Value(1), Value("x")}}, false).Serialize();
  EXPECT_FALSE(QueryResult::Deserialize(good.substr(0, good.size() - 3)).ok());
  EXPECT_FALSE(QueryResult::Deserialize(good + "zz").ok());

  // No columns but 2^61 rows: 17 bytes that once reached `rows.reserve`
  // unchecked, which threw std::length_error and aborted.
  std::string no_columns(1, '\0');
  const uint64_t zero = 0;
  const uint64_t huge = uint64_t{1} << 61;
  no_columns.append(reinterpret_cast<const char*>(&zero), sizeof(zero));
  no_columns.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  ASSERT_EQ(no_columns.size(), 17u);
  EXPECT_FALSE(QueryResult::Deserialize(no_columns).ok());
  // Without columns only an empty row list is well formed.
  EXPECT_TRUE(QueryResult::Deserialize(QueryResult().Serialize()).ok());
}

TEST(QueryResultTest, ByteSizeTracksContent) {
  const QueryResult small = Make({{Value(1), Value("x")}}, false);
  std::vector<Row> rows = small.rows();
  for (int i = 0; i < 100; ++i) {
    rows.push_back({Value(i), Value(std::string(50, 'y'))});
  }
  const QueryResult big = Make(std::move(rows), false);
  EXPECT_GT(big.ByteSize(), small.ByteSize() + 5000);
}

TEST(QueryResultTest, CopiesShareOneRepresentation) {
  const QueryResult original = Make({{Value(1), Value("x")}}, true);
  const QueryResult copy = original;
  EXPECT_EQ(&copy.rows(), &original.rows());
  EXPECT_EQ(&copy.column_names(), &original.column_names());
  QueryResult assigned;
  assigned = copy;
  EXPECT_EQ(&assigned.rows(), &original.rows());
  EXPECT_TRUE(assigned.ordered());
}

// Reading a moved-from result is the subject here: it must read as the
// empty result, never reach through a null representation.
TEST(QueryResultTest, MovedFromResultReadsAsEmpty) {
  QueryResult source = Make({{Value(1), Value("x")}}, true);
  const std::vector<Row>* storage = &source.rows();
  QueryResult target = std::move(source);
  EXPECT_EQ(&target.rows(), storage);
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.num_columns(), 0u);
  EXPECT_FALSE(source.ordered());
  EXPECT_TRUE(source.SameResult(QueryResult()));
  EXPECT_EQ(source.Serialize(), QueryResult().Serialize());

  QueryResult assigned;
  assigned = std::move(target);
  EXPECT_EQ(&assigned.rows(), storage);
  EXPECT_TRUE(target.empty());
  EXPECT_EQ(target.num_columns(), 0u);
}

TEST(QueryResultTest, DebugStringTruncates) {
  std::vector<Row> rows;
  for (int i = 0; i < 30; ++i) rows.push_back({Value(i), Value("r")});
  const QueryResult r = Make(std::move(rows), false);
  const std::string s = r.ToDebugString(/*max_rows=*/5);
  EXPECT_NE(s.find("25 more rows"), std::string::npos);
  EXPECT_NE(s.find("(30 rows)"), std::string::npos);
}

}  // namespace
}  // namespace dssp::engine
