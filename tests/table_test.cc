#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "engine/database.h"
#include "engine/table.h"
#include "sql/parser.h"

namespace dssp::engine {
namespace {

using catalog::ColumnType;
using catalog::TableSchema;
using sql::Value;

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : schema_("toys",
                {{"toy_id", ColumnType::kInt64},
                 {"toy_name", ColumnType::kString},
                 {"qty", ColumnType::kInt64}},
                {"toy_id"}),
        table_(schema_) {}

  catalog::TableSchema schema_;
  Table table_;
};

TEST_F(TableTest, InsertAndLookup) {
  ASSERT_TRUE(table_.Insert({Value(1), Value("car"), Value(5)}).ok());
  ASSERT_TRUE(table_.Insert({Value(2), Value("doll"), Value(7)}).ok());
  EXPECT_EQ(table_.num_rows(), 2u);
  const auto slots = table_.SlotsWithValue(1, Value("car"));
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(table_.RowAt(slots[0])[2], Value(5));
}

TEST_F(TableTest, RejectsArityMismatch) {
  EXPECT_FALSE(table_.Insert({Value(1), Value("car")}).ok());
}

TEST_F(TableTest, RejectsTypeMismatch) {
  EXPECT_FALSE(table_.Insert({Value("x"), Value("car"), Value(1)}).ok());
  EXPECT_FALSE(table_.Insert({Value(1), Value(2), Value(3)}).ok());
  EXPECT_FALSE(table_.Insert({Value(1), Value("car"), Value(1.5)}).ok());
}

TEST_F(TableTest, AllowsNulls) {
  EXPECT_TRUE(table_.Insert({Value(1), Value::Null(), Value::Null()}).ok());
}

TEST_F(TableTest, EnforcesPrimaryKeyUniqueness) {
  ASSERT_TRUE(table_.Insert({Value(1), Value("car"), Value(5)}).ok());
  const Status dup = table_.Insert({Value(1), Value("boat"), Value(9)});
  EXPECT_EQ(dup.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(table_.num_rows(), 1u);
}

TEST_F(TableTest, DeleteMaintainsIndexes) {
  ASSERT_TRUE(table_.Insert({Value(1), Value("car"), Value(5)}).ok());
  ASSERT_TRUE(table_.Insert({Value(2), Value("car"), Value(6)}).ok());
  const auto slots = table_.SlotsWithValue(1, Value("car"));
  ASSERT_EQ(slots.size(), 2u);
  table_.DeleteSlot(slots[0]);
  EXPECT_EQ(table_.num_rows(), 1u);
  EXPECT_EQ(table_.SlotsWithValue(1, Value("car")).size(), 1u);
  EXPECT_FALSE(table_.IsLive(slots[0]));
}

TEST_F(TableTest, SlotReuseAfterDelete) {
  ASSERT_TRUE(table_.Insert({Value(1), Value("a"), Value(1)}).ok());
  const auto slots = table_.SlotsWithValue(0, Value(1));
  table_.DeleteSlot(slots[0]);
  // Primary key is free again.
  ASSERT_TRUE(table_.Insert({Value(1), Value("b"), Value(2)}).ok());
  EXPECT_EQ(table_.num_rows(), 1u);
  const auto again = table_.SlotsWithValue(0, Value(1));
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(table_.RowAt(again[0])[1], Value("b"));
}

TEST_F(TableTest, UpdateSlotReindexes) {
  ASSERT_TRUE(table_.Insert({Value(1), Value("car"), Value(5)}).ok());
  const auto slots = table_.SlotsWithValue(0, Value(1));
  table_.UpdateSlot(slots[0], 2, Value(99));
  EXPECT_TRUE(table_.SlotsWithValue(2, Value(5)).empty());
  ASSERT_EQ(table_.SlotsWithValue(2, Value(99)).size(), 1u);
  EXPECT_EQ(table_.RowAt(slots[0])[2], Value(99));
}

TEST_F(TableTest, ContainsValue) {
  ASSERT_TRUE(table_.Insert({Value(1), Value("car"), Value(5)}).ok());
  EXPECT_TRUE(table_.ContainsValue(1, Value("car")));
  EXPECT_FALSE(table_.ContainsValue(1, Value("boat")));
}

TEST_F(TableTest, AllSlotsAscending) {
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        table_.Insert({Value(i), Value("t"), Value(i)}).ok());
  }
  const auto slots = table_.AllSlots();
  ASSERT_EQ(slots.size(), 5u);
  for (size_t i = 1; i < slots.size(); ++i) {
    EXPECT_LT(slots[i - 1], slots[i]);
  }
}

TEST_F(TableTest, CompositePrimaryKey) {
  catalog::TableSchema schema(
      "ol", {{"o", ColumnType::kInt64}, {"l", ColumnType::kInt64}},
      {"o", "l"});
  Table table(schema);
  EXPECT_TRUE(table.Insert({Value(1), Value(1)}).ok());
  EXPECT_TRUE(table.Insert({Value(1), Value(2)}).ok());
  EXPECT_TRUE(table.Insert({Value(2), Value(1)}).ok());
  EXPECT_EQ(table.Insert({Value(1), Value(2)}).code(),
            StatusCode::kConstraintViolation);
}

TEST_F(TableTest, ManyRowsIndexScale) {
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(table_
                    .Insert({Value(i), Value("name" + std::to_string(i % 97)),
                             Value(i % 13)})
                    .ok());
  }
  EXPECT_EQ(table_.num_rows(), 5000u);
  // 5000/97 ~ 51 rows share each name.
  const auto by_name = table_.SlotsWithValue(1, Value("name13"));
  EXPECT_GE(by_name.size(), 50u);
  const auto by_qty = table_.SlotsWithValue(2, Value(7));
  EXPECT_GE(by_qty.size(), 300u);
}

// ----- The index set ------------------------------------------------------

TEST(TableIndexSetTest, CreateTableIndexesKeysUniqueAndBothForeignKeySides) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("users",
                                         {{"u_id", ColumnType::kInt64},
                                          {"u_name", ColumnType::kString},
                                          {"u_rating", ColumnType::kInt64}},
                                         {"u_id"}, /*foreign_keys=*/{},
                                         /*unique_columns=*/{"u_name"}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema(
                                 "posts",
                                 {{"p_id", ColumnType::kInt64},
                                  {"p_author", ColumnType::kInt64},
                                  {"p_body", ColumnType::kString}},
                                 {"p_id"},
                                 {{"p_author", "users", "u_id"}}))
                  .ok());
  const Table& users = db.GetTable("users");
  const Table& posts = db.GetTable("posts");
  EXPECT_TRUE(users.IsIndexed(0));   // PK, and the referenced FK side.
  EXPECT_TRUE(users.IsIndexed(1));   // UNIQUE.
  EXPECT_FALSE(users.IsIndexed(2));
  EXPECT_TRUE(posts.IsIndexed(0));   // PK.
  EXPECT_TRUE(posts.IsIndexed(1));   // Referencing FK side.
  EXPECT_FALSE(posts.IsIndexed(2));

  // Every column of a composite primary key is indexed.
  const TableSchema composite("ol", {{"o", ColumnType::kInt64},
                                     {"l", ColumnType::kInt64},
                                     {"q", ColumnType::kInt64}},
                              {"o", "l"});
  const Table ol(composite);
  EXPECT_TRUE(ol.IsIndexed(0));
  EXPECT_TRUE(ol.IsIndexed(1));
  EXPECT_FALSE(ol.IsIndexed(2));
}

TEST(TableIndexSetTest, EqualityColumnsOfTemplatesAreIndexed) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("a",
                                         {{"a_id", ColumnType::kInt64},
                                          {"a_x", ColumnType::kInt64},
                                          {"a_y", ColumnType::kInt64},
                                          {"a_z", ColumnType::kString}},
                                         {"a_id"}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("b",
                                         {{"b_id", ColumnType::kInt64},
                                          {"b_x", ColumnType::kInt64},
                                          {"b_y", ColumnType::kInt64}},
                                         {"b_id"}))
                  .ok());
  const Table& a = db.GetTable("a");
  const Table& b = db.GetTable("b");
  // Ranges, column-vs-column joins and ambiguous names index nothing.
  db.IndexEqualityColumns(sql::ParseOrDie(
      "SELECT a_id FROM a, b WHERE a_x = b_x AND a_y < ? AND b_y >= 3"));
  EXPECT_FALSE(a.IsIndexed(1) || a.IsIndexed(2) || b.IsIndexed(1) ||
               b.IsIndexed(2));
  db.IndexEqualityColumns(
      sql::ParseOrDie("SELECT * FROM a, b t WHERE t.b_y = ? AND 'k' = a_z"));
  EXPECT_TRUE(b.IsIndexed(2));  // Through the alias.
  EXPECT_TRUE(a.IsIndexed(3));  // Literal on the left.
  db.IndexEqualityColumns(
      sql::ParseOrDie("UPDATE a SET a_y = ? WHERE a_x = ?"));
  EXPECT_TRUE(a.IsIndexed(1));
  EXPECT_FALSE(a.IsIndexed(2));  // A SET target is not probed.
  db.IndexEqualityColumns(sql::ParseOrDie("DELETE FROM b WHERE b_x = 4"));
  EXPECT_TRUE(b.IsIndexed(1));
  EXPECT_FALSE(a.IsIndexed(2));
}

// An unindexed probe scans: the same live slots an index returns, ascending.
TEST_F(TableTest, UnindexedProbeReturnsIndexedSetAscending) {
  Table indexed(schema_);
  indexed.EnsureIndex(2);
  for (int i = 0; i < 60; ++i) {
    const Row row{Value(i), Value("n" + std::to_string(i % 5)),
                  i % 7 == 0 ? Value::Null() : Value(i % 4)};
    ASSERT_TRUE(table_.Insert(row).ok());
    ASSERT_TRUE(indexed.Insert(row).ok());
  }
  for (size_t slot = 2; slot < 60; slot += 5) {
    table_.DeleteSlot(slot);
    indexed.DeleteSlot(slot);
  }
  ASSERT_FALSE(table_.IsIndexed(2));
  for (const Value& v : {Value(0), Value(1), Value(3), Value(9), Value(2.0),
                         Value::Null(), Value("x")}) {
    std::vector<size_t> expected = indexed.SlotsWithValue(2, v);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(table_.SlotsWithValue(2, v), expected) << v.ToSqlLiteral();
    EXPECT_EQ(table_.ContainsValue(2, v), !expected.empty());
  }
}

TEST_F(TableTest, EnsureIndexOnPopulatedTable) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        table_.Insert({Value(i), Value("n"), Value(i % 3)}).ok());
  }
  table_.DeleteSlot(4);
  const std::vector<size_t> scanned = table_.SlotsWithValue(2, Value(1));
  table_.EnsureIndex(2);
  ASSERT_TRUE(table_.IsIndexed(2));
  std::vector<size_t> probed = table_.SlotsWithValue(2, Value(1));
  std::sort(probed.begin(), probed.end());
  EXPECT_EQ(probed, scanned);
  // The new index follows later writes.
  table_.UpdateSlot(1, 2, Value(2));
  ASSERT_TRUE(table_.Insert({Value(30), Value("n"), Value(1)}).ok());
  EXPECT_EQ(table_.SlotsWithValue(2, Value(1)).size(), scanned.size());
  table_.EnsureIndex(2);  // Idempotent.
  EXPECT_EQ(table_.SlotsWithValue(2, Value(1)).size(), scanned.size());
}

TEST_F(TableTest, UpdateAndDeleteOfUnindexedColumn) {
  ASSERT_TRUE(table_.Insert({Value(1), Value("car"), Value(5)}).ok());
  ASSERT_TRUE(table_.Insert({Value(2), Value("doll"), Value(5)}).ok());
  ASSERT_FALSE(table_.IsIndexed(2));
  table_.UpdateSlot(0, 2, Value(9));
  EXPECT_EQ(table_.RowAt(0)[2], Value(9));
  EXPECT_EQ(table_.ints(2)[0], 9);
  EXPECT_EQ(table_.SlotsWithValue(2, Value(5)), std::vector<size_t>{1});
  EXPECT_EQ(table_.SlotsWithValue(2, Value(9)), std::vector<size_t>{0});
  table_.DeleteSlot(0);
  EXPECT_TRUE(table_.SlotsWithValue(2, Value(9)).empty());
  ASSERT_TRUE(table_.Insert({Value(3), Value("kite"), Value(9)}).ok());
  EXPECT_EQ(table_.SlotsWithValue(2, Value(9)), std::vector<size_t>{0});
  EXPECT_EQ(table_.SlotsWithValue(0, Value(3)), std::vector<size_t>{0});
}

// A column indexed before the first insert (as every template-probed column
// is) keeps the bucket order the engine had when every column was indexed:
// template results keep their row order. The expected sequences were
// recorded from that engine on this exact history.
TEST_F(TableTest, TemplateProbedColumnKeepsBucketOrder) {
  table_.EnsureIndex(2);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(table_
                    .Insert({Value(i), Value("t" + std::to_string(i)),
                             Value(i % 4)})
                    .ok());
  }
  for (size_t slot = 1; slot < 40; slot += 3) table_.DeleteSlot(slot);
  for (int i = 40; i < 50; ++i) {
    ASSERT_TRUE(table_
                    .Insert({Value(i), Value("t" + std::to_string(i)),
                             Value(i % 3)})
                    .ok());
  }
  table_.UpdateSlot(0, 2, Value(3));
  table_.UpdateSlot(9, 2, Value(1));
  table_.UpdateSlot(21, 2, Value(0));
  using Slots = std::vector<size_t>;
  EXPECT_EQ(table_.SlotsWithValue(2, Value(0)),
            (Slots{21, 13, 22, 31, 36, 32, 24, 20, 12, 8}));
  EXPECT_EQ(table_.SlotsWithValue(2, Value(1)),
            (Slots{9, 10, 19, 28, 37, 33, 29, 17, 5}));
  EXPECT_EQ(table_.SlotsWithValue(2, Value(2)),
            (Slots{16, 25, 34, 38, 30, 26, 18, 14, 6, 2}));
  EXPECT_EQ(table_.SlotsWithValue(2, Value(3)),
            (Slots{0, 39, 35, 27, 23, 15, 11, 3}));
}

}  // namespace
}  // namespace dssp::engine
