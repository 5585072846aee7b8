// Microbenchmarks for the relational engine: point lookups, joins,
// aggregates, and update application on a populated bookstore database.
// The *Compiled variants run the same statement through a QueryProgram
// (compiled once, outside the timed loop) for a direct interpreter-vs-
// program comparison on each shape.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/micro_util.h"
#include "catalog/schema.h"
#include "engine/program.h"
#include "sql/parser.h"

namespace {

using dssp::bench::BuildSystem;
using dssp::catalog::ColumnType;
using dssp::engine::QueryProgram;
using dssp::sql::ParseOrDie;
using dssp::sql::Value;

dssp::engine::Database& Db() {
  static auto* system = BuildSystem("bookstore", 1.0, 5).release();
  return system->app->home().database();
}

// The statement is parameterless, so Execute binds an empty param list.
QueryProgram CompileOrDie(const dssp::engine::Database& db,
                          const dssp::sql::Statement& stmt) {
  auto program = QueryProgram::Compile(db.catalog(), stmt.select());
  DSSP_CHECK(program.ok());
  return *std::move(program);
}

void BM_PointQueryByPrimaryKey(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto stmt = ParseOrDie("SELECT i_stock FROM item WHERE i_id = 417");
  for (auto _ : state) {
    auto result = db.ExecuteQuery(stmt);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PointQueryByPrimaryKey);

void BM_PointQueryCompiled(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto program = CompileOrDie(
      db, ParseOrDie("SELECT i_stock FROM item WHERE i_id = 417"));
  for (auto _ : state) {
    auto result = program.Execute(db, {});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PointQueryCompiled);

void BM_SelectiveScanInterpreted(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto stmt =
      ParseOrDie("SELECT i_id, i_title FROM item WHERE i_cost >= 95.0");
  for (auto _ : state) {
    auto result = db.ExecuteQuery(stmt);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SelectiveScanInterpreted);

void BM_SelectiveScanCompiled(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto program = CompileOrDie(
      db, ParseOrDie("SELECT i_id, i_title FROM item WHERE i_cost >= 95.0"));
  for (auto _ : state) {
    auto result = program.Execute(db, {});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SelectiveScanCompiled);

void BM_EquiJoinWithOrderByLimit(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto stmt = ParseOrDie(
      "SELECT i_id, i_title, a_fname, a_lname FROM item, author "
      "WHERE item.i_a_id = author.a_id AND i_subject = 'SCIFI' "
      "ORDER BY i_title LIMIT 50");
  for (auto _ : state) {
    auto result = db.ExecuteQuery(stmt);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EquiJoinWithOrderByLimit);

void BM_EquiJoinCompiled(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto program = CompileOrDie(
      db, ParseOrDie(
              "SELECT i_id, i_title, a_fname, a_lname FROM item, author "
              "WHERE item.i_a_id = author.a_id AND i_subject = 'SCIFI' "
              "ORDER BY i_title LIMIT 50"));
  for (auto _ : state) {
    auto result = program.Execute(db, {});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EquiJoinCompiled);

void BM_GroupByAggregate(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto stmt = ParseOrDie(
      "SELECT i_subject, COUNT(i_id) FROM item WHERE i_cost >= 5.0 "
      "GROUP BY i_subject ORDER BY i_subject");
  for (auto _ : state) {
    auto result = db.ExecuteQuery(stmt);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GroupByAggregate);

void BM_GroupByAggregateCompiled(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto program = CompileOrDie(
      db, ParseOrDie(
              "SELECT i_subject, COUNT(i_id) FROM item WHERE i_cost >= 5.0 "
              "GROUP BY i_subject ORDER BY i_subject"));
  for (auto _ : state) {
    auto result = program.Execute(db, {});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GroupByAggregateCompiled);

void BM_BestSellersJoinAggregate(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto stmt = ParseOrDie(
      "SELECT ol_i_id, SUM(ol_qty) FROM order_line, item "
      "WHERE order_line.ol_i_id = item.i_id AND i_subject = 'SCIFI' "
      "GROUP BY ol_i_id ORDER BY ol_i_id LIMIT 50");
  for (auto _ : state) {
    auto result = db.ExecuteQuery(stmt);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BestSellersJoinAggregate);

// The same best-sellers shape with the subject bound as a parameter, as the
// bookstore template has it: the probe sits on item, the second FROM slot.
void BM_BestSellersJoinAggregateCompiled(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto stmt = ParseOrDie(
      "SELECT ol_i_id, SUM(ol_qty) FROM order_line, item "
      "WHERE order_line.ol_i_id = item.i_id AND i_subject = ? "
      "GROUP BY ol_i_id ORDER BY ol_i_id LIMIT 50");
  auto program = QueryProgram::Compile(db.catalog(), stmt.select());
  DSSP_CHECK(program.ok());
  const std::vector<Value> params = {Value("SCIFI")};
  for (auto _ : state) {
    auto result = program->Execute(db, params);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BestSellersJoinAggregateCompiled);

void BM_ModificationByPrimaryKey(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto stmt =
      ParseOrDie("UPDATE item SET i_stock = 55 WHERE i_id = 611");
  for (auto _ : state) {
    auto effect = db.ExecuteUpdate(stmt);
    benchmark::DoNotOptimize(effect);
  }
}
BENCHMARK(BM_ModificationByPrimaryKey);

void BM_InsertDeleteRoundTrip(benchmark::State& state) {
  dssp::engine::Database& db = Db();
  const auto insert = ParseOrDie(
      "INSERT INTO shopping_cart (sc_id, sc_date) VALUES (7777777, 1)");
  const auto remove =
      ParseOrDie("DELETE FROM shopping_cart WHERE sc_id = 7777777");
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.ExecuteUpdate(insert));
    benchmark::DoNotOptimize(db.ExecuteUpdate(remove));
  }
}
BENCHMARK(BM_InsertDeleteRoundTrip);

// Point deletes by primary key on a table whose other indexed column holds
// one value in every row (bboard's comments.c_parent is 0 on every
// top-level comment). Each iteration deletes the next row in id order and
// re-inserts it, so the row leaves and rejoins that column's single
// 20,000-row index chain.
void BM_DeleteFromSkewedIndex(benchmark::State& state) {
  constexpr int64_t kRows = 20000;
  dssp::engine::Database db;
  DSSP_CHECK_OK(db.CreateTable(dssp::catalog::TableSchema(
      "comments",
      {{"c_id", ColumnType::kInt64},
       {"c_parent", ColumnType::kInt64},
       {"c_rating", ColumnType::kInt64}},
      {"c_id"})));
  db.IndexEqualityColumns(
      ParseOrDie("SELECT c_id FROM comments WHERE c_parent = ?"));
  std::vector<dssp::sql::Statement> deletes;
  deletes.reserve(kRows);
  for (int64_t id = 0; id < kRows; ++id) {
    DSSP_CHECK_OK(
        db.InsertRow("comments", {Value(id), Value(0), Value(id % 5)}));
    deletes.push_back(ParseOrDie("DELETE FROM comments WHERE c_id = " +
                                 std::to_string(id)));
  }
  int64_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.ExecuteUpdate(deletes[next]));
    DSSP_CHECK_OK(
        db.InsertRow("comments", {Value(next), Value(0), Value(next % 5)}));
    next = (next + 1) % kRows;
  }
}
BENCHMARK(BM_DeleteFromSkewedIndex);

}  // namespace

int main(int argc, char** argv) {
  return dssp::bench::RunBenchmarkMain(argc, argv);
}
