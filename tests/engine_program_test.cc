// Vectorized engine tests. The row-at-a-time interpreter (ExecuteSelect) is
// the oracle everywhere:
//
//  1. Typed filter kernels (engine/batch.h): every (column type, CompareOp,
//     rhs type) pair differentially against a per-row reference, plus
//     selection-vector edge cases (empty, all-pass, single row, dead slots).
//  2. StableTopK: its k-prefix equals std::stable_sort's on duplicate-heavy
//     random keys, for every k.
//  3. BoundPredicate vs EvalPredicateOnRow: identical StatusOr<bool> on
//     randomized predicates including broken column references, unbound
//     parameters, incomparable operand types, and NULL-laden rows.
//  4. All four paper workloads: every registered query template compiles,
//     and QueryProgram::Execute is bit-identical (serialized bytes, ordered
//     flag, error Status) to the interpreter across randomized parameter
//     bindings — valid, NULL, and deliberately mistyped.
//  5. The home-backend wire path: every template-shaped query is served by a
//     compiled program (interpreter_fallback_queries() == 0) with the
//     interpreter's bytes; an ad-hoc query matching no template falls back
//     to the interpreter and still answers correctly.
//  6. Randomized synthetic templates (joins, aggregates, GROUP BY, ORDER BY
//     with partial keys, literal and parameter LIMITs) over randomized
//     small databases with NULLs: compiled vs interpreted results must
//     match bit-for-bit, including row order without any ORDER BY at all.
//  7. Index nested-loop joins: joins into a primary key or a NULL-holding
//     UNIQUE column, NULL outer join values, inner filters of both shapes,
//     and the two cases that must stay hash joins (an inner slot with its
//     own probe, a non-unique inner column) — each checked for its plan and
//     differentially, again after deletes, slot reuse and updates of the
//     join columns.
//  8. Driven joins: two-slot joins whose probe sits on the inner slot and
//     whose outer join column is a foreign key or UNIQUE. NULL and dangling
//     join values, filtered outer slots, residuals, LIMIT with and without
//     ORDER BY (ties included), GROUP BY with SUM/AVG over doubles whose sum
//     depends on the order, and the shapes that must not be driven — each
//     checked for its plan and differentially, again after deletes, slot
//     reuse and join-column updates.
//
// Sections 4 and 6 together run well over 100k differential queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/node.h"
#include "engine/batch.h"
#include "engine/database.h"
#include "engine/eval.h"
#include "engine/executor.h"
#include "engine/program.h"
#include "sql/parser.h"
#include "templates/template.h"
#include "workloads/application.h"

namespace dssp::engine {
namespace {

using catalog::ColumnType;
using catalog::TableSchema;
using sql::CompareOp;
using sql::Value;

// ---------------------------------------------------------------------------
// 1. Filter kernels vs per-row reference.
// ---------------------------------------------------------------------------

// The interpreter's comparison on raw values: NULL on either side is false.
bool RefCompare(const Value& lhs, CompareOp op, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return false;
  return CompareValues(lhs, op, rhs);
}

SelectionVector RefFilterValue(const Table& table, size_t col, CompareOp op,
                               const Value& rhs, const SelectionVector& sel) {
  SelectionVector out;
  for (const uint32_t slot : sel) {
    if (RefCompare(table.RowAt(slot)[col], op, rhs)) out.push_back(slot);
  }
  return out;
}

SelectionVector RefFilterColumn(const Table& table, size_t lhs_col,
                                CompareOp op, size_t rhs_col,
                                const SelectionVector& sel) {
  SelectionVector out;
  for (const uint32_t slot : sel) {
    const Row& row = table.RowAt(slot);
    if (RefCompare(row[lhs_col], op, row[rhs_col])) out.push_back(slot);
  }
  return out;
}

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kLt,
                                 CompareOp::kLe, CompareOp::kGt,
                                 CompareOp::kGe};

class KernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(TableSchema("k",
                                            {{"i", ColumnType::kInt64},
                                             {"d", ColumnType::kDouble},
                                             {"s", ColumnType::kString},
                                             {"i2", ColumnType::kInt64},
                                             {"d2", ColumnType::kDouble}},
                                            /*primary_key=*/{}))
                    .ok());
    Rng rng(99);
    for (int r = 0; r < 200; ++r) {
      Row row(5);
      if (!rng.NextBool(0.15)) {
        row[0] = Value(static_cast<int64_t>(rng.NextBelow(9)) - 4);
      }
      if (!rng.NextBool(0.15)) {
        // A double column legally holds widened int64 values too; mix tags.
        row[1] = rng.NextBool(0.4)
                     ? Value(static_cast<int64_t>(rng.NextBelow(7)) - 3)
                     : Value(static_cast<double>(rng.NextBelow(13)) / 2 - 3);
      }
      if (!rng.NextBool(0.15)) {
        row[2] = Value(std::string(1, static_cast<char>('a' + rng.NextBelow(5))));
      }
      if (!rng.NextBool(0.15)) {
        row[3] = Value(static_cast<int64_t>(rng.NextBelow(9)) - 4);
      }
      if (!rng.NextBool(0.15)) {
        row[4] = rng.NextBool(0.4)
                     ? Value(static_cast<int64_t>(rng.NextBelow(7)) - 3)
                     : Value(static_cast<double>(rng.NextBelow(13)) / 2 - 3);
      }
      ASSERT_TRUE(db_.InsertRow("k", std::move(row)).ok());
    }
    // Dead slots: the kernels must skip them via the selection vector the
    // caller builds from live().
    Table* table = db_.FindMutableTable("k");
    for (size_t slot = 0; slot < table->slot_count(); slot += 17) {
      if (table->IsLive(slot)) table->DeleteSlot(slot);
    }
  }

  const Table& table() const { return db_.GetTable("k"); }

  Database db_;
};

TEST_F(KernelTest, SelectLiveSlotsMatchesAllSlots) {
  SelectionVector sel;
  SelectLiveSlots(table(), &sel);
  const std::vector<size_t> expected = table().AllSlots();
  ASSERT_EQ(sel.size(), expected.size());
  for (size_t i = 0; i < sel.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(sel[i]), expected[i]);
  }
}

TEST_F(KernelTest, ValueKernelsMatchReferenceForEveryTypeAndOp) {
  SelectionVector base;
  SelectLiveSlots(table(), &base);
  const std::vector<Value> rhs_values = {
      Value(static_cast<int64_t>(0)),  Value(static_cast<int64_t>(-2)),
      Value(static_cast<int64_t>(3)),  Value(1.5),
      Value(-0.5),                     Value(2.0),
      Value(std::string("b")),         Value(std::string("d")),
      Value(std::string("")),          Value::Null(),
  };
  for (size_t col = 0; col < 5; ++col) {
    const bool is_string = col == 2;
    for (const CompareOp op : kAllOps) {
      for (const Value& rhs : rhs_values) {
        // Skip combinations the compiler statically rejects.
        if (!rhs.is_null() && is_string != (rhs.type() == sql::ValueType::kString)) {
          continue;
        }
        SelectionVector sel = base;
        FilterColumnVsValue(table(), col, op, rhs, &sel);
        EXPECT_EQ(sel, RefFilterValue(table(), col, op, rhs, base))
            << "col=" << col << " op=" << sql::CompareOpSymbol(op)
            << " rhs=" << rhs.ToSqlLiteral();
      }
    }
  }
}

TEST_F(KernelTest, ColumnKernelsMatchReferenceForEveryPairAndOp) {
  SelectionVector base;
  SelectLiveSlots(table(), &base);
  // Numeric x numeric (int/int, int/double both directions, double/double)
  // and string/string.
  const std::pair<size_t, size_t> pairs[] = {{0, 3}, {0, 1}, {1, 0},
                                             {1, 4}, {2, 2}};
  for (const auto& [lhs, rhs] : pairs) {
    for (const CompareOp op : kAllOps) {
      SelectionVector sel = base;
      FilterColumnVsColumn(table(), lhs, op, rhs, &sel);
      EXPECT_EQ(sel, RefFilterColumn(table(), lhs, op, rhs, base))
          << "lhs=" << lhs << " rhs=" << rhs
          << " op=" << sql::CompareOpSymbol(op);
    }
  }
}

TEST_F(KernelTest, FusedLiveFilterEqualsSelectThenFilter) {
  // The fused single-pass kernels must equal SelectLiveSlots followed by
  // the corresponding compacting filter, for every (col, op, rhs) combo.
  SelectionVector base;
  SelectLiveSlots(table(), &base);
  const std::vector<Value> rhs_values = {
      Value(static_cast<int64_t>(0)), Value(1.5), Value(std::string("b")),
      Value::Null()};
  for (size_t col = 0; col < 5; ++col) {
    const bool is_string = col == 2;
    for (const CompareOp op : kAllOps) {
      for (const Value& rhs : rhs_values) {
        if (!rhs.is_null() &&
            is_string != (rhs.type() == sql::ValueType::kString)) {
          continue;
        }
        SelectionVector two_pass = base;
        FilterColumnVsValue(table(), col, op, rhs, &two_pass);
        SelectionVector fused{99, 7};  // Pre-filled: must be replaced.
        SelectLiveWhereColumnVsValue(table(), col, op, rhs, &fused);
        EXPECT_EQ(fused, two_pass)
            << "col=" << col << " op=" << sql::CompareOpSymbol(op)
            << " rhs=" << rhs.ToSqlLiteral();
      }
    }
  }
  const std::pair<size_t, size_t> pairs[] = {{0, 3}, {0, 1}, {1, 0},
                                             {1, 4}, {2, 2}};
  for (const auto& [lhs, rhs] : pairs) {
    for (const CompareOp op : kAllOps) {
      SelectionVector two_pass = base;
      FilterColumnVsColumn(table(), lhs, op, rhs, &two_pass);
      SelectionVector fused{99, 7};
      SelectLiveWhereColumnVsColumn(table(), lhs, op, rhs, &fused);
      EXPECT_EQ(fused, two_pass) << "lhs=" << lhs << " rhs=" << rhs
                                 << " op=" << sql::CompareOpSymbol(op);
    }
  }
}

TEST_F(KernelTest, SelectionVectorEdgeCases) {
  // Empty in -> empty out.
  SelectionVector sel;
  FilterColumnVsValue(table(), 0, CompareOp::kEq, Value(1), &sel);
  EXPECT_TRUE(sel.empty());

  // NULL rhs clears everything.
  SelectLiveSlots(table(), &sel);
  FilterColumnVsValue(table(), 0, CompareOp::kEq, Value::Null(), &sel);
  EXPECT_TRUE(sel.empty());

  // Single-row vectors keep or drop exactly that row.
  SelectionVector base;
  SelectLiveSlots(table(), &base);
  for (const uint32_t slot : {base.front(), base[base.size() / 2], base.back()}) {
    SelectionVector one{slot};
    FilterColumnVsValue(table(), 2, CompareOp::kGe, Value(std::string("a")),
                        &one);
    EXPECT_EQ(one, RefFilterValue(table(), 2, CompareOp::kGe,
                                  Value(std::string("a")), {slot}));
  }

  // An always-true filter preserves the vector bit-for-bit (all-pass path).
  SelectionVector all = base;
  FilterColumnVsColumn(table(), 0, CompareOp::kEq, 0, &all);
  EXPECT_EQ(all, RefFilterColumn(table(), 0, CompareOp::kEq, 0, base));
}

// ---------------------------------------------------------------------------
// 2. StableTopK vs std::stable_sort.
// ---------------------------------------------------------------------------

TEST(StableTopKTest, PrefixEqualsStableSortForEveryK) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = rng.NextBelow(40);
    std::vector<int> keys(n);
    for (int& k : keys) k = static_cast<int>(rng.NextBelow(5));  // Many ties.
    std::vector<size_t> sorted(n);
    for (size_t i = 0; i < n; ++i) sorted[i] = i;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](size_t a, size_t b) { return keys[a] < keys[b]; });
    for (size_t k = 0; k <= n + 2; ++k) {
      std::vector<size_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      StableTopK(order, k, [&](size_t a, size_t b) {
        return keys[a] < keys[b] ? -1 : (keys[a] > keys[b] ? 1 : 0);
      });
      const size_t expect_n = std::min(k, n);
      ASSERT_EQ(order.size(), k < n ? k : n);
      for (size_t i = 0; i < expect_n; ++i) {
        EXPECT_EQ(order[i], sorted[i]) << "n=" << n << " k=" << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. BoundPredicate vs EvalPredicateOnRow.
// ---------------------------------------------------------------------------

TEST(BoundPredicateTest, MatchesPerRowEvaluatorOnRandomizedPredicates) {
  const TableSchema schema("p",
                           {{"a", ColumnType::kInt64},
                            {"b", ColumnType::kDouble},
                            {"c", ColumnType::kString}},
                           /*primary_key=*/{});
  Rng rng(31);
  const auto random_value = [&]() -> Value {
    switch (rng.NextBelow(4)) {
      case 0:
        return Value(static_cast<int64_t>(rng.NextBelow(5)) - 2);
      case 1:
        return Value(static_cast<double>(rng.NextBelow(9)) / 2 - 2);
      case 2:
        return Value(std::string(1, static_cast<char>('a' + rng.NextBelow(3))));
      default:
        return Value::Null();
    }
  };
  const auto random_operand = [&]() -> sql::Operand {
    switch (rng.NextBelow(8)) {
      case 0:
        return sql::ColumnRef{"", "a"};
      case 1:
        return sql::ColumnRef{"", "b"};
      case 2:
        return sql::ColumnRef{"", "c"};
      case 3:
        return sql::ColumnRef{"p", "a"};
      case 4:
        return sql::ColumnRef{"wrong", "a"};  // Deferred resolution error.
      case 5:
        return sql::ColumnRef{"", "nope"};  // Deferred resolution error.
      case 6:
        return sql::Parameter{0};  // Deferred "unbound parameter" error.
      default:
        return random_value();
    }
  };
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<sql::Comparison> where;
    const size_t n = rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      where.push_back(sql::Comparison{
          random_operand(),
          kAllOps[rng.NextBelow(5)],
          random_operand(),
      });
    }
    const BoundPredicate bound = BoundPredicate::Bind(schema, where);
    for (int r = 0; r < 5; ++r) {
      Row row{random_value(), random_value(), random_value()};
      // Columns must hold fitting values; coerce to declared types.
      if (!row[0].is_null()) row[0] = Value(static_cast<int64_t>(rng.NextBelow(5)));
      if (!row[1].is_null() && row[1].type() == sql::ValueType::kString) {
        row[1] = Value(0.5);
      }
      if (!row[2].is_null()) {
        row[2] = Value(std::string(1, static_cast<char>('a' + rng.NextBelow(3))));
      }
      const StatusOr<bool> expected = EvalPredicateOnRow(schema, where, row);
      const StatusOr<bool> got = bound.Matches(row);
      ASSERT_EQ(got.ok(), expected.ok()) << "trial " << trial;
      if (expected.ok()) {
        EXPECT_EQ(*got, *expected);
      } else {
        EXPECT_EQ(got.status(), expected.status());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared differential helpers.
// ---------------------------------------------------------------------------

void ExpectSameOutcome(const StatusOr<QueryResult>& program,
                       const StatusOr<QueryResult>& interpreter,
                       const std::string& context) {
  ASSERT_EQ(program.ok(), interpreter.ok())
      << context << "\nprogram: "
      << (program.ok() ? "ok" : program.status().ToString())
      << "\ninterpreter: "
      << (interpreter.ok() ? "ok" : interpreter.status().ToString());
  if (interpreter.ok()) {
    // Serialized bytes cover names, row order, values, and the ordered
    // flag — the strongest available equality.
    ASSERT_EQ(program->Serialize(), interpreter->Serialize())
        << context << "\nprogram:\n"
        << program->ToDebugString(30) << "interpreter:\n"
        << interpreter->ToDebugString(30);
  } else {
    EXPECT_EQ(program.status(), interpreter.status()) << context;
  }
}

// What a parameter is compared against, for biasing random bindings.
struct ParamSpec {
  bool is_limit = false;
  std::string table;  // Non-empty when compared with a column.
  size_t col = 0;
};

// Resolves `ref` within `stmt.from` to (physical table, column index).
bool ResolveRef(const sql::SelectStatement& stmt,
                const catalog::Catalog& catalog, const sql::ColumnRef& ref,
                std::string* table, size_t* col) {
  for (const sql::TableRef& from : stmt.from) {
    if (!ref.table.empty() && ref.table != from.effective_name()) continue;
    const catalog::TableSchema* schema = catalog.FindTable(from.table);
    if (schema == nullptr) continue;
    const std::optional<size_t> idx = schema->ColumnIndex(ref.column);
    if (!idx.has_value()) continue;
    *table = from.table;
    *col = *idx;
    return true;
  }
  return false;
}

std::vector<ParamSpec> ParamSpecs(const sql::Statement& stmt,
                                  const catalog::Catalog& catalog) {
  std::vector<ParamSpec> specs(static_cast<size_t>(stmt.num_params));
  const sql::SelectStatement& select = stmt.select();
  for (const sql::Comparison& cmp : select.where) {
    for (const auto& [param_op, other_op] :
         {std::pair(&cmp.lhs, &cmp.rhs), std::pair(&cmp.rhs, &cmp.lhs)}) {
      if (!sql::IsParameter(*param_op) || !sql::IsColumn(*other_op)) continue;
      ParamSpec& spec =
          specs[static_cast<size_t>(std::get<sql::Parameter>(*param_op).index)];
      if (!spec.table.empty()) continue;
      ResolveRef(select, catalog, std::get<sql::ColumnRef>(*other_op),
                 &spec.table, &spec.col);
    }
  }
  if (select.limit.has_value() && sql::IsParameter(*select.limit)) {
    specs[static_cast<size_t>(std::get<sql::Parameter>(*select.limit).index)]
        .is_limit = true;
  }
  return specs;
}

// Draws one binding for `spec`: usually a value sampled from the live data
// of the compared column (so equality probes hit), sometimes a typed
// random value, a NULL, or a deliberately mistyped value (the program must
// reproduce the interpreter's error byte-for-byte).
Value DrawParam(const Database& db, const ParamSpec& spec, Rng& rng) {
  if (spec.is_limit) {
    switch (rng.NextBelow(10)) {
      case 0:
        return Value(static_cast<int64_t>(-1 - rng.NextBelow(3)));
      case 1:
        return Value(std::string("nan"));
      case 2:
        return Value(2.5);
      default:
        return Value(static_cast<int64_t>(rng.NextBelow(12)));
    }
  }
  if (!spec.table.empty() && rng.NextBool(0.6)) {
    const Table& table = db.GetTable(spec.table);
    if (table.slot_count() > 0) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const size_t slot = rng.NextBelow(table.slot_count());
        if (table.IsLive(slot)) return table.RowAt(slot)[spec.col];
      }
    }
  }
  switch (rng.NextBelow(8)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(std::string(1, static_cast<char>('a' + rng.NextBelow(26))));
    case 2:
      return Value(static_cast<double>(rng.NextBelow(500)) / 4);
    default:
      return Value(static_cast<int64_t>(rng.NextBelow(2000)));
  }
}

// ---------------------------------------------------------------------------
// 4. Paper workloads: compile everything, differential under random params.
// ---------------------------------------------------------------------------

class WorkloadProgramTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadProgramTest, EveryTemplateCompilesAndMatchesInterpreter) {
  service::DsspNode node;
  service::ScalableApp app(GetParam(), &node,
                           crypto::KeyRing::FromPassphrase("program-test"));
  auto workload = workloads::MakeApplication(GetParam());
  ASSERT_TRUE(workload->Setup(app, /*scale=*/0.1, /*seed=*/5).ok());
  ASSERT_TRUE(app.Finalize().ok());

  const Database& db = app.home().database();
  Rng rng(2026);
  size_t executed = 0;
  for (const templates::QueryTemplate& tmpl : app.templates().queries()) {
    StatusOr<QueryProgram> program =
        QueryProgram::Compile(db.catalog(), tmpl.statement().select());
    ASSERT_TRUE(program.ok())
        << GetParam() << " " << tmpl.id() << ": " << program.status().ToString();
    EXPECT_EQ(program->num_params(), tmpl.num_params());

    const std::vector<ParamSpec> specs =
        ParamSpecs(tmpl.statement(), db.catalog());
    for (int round = 0; round < 400; ++round) {
      std::vector<Value> params;
      params.reserve(specs.size());
      for (const ParamSpec& spec : specs) {
        params.push_back(DrawParam(db, spec, rng));
      }
      const sql::Statement bound = tmpl.Bind(params);
      ExpectSameOutcome(program->Execute(db, params),
                        db.ExecuteQuery(bound),
                        GetParam() + (" " + tmpl.id()) + " round " +
                            std::to_string(round));
      ++executed;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(executed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Apps, WorkloadProgramTest,
                         ::testing::Values("toystore", "auction", "bboard",
                                           "bookstore"));

// ---------------------------------------------------------------------------
// 5. Home-backend wire path: zero interpreter fallbacks.
// ---------------------------------------------------------------------------

TEST(HomeServerProgramTest, TemplateQueriesNeverFallBackToInterpreter) {
  service::DsspNode node;
  service::ScalableApp app("auction", &node,
                           crypto::KeyRing::FromPassphrase("program-test"));
  auto workload = workloads::MakeApplication("auction");
  ASSERT_TRUE(workload->Setup(app, /*scale=*/0.1, /*seed=*/3).ok());
  ASSERT_TRUE(app.Finalize().ok());

  backend::InMemoryBackend& home = app.home();
  const Database& db = home.database();
  Rng rng(11);
  uint64_t sent = 0;
  for (const templates::QueryTemplate& tmpl : app.templates().queries()) {
    const std::vector<ParamSpec> specs =
        ParamSpecs(tmpl.statement(), db.catalog());
    for (int round = 0; round < 20; ++round) {
      std::vector<Value> params;
      for (const ParamSpec& spec : specs) {
        params.push_back(DrawParam(db, spec, rng));
      }
      const std::string sql = sql::ToSql(tmpl.Bind(params));
      const auto served =
          home.HandleQuery(home.statement_cipher().Encrypt(sql),
                           /*plaintext_result=*/true);
      const auto direct = db.Query(sql);
      ASSERT_EQ(served.ok(), direct.ok()) << sql;
      if (direct.ok()) {
        EXPECT_EQ(*served, direct->Serialize()) << sql;
        ++sent;
      }
    }
  }
  // Every successfully served template instance took the compiled path.
  EXPECT_EQ(home.interpreter_fallback_queries(), 0u);
  EXPECT_EQ(home.program_queries() >= sent, true);

  // A non-template (ad-hoc) query falls back but still answers correctly.
  const std::string adhoc = "SELECT r_name FROM regions WHERE r_id = 2";
  const auto adhoc_result = home.HandleQuery(
      home.statement_cipher().Encrypt(adhoc), /*plaintext_result=*/true);
  ASSERT_TRUE(adhoc_result.ok());
  EXPECT_EQ(*adhoc_result, db.Query(adhoc)->Serialize());
  EXPECT_EQ(home.interpreter_fallback_queries(), 1u);
}

// ---------------------------------------------------------------------------
// 6. Randomized synthetic templates over randomized databases.
// ---------------------------------------------------------------------------

class SyntheticProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SyntheticProgramTest, CompiledMatchesInterpreterBitForBit) {
  Rng rng(GetParam() * 7919 + 1);

  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("ta",
                                         {{"a1", ColumnType::kInt64},
                                          {"a2", ColumnType::kInt64},
                                          {"a3", ColumnType::kString},
                                          {"a4", ColumnType::kDouble}},
                                         /*primary_key=*/{}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("tb",
                                         {{"b1", ColumnType::kInt64},
                                          {"b2", ColumnType::kInt64}},
                                         /*primary_key=*/{}))
                  .ok());
  const auto small_int = [&]() -> Value {
    if (rng.NextBool(0.1)) return Value::Null();
    return Value(static_cast<int64_t>(rng.NextBelow(6)));
  };
  const size_t na = 2 + rng.NextBelow(18);
  for (size_t i = 0; i < na; ++i) {
    Row row(4);
    row[0] = small_int();
    row[1] = small_int();
    if (!rng.NextBool(0.1)) {
      row[2] = Value(std::string(1, static_cast<char>('a' + rng.NextBelow(4))));
    }
    if (!rng.NextBool(0.1)) {
      // Mix int64-tagged and double-tagged values in the double column.
      row[3] = rng.NextBool(0.5)
                   ? Value(static_cast<int64_t>(rng.NextBelow(5)))
                   : Value(static_cast<double>(rng.NextBelow(9)) / 2);
    }
    ASSERT_TRUE(db.InsertRow("ta", std::move(row)).ok());
  }
  const size_t nb = 2 + rng.NextBelow(12);
  for (size_t i = 0; i < nb; ++i) {
    ASSERT_TRUE(db.InsertRow("tb", Row{small_int(), small_int()}).ok());
  }
  // Punch holes so slot ids and index buckets see dead entries.
  {
    Table* ta = db.FindMutableTable("ta");
    for (size_t slot = 1; slot < ta->slot_count(); slot += 5) {
      if (ta->IsLive(slot)) ta->DeleteSlot(slot);
    }
  }

  const char* ops[] = {"=", "<", "<=", ">", ">="};
  const char* a_num_cols[] = {"a1", "a2", "a4"};
  const char* b_cols[] = {"b1", "b2"};

  for (int trial = 0; trial < 60; ++trial) {
    int next_param = 0;
    const bool join = rng.NextBool(0.4);
    const bool aggregate = rng.NextBool(0.3);

    std::string sql = "SELECT ";
    if (aggregate) {
      const bool grouped = rng.NextBool(0.7);
      std::vector<std::string> items;
      if (grouped) items.push_back("a1");
      items.push_back("COUNT(*)");
      if (rng.NextBool(0.5)) items.push_back("SUM(a4)");
      if (rng.NextBool(0.5)) items.push_back("AVG(a2)");
      if (rng.NextBool(0.3)) items.push_back("MIN(a3)");
      if (rng.NextBool(0.3)) items.push_back("MAX(a1)");
      for (size_t i = 0; i < items.size(); ++i) {
        if (i != 0) sql += ", ";
        sql += items[i];
      }
      sql += join ? " FROM ta, tb" : " FROM ta";
      std::string tail_group = grouped ? " GROUP BY a1" : "";
      std::string where;
      const size_t n_conjuncts = rng.NextBelow(3);
      std::vector<std::string> conjuncts;
      for (size_t i = 0; i < n_conjuncts; ++i) {
        const char* op = ops[rng.NextBelow(5)];
        if (rng.NextBool(0.5)) {
          conjuncts.push_back(std::string(a_num_cols[rng.NextBelow(3)]) + " " +
                              op + " ?");
          ++next_param;
        } else {
          conjuncts.push_back(std::string(a_num_cols[rng.NextBelow(2)]) + " " +
                              op + " " + std::to_string(rng.NextBelow(6)));
        }
      }
      if (join) {
        conjuncts.push_back(std::string("a1 = ") + b_cols[rng.NextBelow(2)]);
      }
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        where += (i == 0 ? " WHERE " : " AND ") + conjuncts[i];
      }
      sql += where + tail_group;
      if (grouped && rng.NextBool(0.5)) {
        sql += " ORDER BY a1";
        if (rng.NextBool(0.5)) sql += " DESC";
        if (rng.NextBool(0.5)) {
          if (rng.NextBool(0.5)) {
            sql += " LIMIT " + std::to_string(rng.NextBelow(6));
          } else {
            sql += " LIMIT ?";
            ++next_param;
          }
        }
      }
    } else {
      switch (rng.NextBelow(3)) {
        case 0:
          sql += "*";
          break;
        case 1:
          sql += "a1, a3, a4";
          break;
        default:
          sql += join ? "a2, b1" : "a2, a1";
          break;
      }
      sql += join ? " FROM ta, tb" : " FROM ta";
      std::vector<std::string> conjuncts;
      const size_t n_conjuncts = rng.NextBelow(4);
      for (size_t i = 0; i < n_conjuncts; ++i) {
        const char* op = ops[rng.NextBelow(5)];
        switch (rng.NextBelow(5)) {
          case 0:
            conjuncts.push_back(std::string("a3 ") + op + " ?");
            ++next_param;
            break;
          case 1:
            conjuncts.push_back(std::string(a_num_cols[rng.NextBelow(3)]) +
                                " " + op + " ?");
            ++next_param;
            break;
          case 2:
            conjuncts.push_back(std::string("a3 ") + op + " '" +
                                std::string(1, 'a' + rng.NextBelow(4)) + "'");
            break;
          case 3:
            // Column vs column within ta (incl. double col).
            conjuncts.push_back(std::string(a_num_cols[rng.NextBelow(3)]) +
                                " " + op + " " + a_num_cols[rng.NextBelow(3)]);
            break;
          default:
            conjuncts.push_back(std::string(a_num_cols[rng.NextBelow(2)]) +
                                " " + op + " " +
                                std::to_string(rng.NextBelow(6)));
            break;
        }
      }
      if (join) {
        conjuncts.push_back(std::string(rng.NextBool(0.7) ? "a1" : "a2") +
                            " " + ops[rng.NextBelow(5)] + " " +
                            b_cols[rng.NextBelow(2)]);
      }
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        sql += (i == 0 ? " WHERE " : " AND ") + conjuncts[i];
      }
      if (rng.NextBool(0.5)) {
        // Deliberately partial sort keys: tie order must still match the
        // interpreter exactly.
        sql += " ORDER BY ";
        sql += a_num_cols[rng.NextBelow(3)];
        if (rng.NextBool(0.5)) sql += " DESC";
        if (rng.NextBool(0.4)) {
          sql += ", a3";
          if (rng.NextBool(0.5)) sql += " DESC";
        }
      }
      if (rng.NextBool(0.4)) {
        if (rng.NextBool(0.6)) {
          sql += " LIMIT " + std::to_string(rng.NextBelow(8));
        } else {
          sql += " LIMIT ?";
          ++next_param;
        }
      }
    }

    SCOPED_TRACE(sql);
    const sql::Statement stmt = sql::ParseOrDie(sql);
    ASSERT_EQ(stmt.num_params, next_param);
    const StatusOr<QueryProgram> program =
        QueryProgram::Compile(db.catalog(), stmt.select());

    for (int round = 0; round < 70; ++round) {
      std::vector<Value> params;
      for (int p = 0; p < next_param; ++p) {
        switch (rng.NextBelow(10)) {
          case 0:
            params.push_back(Value::Null());
            break;
          case 1:
            params.push_back(Value(
                std::string(1, static_cast<char>('a' + rng.NextBelow(4)))));
            break;
          case 2:
            params.push_back(Value(static_cast<double>(rng.NextBelow(9)) / 2));
            break;
          case 3:
            params.push_back(Value(static_cast<int64_t>(rng.NextBelow(4)) - 2));
            break;
          default:
            params.push_back(Value(static_cast<int64_t>(rng.NextBelow(7))));
            break;
        }
      }
      const sql::Statement bound = sql::BindParameters(stmt, params);
      const StatusOr<QueryResult> interpreted = db.ExecuteQuery(bound);
      if (!program.ok()) {
        // Compilation rejects only statements the interpreter also rejects,
        // with the same error, for every binding.
        ASSERT_FALSE(interpreted.ok());
        EXPECT_EQ(program.status(), interpreted.status());
        continue;
      }
      ExpectSameOutcome(program->Execute(db, params), interpreted,
                        "round " + std::to_string(round));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticProgramTest,
                         ::testing::Range<uint64_t>(1, 31));

// ---------------------------------------------------------------------------
// 7. Index nested-loop joins.
// ---------------------------------------------------------------------------

class IndexJoinTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // A join template, the plan it must compile to, and how to draw each of
  // its parameters: 'i' a small int (sometimes NULL), 's' a tag string
  // (sometimes NULL), 'l' a LIMIT.
  struct Case {
    const char* sql;
    size_t index_joins;
    bool full_scan;
    const char* params;
  };

  void SetUp() override {
    rng_ = Rng(GetParam() * 104729 + 7);
    // o_tag is UNIQUE and nullable; o_score has duplicates; o_lo/o_hi feed
    // a column-vs-column filter.
    ASSERT_TRUE(db_.CreateTable(TableSchema("owners",
                                            {{"o_id", ColumnType::kInt64},
                                             {"o_tag", ColumnType::kString},
                                             {"o_score", ColumnType::kInt64},
                                             {"o_lo", ColumnType::kInt64},
                                             {"o_hi", ColumnType::kInt64}},
                                            {"o_id"}, /*foreign_keys=*/{},
                                            /*unique_columns=*/{"o_tag"}))
                    .ok());
    // No foreign key on i_owner: dangling and NULL join values both occur.
    ASSERT_TRUE(db_.CreateTable(TableSchema("items",
                                            {{"i_id", ColumnType::kInt64},
                                             {"i_owner", ColumnType::kInt64},
                                             {"i_tag", ColumnType::kString},
                                             {"i_grp", ColumnType::kInt64},
                                             {"i_val", ColumnType::kDouble}},
                                            {"i_id"}))
                    .ok());
    for (int64_t o = 0; o < 24; ++o) InsertOwner(o);
    for (int64_t i = 0; i < 90; ++i) InsertItem(i);
  }

  Value SmallInt(uint64_t below) {
    return Value(static_cast<int64_t>(rng_.NextBelow(below)));
  }
  Value Tag() { return Value("t" + std::to_string(rng_.NextBelow(30))); }

  void InsertOwner(int64_t id) {
    // Unique tags: the id's own tag or NULL.
    Value tag = rng_.NextBool(0.2) ? Value::Null()
                                   : Value("t" + std::to_string(id));
    ASSERT_TRUE(db_.InsertRow("owners", Row{Value(id), std::move(tag),
                                            SmallInt(4), SmallInt(5),
                                            SmallInt(5)})
                    .ok());
  }

  void InsertItem(int64_t id) {
    Value owner = rng_.NextBool(0.15) ? Value::Null() : SmallInt(30);
    Value tag = rng_.NextBool(0.15) ? Value::Null() : Tag();
    Value val = rng_.NextBool(0.5)
                    ? SmallInt(6)
                    : Value(static_cast<double>(rng_.NextBelow(12)) / 2);
    ASSERT_TRUE(db_.InsertRow("items", Row{Value(id), std::move(owner),
                                           std::move(tag), SmallInt(5),
                                           std::move(val)})
                    .ok());
  }

  std::vector<Value> DrawParams(const char* spec) {
    std::vector<Value> params;
    for (const char* c = spec; *c != '\0'; ++c) {
      switch (*c) {
        case 'i':
          params.push_back(rng_.NextBool(0.05) ? Value::Null() : SmallInt(5));
          break;
        case 's':
          params.push_back(rng_.NextBool(0.05) ? Value::Null() : Tag());
          break;
        default:
          params.push_back(SmallInt(12));
          break;
      }
    }
    return params;
  }

  // Every case, many bindings: compiled == interpreted, bit for bit.
  void RunDifferential(const std::vector<Case>& cases,
                       const std::string& phase) {
    for (const Case& c : cases) {
      SCOPED_TRACE(phase + ": " + c.sql);
      const sql::Statement stmt = sql::ParseOrDie(c.sql);
      StatusOr<QueryProgram> program =
          QueryProgram::Compile(db_.catalog(), stmt.select());
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      EXPECT_EQ(program->num_index_joins(), c.index_joins);
      EXPECT_EQ(program->uses_full_scan(), c.full_scan);
      for (int round = 0; round < 40; ++round) {
        const std::vector<Value> params = DrawParams(c.params);
        ExpectSameOutcome(program->Execute(db_, params),
                          db_.ExecuteQuery(sql::BindParameters(stmt, params)),
                          "round " + std::to_string(round));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  Rng rng_{1};
  Database db_;
};

TEST_P(IndexJoinTest, MatchesInterpreterThroughDeletesReuseAndUpdates) {
  const std::vector<Case> cases = {
      // Inner primary key; no filter on the outer side either.
      {"SELECT * FROM items, owners WHERE i_owner = o_id", 1, true, ""},
      {"SELECT i_id, o_tag FROM items, owners WHERE i_grp = ? AND "
       "o_id = i_owner",
       1, false, "i"},
      // ORDER BY with ties, LIMIT cuts.
      {"SELECT i_id, o_score FROM items, owners WHERE i_owner = o_id "
       "ORDER BY o_score DESC LIMIT ?",
       1, true, "l"},
      {"SELECT i_grp, COUNT(*), SUM(i_val) FROM items, owners WHERE "
       "i_owner = o_id GROUP BY i_grp ORDER BY i_grp",
       1, true, ""},
      // Inner UNIQUE column holding NULLs; NULL outer tags.
      {"SELECT i_id, o_id FROM items, owners WHERE i_tag = o_tag", 1, true,
       ""},
      // Inner filters: column vs value (both sides of the operator) and
      // column vs column.
      {"SELECT i_id, o_id, o_score FROM items, owners WHERE i_owner = o_id "
       "AND o_score >= ? AND ? > o_lo",
       1, true, "ii"},
      {"SELECT i_id, o_lo, o_hi FROM items, owners WHERE i_grp = ? AND "
       "o_lo <= o_hi AND i_owner = o_id ORDER BY o_lo LIMIT 5",
       1, false, "i"},
      // A residual beyond the equi conjunct, and a range on the inner key.
      {"SELECT i_id, o_id FROM items, owners WHERE i_owner = o_id AND "
       "i_grp < o_score AND o_id > ?",
       1, true, "i"},
      // Three slots: two index joins chained through owners.o_tag.
      {"SELECT i.i_id, o.o_id, p.o_id FROM items i, owners o, owners p "
       "WHERE i.i_owner = o.o_id AND o.o_tag = p.o_tag AND p.o_score = ?",
       1, true, "i"},
      {"SELECT i.i_id, p.o_id FROM items i, owners o, owners p "
       "WHERE i.i_owner = o.o_id AND p.o_tag = o.o_tag ORDER BY p.o_score",
       2, true, ""},
      // Inner slot with its own probe: stays a hash join.
      {"SELECT i_id, o_id FROM items, owners WHERE o_score = ? AND "
       "i_owner = o_id",
       0, true, "i"},
      {"SELECT i_id, o_id FROM items, owners WHERE i_id = ? AND "
       "o_tag = ? AND i_tag = o_tag",
       0, false, "is"},
      // Non-unique inner column: stays a hash join (multi-match order).
      {"SELECT o_id, i_id FROM owners, items WHERE o_id = i_owner", 0, true,
       ""},
      {"SELECT o_id, i_id FROM owners, items WHERE o_score = ? AND "
       "i_tag = o_tag ORDER BY i_grp LIMIT ?",
       0, true, "il"},
  };
  RunDifferential(cases, "fresh");
  if (HasFatalFailure()) return;

  // Deletes punch holes; reinserts reuse the freed slots (new ids, so the
  // index buckets see both dead and recycled entries).
  ASSERT_TRUE(db_.Update("DELETE FROM owners WHERE o_score = 1").ok());
  ASSERT_TRUE(db_.Update("DELETE FROM items WHERE i_grp = 2").ok());
  for (int64_t o = 24; o < 30; ++o) InsertOwner(o);
  for (int64_t i = 90; i < 110; ++i) InsertItem(i);
  RunDifferential(cases, "after deletes and slot reuse");
  if (HasFatalFailure()) return;

  // Move join values: outer foreign values, and inner UNIQUE tags (freed
  // by a NULL first so uniqueness holds at every step).
  for (int k = 0; k < 25; ++k) {
    const int64_t item = static_cast<int64_t>(rng_.NextBelow(110));
    ASSERT_TRUE(db_.Update("UPDATE items SET i_owner = " +
                           std::to_string(rng_.NextBelow(30)) +
                           " WHERE i_id = " + std::to_string(item))
                    .ok());
  }
  for (int k = 0; k < 10; ++k) {
    const std::string tag = "'t" + std::to_string(rng_.NextBelow(30)) + "'";
    ASSERT_TRUE(
        db_.Update("UPDATE owners SET o_tag = NULL WHERE o_tag = " + tag)
            .ok());
    ASSERT_TRUE(db_.Update("UPDATE owners SET o_tag = " + tag +
                           " WHERE o_id = " +
                           std::to_string(rng_.NextBelow(30)))
                    .ok());
  }
  RunDifferential(cases, "after join-column updates");
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexJoinTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// 8. Driven joins.
// ---------------------------------------------------------------------------

class DrivenJoinTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // A join template, the plan it must compile to, and how to draw each of
  // its parameters: 'i' a small int (sometimes NULL), 'l' a LIMIT.
  struct Case {
    const char* sql;
    size_t driven_joins;
    size_t index_joins;
    bool full_scan;
    const char* params;
  };

  void SetUp() override {
    rng_ = Rng(GetParam() * 15485863 + 3);
    // a_code is UNIQUE and nullable; a_w is a UNIQUE double.
    ASSERT_TRUE(db_.CreateTable(TableSchema("authors",
                                            {{"a_id", ColumnType::kInt64},
                                             {"a_code", ColumnType::kString},
                                             {"a_grp", ColumnType::kInt64},
                                             {"a_score", ColumnType::kInt64},
                                             {"a_w", ColumnType::kDouble}},
                                            {"a_id"}, /*foreign_keys=*/{},
                                            /*unique_columns=*/
                                            {"a_code", "a_w"}))
                    .ok());
    // b_author is a foreign key, so it is indexed from creation. Dangling
    // values appear once authors are deleted or b_author is updated.
    ASSERT_TRUE(
        db_.CreateTable(TableSchema(
                            "books",
                            {{"b_id", ColumnType::kInt64},
                             {"b_author", ColumnType::kInt64},
                             {"b_grp", ColumnType::kInt64},
                             {"b_lo", ColumnType::kInt64},
                             {"b_hi", ColumnType::kInt64},
                             {"b_price", ColumnType::kDouble}},
                            {"b_id"},
                            {catalog::ForeignKey{"b_author", "authors",
                                                 "a_id"}}))
            .ok());
    for (int64_t a = 0; a < 30; ++a) InsertAuthor(a);
    for (int64_t b = 0; b < 150; ++b) InsertBook(b);
  }

  Value SmallInt(uint64_t below) {
    return Value(static_cast<int64_t>(rng_.NextBelow(below)));
  }

  void InsertAuthor(int64_t id) {
    Value code = rng_.NextBool(0.2) ? Value::Null()
                                    : Value("c" + std::to_string(id % 40));
    Value w = rng_.NextBool(0.2) ? Value::Null()
                                 : Value(static_cast<double>(id) / 2);
    ASSERT_TRUE(db_.InsertRow("authors",
                              Row{Value(id), std::move(code), SmallInt(4),
                                  SmallInt(3), std::move(w)})
                    .ok());
  }

  // Book ids are distinct; the author is NULL or drawn from
  // [author_lo, author_lo + num_authors), all of them live.
  void InsertBook(int64_t id, int64_t author_lo = 0,
                  uint64_t num_authors = 30) {
    // Magnitudes far apart make a double SUM depend on its order.
    static const double kPrices[] = {1e16, -1e16, 0.1, 3.3, 1.0, 7e15};
    Value author =
        rng_.NextBool(0.15)
            ? Value::Null()
            : Value(author_lo +
                    static_cast<int64_t>(rng_.NextBelow(num_authors)));
    Value price = rng_.NextBool(0.1)
                      ? Value::Null()
                      : Value(kPrices[rng_.NextBelow(std::size(kPrices))]);
    ASSERT_TRUE(db_.InsertRow("books",
                              Row{Value(id), std::move(author), SmallInt(5),
                                  SmallInt(5), SmallInt(5), std::move(price)})
                    .ok());
  }

  std::vector<Value> DrawParams(const char* spec) {
    std::vector<Value> params;
    for (const char* c = spec; *c != '\0'; ++c) {
      if (*c == 'i') {
        params.push_back(rng_.NextBool(0.05) ? Value::Null() : SmallInt(5));
      } else {
        params.push_back(SmallInt(12));
      }
    }
    return params;
  }

  void RunDifferential(const std::vector<Case>& cases,
                       const std::string& phase) {
    for (const Case& c : cases) {
      SCOPED_TRACE(phase + ": " + c.sql);
      const sql::Statement stmt = sql::ParseOrDie(c.sql);
      StatusOr<QueryProgram> program =
          QueryProgram::Compile(db_.catalog(), stmt.select());
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      EXPECT_EQ(program->num_driven_joins(), c.driven_joins);
      EXPECT_EQ(program->num_index_joins(), c.index_joins);
      EXPECT_EQ(program->uses_full_scan(), c.full_scan);
      for (int round = 0; round < 40; ++round) {
        const std::vector<Value> params = DrawParams(c.params);
        ExpectSameOutcome(program->Execute(db_, params),
                          db_.ExecuteQuery(sql::BindParameters(stmt, params)),
                          "round " + std::to_string(round));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  Rng rng_{1};
  Database db_;
};

TEST_P(DrivenJoinTest, MatchesInterpreterThroughDeletesReuseAndUpdates) {
  const std::vector<Case> cases = {
      // The basic shape, and with the join conjunct's sides swapped.
      {"SELECT * FROM books, authors WHERE a_grp = ? AND b_author = a_id", 1,
       0, false, "i"},
      {"SELECT b_id, a_score FROM books, authors WHERE a_id = b_author AND "
       "a_score = ?",
       1, 0, false, "i"},
      // Filtered outer slot: column vs value on either side, column vs
      // column; plus an inner filter beside the probe.
      {"SELECT b_id, a_id FROM books, authors WHERE b_grp < ? AND "
       "a_grp = ? AND ? <= b_hi AND b_author = a_id",
       1, 0, false, "iii"},
      {"SELECT b_id, b_lo, b_hi FROM books, authors WHERE b_lo <= b_hi AND "
       "a_grp = ? AND a_score > ? AND b_author = a_id",
       1, 0, false, "ii"},
      // A residual beyond the equi conjunct.
      {"SELECT b_id, a_id FROM books, authors WHERE b_author = a_id AND "
       "a_grp = ? AND b_grp < a_score",
       1, 0, false, "i"},
      // LIMIT without ORDER BY: the cut depends on the tuple order alone.
      {"SELECT b_id, a_id FROM books, authors WHERE a_grp = ? AND "
       "b_author = a_id LIMIT ?",
       1, 0, false, "il"},
      // ORDER BY with ties, LIMIT cuts through them.
      {"SELECT b_id, a_score FROM books, authors WHERE a_grp = ? AND "
       "b_author = a_id ORDER BY a_score DESC LIMIT ?",
       1, 0, false, "il"},
      {"SELECT b_id, b_grp FROM books, authors WHERE a_score = ? AND "
       "b_author = a_id ORDER BY b_grp",
       1, 0, false, "i"},
      // GROUP BY with SUM and AVG over doubles: the summation order shows.
      {"SELECT b_grp, SUM(b_price), AVG(b_price), COUNT(*) FROM books, "
       "authors WHERE a_grp = ? AND b_author = a_id GROUP BY b_grp",
       1, 0, false, "i"},
      {"SELECT SUM(b_price), AVG(b_price), MIN(b_id) FROM books, authors "
       "WHERE a_score = ? AND b_author = a_id",
       1, 0, false, "i"},
      {"SELECT b_author, SUM(b_price) FROM books, authors WHERE a_grp = ? "
       "AND b_author = a_id GROUP BY b_author ORDER BY b_author DESC LIMIT ?",
       1, 0, false, "il"},
      // String join through a UNIQUE outer column (a self-join), NULL codes
      // on both sides.
      {"SELECT p.a_id, q.a_id FROM authors p, authors q WHERE q.a_grp = ? "
       "AND p.a_code = q.a_code",
       1, 0, false, "i"},
      // Not driven: the outer slot has its own probe.
      {"SELECT b_id, a_id FROM books, authors WHERE b_grp = ? AND "
       "a_grp = ? AND b_author = a_id",
       0, 0, false, "ii"},
      // Not driven: the outer join column is not always indexed.
      {"SELECT b_id, a_id FROM books, authors WHERE a_grp = ? AND "
       "b_grp = a_id",
       0, 0, true, "i"},
      // Not driven: the join columns' types differ (int vs double).
      {"SELECT b_id, a_id FROM books, authors WHERE a_grp = ? AND "
       "b_author = a_w",
       0, 0, true, "i"},
      // Not driven: the inner join column is not unique.
      {"SELECT a_id, b_id FROM authors, books WHERE b_grp = ? AND "
       "a_id = b_author",
       0, 0, true, "i"},
      // Not driven: three slots (the second stage is an index join).
      {"SELECT b.b_id, a.a_id, c.a_id FROM books b, authors a, authors c "
       "WHERE a.a_grp = ? AND b.b_author = a.a_id AND a.a_code = c.a_code",
       0, 1, true, "i"},
  };
  RunDifferential(cases, "fresh");
  if (HasFatalFailure()) return;

  // Deleted authors leave their books dangling; deleted books free slots
  // that new books (some referencing the new authors) reuse.
  ASSERT_TRUE(db_.Update("DELETE FROM authors WHERE a_score = 1").ok());
  ASSERT_TRUE(db_.Update("DELETE FROM books WHERE b_grp = 2").ok());
  for (int64_t a = 30; a < 36; ++a) InsertAuthor(a);
  for (int64_t b = 150; b < 190; ++b) {
    InsertBook(b, /*author_lo=*/30, /*num_authors=*/6);
    if (HasFatalFailure()) return;
  }
  RunDifferential(cases, "after deletes and slot reuse");
  if (HasFatalFailure()) return;

  // Move join values: foreign values (dangling ones included) and the
  // UNIQUE codes (freed by a NULL first so uniqueness holds at every step).
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(db_.Update("UPDATE books SET b_author = " +
                           std::to_string(rng_.NextBelow(40)) +
                           " WHERE b_id = " +
                           std::to_string(rng_.NextBelow(190)))
                    .ok());
  }
  for (int k = 0; k < 10; ++k) {
    const std::string code = "'c" + std::to_string(rng_.NextBelow(40)) + "'";
    ASSERT_TRUE(
        db_.Update("UPDATE authors SET a_code = NULL WHERE a_code = " + code)
            .ok());
    ASSERT_TRUE(db_.Update("UPDATE authors SET a_code = " + code +
                           " WHERE a_id = " +
                           std::to_string(rng_.NextBelow(36)))
                    .ok());
  }
  RunDifferential(cases, "after join-column updates");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DrivenJoinTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace dssp::engine
