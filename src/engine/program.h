#ifndef DSSP_ENGINE_PROGRAM_H_
#define DSSP_ENGINE_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "engine/query_result.h"
#include "sql/ast.h"
#include "sql/value.h"

namespace dssp::engine {

class Database;

// A SELECT template compiled once — at RegisterApp / AddQueryTemplate time —
// into a direct-coordinate op sequence: the index-probe vs full-scan choice,
// pre-resolved (slot, column) coordinates, typed filter kernels over the
// Table's columnar sidecar (engine/batch.h), the join plans, the projection
// map, and the aggregate / ORDER BY / LIMIT tail. Execution binds parameters
// into value slots and runs the ops with zero name resolution, zero AST
// walking, and no per-row sql::Value materialization on the filter path.
//
// Each join stage (FROM slot s >= 1, joined to the tuples of slots < s)
// runs one of four plans, chosen at compile time:
//  - driven join: a two-slot program whose outer slot 0 has no probe of its
//    own, whose slot 1 has a selective `= ?` probe and a unique join
//    column, and whose slot-0 join column is always indexed (PK, UNIQUE or
//    FK) with the same non-double type. Slot 1's candidates drive: each
//    probes slot 0's join-column index, and the matched pairs are sorted by
//    slot-0 slot. Each slot-0 row matches at most one slot-1 row, so that is
//    exactly the hash join's tuple sequence, without scanning slot 0;
//  - index nested-loop join: slot s has no probe and a unique join column;
//    each tuple probes slot s's index once, at most one row matching;
//  - hash join: built over slot s's candidates, probed per tuple;
//  - cross product, when no equi-join conjunct links slot s.
//
// Contract: for every parameter binding, Execute() is bit-identical to
// ExecuteSelect(db, BindParameters(stmt, params)) — same rows in the same
// order (including hash-join and aggregate iteration order and ORDER BY tie
// order), same column names, same ordered flag, and the same error text for
// the runtime failures that survive compilation (parameter type mismatches,
// invalid LIMIT bindings). The row-at-a-time interpreter stays authoritative:
// anything Compile() rejects falls back to it, and tests/engine_program_test
// holds the two in randomized differential lockstep.
class QueryProgram {
 public:
  // Compiles `stmt` (which may contain `?` parameters) against `catalog`.
  // Needs no populated database, so static analysis (tools/dssp_audit) can
  // verify a template compiles without instantiating the application.
  // Returns the same error ExecuteSelect would for statements the engine
  // cannot execute (unknown tables/columns, incomparable literal types,
  // aggregate-shape violations, ...).
  static StatusOr<QueryProgram> Compile(const catalog::Catalog& catalog,
                                        const sql::SelectStatement& stmt);

  // Executes against `db` (built from the catalog the program was compiled
  // with) binding `params` positionally. `params.size()` must equal
  // num_params().
  StatusOr<QueryResult> Execute(const Database& db,
                                const std::vector<sql::Value>& params) const;

  int num_params() const { return num_params_; }

  // True if any FROM slot is accessed by full scan (neither an equality
  // index probe, an index join, nor the outer slot of a driven join) — the
  // "scan-heavy" class the vectorized kernels accelerate most.
  bool uses_full_scan() const;

  // Number of FROM slots (tables joined).
  size_t num_slots() const { return slots_.size(); }

  // Number of FROM slots joined by an index nested-loop join.
  size_t num_index_joins() const;

  // Number of FROM slots that drive the join from their own probe (0 or 1).
  size_t num_driven_joins() const;

 private:
  // (FROM slot, column index) — a name resolved at compile time.
  struct Coord {
    uint32_t slot = 0;
    uint32_t col = 0;
  };

  // A runtime value: a literal baked into the program or a parameter bound
  // per execution.
  struct ValueRef {
    bool is_param = false;
    int param_index = 0;
    sql::Value literal;

    const sql::Value& Get(const std::vector<sql::Value>& params) const {
      return is_param ? params[static_cast<size_t>(param_index)] : literal;
    }
  };

  // An operand of a residual (join) comparison.
  struct OperandCode {
    bool is_column = false;
    Coord coord;
    ValueRef value;
  };

  // A comparison evaluated per joined tuple (in WHERE conjunct order).
  struct Residual {
    OperandCode lhs;
    sql::CompareOp op;
    OperandCode rhs;
  };

  // A single-table filter, pre-normalized so the column is on the left
  // (op reversed when the source conjunct had it on the right); executed as
  // a typed kernel over the selection vector.
  struct Filter {
    bool col_vs_col = false;
    uint32_t col = 0;
    sql::CompareOp op = sql::CompareOp::kEq;
    ValueRef value;     // !col_vs_col
    uint32_t rhs_col = 0;  // col_vs_col
  };

  // Access + join plan for one FROM slot.
  struct SlotPlan {
    std::string table_name;
    bool probe = false;  // Equality index probe vs full scan.
    uint32_t probe_col = 0;
    ValueRef probe_value;
    std::vector<Filter> filters;  // Remaining single-table conjuncts.
    // Join with the already-built tuple set (slots >= 1 only).
    bool hash_join = false;
    // Set with hash_join when build_col is unique and the slot has no probe
    // of its own: probe the table per tuple instead of scanning + building.
    bool index_join = false;
    // Set with hash_join on slot 1 of a two-slot program (see the class
    // comment): slot 1's candidates probe slot 0's join-column index.
    bool driven_join = false;
    uint32_t build_col = 0;  // Join column in this slot.
    Coord probe_coord;       // Join column in an earlier slot.
    // Conjuncts that become evaluable at this stage, original order
    // (includes the hash-join equi conjunct: re-checked per match, exactly
    // like the interpreter does on hash collisions).
    std::vector<Residual> residuals;
  };

  // A conjunct with no column operands: evaluated once per execution.
  struct ConstantConjunct {
    ValueRef lhs;
    sql::CompareOp op;
    ValueRef rhs;
  };

  // Comparability check deferred to Execute because at least one side is a
  // parameter (type class unknown at compile time). Checked in original
  // conjunct order, mirroring the interpreter's BindWhere pass.
  struct DeferredTypeCheck {
    // Type class: 0 numeric, 1 string, -1 NULL; kFromParam means "class of
    // the bound parameter".
    static constexpr int kFromParam = -2;
    int lhs_class = 0;
    int lhs_param = 0;
    int rhs_class = 0;
    int rhs_param = 0;
  };

  // One output column of the aggregate tail.
  struct AggItem {
    sql::AggregateFunc func = sql::AggregateFunc::kNone;
    bool star = false;
    bool has_col = false;
    Coord coord;          // Aggregate argument (when has_col).
    int group_index = -1;  // For non-aggregate (group key) items.
  };

  class Compiler;  // Implements Compile(); mirrors the interpreter's binder.

  StatusOr<QueryResult> ExecuteImpl(
      const Database& db, const std::vector<sql::Value>& params) const;

  // --- Program (immutable after Compile). ---
  int num_params_ = 0;
  std::vector<SlotPlan> slots_;
  std::vector<ConstantConjunct> constants_;
  std::vector<DeferredTypeCheck> deferred_checks_;
  // LIMIT: resolved at compile for literals; params re-validated per run.
  bool has_limit_ = false;
  ValueRef limit_;
  // Non-aggregate tail.
  std::vector<Coord> out_cols_;
  std::vector<std::string> out_names_;
  // Aggregate tail (aggregate_ selects which tail runs).
  bool aggregate_ = false;
  std::vector<Coord> group_cols_;
  std::vector<AggItem> agg_items_;
  // ORDER BY: coordinates for the non-aggregate path, output-column indices
  // for the aggregate path.
  std::vector<std::pair<Coord, bool>> order_coords_;
  std::vector<std::pair<size_t, bool>> order_keys_;
  bool ordered_ = false;
};

}  // namespace dssp::engine

#endif  // DSSP_ENGINE_PROGRAM_H_
