#include "backend/in_memory_backend.h"

#include <algorithm>
#include <utility>

#include "backend/host.h"
#include "engine/program.h"
#include "engine/table.h"
#include "sql/parser.h"
#include "templates/template.h"

namespace dssp::backend {

InMemoryBackend::InMemoryBackend(std::string app_id, crypto::KeyRing keyring,
                                 BackendOptions options)
    : app_id_(std::move(app_id)),
      keyring_(std::move(keyring)),
      statement_cipher_(keyring_.CipherFor("statement")),
      parameter_cipher_(keyring_.CipherFor("params")),
      result_cipher_(keyring_.CipherFor("result")),
      private_pool_(options.pool) {}

ConnectionPool& InMemoryBackend::pool() {
  return host_ != nullptr ? host_->pool() : private_pool_;
}

const ConnectionPool& InMemoryBackend::pool() const {
  return host_ != nullptr ? host_->pool() : private_pool_;
}

void InMemoryBackend::AttachHost(BackendHost* host) {
  // Re-attach is allowed (a tenant re-run under a new topology moves hosts);
  // the last host wins and the old pool simply stops being consulted.
  host_ = host;
}

Status InMemoryBackend::AddQueryTemplate(std::string_view sql) {
  DSSP_RETURN_IF_ERROR(templates_.AddQuerySql(sql, database_.catalog()));
  // Prepare the template. A compile failure is not an error (the
  // interpreter serves that template) but is what the dssp_audit
  // PERF-UNPLANNED-QUERY finding reports.
  const size_t index = templates_.queries().size() - 1;
  const templates::QueryTemplate& tmpl = templates_.queries()[index];
  database_.IndexEqualityColumns(tmpl.statement());
  StatusOr<engine::QueryProgram> program = engine::QueryProgram::Compile(
      database_.catalog(), tmpl.statement().select());
  std::optional<engine::QueryProgram>& prepared = programs_.emplace_back();
  if (program.ok()) prepared = std::move(program).value();
  shape_to_queries_[templates::SelectShapeKey(tmpl.statement().select())]
      .push_back(index);
  return Status::Ok();
}

Status InMemoryBackend::AddUpdateTemplate(std::string_view sql) {
  DSSP_RETURN_IF_ERROR(templates_.AddUpdateSql(sql, database_.catalog()));
  database_.IndexEqualityColumns(templates_.updates().back().statement());
  return Status::Ok();
}

TableMetadata InMemoryBackend::ComputeMetadata(
    const catalog::TableSchema& schema) const {
  TableMetadata meta;
  meta.table = schema.name();
  meta.columns.reserve(schema.columns().size());
  for (const catalog::Column& column : schema.columns()) {
    meta.columns.push_back(column.name);
  }
  for (size_t i = 0; i < schema.primary_key().size(); ++i) {
    if (i > 0) meta.primary_key += ",";
    meta.primary_key += schema.primary_key()[i];
  }
  const engine::Table* table = database_.FindTable(schema.name());
  meta.row_count = table == nullptr ? 0 : table->num_rows();
  meta.computed_at_s = now_s();
  return meta;
}

std::vector<std::string> InMemoryBackend::TableNames() const {
  return database_.catalog().TableNames();
}

StatusOr<TableMetadata> InMemoryBackend::DescribeTable(std::string_view table) {
  const catalog::TableSchema* schema = database_.catalog().FindTable(table);
  if (schema == nullptr) {
    return NotFoundError("no such table: " + std::string(table));
  }
  return ComputeMetadata(*schema);
}

void InMemoryBackend::Tick(double now_s) {
  // Monotone max without CAS precision games: concurrent Ticks from the
  // simulator are already ordered.
  if (now_s > now_s_.load(std::memory_order_relaxed)) {
    now_s_.store(now_s, std::memory_order_relaxed);
  }
}

StatusOr<std::string> InMemoryBackend::HandleQuery(std::string_view ciphertext,
                                                   bool plaintext_result) {
  const std::string sql = statement_cipher().Decrypt(ciphertext);
  DSSP_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  const ConnectionPool::Lease lease = pool().Acquire();
  DSSP_ASSIGN_OR_RETURN(engine::QueryResult result, ExecuteParsedQuery(stmt));
  queries_executed_.fetch_add(1, std::memory_order_relaxed);
  std::string serialized = result.Serialize();
  if (plaintext_result) return serialized;
  return result_cipher().Encrypt(serialized);
}

StatusOr<engine::QueryResult> InMemoryBackend::ExecuteParsedQuery(
    const sql::Statement& stmt) {
  if (stmt.kind() == sql::StatementKind::kSelect && stmt.num_params == 0) {
    const auto it =
        shape_to_queries_.find(templates::SelectShapeKey(stmt.select()));
    if (it != shape_to_queries_.end()) {
      std::vector<sql::Value> params;
      for (const size_t index : it->second) {
        const std::optional<engine::QueryProgram>& program = programs_[index];
        if (!program.has_value()) continue;
        if (!templates_.queries()[index].MatchInstance(stmt.select(),
                                                       &params)) {
          continue;
        }
        program_queries_.fetch_add(1, std::memory_order_relaxed);
        return program->Execute(database_, params);
      }
    }
  }
  interpreter_fallback_queries_.fetch_add(1, std::memory_order_relaxed);
  return database_.ExecuteQuery(stmt);
}

StatusOr<engine::UpdateEffect> InMemoryBackend::HandleUpdate(
    std::string_view ciphertext, uint64_t nonce) {
  const std::string sql = statement_cipher().Decrypt(ciphertext);
  DSSP_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  const ConnectionPool::Lease lease = pool().Acquire();
  if (nonce == 0) {
    DSSP_ASSIGN_OR_RETURN(engine::UpdateEffect effect,
                          database_.ExecuteUpdate(stmt));
    updates_applied_.fetch_add(1, std::memory_order_relaxed);
    return effect;
  }
  // Nonce-carrying update: the dedup check and the apply form one critical
  // section, so a retry racing the original cannot apply twice.
  MutexLock lock(dedup_mu_);
  if (const engine::UpdateEffect* seen = applied_nonces_.Find(nonce)) {
    duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return *seen;
  }
  DSSP_ASSIGN_OR_RETURN(engine::UpdateEffect effect,
                        database_.ExecuteUpdate(stmt));
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  applied_nonces_.Insert(nonce, effect);
  return effect;
}

HomeBackendStats InMemoryBackend::Stats() const {
  HomeBackendStats out;
  out.queries_executed = queries_executed();
  out.updates_applied = updates_applied();
  out.duplicates_suppressed = duplicates_suppressed();
  out.program_queries = program_queries();
  out.interpreter_fallback_queries = interpreter_fallback_queries();
  out.tables_total = database_.catalog().num_tables();
  out.statements.hits = out.program_queries;
  out.statements.entries = static_cast<size_t>(
      std::count_if(programs_.begin(), programs_.end(),
                    [](const auto& program) { return program.has_value(); }));
  out.statements.misses = out.statements.entries;
  out.pool = pool().Stats();
  return out;
}

}  // namespace dssp::backend
