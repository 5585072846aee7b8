#include "backend/in_memory_backend.h"

#include <utility>

#include "backend/host.h"
#include "engine/program.h"
#include "engine/table.h"
#include "sql/parser.h"
#include "templates/template.h"

namespace dssp::backend {
namespace {

// Tables a statement reads or writes (lazy-catalog scope).
void CollectTables(const sql::Statement& stmt, std::set<std::string>* out) {
  switch (stmt.kind()) {
    case sql::StatementKind::kSelect:
      for (const sql::TableRef& ref : stmt.select().from) {
        out->insert(ref.table);
      }
      break;
    case sql::StatementKind::kInsert:
      out->insert(stmt.insert().table);
      break;
    case sql::StatementKind::kUpdate:
      out->insert(stmt.update().table);
      break;
    case sql::StatementKind::kDelete:
      out->insert(stmt.del().table);
      break;
  }
}

}  // namespace

InMemoryBackend::InMemoryBackend(std::string app_id, crypto::KeyRing keyring,
                                 BackendOptions options)
    : app_id_(std::move(app_id)),
      keyring_(std::move(keyring)),
      statement_cipher_(keyring_.CipherFor("statement")),
      parameter_cipher_(keyring_.CipherFor("params")),
      result_cipher_(keyring_.CipherFor("result")),
      options_(options),
      private_pool_(options.pool),
      metadata_(options.metadata_ttl_s) {}

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
  // Decide compilability once at registration; a failure is not an error
  // (the interpreter serves that template) but is what the dssp_audit
  // PERF-UNPLANNED-QUERY / PERF-UNPREPARED-TEMPLATE findings report. The
  // compiled program itself lives in the per-connection statement caches,
  // prepared on first execution.
  const size_t index = templates_.queries().size() - 1;
  const templates::QueryTemplate& tmpl = templates_.queries()[index];
  database_.IndexEqualityColumns(tmpl.statement());
  StatusOr<engine::QueryProgram> program = engine::QueryProgram::Compile(
      database_.catalog(), tmpl.statement().select());
  compilable_.push_back(program.ok());
  shape_to_queries_[templates::SelectShapeKey(tmpl.statement().select())]
      .push_back(index);
  // Registration re-scopes the touched-table set and may change every plan:
  // explicitly invalidate metadata and this tenant's prepared statements.
  metadata_.InvalidateAll();
  ConnectionPool& p = pool();
  for (int i = 0; i < p.size(); ++i) {
    p.connection(i).statements().Invalidate(this);
  }
  catalog_loaded_.store(false, std::memory_order_release);
  return Status::Ok();
}

Status InMemoryBackend::AddUpdateTemplate(std::string_view sql) {
  DSSP_RETURN_IF_ERROR(templates_.AddUpdateSql(sql, database_.catalog()));
  database_.IndexEqualityColumns(templates_.updates().back().statement());
  metadata_.InvalidateAll();
  catalog_loaded_.store(false, std::memory_order_release);
  return Status::Ok();
}

void InMemoryBackend::EnsureCatalogLoaded() {
  if (catalog_loaded_.load(std::memory_order_acquire) &&
      database_.catalog().num_tables() ==
          [this] {
            MutexLock lock(catalog_mu_);
            return observed_num_tables_;
          }()) {
    return;
  }
  MutexLock lock(catalog_mu_);
  if (catalog_loaded_.load(std::memory_order_relaxed) &&
      observed_num_tables_ == database_.catalog().num_tables()) {
    return;  // Raced with another loader.
  }
  if (observed_num_tables_ != 0 &&
      observed_num_tables_ != database_.catalog().num_tables()) {
    // DDL happened since the last load: statistics may be stale for any
    // table, so invalidate explicitly rather than waiting out the TTL.
    metadata_.InvalidateAll();
  }
  touched_tables_.clear();
  for (const templates::QueryTemplate& q : templates_.queries()) {
    CollectTables(q.statement(), &touched_tables_);
  }
  for (const templates::UpdateTemplate& u : templates_.updates()) {
    CollectTables(u.statement(), &touched_tables_);
  }
  // Materialize (warm) metadata for exactly the touched tables; the rest of
  // the catalog stays unloaded until DescribeTable asks for it.
  for (const std::string& table : touched_tables_) {
    const catalog::TableSchema* schema = database_.catalog().FindTable(table);
    if (schema != nullptr) metadata_.Store(ComputeMetadata(*schema));
  }
  observed_num_tables_ = database_.catalog().num_tables();
  catalog_loads_.fetch_add(1, std::memory_order_relaxed);
  if (host_ != nullptr) host_->NoteCatalogLoad();
  catalog_loaded_.store(true, std::memory_order_release);
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
  EnsureCatalogLoaded();
  const std::string key(table);
  if (std::optional<TableMetadata> cached = metadata_.Lookup(key, now_s())) {
    return *std::move(cached);
  }
  const catalog::TableSchema* schema = database_.catalog().FindTable(table);
  if (schema == nullptr) {
    return NotFoundError("no such table: " + key);
  }
  TableMetadata meta = ComputeMetadata(*schema);
  metadata_.Store(meta);
  return meta;
}

void InMemoryBackend::Tick(double now_s) {
  // Monotone max without CAS precision games: concurrent Ticks from the
  // simulator are already ordered.
  if (now_s > now_s_.load(std::memory_order_relaxed)) {
    now_s_.store(now_s, std::memory_order_relaxed);
  }
}

std::set<std::string> InMemoryBackend::TouchedTables() const {
  MutexLock lock(catalog_mu_);
  return touched_tables_;
}

StatusOr<std::string> InMemoryBackend::HandleQuery(std::string_view ciphertext,
                                                   bool plaintext_result) {
  EnsureCatalogLoaded();
  const std::string sql = statement_cipher().Decrypt(ciphertext);
  DSSP_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  ConnectionPool::Lease lease = pool().Acquire();
  DSSP_ASSIGN_OR_RETURN(engine::QueryResult result,
                        ExecuteParsedQuery(stmt, *lease));
  queries_executed_.fetch_add(1, std::memory_order_relaxed);
  std::string serialized = result.Serialize();
  if (plaintext_result) return serialized;
  return result_cipher().Encrypt(serialized);
}

StatusOr<engine::QueryResult> InMemoryBackend::ExecuteParsedQuery(
    const sql::Statement& stmt, PooledConnection& conn) {
  if (stmt.kind() == sql::StatementKind::kSelect && stmt.num_params == 0) {
    const auto it =
        shape_to_queries_.find(templates::SelectShapeKey(stmt.select()));
    if (it != shape_to_queries_.end()) {
      std::vector<sql::Value> params;
      for (const size_t index : it->second) {
        if (!compilable_[index]) continue;
        const templates::QueryTemplate& tmpl = templates_.queries()[index];
        if (!tmpl.MatchInstance(stmt.select(), &params)) continue;
        const engine::QueryProgram* program =
            conn.statements().Lookup(this, index);
        if (program == nullptr) {
          StatusOr<engine::QueryProgram> prepared =
              engine::QueryProgram::Compile(database_.catalog(),
                                            tmpl.statement().select());
          if (!prepared.ok()) continue;  // Defensive; compilable_ said ok.
          program = conn.statements().Prepare(this, index,
                                              std::move(prepared).value());
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
  EnsureCatalogLoaded();
  const std::string sql = statement_cipher().Decrypt(ciphertext);
  DSSP_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  ConnectionPool::Lease lease = pool().Acquire();
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
  {
    MutexLock lock(catalog_mu_);
    out.tables_touched = touched_tables_.size();
  }
  out.tables_total = database_.catalog().num_tables();
  out.catalog_loads = catalog_loads_.load(std::memory_order_relaxed);
  out.statements = pool().statement_stats();
  out.pool = pool().Stats();
  out.metadata = metadata_.Stats();
  return out;
}

}  // namespace dssp::backend
