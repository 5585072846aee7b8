// InMemoryBackend tests behind the HomeBackend seam: prepared-statement
// cache hit/miss/evict behavior, TTL'd metadata cache with explicit DDL/registration invalidation,
// lazy per-tenant catalog loading, the probe wire message, and Stats()
// surfacing the per-query program/interpreter counters.

#include "backend/in_memory_backend.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "backend/home_backend.h"
#include "catalog/schema.h"
#include "crypto/keyring.h"
#include "dssp/protocol.h"
#include "engine/table.h"

namespace dssp::backend {
namespace {

using sql::Value;

// Three tables; only `kv` is touched by the registered templates, so lazy
// catalog loading must materialize exactly one of the three.
std::unique_ptr<InMemoryBackend> MakeBackend(BackendOptions options = {}) {
  auto backend = std::make_unique<InMemoryBackend>(
      "shop", crypto::KeyRing::FromPassphrase("backend-secret"), options);
  engine::Database& db = backend->database();
  EXPECT_TRUE(db.CreateTable(catalog::TableSchema(
                                 "kv",
                                 {{"id", catalog::ColumnType::kInt64},
                                  {"val", catalog::ColumnType::kInt64}},
                                 {"id"}))
                  .ok());
  EXPECT_TRUE(db.CreateTable(catalog::TableSchema(
                                 "orders",
                                 {{"oid", catalog::ColumnType::kInt64},
                                  {"total", catalog::ColumnType::kInt64}},
                                 {"oid"}))
                  .ok());
  EXPECT_TRUE(db.CreateTable(catalog::TableSchema(
                                 "audit_log",
                                 {{"seq", catalog::ColumnType::kInt64}},
                                 {"seq"}))
                  .ok());
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(db.InsertRow("kv", {Value(i), Value(i * 7)}).ok());
  }
  EXPECT_TRUE(
      backend->AddQueryTemplate("SELECT val FROM kv WHERE id = ?").ok());
  EXPECT_TRUE(
      backend->AddUpdateTemplate("UPDATE kv SET val = ? WHERE id = ?").ok());
  return backend;
}

std::string Enc(const InMemoryBackend& backend, const std::string& sql) {
  return backend.statement_cipher().Encrypt(sql);
}

StatusOr<std::string> Query(InMemoryBackend& backend, const std::string& sql) {
  return backend.HandleQuery(Enc(backend, sql), /*plaintext_result=*/true);
}

// ----- Prepared-statement cache -------------------------------------------

TEST(StatementCacheBehavior, PrepareOncePerConnectionThenHit) {
  auto backend = MakeBackend();
  const std::string sql = "SELECT val FROM kv WHERE id = 3";
  const auto first = Query(*backend, sql);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 4; ++i) {
    const auto again = Query(*backend, sql);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *first);  // Cached program, identical bytes.
  }

  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.statements.misses, 1u);
  EXPECT_EQ(stats.statements.hits, 4u);
  EXPECT_EQ(stats.statements.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.statements.hit_rate(), 0.8);
  EXPECT_EQ(stats.program_queries, 5u);
  EXPECT_EQ(stats.interpreter_fallback_queries, 0u);
}

TEST(StatementCacheBehavior, LruCapEvictsLeastRecentlyExecuted) {
  BackendOptions options;
  options.pool.size = 1;
  options.pool.statement_cache_capacity = 1;
  auto backend = MakeBackend(options);
  ASSERT_TRUE(
      backend->AddQueryTemplate("SELECT id FROM kv WHERE val = ?").ok());

  const std::string by_id = "SELECT val FROM kv WHERE id = 3";
  const std::string by_val = "SELECT id FROM kv WHERE val = 21";
  // Alternate two templates through a 1-entry cache: every execution evicts
  // the other's program.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Query(*backend, by_id).ok());
    ASSERT_TRUE(Query(*backend, by_val).ok());
  }
  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.statements.hits, 0u);
  EXPECT_EQ(stats.statements.misses, 6u);
  EXPECT_EQ(stats.statements.evictions, 5u);  // All but the live entry.
  EXPECT_EQ(stats.statements.entries, 1u);
  EXPECT_EQ(stats.program_queries, 6u);  // Thrash hurts latency, not results.
}

TEST(StatementCacheBehavior, TemplateRegistrationInvalidatesPreparedPlans) {
  auto backend = MakeBackend();
  ASSERT_TRUE(Query(*backend, "SELECT val FROM kv WHERE id = 2").ok());
  EXPECT_EQ(backend->Stats().statements.entries, 1u);

  // New template: every prepared plan for this tenant is dropped.
  ASSERT_TRUE(
      backend->AddQueryTemplate("SELECT id FROM kv WHERE val = ?").ok());
  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.statements.entries, 0u);
  EXPECT_EQ(stats.statements.invalidations, 1u);

  // Next execution re-prepares and serves correctly.
  ASSERT_TRUE(Query(*backend, "SELECT val FROM kv WHERE id = 2").ok());
  EXPECT_EQ(backend->Stats().statements.misses, 2u);
}

TEST(StatementCacheBehavior, UnmatchedQueryFallsBackToInterpreter) {
  auto backend = MakeBackend();
  // No registered template has this shape: interpreter path, no prepare.
  const auto result = Query(*backend, "SELECT id FROM kv WHERE val > 10");
  ASSERT_TRUE(result.ok());
  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.interpreter_fallback_queries, 1u);
  EXPECT_EQ(stats.program_queries, 0u);
  EXPECT_EQ(stats.statements.misses, 0u);
}

// ----- Index set -------------------------------------------------------------

TEST(TemplateIndexing, RegistrationIndexesEqualityColumns) {
  auto backend = MakeBackend();
  const engine::Table& kv = backend->database().GetTable("kv");
  const engine::Table& orders = backend->database().GetTable("orders");
  EXPECT_TRUE(kv.IsIndexed(0));    // PK, probed by both templates.
  EXPECT_FALSE(kv.IsIndexed(1));   // Only a SET target so far.
  EXPECT_FALSE(orders.IsIndexed(1));
  // Before its template exists, `val` is probed by a scan.
  const auto scanned = Query(*backend, "SELECT id FROM kv WHERE val = 21");
  ASSERT_TRUE(scanned.ok());

  // A query template on a populated table indexes its live rows at once.
  ASSERT_TRUE(
      backend->AddQueryTemplate("SELECT id FROM kv WHERE val = ?").ok());
  EXPECT_TRUE(kv.IsIndexed(1));
  const auto probed = Query(*backend, "SELECT id FROM kv WHERE val = 21");
  ASSERT_TRUE(probed.ok());
  EXPECT_EQ(*probed, *scanned);  // One match: same bytes either way.

  // Update and delete templates index the columns their WHERE probes.
  ASSERT_TRUE(
      backend->AddUpdateTemplate("DELETE FROM orders WHERE total = ?").ok());
  EXPECT_TRUE(orders.IsIndexed(1));
  ASSERT_TRUE(backend->AddUpdateTemplate(
                         "UPDATE orders SET total = ? WHERE oid = ?")
                  .ok());
  EXPECT_TRUE(orders.IsIndexed(0));
}

// ----- Metadata / statistics cache ----------------------------------------

TEST(MetadataCacheBehavior, TtlServesThenExpiresAgainstBackendClock) {
  BackendOptions options;
  options.metadata_ttl_s = 10.0;
  auto backend = MakeBackend(options);

  // First op lazily materializes the touched tables (one statistics pass).
  ASSERT_TRUE(Query(*backend, "SELECT val FROM kv WHERE id = 1").ok());
  const auto warm = backend->DescribeTable("kv");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->table, "kv");
  EXPECT_EQ(warm->row_count, 50u);
  EXPECT_EQ(warm->primary_key, "id");
  ASSERT_EQ(warm->columns.size(), 2u);
  EXPECT_EQ(warm->columns[0], "id");
  EXPECT_EQ(warm->columns[1], "val");
  EXPECT_EQ(backend->Stats().metadata.hits, 1u);  // Served from the warm set.

  // Within TTL: still the cached snapshot.
  backend->Tick(5.0);
  ASSERT_TRUE(backend->DescribeTable("kv").ok());
  EXPECT_EQ(backend->Stats().metadata.hits, 2u);
  EXPECT_EQ(backend->Stats().metadata.expirations, 0u);

  // Past TTL: the entry expires and a fresh statistics pass runs.
  backend->Tick(11.0);
  const auto refreshed = backend->DescribeTable("kv");
  ASSERT_TRUE(refreshed.ok());
  EXPECT_DOUBLE_EQ(refreshed->computed_at_s, 11.0);
  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.metadata.expirations, 1u);
  EXPECT_GE(stats.metadata.loads, 2u);
}

TEST(MetadataCacheBehavior, DdlExplicitlyInvalidatesStatistics) {
  auto backend = MakeBackend();
  ASSERT_TRUE(Query(*backend, "SELECT val FROM kv WHERE id = 1").ok());
  EXPECT_GT(backend->Stats().metadata.entries, 0u);

  // DDL: a new table appears. The next catalog-aware operation must drop
  // every cached statistic rather than serve pre-DDL snapshots.
  ASSERT_TRUE(backend->database()
                  .CreateTable(catalog::TableSchema(
                      "returns", {{"rid", catalog::ColumnType::kInt64}},
                      {"rid"}))
                  .ok());
  ASSERT_TRUE(backend->DescribeTable("kv").ok());
  const HomeBackendStats stats = backend->Stats();
  EXPECT_GT(stats.metadata.invalidations, 0u);
  EXPECT_EQ(stats.tables_total, 4u);
}

TEST(MetadataCacheBehavior, RegistrationInvalidatesAndDescribeIsOnDemand) {
  auto backend = MakeBackend();
  ASSERT_TRUE(Query(*backend, "SELECT val FROM kv WHERE id = 1").ok());
  const uint64_t before = backend->Stats().metadata.invalidations;
  ASSERT_TRUE(backend->AddUpdateTemplate(
                     "UPDATE orders SET total = ? WHERE oid = ?")
                  .ok());
  EXPECT_GT(backend->Stats().metadata.invalidations, before);

  // An untouched table is never pre-warmed but can be described on demand.
  const auto log = backend->DescribeTable("audit_log");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->row_count, 0u);
  EXPECT_FALSE(backend->DescribeTable("no_such_table").ok());
}

// ----- Lazy per-tenant catalog --------------------------------------------

TEST(LazyCatalog, OnlyTouchedTablesMaterialize) {
  auto backend = MakeBackend();
  EXPECT_FALSE(backend->catalog_loaded());
  EXPECT_EQ(backend->Stats().metadata.entries, 0u);

  ASSERT_TRUE(Query(*backend, "SELECT val FROM kv WHERE id = 1").ok());
  EXPECT_TRUE(backend->catalog_loaded());
  EXPECT_EQ(backend->TouchedTables(), (std::set<std::string>{"kv"}));

  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.tables_touched, 1u);
  EXPECT_EQ(stats.tables_total, 3u);
  EXPECT_EQ(stats.catalog_loads, 1u);
  EXPECT_EQ(stats.metadata.entries, 1u);  // Only `kv` was materialized.

  // Registering a template over `orders` re-scopes the touched set; the
  // next operation re-materializes with both tables.
  ASSERT_TRUE(
      backend->AddQueryTemplate("SELECT total FROM orders WHERE oid = ?")
          .ok());
  EXPECT_FALSE(backend->catalog_loaded());
  ASSERT_TRUE(Query(*backend, "SELECT val FROM kv WHERE id = 1").ok());
  EXPECT_EQ(backend->TouchedTables(),
            (std::set<std::string>{"kv", "orders"}));
  EXPECT_EQ(backend->Stats().tables_touched, 2u);
  EXPECT_EQ(backend->Stats().catalog_loads, 2u);
}

// ----- The HomeBackend seam ------------------------------------------------

TEST(HomeBackendSeam, DispatchAnswersProbesThroughTheInterface) {
  auto backend = MakeBackend();
  HomeBackend& seam = *backend;
  EXPECT_TRUE(seam.Ping().ok());

  const std::string response =
      service::DispatchFrame(seam, service::Encode(service::ProbeRequest{77}));
  const auto decoded = service::DecodeProbeResponse(response);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->token, 77u);
  // Probes are wire traffic, not queries.
  EXPECT_EQ(seam.Stats().queries_executed, 0u);
}

TEST(HomeBackendSeam, TableNamesComeFromTheCatalog) {
  auto backend = MakeBackend();
  const std::vector<std::string> names = backend->TableNames();
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()),
            (std::set<std::string>{"kv", "orders", "audit_log"}));
}

TEST(HomeBackendSeam, StatsSurfacesProgramAndInterpreterCounters) {
  auto backend = MakeBackend();
  ASSERT_TRUE(Query(*backend, "SELECT val FROM kv WHERE id = 4").ok());
  ASSERT_TRUE(Query(*backend, "SELECT id FROM kv WHERE val > 7").ok());
  ASSERT_TRUE(backend
                  ->HandleUpdate(
                      Enc(*backend, "UPDATE kv SET val = 9 WHERE id = 4"))
                  .ok());

  // The counters HomeServer always kept but never surfaced: one snapshot
  // now carries the execution split alongside pool and cache stats.
  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.queries_executed, 2u);
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.program_queries, 1u);
  EXPECT_EQ(stats.interpreter_fallback_queries, 1u);
  EXPECT_EQ(stats.program_queries, backend->program_queries());
  EXPECT_EQ(stats.interpreter_fallback_queries,
            backend->interpreter_fallback_queries());
  EXPECT_EQ(stats.pool.leases_granted, 3u);
  EXPECT_EQ(stats.pool.size, 8u);  // Default PoolOptions.
}

}  // namespace
}  // namespace dssp::backend
