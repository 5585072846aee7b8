// InMemoryBackend tests behind the HomeBackend seam: each query template
// prepared exactly once at registration and shared by every pooled
// connection (also from concurrent threads), DescribeTable snapshots that
// are never stale, the probe wire message, and Stats() surfacing the
// per-query program/interpreter counters.

#include "backend/in_memory_backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "backend/home_backend.h"
#include "catalog/schema.h"
#include "crypto/keyring.h"
#include "dssp/protocol.h"
#include "engine/table.h"
#include "sql/parser.h"

namespace dssp::backend {
namespace {

using sql::Value;

// Three tables; the registered templates touch only `kv`.
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

// ----- Prepared programs ---------------------------------------------------

TEST(PreparedPrograms, PreparedOnceAtRegistrationThenExecuted) {
  auto backend = MakeBackend();
  // Registration prepared the one query template; no query has run yet.
  EXPECT_EQ(backend->Stats().statements.misses, 1u);
  EXPECT_EQ(backend->Stats().statements.hits, 0u);

  const std::string sql = "SELECT val FROM kv WHERE id = 3";
  const auto first = Query(*backend, sql);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 4; ++i) {
    const auto again = Query(*backend, sql);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *first);  // Same program, identical bytes.
  }

  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.statements.misses, 1u);
  EXPECT_EQ(stats.statements.hits, 5u);
  EXPECT_EQ(stats.statements.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.statements.hit_rate(), 5.0 / 6.0);
  EXPECT_EQ(stats.program_queries, 5u);
  EXPECT_EQ(stats.interpreter_fallback_queries, 0u);
}

TEST(PreparedPrograms, TwoTemplatesAlternateOnOneConnection) {
  BackendOptions options;
  options.pool.size = 1;
  auto backend = MakeBackend(options);
  ASSERT_TRUE(
      backend->AddQueryTemplate("SELECT id FROM kv WHERE val = ?").ok());

  const std::string by_id = "SELECT val FROM kv WHERE id = 3";
  const std::string by_val = "SELECT id FROM kv WHERE val = 21";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Query(*backend, by_id).ok());
    ASSERT_TRUE(Query(*backend, by_val).ok());
  }
  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.statements.hits, 6u);
  EXPECT_EQ(stats.statements.misses, 2u);
  EXPECT_EQ(stats.statements.entries, 2u);
  EXPECT_EQ(stats.program_queries, 6u);
}

TEST(PreparedPrograms, EachCompilableTemplatePreparedExactlyOnce) {
  BackendOptions options;
  options.pool.size = 4;
  auto backend = MakeBackend(options);
  ASSERT_TRUE(
      backend->AddQueryTemplate("SELECT id FROM kv WHERE val = ?").ok());
  // Compares an int column with a string literal: the program compiler
  // rejects it, so the interpreter serves it and nothing is prepared.
  ASSERT_TRUE(
      backend->AddQueryTemplate("SELECT id FROM kv WHERE val = 'x' AND id = ?")
          .ok());
  const uint64_t compilable = 2;
  EXPECT_EQ(backend->Stats().statements.misses, compilable);

  // Run on each connection in turn: holding k leases makes the next query
  // lease connection k.
  for (int k = 0; k < options.pool.size; ++k) {
    std::vector<ConnectionPool::Lease> held;
    for (int i = 0; i < k; ++i) held.push_back(backend->pool().Acquire());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(Query(*backend, "SELECT val FROM kv WHERE id = 3").ok());
      ASSERT_TRUE(Query(*backend, "SELECT id FROM kv WHERE val = 21").ok());
    }
  }
  EXPECT_FALSE(
      Query(*backend, "SELECT id FROM kv WHERE val = 'x' AND id = 3").ok());

  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.statements.misses, compilable);
  EXPECT_EQ(stats.statements.entries, compilable);
  EXPECT_EQ(stats.statements.hits, 24u);
  EXPECT_EQ(stats.interpreter_fallback_queries, 1u);
}

TEST(PreparedPrograms, LaterRegistrationLeavesEarlierProgramsAlone) {
  auto backend = MakeBackend();
  const auto before = Query(*backend, "SELECT val FROM kv WHERE id = 2");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(backend->Stats().statements.misses, 1u);

  // A second template prepares one more program; the first one stays.
  ASSERT_TRUE(
      backend->AddQueryTemplate("SELECT id FROM kv WHERE val = ?").ok());
  EXPECT_EQ(backend->Stats().statements.misses, 2u);
  const auto after = Query(*backend, "SELECT val FROM kv WHERE id = 2");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.statements.misses, 2u);
  EXPECT_EQ(stats.statements.hits, 2u);
  EXPECT_EQ(stats.interpreter_fallback_queries, 0u);
}

TEST(PreparedPrograms, ProgramCompiledBeforeDdlServesAfterIt) {
  auto backend = MakeBackend();
  const auto before = Query(*backend, "SELECT val FROM kv WHERE id = 9");
  ASSERT_TRUE(before.ok());

  // DDL after registration: the catalog grows, the program does not change.
  ASSERT_TRUE(backend->database()
                  .CreateTable(catalog::TableSchema(
                      "returns", {{"rid", catalog::ColumnType::kInt64}},
                      {"rid"}))
                  .ok());
  ASSERT_TRUE(
      backend->HandleUpdate(Enc(*backend, "UPDATE kv SET val = 5 WHERE id = 9"))
          .ok());
  const auto after = Query(*backend, "SELECT val FROM kv WHERE id = 9");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*after, *before);
  // The served bytes are the interpreter's on the post-DDL database.
  const auto want = backend->database().ExecuteQuery(
      sql::ParseOrDie("SELECT val FROM kv WHERE id = 9"));
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*after, want->Serialize());
  EXPECT_EQ(backend->Stats().statements.hits, 2u);
  EXPECT_EQ(backend->Stats().statements.misses, 1u);
}

// Four threads on a four-connection pool run the same templates at once;
// every result must be byte-identical to a single-threaded run.
TEST(PreparedPrograms, ConcurrentConnectionsShareOneProgram) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  BackendOptions options;
  options.pool.size = kThreads;
  auto backend = MakeBackend(options);
  ASSERT_TRUE(
      backend->AddQueryTemplate("SELECT id FROM kv WHERE val = ?").ok());
  ASSERT_TRUE(backend
                  ->AddQueryTemplate(
                      "SELECT id, val FROM kv WHERE val >= ? ORDER BY val "
                      "DESC LIMIT 5")
                  .ok());

  std::vector<std::string> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back("SELECT val FROM kv WHERE id = " + std::to_string(i * 5));
    queries.push_back("SELECT id FROM kv WHERE val = " + std::to_string(i * 14));
    queries.push_back(
        "SELECT id, val FROM kv WHERE val >= " + std::to_string(i * 30) +
        " ORDER BY val DESC LIMIT 5");
  }
  std::vector<std::string> expected;
  for (const std::string& sql : queries) {
    const auto result = Query(*backend, sql);
    ASSERT_TRUE(result.ok()) << sql;
    expected.push_back(*result);
  }
  const uint64_t hits_before = backend->Stats().statements.hits;

  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          // Each thread walks the queries from a different offset.
          const size_t i = (q + static_cast<size_t>(t) * 7) % queries.size();
          const auto result = Query(*backend, queries[i]);
          if (!result.ok() || *result != expected[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.statements.hits - hits_before,
            static_cast<uint64_t>(kThreads) * kRounds * queries.size());
  EXPECT_EQ(stats.statements.misses, 3u);
  EXPECT_EQ(stats.interpreter_fallback_queries, 0u);
}

TEST(PreparedPrograms, UnmatchedQueryFallsBackToInterpreter) {
  auto backend = MakeBackend();
  // No registered template has this shape: interpreter path.
  const auto result = Query(*backend, "SELECT id FROM kv WHERE val > 10");
  ASSERT_TRUE(result.ok());
  const HomeBackendStats stats = backend->Stats();
  EXPECT_EQ(stats.interpreter_fallback_queries, 1u);
  EXPECT_EQ(stats.program_queries, 0u);
  EXPECT_EQ(stats.statements.hits, 0u);
  EXPECT_EQ(stats.statements.misses, 1u);  // The registered template.
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

// ----- Table metadata --------------------------------------------------------

TEST(DescribeTable, ReportsSchemaAndStampsBackendClock) {
  auto backend = MakeBackend();
  const auto kv = backend->DescribeTable("kv");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->table, "kv");
  EXPECT_EQ(kv->row_count, 50u);
  EXPECT_EQ(kv->primary_key, "id");
  ASSERT_EQ(kv->columns.size(), 2u);
  EXPECT_EQ(kv->columns[0], "id");
  EXPECT_EQ(kv->columns[1], "val");
  EXPECT_DOUBLE_EQ(kv->computed_at_s, 0.0);

  backend->Tick(5.0);
  EXPECT_DOUBLE_EQ(backend->DescribeTable("kv")->computed_at_s, 5.0);
  backend->Tick(11.0);
  EXPECT_DOUBLE_EQ(backend->DescribeTable("kv")->computed_at_s, 11.0);
  backend->Tick(3.0);  // The clock never moves backwards.
  EXPECT_DOUBLE_EQ(backend->DescribeTable("kv")->computed_at_s, 11.0);
}

TEST(DescribeTable, RowCountFollowsWritesAtOnce) {
  auto backend = MakeBackend();
  EXPECT_EQ(backend->DescribeTable("kv")->row_count, 50u);
  ASSERT_TRUE(backend
                  ->HandleUpdate(Enc(*backend,
                                     "INSERT INTO kv (id, val) VALUES (50, 1)"))
                  .ok());
  EXPECT_EQ(backend->DescribeTable("kv")->row_count, 51u);
}

TEST(DescribeTable, SeesTablesCreatedAfterRegistration) {
  auto backend = MakeBackend();
  EXPECT_EQ(backend->Stats().tables_total, 3u);
  ASSERT_TRUE(backend->database()
                  .CreateTable(catalog::TableSchema(
                      "returns", {{"rid", catalog::ColumnType::kInt64}},
                      {"rid"}))
                  .ok());
  const auto returns = backend->DescribeTable("returns");
  ASSERT_TRUE(returns.ok());
  EXPECT_EQ(returns->row_count, 0u);
  EXPECT_EQ(returns->primary_key, "rid");
  EXPECT_EQ(backend->Stats().tables_total, 4u);
}

TEST(DescribeTable, AnyTableOnDemandUnknownIsNotFound) {
  auto backend = MakeBackend();
  // No registered template touches `audit_log`; it is described all the same.
  const auto log = backend->DescribeTable("audit_log");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->row_count, 0u);
  const auto missing = backend->DescribeTable("no_such_table");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
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
