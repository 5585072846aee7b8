// Connection-pool tests: bounded leases with FIFO backpressure (exhaustion
// queues, never fails), virtual-time admission with lease-deadline and
// lease-latency accounting, health probes over a seeded faulty wire marking
// a pool suspect and recycling connections, and a concurrent soak proving
// zero lost updates through a pooled backend under probe-failure churn
// (oracle-checked).

#include "backend/connection_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/host.h"
#include "backend/in_memory_backend.h"
#include "catalog/schema.h"
#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/channel.h"
#include "dssp/protocol.h"

namespace dssp::backend {
namespace {

using sql::Value;

std::unique_ptr<InMemoryBackend> MakeKvBackend(BackendOptions options = {}) {
  auto backend = std::make_unique<InMemoryBackend>(
      "kv-app", crypto::KeyRing::FromPassphrase("pool-secret"), options);
  engine::Database& db = backend->database();
  EXPECT_TRUE(db.CreateTable(catalog::TableSchema(
                                 "kv",
                                 {{"id", catalog::ColumnType::kInt64},
                                  {"val", catalog::ColumnType::kInt64}},
                                 {"id"}))
                  .ok());
  for (int64_t i = 0; i < 400; ++i) {
    EXPECT_TRUE(db.InsertRow("kv", {Value(i), Value(int64_t{0})}).ok());
  }
  EXPECT_TRUE(
      backend->AddQueryTemplate("SELECT val FROM kv WHERE id = ?").ok());
  EXPECT_TRUE(
      backend->AddUpdateTemplate("UPDATE kv SET val = ? WHERE id = ?").ok());
  return backend;
}

std::string EncryptedSql(const InMemoryBackend& backend,
                         const std::string& sql) {
  return backend.statement_cipher().Encrypt(sql);
}

// ----- Virtual-time admission ---------------------------------------------

TEST(ConnectionPoolAdmit, EarliestFreeConnectionServesEachJob) {
  PoolOptions options;
  options.size = 2;
  ConnectionPool pool(options);
  EXPECT_EQ(pool.Admit(0.0, 2.0).connection, 0);
  EXPECT_EQ(pool.Admit(0.0, 1.0).connection, 1);
  // Connection 1 frees first (t=1), so the third job queues there.
  const ConnectionPool::Admission third = pool.Admit(0.5, 1.0);
  EXPECT_EQ(third.connection, 1);
  EXPECT_DOUBLE_EQ(third.wait_s, 0.5);
  EXPECT_DOUBLE_EQ(third.done, 2.0);
}

TEST(ConnectionPoolAdmit, QueuedWaitIsBackpressureNotFailure) {
  PoolOptions options;
  options.size = 1;
  ConnectionPool pool(options);

  const ConnectionPool::Admission first = pool.Admit(0.0, 1.0);
  EXPECT_EQ(first.done, 1.0);
  EXPECT_FALSE(first.queued);

  // Arrives while the only connection is busy: waits, still completes.
  const ConnectionPool::Admission second = pool.Admit(0.25, 1.0);
  EXPECT_TRUE(second.queued);
  EXPECT_DOUBLE_EQ(second.wait_s, 0.75);
  EXPECT_DOUBLE_EQ(second.done, 2.0);

  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.leases_granted, 2u);
  EXPECT_EQ(stats.leases_queued, 1u);
  EXPECT_DOUBLE_EQ(stats.total_wait_s, 0.75);
  EXPECT_DOUBLE_EQ(stats.max_wait_s, 0.75);
}

TEST(ConnectionPoolAdmit, LeaseDeadlineCountsTimeoutsButStillServes) {
  PoolOptions options;
  options.size = 1;
  options.lease_deadline_s = 0.5;
  ConnectionPool pool(options);

  EXPECT_EQ(pool.Admit(0.0, 2.0).done, 2.0);
  // Waits 1.9s > 0.5s deadline: counted as a timeout (overload signal) but
  // drained FIFO all the same — the request is never dropped.
  const ConnectionPool::Admission late = pool.Admit(0.1, 1.0);
  EXPECT_TRUE(late.queued);
  EXPECT_TRUE(late.timed_out);
  EXPECT_DOUBLE_EQ(late.done, 3.0);
  // Within deadline: queued but not timed out.
  const ConnectionPool::Admission ok = pool.Admit(2.8, 1.0);
  EXPECT_TRUE(ok.queued);
  EXPECT_FALSE(ok.timed_out);

  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.lease_timeouts, 1u);
  EXPECT_EQ(stats.leases_queued, 2u);
}

TEST(ConnectionPoolAdmit, LeaseLatencyChargedPerAdmission) {
  PoolOptions options;
  options.size = 1;
  options.lease_latency_s = 0.125;
  ConnectionPool pool(options);
  EXPECT_DOUBLE_EQ(pool.Admit(0.0, 1.0).done, 1.125);
  EXPECT_DOUBLE_EQ(pool.Admit(2.0, 1.0).done, 3.125);
}

// ----- Synchronous leases --------------------------------------------------

TEST(ConnectionPoolAcquire, ExhaustionQueuesFifoAndDrains) {
  PoolOptions options;
  options.size = 1;
  ConnectionPool pool(options);

  std::vector<int> order;
  Mutex order_mu;
  {
    // Hold the only connection; every queued acquirer must wait.
    ConnectionPool::Lease held = pool.Acquire();
    std::vector<std::thread> threads;
    std::atomic<int> about_to_acquire{0};
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&, i] {
        about_to_acquire.store(i + 1, std::memory_order_release);
        ConnectionPool::Lease lease = pool.Acquire();
        MutexLock lock(order_mu);
        order.push_back(i);
      });
      // Tickets are FIFO by Acquire() call order; space the launches so the
      // call order matches the launch order.
      while (about_to_acquire.load(std::memory_order_acquire) != i + 1) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    // Dropping `held` here lets the queue drain.
    { ConnectionPool::Lease release = std::move(held); }
    for (std::thread& t : threads) t.join();
  }

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.leases_granted, 4u);
  EXPECT_EQ(stats.leases_queued, 3u);  // Backpressure, zero failures.
}

// ----- Health probes over a seeded faulty wire -----------------------------

TEST(ConnectionPoolHealth, ProbeFailuresMarkSuspectAndRecycle) {
  BackendOptions options;
  options.pool.size = 1;
  options.pool.probe_every = 1;   // Probe on every lease.
  options.pool.suspect_after = 3;
  auto backend = MakeKvBackend(options);

  service::DirectChannel direct(*backend);
  service::FaultProfile all_lost;
  all_lost.drop_request = 1.0;  // Every probe frame dies on the wire.
  service::FaultInjectingChannel faulty(direct, all_lost, /*seed=*/7);
  service::ChannelHealthProber prober(faulty, /*seed=*/21);
  backend->pool().SetProber(&prober);

  const std::string query =
      EncryptedSql(*backend, "SELECT val FROM kv WHERE id = 5");
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(backend->HandleQuery(query, /*plaintext_result=*/true).ok());
  }

  const PoolStats stats = backend->pool().Stats();
  EXPECT_EQ(stats.probes_sent, 3u);
  EXPECT_EQ(stats.probe_failures, 3u);
  EXPECT_EQ(stats.connections_recycled, 3u);
  EXPECT_TRUE(stats.suspect);  // 3 consecutive failures >= suspect_after.

  // Recycling drops no prepared program: the template was prepared once,
  // at registration, and every query after a recycle still executed it.
  const StatementCacheStats statements = backend->Stats().statements;
  EXPECT_EQ(statements.hits, 3u);
  EXPECT_EQ(statements.misses, 1u);
}

TEST(ConnectionPoolHealth, CleanWireNeverSuspectsAndKeepsStatements) {
  BackendOptions options;
  options.pool.size = 1;
  options.pool.probe_every = 1;
  auto backend = MakeKvBackend(options);

  service::DirectChannel direct(*backend);
  service::ChannelHealthProber prober(direct, /*seed=*/21);
  backend->pool().SetProber(&prober);

  const std::string query =
      EncryptedSql(*backend, "SELECT val FROM kv WHERE id = 5");
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(backend->HandleQuery(query, /*plaintext_result=*/true).ok());
  }

  const PoolStats stats = backend->pool().Stats();
  EXPECT_EQ(stats.probes_sent, 3u);
  EXPECT_EQ(stats.probe_failures, 0u);
  EXPECT_EQ(stats.connections_recycled, 0u);
  EXPECT_FALSE(stats.suspect);
  // Probes ride the real protocol, so they count as traffic on the wire but
  // never as queries on the backend.
  EXPECT_EQ(backend->queries_executed(), 3u);

  const StatementCacheStats statements = backend->Stats().statements;
  EXPECT_EQ(statements.misses, 1u);  // Prepared once, executed three times.
  EXPECT_EQ(statements.hits, 3u);
}

TEST(ConnectionPoolHealth, SeededPartialLossIsReproducible) {
  auto run = [](uint64_t seed) {
    BackendOptions options;
    options.pool.size = 2;
    options.pool.probe_every = 2;
    options.pool.suspect_after = 2;
    auto backend = MakeKvBackend(options);
    service::DirectChannel direct(*backend);
    service::FaultProfile lossy;
    lossy.drop_request = 0.4;
    lossy.corrupt_response = 0.2;
    service::FaultInjectingChannel faulty(direct, lossy, seed);
    service::ChannelHealthProber prober(faulty, /*seed=*/5);
    backend->pool().SetProber(&prober);
    const std::string query =
        EncryptedSql(*backend, "SELECT val FROM kv WHERE id = 9");
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(
          backend->HandleQuery(query, /*plaintext_result=*/true).ok());
    }
    return backend->pool().Stats();
  };

  const PoolStats a = run(/*seed=*/13);
  const PoolStats b = run(/*seed=*/13);
  EXPECT_GT(a.probes_sent, 0u);
  EXPECT_GT(a.probe_failures, 0u);  // 40% drop + 20% corruption must bite.
  EXPECT_LT(a.probe_failures, a.probes_sent);  // ...but not on every probe.
  // Same seed, same faults, same verdicts — the whole probe history is
  // reproducible.
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.probe_failures, b.probe_failures);
  EXPECT_EQ(a.connections_recycled, b.connections_recycled);
  EXPECT_EQ(a.suspect, b.suspect);
}

// ----- Concurrency soak: zero lost updates under churn ---------------------

// Four writer threads hammer a 2-connection pool while every lease probes a
// lossy wire (recycling connections along the way). Each thread owns a disjoint key range and retries a slice of its
// updates with the same nonce. Afterwards the database must hold exactly the
// last value each thread wrote (the oracle), every distinct update applied
// exactly once.
TEST(ConnectionPoolSoak, ZeroLostUpdatesUnderProbeChurn) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  constexpr int kKeysPerThread = 100;

  BackendOptions options;
  options.pool.size = 2;
  options.pool.probe_every = 7;
  options.pool.suspect_after = 3;
  auto backend = MakeKvBackend(options);

  service::DirectChannel direct(*backend);
  service::FaultProfile lossy;
  lossy.drop_request = 0.5;  // Probes fail often: constant recycle churn.
  service::FaultInjectingChannel faulty(direct, lossy, /*seed=*/3);
  service::ChannelHealthProber prober(faulty, /*seed=*/11);
  backend->pool().SetProber(&prober);

  std::vector<std::vector<int64_t>> oracle(
      kThreads, std::vector<int64_t>(kKeysPerThread, 0));
  std::atomic<uint64_t> retries{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int64_t key = t * kKeysPerThread +
                            static_cast<int64_t>(rng.NextBelow(kKeysPerThread));
        const int64_t value = t * 1000000 + i + 1;
        const uint64_t nonce =
            static_cast<uint64_t>(t) * kOpsPerThread + i + 1;
        const std::string update = EncryptedSql(
            *backend, "UPDATE kv SET val = " + std::to_string(value) +
                          " WHERE id = " + std::to_string(key));
        ASSERT_TRUE(backend->HandleUpdate(update, nonce).ok());
        if (rng.NextBelow(4) == 0) {
          // Client retry of the same frame+nonce: must not double-apply.
          ASSERT_TRUE(backend->HandleUpdate(update, nonce).ok());
          retries.fetch_add(1, std::memory_order_relaxed);
        }
        oracle[t][key - t * kKeysPerThread] = value;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly-once accounting.
  EXPECT_EQ(backend->updates_applied(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(backend->duplicates_suppressed(),
            retries.load(std::memory_order_relaxed));

  // Oracle check: re-play each key's last written value into a fresh,
  // fault-free backend and require byte-identical query results — nothing
  // lost, nothing applied twice, no key touched by churn artifacts.
  auto clean = MakeKvBackend();
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kKeysPerThread; ++k) {
      const int64_t key = t * kKeysPerThread + k;
      ASSERT_TRUE(clean
                      ->HandleUpdate(EncryptedSql(
                          *clean, "UPDATE kv SET val = " +
                                      std::to_string(oracle[t][k]) +
                                      " WHERE id = " + std::to_string(key)))
                      .ok());
    }
  }
  for (int64_t key = 0; key < kThreads * kKeysPerThread; ++key) {
    const std::string sql =
        "SELECT val FROM kv WHERE id = " + std::to_string(key);
    auto got = backend->HandleQuery(EncryptedSql(*backend, sql), true);
    auto want = clean->HandleQuery(EncryptedSql(*clean, sql), true);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(*got, *want) << "key " << key;
  }

  const PoolStats stats = backend->pool().Stats();
  EXPECT_GT(stats.probes_sent, 0u);
  EXPECT_GT(stats.probe_failures, 0u);
  EXPECT_GT(stats.connections_recycled, 0u);
  EXPECT_EQ(stats.leases_granted,
            backend->queries_executed() + backend->updates_applied() +
                backend->duplicates_suppressed());
}

// ----- Shared host pool ----------------------------------------------------

TEST(BackendHostTest, TenantsShareOnePoolAndPrepareOnlyTheirOwnTemplates) {
  PoolOptions pool_options;
  pool_options.size = 1;
  BackendHost host(pool_options);

  auto alpha = MakeKvBackend();
  auto beta = MakeKvBackend();
  ASSERT_TRUE(beta->AddQueryTemplate("SELECT id FROM kv WHERE val = ?").ok());
  host.AttachTenant(alpha.get());
  host.AttachTenant(beta.get());
  EXPECT_EQ(host.num_tenants(), 2u);
  EXPECT_EQ(&alpha->pool(), &host.pool());
  EXPECT_EQ(&beta->pool(), &host.pool());

  const std::string sql = "SELECT val FROM kv WHERE id = 1";
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(
        alpha->HandleQuery(EncryptedSql(*alpha, sql), true).ok());
    EXPECT_TRUE(beta->HandleQuery(EncryptedSql(*beta, sql), true).ok());
  }

  // One shared connection, two tenants: each tenant prepared only its own
  // templates (alpha one, beta two) and executed only its own program —
  // no cross-tenant statement sharing.
  const StatementCacheStats a = alpha->Stats().statements;
  const StatementCacheStats b = beta->Stats().statements;
  EXPECT_EQ(a.misses, 1u);
  EXPECT_EQ(a.entries, 1u);
  EXPECT_EQ(a.hits, 2u);
  EXPECT_EQ(b.misses, 2u);
  EXPECT_EQ(b.entries, 2u);
  EXPECT_EQ(b.hits, 2u);
  EXPECT_EQ(host.pool().Stats().leases_granted, 4u);
}

}  // namespace
}  // namespace dssp::backend
