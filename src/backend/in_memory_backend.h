#ifndef DSSP_BACKEND_IN_MEMORY_BACKEND_H_
#define DSSP_BACKEND_IN_MEMORY_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "backend/connection_pool.h"
#include "backend/home_backend.h"
#include "backend/metadata_cache.h"
#include "common/mutex.h"
#include "common/nonce_window.h"
#include "common/status.h"
#include "crypto/keyring.h"
#include "engine/database.h"
#include "templates/template_set.h"

namespace dssp::backend {

class BackendHost;

struct BackendOptions {
  PoolOptions pool;
  // TTL of metadata/statistics snapshots, simulated seconds (0 = explicit
  // invalidation only).
  double metadata_ttl_s = 60.0;
};

// An application's home server — the reference HomeBackend: the master
// database (in-memory engine), the template sets, and the application's
// keys. All statements arrive encrypted (Figure 2: the DSSP forwards opaque
// blobs); the backend decrypts, leases a pooled connection, executes through
// that connection's prepared-statement cache, and encrypts results when the
// caller asks for an opaque reply.
//
// Production scaffolding over the bare engine:
//  - a bounded, health-checked connection pool (private by default; shared
//    with co-hosted tenants when attached to a BackendHost);
//  - a prepared-statement cache per connection: a template is compiled to
//    its QueryProgram once per (connection, template) and reused;
//  - a TTL'd metadata/statistics cache, explicitly invalidated on DDL and
//    template registration;
//  - lazy catalog loading: only tables a registered template touches are
//    materialized into the metadata layer.
class InMemoryBackend : public HomeBackend {
 public:
  InMemoryBackend(std::string app_id, crypto::KeyRing keyring,
                  BackendOptions options = {});

  const std::string& app_id() const override { return app_id_; }
  const crypto::KeyRing& keyring() const { return keyring_; }

  // Master database; populate it and register tables through this.
  engine::Database& database() { return database_; }
  const engine::Database& database() const { return database_; }

  // Registers templates (ids auto-assigned "Q<k>" / "U<k>"). Registration
  // explicitly invalidates the metadata cache and this tenant's prepared
  // statements on every pooled connection: the set of tables that matter —
  // and every server-side plan — may have changed.
  Status AddQueryTemplate(std::string_view sql);
  Status AddUpdateTemplate(std::string_view sql);
  const templates::TemplateSet& templates() const { return templates_; }

  // ----- HomeBackend -----
  StatusOr<std::string> HandleQuery(std::string_view ciphertext,
                                    bool plaintext_result) override;
  StatusOr<engine::UpdateEffect> HandleUpdate(std::string_view ciphertext,
                                              uint64_t nonce = 0) override;
  Status Ping() override { return Status::Ok(); }
  std::vector<std::string> TableNames() const override;
  StatusOr<TableMetadata> DescribeTable(std::string_view table) override;
  void Tick(double now_s) override;
  HomeBackendStats Stats() const override;

  // Ciphers (deterministic; shared conceptually with the application's
  // client-side code, never with the DSSP). Derived once, at construction.
  const crypto::DeterministicCipher& statement_cipher() const {
    return statement_cipher_;
  }
  const crypto::DeterministicCipher& parameter_cipher() const {
    return parameter_cipher_;
  }
  const crypto::DeterministicCipher& result_cipher() const {
    return result_cipher_;
  }

  // Count of updates applied (the paper reports per-run update volumes).
  // Atomics: a multi-threaded tenant may drive HandleQuery/HandleUpdate from
  // several workers; the accessors are lock-free snapshots.
  uint64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }
  uint64_t queries_executed() const {
    return queries_executed_.load(std::memory_order_relaxed);
  }
  // Updates whose nonce was already applied and were suppressed.
  uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_.load(std::memory_order_relaxed);
  }

  // Queries served by a compiled QueryProgram vs. by the reference
  // interpreter (ad-hoc statement matching no template, or template not
  // compilable). An application whose templates all compile, queried only
  // through them, sees interpreter_fallback_queries() == 0.
  uint64_t program_queries() const {
    return program_queries_.load(std::memory_order_relaxed);
  }
  uint64_t interpreter_fallback_queries() const {
    return interpreter_fallback_queries_.load(std::memory_order_relaxed);
  }

  // The pool serving this backend: the host's shared pool when attached
  // (co-hosted tenants contend for the same connections), else the private
  // pool sized by BackendOptions.
  ConnectionPool& pool();
  const ConnectionPool& pool() const;
  MetadataCache& metadata() { return metadata_; }

  // Joins a host (shared pool + per-host accounting). Call during setup,
  // before traffic; a backend belongs to at most one host.
  void AttachHost(BackendHost* host);
  BackendHost* host() const { return host_; }

  // Lazy catalog state (introspection for tests and the ablation).
  bool catalog_loaded() const {
    return catalog_loaded_.load(std::memory_order_acquire);
  }
  // Tables any registered template touches; loaded on first use.
  std::set<std::string> TouchedTables() const;

 private:
  // Executes a parsed, fully-bound query on a leased connection: via the
  // connection's prepared statement for the matching template when one
  // exists, else the reference interpreter.
  StatusOr<engine::QueryResult> ExecuteParsedQuery(const sql::Statement& stmt,
                                                   PooledConnection& conn);

  // First-use catalog materialization: computes the touched-table set from
  // the registered templates and warms the metadata cache for exactly those
  // tables. Re-runs after template registration or observed DDL.
  void EnsureCatalogLoaded();

  // Builds a fresh statistics snapshot for `table` (assumed to exist).
  TableMetadata ComputeMetadata(const catalog::TableSchema& schema) const;

  double now_s() const { return now_s_.load(std::memory_order_relaxed); }

  std::string app_id_;
  crypto::KeyRing keyring_;
  const crypto::DeterministicCipher statement_cipher_;
  const crypto::DeterministicCipher parameter_cipher_;
  const crypto::DeterministicCipher result_cipher_;
  engine::Database database_;
  templates::TemplateSet templates_;
  BackendOptions options_;

  ConnectionPool private_pool_;
  BackendHost* host_ = nullptr;
  MetadataCache metadata_;

  // Whether each registered query template compiles to a QueryProgram
  // (decided once at registration; prepare-time compiles of a compilable
  // template cannot fail). Shape key -> candidate template indexes.
  // Setup-phase state like templates_: mutated only by AddQueryTemplate,
  // read without locks by HandleQuery.
  std::vector<bool> compilable_;
  std::unordered_map<std::string, std::vector<size_t>> shape_to_queries_;

  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> queries_executed_{0};
  std::atomic<uint64_t> duplicates_suppressed_{0};
  std::atomic<uint64_t> program_queries_{0};
  std::atomic<uint64_t> interpreter_fallback_queries_{0};
  std::atomic<uint64_t> catalog_loads_{0};
  std::atomic<double> now_s_{0};

  // Lazy-catalog state. catalog_loaded_ is the fast-path gate (acquire /
  // release pairs with catalog_mu_); touched_tables_ and the table count the
  // last load observed are guarded by catalog_mu_.
  std::atomic<bool> catalog_loaded_{false};
  mutable Mutex catalog_mu_;
  std::set<std::string> touched_tables_ DSSP_GUARDED_BY(catalog_mu_);
  size_t observed_num_tables_ DSSP_GUARDED_BY(catalog_mu_) = 0;

  // Nonce -> applied effect. The mutex also serializes the apply of
  // nonce-carrying updates so a concurrent retry of the same nonce cannot
  // double-apply.
  Mutex dedup_mu_;
  NonceWindow<engine::UpdateEffect> applied_nonces_ DSSP_GUARDED_BY(dedup_mu_);
};

}  // namespace dssp::backend

#endif  // DSSP_BACKEND_IN_MEMORY_BACKEND_H_
