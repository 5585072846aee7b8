#ifndef DSSP_BACKEND_IN_MEMORY_BACKEND_H_
#define DSSP_BACKEND_IN_MEMORY_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "backend/connection_pool.h"
#include "backend/home_backend.h"
#include "common/mutex.h"
#include "common/nonce_window.h"
#include "common/status.h"
#include "crypto/keyring.h"
#include "engine/database.h"
#include "engine/program.h"
#include "templates/template_set.h"

namespace dssp::backend {

class BackendHost;

struct BackendOptions {
  PoolOptions pool;
};

// An application's home server — the reference HomeBackend: the master
// database (in-memory engine), the template sets, and the application's
// keys. All statements arrive encrypted (Figure 2: the DSSP forwards opaque
// blobs); the backend decrypts, leases a pooled connection, executes, and
// encrypts results when the caller asks for an opaque reply.
//
// Each query template is prepared once, at registration: compiled to an
// immutable QueryProgram that every pooled connection executes. The pool
// (private by default; shared with co-hosted tenants when attached to a
// BackendHost) is bounded and health-checked; it models queueing and fault
// detection, not connection-scoped state.
class InMemoryBackend : public HomeBackend {
 public:
  InMemoryBackend(std::string app_id, crypto::KeyRing keyring,
                  BackendOptions options = {});

  const std::string& app_id() const override { return app_id_; }
  const crypto::KeyRing& keyring() const { return keyring_; }

  // Master database; populate it and register tables through this.
  engine::Database& database() { return database_; }
  const engine::Database& database() const { return database_; }

  // Registers templates (ids auto-assigned "Q<k>" / "U<k>"). A query
  // template is prepared here, once. Programs prepared earlier stay valid:
  // compiling reads only the catalog, and a program never changes after.
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

  // Joins a host (its shared pool). Call during setup,
  // before traffic; a backend belongs to at most one host.
  void AttachHost(BackendHost* host);
  BackendHost* host() const { return host_; }

 private:
  // Executes a parsed, fully-bound query: via the prepared program of the
  // matching template when one exists, else the reference interpreter.
  StatusOr<engine::QueryResult> ExecuteParsedQuery(const sql::Statement& stmt);

  // Builds a fresh statistics snapshot for `schema`.
  TableMetadata ComputeMetadata(const catalog::TableSchema& schema) const;

  double now_s() const { return now_s_.load(std::memory_order_relaxed); }

  std::string app_id_;
  crypto::KeyRing keyring_;
  const crypto::DeterministicCipher statement_cipher_;
  const crypto::DeterministicCipher parameter_cipher_;
  const crypto::DeterministicCipher result_cipher_;
  engine::Database database_;
  templates::TemplateSet templates_;

  ConnectionPool private_pool_;
  BackendHost* host_ = nullptr;

  // Each query template's prepared program, or nullopt when the program
  // compiler rejects it (the interpreter serves that template). Shape key
  // -> candidate template indexes. Setup-phase state like templates_:
  // mutated only by AddQueryTemplate, read without locks by HandleQuery.
  std::vector<std::optional<engine::QueryProgram>> programs_;
  std::unordered_map<std::string, std::vector<size_t>> shape_to_queries_;

  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> queries_executed_{0};
  std::atomic<uint64_t> duplicates_suppressed_{0};
  std::atomic<uint64_t> program_queries_{0};
  std::atomic<uint64_t> interpreter_fallback_queries_{0};
  std::atomic<double> now_s_{0};

  // Nonce -> applied effect. The mutex also serializes the apply of
  // nonce-carrying updates so a concurrent retry of the same nonce cannot
  // double-apply.
  Mutex dedup_mu_;
  NonceWindow<engine::UpdateEffect> applied_nonces_ DSSP_GUARDED_BY(dedup_mu_);
};

}  // namespace dssp::backend

#endif  // DSSP_BACKEND_IN_MEMORY_BACKEND_H_
