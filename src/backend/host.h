#ifndef DSSP_BACKEND_HOST_H_
#define DSSP_BACKEND_HOST_H_

#include <vector>

#include "backend/connection_pool.h"
#include "common/mutex.h"

namespace dssp::backend {

class InMemoryBackend;

// One physical home-server host: a bounded connection pool shared by every
// tenant backend attached to it. This is how "N tenants x M home backends"
// becomes a runnable topology — tenants on the same host contend for the
// same connections, so home-server capacity (pool size, lease latency) is a
// first-class resource rather than a per-tenant constant.
class BackendHost {
 public:
  explicit BackendHost(PoolOptions options) : pool_(options) {}

  BackendHost(const BackendHost&) = delete;
  BackendHost& operator=(const BackendHost&) = delete;

  ConnectionPool& pool() { return pool_; }
  const ConnectionPool& pool() const { return pool_; }

  // Registers `tenant` and points it at this host's shared pool. Setup-time
  // only (before traffic). A tenant already attached elsewhere moves here.
  void AttachTenant(InMemoryBackend* tenant);

  size_t num_tenants() const {
    MutexLock lock(mu_);
    return tenants_.size();
  }
  const std::vector<InMemoryBackend*> tenants() const {
    MutexLock lock(mu_);
    return tenants_;
  }

 private:
  ConnectionPool pool_;
  mutable Mutex mu_;
  std::vector<InMemoryBackend*> tenants_ DSSP_GUARDED_BY(mu_);
};

}  // namespace dssp::backend

#endif  // DSSP_BACKEND_HOST_H_
