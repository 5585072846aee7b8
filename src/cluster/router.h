#ifndef DSSP_CLUSTER_ROUTER_H_
#define DSSP_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/bus.h"
#include "cluster/membership.h"
#include "cluster/ring.h"
#include "common/mutex.h"
#include "common/status.h"
#include "dssp/channel.h"
#include "dssp/node.h"

namespace dssp::cluster {

struct ClusterOptions {
  int num_nodes = 4;
  // Each key lives on its ring owner plus replication-1 fallback replicas
  // (stores are write-through to all of them). 1 = no replication: a dead
  // owner degrades straight to a home-server round trip.
  size_t replication = 2;
  int vnodes_per_node = HashRing::kDefaultVnodes;
  uint64_t seed = 0xC105FE2;
  BusOptions bus;
  MembershipPolicy membership;
  // Optional fault injection on the node<->node invalidation wire; the bus
  // inherits retry/backoff/dedup from the PR-2 machinery, so a lossy bus
  // wire degrades gracefully instead of corrupting caches.
  std::optional<service::FaultProfile> bus_faults;
  // Lookups routed to a member within this many lookups after its rejoin
  // are counted as cache-warming traffic (observability for failover cost).
  uint64_t warming_window = 256;
};

// Per-member routing counters (relaxed-atomic snapshot).
struct NodeRouteStats {
  NodeHealth health = NodeHealth::kAlive;
  uint64_t routed_lookups = 0;        // Logical lookups this member led.
  uint64_t hits = 0;                  // Hits served as the preferred owner.
  uint64_t replica_fallback_hits = 0;  // Hits served standing in for one.
  uint64_t stores = 0;                 // Entries written (incl. replicas).
  uint64_t warming_lookups = 0;        // Lookups inside the rejoin window.
  size_t bus_pending = 0;              // Undelivered invalidation notices.
  uint64_t bus_dropped = 0;  // Notices this member refused (lost forever);
                             // nonzero makes it backlog-unsafe for stale
                             // reads — fresh lookups are unaffected because
                             // refusals are symmetric across members (every
                             // member validates against the same app
                             // registration).
  size_t cache_entries = 0;
};

// Cluster-wide routing counters.
struct ClusterRouteStats {
  uint64_t lookups = 0;
  uint64_t replica_fallbacks = 0;  // Hits served by a fallback replica.
  uint64_t lagging_skips = 0;      // Members skipped over the bus-lag bound.
  uint64_t rebalances = 0;         // Ring rebuilds after health transitions.
};

// What the last cache operation on this thread did; the cluster simulator
// reads it to charge service time to the right member's worker pool.
struct RouteInfo {
  int node = -1;                  // Member that led the operation.
  bool replica_fallback = false;  // A fallback replica answered.
  bool hit = false;
};

// N DsspNodes composed into one logical DSSP behind the CacheBackend
// interface: a seeded consistent-hash ring places each (app, key) on an
// owner plus replicas, lookups fall back across replicas when the owner is
// dead or lagging, stores are write-through to the replica set, and every
// update notice rides the invalidation bus to all members. Membership
// (alive/suspect/down/rejoin) is driven by the wire failures the router and
// bus observe; health transitions rebuild the ring, rebalancing the key
// space onto the survivors.
//
// Single-node fidelity: with num_nodes=1 the ring has one owner, the bus
// one member, and every operation lands on that node exactly as it would
// on a bare DsspNode.
//
// Thread-safe: the member set is fixed at construction; the ring snapshot
// is copy-on-rebuild behind a mutex; everything else is the members' own
// synchronization plus relaxed counters.
class ClusterRouter : public service::CacheBackend {
 public:
  explicit ClusterRouter(ClusterOptions options = ClusterOptions{});

  // ----- CacheBackend (what ScalableApp sees). -----
  Status RegisterApp(std::string app_id, const catalog::Catalog* catalog,
                     const templates::TemplateSet* templates) override;
  std::shared_ptr<const service::CacheEntry> LookupShared(
      const std::string& app_id, const std::string& key) override;
  std::optional<service::CacheEntry> Lookup(const std::string& app_id,
                                            const std::string& key) override;
  std::optional<service::CacheEntry> LookupStale(
      const std::string& app_id, const std::string& key,
      uint64_t max_updates_behind) override;
  void Store(const std::string& app_id, service::CacheEntry entry) override;
  size_t OnUpdate(const std::string& app_id,
                  const service::UpdateNotice& notice) override;
  size_t ClearCache(const std::string& app_id) override;
  void SetStaleRetention(const std::string& app_id,
                         size_t max_entries) override;

  // Fans the capacity bound to every member (each holds ~1/N of the keys,
  // so the per-member cap is the cluster cap divided by the member count).
  void SetCacheCapacity(const std::string& app_id, size_t max_entries);

  // ----- Chaos / failover controls. -----

  // Simulates a crash or partition of one member: its wire endpoint drops
  // every frame. Lookups fail over to replicas immediately; membership
  // marks it suspect then down as failures accumulate; the bus queues its
  // invalidation notices.
  void KillNode(int node);

  // Heals the member's wire, drains its queued invalidation notices (the
  // gate: a member that missed invalidations must catch up before it may
  // serve), and rejoins it to the ring. Returns the notices replayed, or
  // the wire error if the drain itself failed (member still down).
  StatusOr<uint64_t> ReviveNode(int node);

  // ----- Introspection. -----
  int num_nodes() const { return static_cast<int>(members_.size()); }
  service::DsspNode& node(int i) { return *members_[CheckIndex(i)]->node; }
  MembershipTable& membership() { return membership_; }
  InvalidationBus& bus() { return bus_; }
  const ClusterOptions& options() const { return options_; }

  NodeRouteStats node_stats(int i) const;
  ClusterRouteStats route_stats() const;

  // Sums one app's DsspStats over all members (a logical lookup that
  // probed several members counts once per member probed).
  service::DsspStats AppStats(const std::string& app_id) const;
  size_t TotalCacheSize(const std::string& app_id) const;

  // The route taken by this thread's most recent Lookup/Store/OnUpdate;
  // reading resets it. Thread-local, so the simulator's single-threaded
  // event loop (and each concurrent worker) sees only its own ops.
  static RouteInfo ConsumeLastRoute();

 private:
  struct Member {
    std::unique_ptr<service::DsspNode> node;
    std::unique_ptr<NodeChannel> endpoint;
    // Non-null when options.bus_faults is set; sits between the bus's
    // retry client and the endpoint.
    std::unique_ptr<service::FaultInjectingChannel> faulty_wire;
    std::atomic<uint64_t> routed_lookups{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> replica_fallback_hits{0};
    std::atomic<uint64_t> stores{0};
    std::atomic<uint64_t> warming_lookups{0};
    // Lookups since the last rejoin; < warming_window counts as warming.
    std::atomic<uint64_t> lookups_since_rejoin{~0ULL};
  };

  size_t CheckIndex(int i) const;

  // Servable owner list for `key`: ring owners filtered through membership
  // and the per-member wire/lag checks, preference order preserved.
  // Reports wire failures for dead owners as it goes.
  std::vector<int> ServableOwners(const std::string& key);

  // Rebuilds the ring snapshot if membership changed since the last build.
  void MaybeRebuildRing();

  void ObserveWire(int node, bool ok);

  ClusterOptions options_;
  std::vector<std::unique_ptr<Member>> members_;
  MembershipTable membership_;
  InvalidationBus bus_;

  mutable Mutex ring_mu_;
  HashRing ring_ DSSP_GUARDED_BY(ring_mu_);
  uint64_t ring_epoch_ DSSP_GUARDED_BY(ring_mu_) = 0;

  std::atomic<uint64_t> lookups_{0};
  std::atomic<uint64_t> replica_fallbacks_{0};
  std::atomic<uint64_t> lagging_skips_{0};
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint64_t> update_rr_{0};  // Round-robin for update charging.
};

}  // namespace dssp::cluster

#endif  // DSSP_CLUSTER_ROUTER_H_
