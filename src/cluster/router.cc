#include "cluster/router.h"

#include <utility>

#include "common/macros.h"

namespace dssp::cluster {

using service::CacheEntry;
using service::DsspNode;
using service::DsspStats;
using service::UpdateNotice;

namespace {

thread_local RouteInfo tls_last_route;

// Ring placement key: apps are isolated tenants, so the same cache key in
// two apps must be free to land on different members.
std::string RouteKey(const std::string& app_id, const std::string& key) {
  std::string route;
  route.reserve(app_id.size() + 1 + key.size());
  route.append(app_id);
  route.push_back('\0');
  route.append(key);
  return route;
}

}  // namespace

ClusterRouter::ClusterRouter(ClusterOptions options)
    : options_(std::move(options)),
      membership_(options_.membership),
      bus_(options_.bus),
      ring_(options_.seed, options_.vnodes_per_node) {
  DSSP_CHECK(options_.num_nodes >= 1);
  DSSP_CHECK(options_.replication >= 1);
  members_.reserve(options_.num_nodes);
  for (int i = 0; i < options_.num_nodes; ++i) {
    auto member = std::make_unique<Member>();
    member->node = std::make_unique<DsspNode>();
    member->endpoint = std::make_unique<NodeChannel>(*member->node);
    // Start outside any warming window; only a real rejoin resets to 0.
    member->lookups_since_rejoin.store(options_.warming_window,
                                       std::memory_order_relaxed);
    service::Channel* wire = member->endpoint.get();
    if (options_.bus_faults.has_value()) {
      member->faulty_wire = std::make_unique<service::FaultInjectingChannel>(
          *member->endpoint, *options_.bus_faults,
          options_.seed ^ (static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL));
      wire = member->faulty_wire.get();
    }
    membership_.AddNode(i);
    bus_.AddMember(i, wire);
    ring_.AddNode(i);
    members_.push_back(std::move(member));
  }
  ring_epoch_ = membership_.epoch();
  // Bus deliveries double as failure-detector probes. The observer only
  // touches the membership table (never the bus) — it runs under the bus's
  // per-member queue lock, so calling back into the bus would deadlock.
  bus_.SetWireObserver(
      [this](int node, bool ok) { ObserveWire(node, ok); });
}

size_t ClusterRouter::CheckIndex(int i) const {
  DSSP_CHECK(i >= 0 && static_cast<size_t>(i) < members_.size());
  return static_cast<size_t>(i);
}

void ClusterRouter::ObserveWire(int node, bool ok) {
  if (ok) {
    membership_.ReportSuccess(node);
  } else {
    membership_.ReportFailure(node);
  }
}

void ClusterRouter::MaybeRebuildRing() {
  const uint64_t epoch = membership_.epoch();
  MutexLock lock(ring_mu_);
  if (epoch == ring_epoch_) return;
  const std::vector<int> servable = membership_.ServableNodes();
  // Reconcile instead of rebuilding from scratch: AddNode/RemoveNode are
  // idempotent and only the changed members' vnodes move.
  std::vector<bool> keep(members_.size(), false);
  for (int node : servable) keep[static_cast<size_t>(node)] = true;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (keep[i]) {
      ring_.AddNode(static_cast<int>(i));
    } else {
      ring_.RemoveNode(static_cast<int>(i));
    }
  }
  ring_epoch_ = epoch;
  rebalances_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<int> ClusterRouter::ServableOwners(const std::string& key) {
  MaybeRebuildRing();
  std::vector<int> owners;
  {
    MutexLock lock(ring_mu_);
    owners = ring_.Owners(key, options_.replication);
  }
  std::vector<int> servable;
  servable.reserve(owners.size());
  for (int node : owners) {
    Member& member = *members_[CheckIndex(node)];
    if (!member.endpoint->alive()) {
      // A dead wire observed on the lookup path feeds the same failure
      // detector as a failed bus delivery.
      if (membership_.ReportFailure(node) && !membership_.Servable(node)) {
        bus_.SetDeferred(node, true);
      }
      continue;
    }
    if (!membership_.Servable(node)) continue;
    if (bus_.Pending(node) > options_.bus.bus_lag) {
      // Reachable but lagging beyond the staleness bound: serving from it
      // could return a result the bus has already invalidated elsewhere.
      lagging_skips_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    servable.push_back(node);
  }
  return servable;
}

Status ClusterRouter::RegisterApp(std::string app_id,
                                  const catalog::Catalog* catalog,
                                  const templates::TemplateSet* templates) {
  for (auto& member : members_) {
    DSSP_RETURN_IF_ERROR(member->node->RegisterApp(app_id, catalog, templates));
  }
  return Status::Ok();
}

std::shared_ptr<const CacheEntry> ClusterRouter::LookupShared(
    const std::string& app_id, const std::string& key) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<int> owners = ServableOwners(RouteKey(app_id, key));
  if (owners.empty()) {
    // Whole replica set unservable: miss, the app falls back to its home.
    tls_last_route = RouteInfo{-1, false, false};
    return nullptr;
  }
  for (size_t idx = 0; idx < owners.size(); ++idx) {
    const int node = owners[idx];
    Member& member = *members_[CheckIndex(node)];
    std::shared_ptr<const CacheEntry> entry =
        member.node->LookupShared(app_id, key);
    if (entry == nullptr) continue;
    member.routed_lookups.fetch_add(1, std::memory_order_relaxed);
    const uint64_t since =
        member.lookups_since_rejoin.fetch_add(1, std::memory_order_relaxed);
    if (since < options_.warming_window) {
      member.warming_lookups.fetch_add(1, std::memory_order_relaxed);
    }
    if (idx == 0) {
      member.hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      member.replica_fallback_hits.fetch_add(1, std::memory_order_relaxed);
      replica_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    tls_last_route = RouteInfo{node, idx != 0, true};
    return entry;
  }
  // Clean miss, attributed to the preferred owner (it pays the store later).
  const int node = owners.front();
  Member& member = *members_[CheckIndex(node)];
  member.routed_lookups.fetch_add(1, std::memory_order_relaxed);
  const uint64_t since =
      member.lookups_since_rejoin.fetch_add(1, std::memory_order_relaxed);
  if (since < options_.warming_window) {
    member.warming_lookups.fetch_add(1, std::memory_order_relaxed);
  }
  tls_last_route = RouteInfo{node, false, false};
  return nullptr;
}

std::optional<CacheEntry> ClusterRouter::Lookup(const std::string& app_id,
                                                const std::string& key) {
  const std::shared_ptr<const CacheEntry> entry = LookupShared(app_id, key);
  if (entry == nullptr) return std::nullopt;
  return *entry;
}

std::optional<CacheEntry> ClusterRouter::LookupStale(
    const std::string& app_id, const std::string& key,
    uint64_t max_updates_behind) {
  const std::vector<int> owners = ServableOwners(RouteKey(app_id, key));
  for (size_t idx = 0; idx < owners.size(); ++idx) {
    const int node = owners[idx];
    Member& member = *members_[CheckIndex(node)];
    // A member that refused notices is permanently behind by that many
    // updates with nothing queued to replay — its backlog count understates
    // its true staleness, so no k bound derived from Pending() is sound.
    // Backlog-unsafe: skip it for stale reads entirely.
    if (bus_.Dropped(node) > 0) {
      lagging_skips_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Updates still queued on the bus for this member have not bumped its
    // local epoch yet, so an entry it retained reads `pending` updates
    // fresher than it globally is. Tighten the k-staleness bound by the
    // backlog (and skip the member when the backlog alone exceeds it).
    const uint64_t pending = bus_.Pending(node);
    if (pending > max_updates_behind) {
      lagging_skips_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto entry =
        member.node->LookupStale(app_id, key, max_updates_behind - pending);
    if (!entry.has_value()) continue;
    tls_last_route = RouteInfo{node, idx != 0, true};
    return entry;
  }
  tls_last_route = RouteInfo{owners.empty() ? -1 : owners.front(), false, false};
  return std::nullopt;
}

void ClusterRouter::Store(const std::string& app_id, CacheEntry entry) {
  const std::vector<int> owners = ServableOwners(RouteKey(app_id, entry.key));
  if (owners.empty()) {
    tls_last_route = RouteInfo{-1, false, false};
    return;  // Nobody to hold it; the next lookup goes home again.
  }
  tls_last_route = RouteInfo{owners.front(), false, false};
  // Write-through to the whole servable replica set so any of them can
  // answer when the owner dies. The entry is immutable, so they share it.
  const std::shared_ptr<const CacheEntry> shared =
      std::make_shared<const CacheEntry>(std::move(entry));
  for (const int node : owners) {
    Member& member = *members_[CheckIndex(node)];
    member.stores.fetch_add(1, std::memory_order_relaxed);
    member.node->StoreShared(app_id, shared);
  }
}

size_t ClusterRouter::OnUpdate(const std::string& app_id,
                               const UpdateNotice& notice) {
  // Updates are fanned to everyone, so for queueing purposes the simulator
  // charges them round-robin over the servable members.
  const std::vector<int> servable = membership_.ServableNodes();
  int charge = -1;
  if (!servable.empty()) {
    const uint64_t turn = update_rr_.fetch_add(1, std::memory_order_relaxed);
    charge = servable[turn % servable.size()];
  }
  const PublishOutcome outcome = bus_.Publish(app_id, notice);
  // Members the failure detector declared down get their queue deferred, so
  // the next publish does not burn a retry budget on a dead wire.
  for (size_t i = 0; i < members_.size(); ++i) {
    const int node = static_cast<int>(i);
    if (!membership_.Servable(node)) bus_.SetDeferred(node, true);
  }
  tls_last_route = RouteInfo{charge, false, false};
  return outcome.entries_invalidated;
}

size_t ClusterRouter::ClearCache(const std::string& app_id) {
  size_t cleared = 0;
  for (auto& member : members_) cleared += member->node->ClearCache(app_id);
  return cleared;
}

void ClusterRouter::SetStaleRetention(const std::string& app_id,
                                      size_t max_entries) {
  for (auto& member : members_) {
    member->node->SetStaleRetention(app_id, max_entries);
  }
}

void ClusterRouter::SetCacheCapacity(const std::string& app_id,
                                     size_t max_entries) {
  // Ceil-divide the cluster budget so N members never hold less than the
  // single-node deployment would.
  const size_t per_member =
      max_entries == 0
          ? 0
          : (max_entries + members_.size() - 1) / members_.size();
  for (auto& member : members_) {
    member->node->SetCacheCapacity(app_id, per_member);
  }
}

void ClusterRouter::KillNode(int node) {
  members_[CheckIndex(node)]->endpoint->Kill();
}

StatusOr<uint64_t> ClusterRouter::ReviveNode(int node) {
  Member& member = *members_[CheckIndex(node)];
  member.endpoint->Revive();
  bus_.SetDeferred(node, false);
  // The rejoin gate: replay every invalidation the member missed, in order,
  // before it may serve a single lookup. Its cache survives the outage
  // (warm rejoin) precisely because this drain brings it back within the
  // staleness bound.
  auto drained = bus_.Flush(node);
  if (!drained.ok()) {
    bus_.SetDeferred(node, true);
    return drained.status();
  }
  membership_.Rejoin(node);
  membership_.ReportSuccess(node);
  member.lookups_since_rejoin.store(0, std::memory_order_relaxed);
  MaybeRebuildRing();
  return *drained;
}

NodeRouteStats ClusterRouter::node_stats(int i) const {
  const Member& member = *members_[CheckIndex(i)];
  NodeRouteStats out;
  out.health = membership_.health(i);
  out.routed_lookups = member.routed_lookups.load(std::memory_order_relaxed);
  out.hits = member.hits.load(std::memory_order_relaxed);
  out.replica_fallback_hits =
      member.replica_fallback_hits.load(std::memory_order_relaxed);
  out.stores = member.stores.load(std::memory_order_relaxed);
  out.warming_lookups =
      member.warming_lookups.load(std::memory_order_relaxed);
  out.bus_pending = bus_.Pending(i);
  out.bus_dropped = bus_.Dropped(i);
  out.cache_entries = member.node->TotalCacheSize();
  return out;
}

ClusterRouteStats ClusterRouter::route_stats() const {
  ClusterRouteStats out;
  out.lookups = lookups_.load(std::memory_order_relaxed);
  out.replica_fallbacks = replica_fallbacks_.load(std::memory_order_relaxed);
  out.lagging_skips = lagging_skips_.load(std::memory_order_relaxed);
  out.rebalances = rebalances_.load(std::memory_order_relaxed);
  return out;
}

DsspStats ClusterRouter::AppStats(const std::string& app_id) const {
  DsspStats total;
  for (const auto& member : members_) {
    const DsspStats s = member->node->stats(app_id);
    total.lookups += s.lookups;
    total.hits += s.hits;
    total.misses += s.misses;
    total.stores += s.stores;
    total.updates_observed += s.updates_observed;
    total.entries_invalidated += s.entries_invalidated;
    total.stale_hits += s.stale_hits;
    total.rejected_notices += s.rejected_notices;
  }
  return total;
}

size_t ClusterRouter::TotalCacheSize(const std::string& app_id) const {
  size_t total = 0;
  for (const auto& member : members_) {
    total += member->node->CacheSize(app_id);
  }
  return total;
}

RouteInfo ClusterRouter::ConsumeLastRoute() {
  const RouteInfo route = tls_last_route;
  tls_last_route = RouteInfo{};
  return route;
}

}  // namespace dssp::cluster
