// Real-thread throughput of the sharded DsspNode under a mixed
// lookup/store/update workload over the toystore templates, 1–16 threads.
// The node is the only thread-safe surface of the stack (home servers and
// ciphers are per-tenant, client-side state), so the benchmark drives it
// directly with pre-built exposure-gated entries and update notices.
//
// Measured result (4 vCPUs, RelWithDebInfo, --benchmark_min_time=0.3,
// median of 7 runs): the node does not scale. At 4 threads
// BM_NodeLookupOnly runs at 0.70x its 1-thread items/s (6.3 M -> 4.4 M) and
// BM_NodeMixedWorkload at 0.50x (6.5 M -> 3.2 M). The node is unbounded
// here, so lookups no longer stamp the cache-global LRU tick, but every
// lookup still writes shared cache lines (the registry's reader count,
// per-app stats atomics, the shard mutex); this is an open defect
// (ROADMAP.md, node read-path scaling), not a scaling claim. The host's
// speed swings between runs, so the ratios move by about 0.2.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "dssp/cache.h"
#include "dssp/node.h"

namespace {

using dssp::Rng;
using dssp::analysis::ExposureLevel;
using dssp::service::CacheEntry;
using dssp::service::DsspNode;
using dssp::service::UpdateNotice;

constexpr int kKeySpace = 4096;
constexpr char kApp[] = "toystore";

struct MtSystem {
  std::unique_ptr<dssp::bench::System> system;  // Owns catalog + templates.
  std::vector<UpdateNotice> notices;
};

CacheEntry TemplateEntry(int key, size_t template_index) {
  CacheEntry entry;
  entry.key = "t:" + std::to_string(key);
  entry.level = ExposureLevel::kTemplate;
  entry.template_index = template_index;
  entry.blob = "serialized-result-" + std::to_string(key);
  return entry;
}

MtSystem& System() {
  static MtSystem* mt = [] {
    auto* out = new MtSystem;
    out->system = dssp::bench::BuildSystem(kApp, /*scale=*/0.25, /*seed=*/5);
    const auto& templates = out->system->app->templates();
    for (size_t i = 0; i < templates.num_updates(); ++i) {
      UpdateNotice notice;
      notice.level = ExposureLevel::kTemplate;
      notice.template_index = i;
      out->notices.push_back(std::move(notice));
    }
    return out;
  }();
  return *mt;
}

void Prefill(DsspNode& node) {
  node.ClearCache(kApp);
  for (int k = 0; k < kKeySpace; ++k) {
    node.Store(kApp, TemplateEntry(k, k % 3));
  }
}

// Mixed workload: 90% lookups, 8% stores, 2% exposure-gated update notices
// (each notice drains matching template groups shard by shard).
void BM_NodeMixedWorkload(benchmark::State& state) {
  MtSystem& mt = System();
  DsspNode& node = mt.system->node;
  if (state.thread_index() == 0) Prefill(node);
  Rng rng(1234 + state.thread_index() * 7919);
  for (auto _ : state) {
    const int64_t op = rng.NextInt(0, 99);
    const int key = static_cast<int>(rng.NextInt(0, kKeySpace - 1));
    if (op < 90) {
      benchmark::DoNotOptimize(
          node.LookupShared(kApp, "t:" + std::to_string(key)));
    } else if (op < 98) {
      node.Store(kApp, TemplateEntry(key, key % 3));
    } else {
      benchmark::DoNotOptimize(node.OnUpdate(
          kApp, mt.notices[key % mt.notices.size()]));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeMixedWorkload)->ThreadRange(1, 16)->UseRealTime();

// Lookup-only scaling: the pure read path (shard lock + shared entry
// handoff; no LRU touch, since the node has no capacity bound), the common
// case for a read-mostly tenant.
void BM_NodeLookupOnly(benchmark::State& state) {
  MtSystem& mt = System();
  DsspNode& node = mt.system->node;
  if (state.thread_index() == 0) Prefill(node);
  Rng rng(99 + state.thread_index() * 131);
  for (auto _ : state) {
    const int key = static_cast<int>(rng.NextInt(0, kKeySpace - 1));
    benchmark::DoNotOptimize(
        node.LookupShared(kApp, "t:" + std::to_string(key)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeLookupOnly)->ThreadRange(1, 16)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
