// Microbenchmarks for the DSSP service path: cache hits, misses, and
// invalidation at the different exposure levels.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "bench/micro_util.h"
#include "workloads/bookstore.h"

namespace {

using dssp::analysis::ExposureLevel;
using dssp::bench::BuildSystem;
using dssp::sql::Value;

void RunQueryPath(benchmark::State& state, ExposureLevel level,
                  const char* template_id = "Q2",
                  const std::vector<Value>& params = {Value(17)}) {
  auto system = BuildSystem("bookstore", 0.5, 5);
  DSSP_CHECK_OK(system->app->SetExposure(dssp::bench::UniformExposure(
      *system->app, level, ExposureLevel::kStmt)));
  // Warm the entry, then measure the hit path.
  auto warm = system->app->Query(template_id, params);
  DSSP_CHECK(warm.ok());
  for (auto _ : state) {
    auto result = system->app->Query(template_id, params);
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] = static_cast<double>(warm->num_rows());
}

void BM_CacheHitView(benchmark::State& state) {
  RunQueryPath(state, ExposureLevel::kView);
}
BENCHMARK(BM_CacheHitView);

// A multi-row view-level hit: a subject search (Q4, up to 50 rows).
void BM_CacheHitViewSearch(benchmark::State& state) {
  RunQueryPath(state, ExposureLevel::kView, "Q4",
               {Value(dssp::workloads::BookstoreSubject(3))});
}
BENCHMARK(BM_CacheHitViewSearch);

void BM_CacheHitStmt(benchmark::State& state) {
  RunQueryPath(state, ExposureLevel::kStmt);
}
BENCHMARK(BM_CacheHitStmt);

void BM_CacheHitTemplate(benchmark::State& state) {
  RunQueryPath(state, ExposureLevel::kTemplate);
}
BENCHMARK(BM_CacheHitTemplate);

void BM_CacheHitBlind(benchmark::State& state) {
  RunQueryPath(state, ExposureLevel::kBlind);
}
BENCHMARK(BM_CacheHitBlind);

void BM_CacheMissAndFill(benchmark::State& state) {
  auto system = BuildSystem("bookstore", 0.5, 5);
  int64_t i = 0;
  for (auto _ : state) {
    // A fresh key each iteration: full miss -> home -> store path.
    auto result =
        system->app->Query("Q2", {Value(1 + (i++ % 500))});
    benchmark::DoNotOptimize(result);
    if (i % 500 == 0) system->node.ClearCache("bookstore");
  }
}
BENCHMARK(BM_CacheMissAndFill);

void BM_UpdateWithInvalidation(benchmark::State& state) {
  auto system = BuildSystem("bookstore", 0.5, 5);
  // Populate a cache of assorted entries.
  for (int64_t i = 1; i <= 200; ++i) {
    DSSP_CHECK(system->app->Query("Q2", {Value(i)}).ok());
    DSSP_CHECK(system->app->Query("Q18", {Value(i)}).ok());
  }
  const uint64_t invalidated_before =
      system->node.stats("bookstore").entries_invalidated;
  int64_t i = 0;
  for (auto _ : state) {
    // Stock updates invalidate the touched item's Q2/Q18 entries.
    const int64_t item = 1 + (i++ % 200);
    auto effect = system->app->Update("U6", {Value(50), Value(item)});
    benchmark::DoNotOptimize(effect);
    // Re-store them untimed, so every timed update meets a full cache.
    state.PauseTiming();
    DSSP_CHECK(system->app->Query("Q2", {Value(item)}).ok());
    DSSP_CHECK(system->app->Query("Q18", {Value(item)}).ok());
    state.ResumeTiming();
  }
  state.counters["cache_size"] = static_cast<double>(
      system->node.CacheSize("bookstore"));
  state.counters["invalidated_per_update"] = benchmark::Counter(
      static_cast<double>(system->node.stats("bookstore").entries_invalidated -
                          invalidated_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_UpdateWithInvalidation);

}  // namespace

int main(int argc, char** argv) {
  return dssp::bench::RunBenchmarkMain(argc, argv);
}
