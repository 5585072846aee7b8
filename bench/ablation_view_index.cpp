// Ablation: predicate-indexed view registry vs. full group scan.
//
// Fills a DSSP node with N statement-exposed cached views of a point query
// template and measures the per-update invalidation cost of a
// statement-exposed update notice: the node probes only candidate buckets
// of its predicate index, while the test-side scan oracle
// (tests/scan_oracle.h) walks every entry of every surviving group — the
// pre-index behavior. Sweeps N = 10^3 .. 10^6 cached views; both paths are
// checked to invalidate exactly the expected entries before timing. The two
// are filled and timed one after the other, so only one holds N views at a
// time.
//
// Flags:
//   --max-views N   cap the sweep (default 1000000; CI smoke uses 10000)
//   --updates K     timed updates per point (default 32)
//   --json <path>   write the sweep as machine-readable JSON
//
// Exits non-zero when the sweep violates the acceptance gates: >= 10x
// speedup at the largest point, and sublinear growth of the probe path
// (probe cost may grow at most ~sqrt of the view-count ratio).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/schema.h"
#include "dssp/node.h"
#include "templates/template_set.h"
#include "tests/scan_oracle.h"

namespace {

using Clock = std::chrono::steady_clock;
using dssp::analysis::ExposureLevel;
using dssp::service::CacheEntry;
using dssp::service::DsspNode;
using dssp::service::ScanOracle;
using dssp::service::UpdateNotice;
using dssp::sql::Value;

constexpr const char* kApp = "views";

double MicrosPer(Clock::duration d, int updates) {
  return std::chrono::duration<double, std::micro>(d).count() / updates;
}

CacheEntry MakeEntry(const dssp::templates::TemplateSet& templates,
                     int64_t id) {
  CacheEntry entry;
  entry.key = "k" + std::to_string(id);
  entry.level = ExposureLevel::kStmt;
  entry.template_index = 0;
  entry.statement = templates.queries()[0].Bind({Value(id)});
  entry.blob = "v" + std::to_string(id);
  return entry;
}

UpdateNotice MakeNotice(const dssp::templates::TemplateSet& templates,
                        int64_t id) {
  UpdateNotice notice;
  notice.level = ExposureLevel::kStmt;
  notice.template_index = 0;
  notice.statement = templates.updates()[0].Bind({Value(int64_t{0}), Value(id)});
  return notice;
}

// The node behind the Store/OnUpdate/size surface ScanOracle offers.
class ProbingNode {
 public:
  ProbingNode(const dssp::catalog::Catalog& catalog,
              const dssp::templates::TemplateSet& templates) {
    DSSP_CHECK(node_.RegisterApp(kApp, &catalog, &templates).ok());
  }
  void Store(CacheEntry entry) { node_.Store(kApp, std::move(entry)); }
  size_t OnUpdate(const UpdateNotice& notice) {
    return node_.OnUpdate(kApp, notice);
  }
  size_t size() const { return node_.CacheSize(kApp); }

 private:
  DsspNode node_;
};

size_t CacheSize(const ProbingNode& node) { return node.size(); }
size_t CacheSize(ScanOracle& oracle) { return oracle.cache().size(); }

// Fills `target` with `views` entries, checks that it invalidates exactly
// the matching entry for updates that hit and nothing for updates that
// miss, then returns its per-update cost in microseconds.
template <typename Target>
double CheckAndTime(Target& target,
                    const dssp::templates::TemplateSet& templates,
                    int64_t views, int timed_updates) {
  for (int64_t i = 0; i < views; ++i) {
    target.Store(MakeEntry(templates, i));
  }
  const int64_t step = views / 16;
  for (int j = 0; j < 16; ++j) {
    const int64_t id = j * step;
    DSSP_CHECK(target.OnUpdate(MakeNotice(templates, id)) == 1);
    target.Store(MakeEntry(templates, id));  // Refill.
    DSSP_CHECK(target.OnUpdate(MakeNotice(templates, views + id)) == 0);
  }
  DSSP_CHECK(CacheSize(target) == static_cast<size_t>(views));

  // Timed updates invalidate nothing, so the cache stays full and every
  // update pays the whole decision cost for its path.
  target.OnUpdate(MakeNotice(templates, views + 1));  // Warm up.
  const auto start = Clock::now();
  for (int j = 0; j < timed_updates; ++j) {
    target.OnUpdate(MakeNotice(templates, views + 2 + j));
  }
  return MicrosPer(Clock::now() - start, timed_updates);
}

struct SweepPoint {
  int64_t views = 0;
  double scan_us = 0;    // Per-update cost, scan oracle.
  double probe_us = 0;   // Per-update cost, node (index probe).
  double speedup = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* max_flag = dssp::bench::FlagValue(argc, argv, "--max-views");
  const char* updates_flag = dssp::bench::FlagValue(argc, argv, "--updates");
  const char* json_path = dssp::bench::FlagValue(argc, argv, "--json");
  const int64_t max_views =
      max_flag != nullptr ? std::atoll(max_flag) : 1000000;
  const int timed_updates =
      updates_flag != nullptr ? std::atoi(updates_flag) : 32;
  DSSP_CHECK(max_views >= 1000 && timed_updates > 0);

  dssp::catalog::Catalog catalog;
  DSSP_CHECK(catalog
                 .AddTable(dssp::catalog::TableSchema(
                     "t",
                     {{"id", dssp::catalog::ColumnType::kInt64},
                      {"v", dssp::catalog::ColumnType::kInt64}},
                     {"id"}))
                 .ok());
  dssp::templates::TemplateSet templates;
  DSSP_CHECK(
      templates.AddQuerySql("SELECT v FROM t WHERE id = ?", catalog).ok());
  DSSP_CHECK(
      templates.AddUpdateSql("UPDATE t SET v = ? WHERE id = ?", catalog)
          .ok());

  std::printf(
      "Ablation — predicate-indexed view registry vs. full group scan\n"
      "(statement-exposed point query; per-update invalidation cost over\n"
      " N cached views; the node's probe vs. the test-side scan oracle,\n"
      " each verified to invalidate exactly the matching entries)\n\n");
  std::printf("%10s %14s %14s %9s\n", "views", "scan-us/upd",
              "probe-us/upd", "speedup");
  std::printf("%s\n", std::string(50, '-').c_str());

  std::vector<SweepPoint> points;
  for (int64_t views = 1000; views <= max_views; views *= 10) {
    SweepPoint point;
    point.views = views;
    {
      ScanOracle oracle(catalog, templates);
      point.scan_us = CheckAndTime(oracle, templates, views, timed_updates);
    }
    {
      ProbingNode node(catalog, templates);
      point.probe_us = CheckAndTime(node, templates, views, timed_updates);
    }
    point.speedup = point.scan_us / point.probe_us;
    std::printf("%10lld %14.2f %14.2f %8.1fx\n",
                static_cast<long long>(point.views), point.scan_us,
                point.probe_us, point.speedup);
    points.push_back(point);
  }

  // Gates. Speedup: the probe path must beat the scan by >= 10x at the
  // largest point. Sublinearity: scan cost grows ~linearly with N; the
  // probe path must grow at most ~sqrt of the view-count ratio (a bucket
  // lookup is logarithmic, so sqrt leaves generous timing slack).
  const SweepPoint& first = points.front();
  const SweepPoint& last = points.back();
  const double ratio = static_cast<double>(last.views) /
                       static_cast<double>(first.views);
  const double growth = last.probe_us / first.probe_us;
  const bool speedup_ok = last.speedup >= 10.0;
  const bool sublinear_ok = points.size() < 2 || growth <= std::sqrt(ratio);
  std::printf(
      "\nspeedup at %lld views: %.1fx (gate >= 10x): %s\n"
      "probe growth %.2fx over a %.0fx view ratio (gate <= %.1fx): %s\n",
      static_cast<long long>(last.views), last.speedup,
      speedup_ok ? "PASS" : "FAIL", growth, ratio, std::sqrt(ratio),
      sublinear_ok ? "PASS" : "FAIL");

  if (json_path != nullptr) {
    std::vector<dssp::bench::JsonObject> rows;
    for (const SweepPoint& point : points) {
      dssp::bench::JsonObject row;
      row.Set("views", static_cast<uint64_t>(point.views));
      row.Set("scan_us_per_update", point.scan_us);
      row.Set("probe_us_per_update", point.probe_us);
      row.Set("speedup", point.speedup);
      rows.push_back(std::move(row));
    }
    dssp::bench::JsonObject doc;
    doc.Set("experiment", "ablation_view_index");
    doc.Set("timed_updates", timed_updates);
    doc.Set("max_views", static_cast<uint64_t>(max_views));
    doc.Set("speedup_gate_pass", speedup_ok);
    doc.Set("sublinear_gate_pass", sublinear_ok);
    doc.SetRaw("rows", dssp::bench::JsonArray(rows));
    dssp::bench::WriteJsonFile(json_path, doc);
  }
  return speedup_ok && sublinear_ok ? 0 : 1;
}
