// Span tracing for the traced benchmark run.
//
// Spans are recorded from outside the program, by forwarding decorators
// installed at the three virtual seams the service stack already has:
//   - service::CacheBackend (what a ScalableApp is constructed over),
//   - service::Channel (installed with ScalableApp::SetChannel),
//   - backend::HomeBackend (placed under a DirectChannel),
// plus one root span per client operation opened by the benchmark loop.
//
// Every span updates per-kind busy totals (duration and self time), so busy
// shares cover the whole run. Only the spans of every `store_every`-th root
// are kept in memory, which bounds memory on million-operation runs; the
// per-kind medians come from that uniform sample.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/home_backend.h"
#include "common/mutex.h"
#include "dssp/channel.h"
#include "dssp/node.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kAppQuery,         // Root: one ScalableApp::Query.
  kAppUpdate,        // Root: one ScalableApp::Update.
  kCacheLookup,      // CacheBackend::Lookup.
  kCacheStore,       // CacheBackend::Store.
  kCacheOnUpdate,    // CacheBackend::OnUpdate.
  kChannelRoundTrip,  // Channel::RoundTrip.
  kBackendQuery,     // HomeBackend::HandleQuery.
  kBackendUpdate,    // HomeBackend::HandleUpdate.
  kCount,
};
inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);
const char* SpanKindName(SpanKind kind);

// Tags carried by root query spans.
inline constexpr uint32_t kTagHit = 1;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kAppQuery;
  uint32_t tag = 0;  // Root query: kTagHit. OnUpdate: entries invalidated.
};

struct KindTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;  // Sum of span durations.
  int64_t self_ns = 0;   // Sum of durations minus child spans.
};

// Collects spans from any number of threads. A thread's first span
// registers a per-thread buffer; Collect and Totals may be called once the
// recording threads have stopped.
class Tracer {
 public:
  explicit Tracer(uint32_t store_every);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // RAII span on the calling thread; the innermost open span of the thread
  // is its parent.
  class Scope {
   public:
    Scope(Tracer& tracer, SpanKind kind);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_tag(uint32_t tag) { tag_ = tag; }

   private:
    struct ThreadState* state_;
    uint32_t tag_ = 0;
  };

  // Stored spans of all threads (children precede their parents within a
  // thread).
  std::vector<Span> Collect() const;
  // Per-kind totals over every span, stored or not.
  std::array<KindTotals, kSpanKinds> Totals() const;
  // Drops every span and total recorded so far (e.g. a warm-up's).
  void Clear();

 private:
  friend class Scope;
  struct ThreadState* StateForThisThread();

  const uint64_t id_;
  const uint32_t store_every_;
  mutable dssp::Mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_ DSSP_GUARDED_BY(mu_);
};

// Span medians, self times and busy shares derived from one traced run.
struct TraceSummary {
  std::array<double, kSpanKinds> median_us{};       // Span duration.
  std::array<double, kSpanKinds> self_median_us{};  // Duration minus children.
  std::array<KindTotals, kSpanKinds> totals{};
  double hit_self_us = 0;   // Root queries answered from the cache.
  double miss_self_us = 0;  // Root queries that went to the home backend.
  double invalidated_per_update = 0;
};
TraceSummary Summarize(const std::vector<Span>& spans,
                       const std::array<KindTotals, kSpanKinds>& totals);

// Writes spans as tab-separated text: id, parent, kind, start_ns, end_ns,
// tag. Returns false if the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// ----- Forwarding decorators. Each forwards every interface method to the
// wrapped object unchanged; the hot-path methods also record a span. -----

class TracedCacheBackend : public dssp::service::CacheBackend {
 public:
  TracedCacheBackend(dssp::service::CacheBackend& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  dssp::Status RegisterApp(
      std::string app_id, const dssp::catalog::Catalog* catalog,
      const dssp::templates::TemplateSet* templates) override;
  std::optional<dssp::service::CacheEntry> Lookup(
      const std::string& app_id, const std::string& key) override;
  std::optional<dssp::service::CacheEntry> LookupStale(
      const std::string& app_id, const std::string& key,
      uint64_t max_updates_behind) override;
  void Store(const std::string& app_id,
             dssp::service::CacheEntry entry) override;
  size_t OnUpdate(const std::string& app_id,
                  const dssp::service::UpdateNotice& notice) override;
  size_t ClearCache(const std::string& app_id) override;
  void SetStaleRetention(const std::string& app_id,
                         size_t max_entries) override;

 private:
  dssp::service::CacheBackend& inner_;
  Tracer& tracer_;
};

class TracedChannel : public dssp::service::Channel {
 public:
  TracedChannel(std::unique_ptr<dssp::service::Channel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  dssp::service::ChannelOutcome RoundTrip(
      std::string_view request_frame) override;

 private:
  std::unique_ptr<dssp::service::Channel> inner_;
  Tracer& tracer_;
};

class TracedHomeBackend : public dssp::backend::HomeBackend {
 public:
  TracedHomeBackend(dssp::backend::HomeBackend& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  const std::string& app_id() const override { return inner_.app_id(); }
  dssp::StatusOr<std::string> HandleQuery(std::string_view ciphertext,
                                          bool plaintext_result) override;
  dssp::StatusOr<dssp::engine::UpdateEffect> HandleUpdate(
      std::string_view ciphertext, uint64_t nonce) override;
  dssp::Status Ping() override { return inner_.Ping(); }
  std::vector<std::string> TableNames() const override {
    return inner_.TableNames();
  }
  dssp::StatusOr<dssp::backend::TableMetadata> DescribeTable(
      std::string_view table) override {
    return inner_.DescribeTable(table);
  }
  void Tick(double now_s) override { inner_.Tick(now_s); }
  dssp::backend::HomeBackendStats Stats() const override {
    return inner_.Stats();
  }

 private:
  dssp::backend::HomeBackend& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
