#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<uint64_t> next_tracer_id{1};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MedianUs(std::vector<int64_t>& ns) {
  if (ns.empty()) return 0;
  const size_t mid = (ns.size() - 1) / 2;
  std::nth_element(ns.begin(), ns.begin() + static_cast<ptrdiff_t>(mid),
                   ns.end());
  return static_cast<double>(ns[mid]) / 1000.0;
}

}  // namespace

struct ThreadState {
  struct Open {
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;
    int64_t child_ns;
    SpanKind kind;
  };

  uint64_t next_id = 0;
  uint32_t store_every = 1;
  uint64_t roots = 0;
  bool storing = false;
  std::vector<Open> stack;
  std::vector<Span> spans;
  std::array<KindTotals, kSpanKinds> totals{};
};

namespace {
// The calling thread's state in the tracer with id `tls_tracer`. Tracer ids
// are never reused, so a state left behind by a destroyed tracer is never
// dereferenced.
thread_local uint64_t tls_tracer = 0;
thread_local ThreadState* tls_state = nullptr;
}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAppQuery: return "app.query";
    case SpanKind::kAppUpdate: return "app.update";
    case SpanKind::kCacheLookup: return "cache.lookup";
    case SpanKind::kCacheStore: return "cache.store";
    case SpanKind::kCacheOnUpdate: return "cache.on_update";
    case SpanKind::kChannelRoundTrip: return "channel.round_trip";
    case SpanKind::kBackendQuery: return "backend.query";
    case SpanKind::kBackendUpdate: return "backend.update";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer(uint32_t store_every)
    : id_(next_tracer_id.fetch_add(1)),
      store_every_(std::max<uint32_t>(1, store_every)) {}

Tracer::~Tracer() = default;

ThreadState* Tracer::StateForThisThread() {
  if (tls_tracer == id_) return tls_state;
  auto state = std::make_unique<ThreadState>();
  state->store_every = store_every_;
  dssp::MutexLock lock(mu_);
  // Ids are unique across threads: the thread's slot in the high bits.
  state->next_id = (static_cast<uint64_t>(threads_.size()) + 1) << 40;
  tls_tracer = id_;
  tls_state = state.get();
  threads_.push_back(std::move(state));
  return tls_state;
}

Tracer::Scope::Scope(Tracer& tracer, SpanKind kind)
    : state_(tracer.StateForThisThread()) {
  ThreadState& s = *state_;
  const uint64_t parent = s.stack.empty() ? 0 : s.stack.back().id;
  if (s.stack.empty()) s.storing = s.roots++ % s.store_every == 0;
  s.stack.push_back({++s.next_id, parent, NowNs(), 0, kind});
}

Tracer::Scope::~Scope() {
  const int64_t end = NowNs();
  ThreadState& s = *state_;
  const ThreadState::Open open = s.stack.back();
  s.stack.pop_back();
  const int64_t duration = end - open.start_ns;
  KindTotals& totals = s.totals[static_cast<size_t>(open.kind)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (!s.stack.empty()) s.stack.back().child_ns += duration;
  if (s.storing) {
    s.spans.push_back(
        {open.id, open.parent, open.start_ns, end, open.kind, tag_});
  }
}

std::vector<Span> Tracer::Collect() const {
  dssp::MutexLock lock(mu_);
  std::vector<Span> out;
  for (const auto& state : threads_) {
    out.insert(out.end(), state->spans.begin(), state->spans.end());
  }
  return out;
}

std::array<KindTotals, kSpanKinds> Tracer::Totals() const {
  dssp::MutexLock lock(mu_);
  std::array<KindTotals, kSpanKinds> out{};
  for (const auto& state : threads_) {
    for (size_t k = 0; k < kSpanKinds; ++k) {
      out[k].count += state->totals[k].count;
      out[k].total_ns += state->totals[k].total_ns;
      out[k].self_ns += state->totals[k].self_ns;
    }
  }
  return out;
}

void Tracer::Clear() {
  dssp::MutexLock lock(mu_);
  for (const auto& state : threads_) {
    state->roots = 0;
    state->spans.clear();
    state->totals = {};
  }
}

TraceSummary Summarize(const std::vector<Span>& spans,
                       const std::array<KindTotals, kSpanKinds>& totals) {
  TraceSummary summary;
  summary.totals = totals;

  std::unordered_map<uint64_t, int64_t> child_ns;
  child_ns.reserve(spans.size());
  for (const Span& span : spans) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }

  std::array<std::vector<int64_t>, kSpanKinds> durations;
  std::array<std::vector<int64_t>, kSpanKinds> selfs;
  std::vector<int64_t> hit_self;
  std::vector<int64_t> miss_self;
  uint64_t invalidated = 0;
  uint64_t updates = 0;
  for (const Span& span : spans) {
    const size_t k = static_cast<size_t>(span.kind);
    const int64_t duration = span.end_ns - span.start_ns;
    const auto it = child_ns.find(span.id);
    const int64_t self = duration - (it == child_ns.end() ? 0 : it->second);
    durations[k].push_back(duration);
    selfs[k].push_back(self);
    if (span.kind == SpanKind::kAppQuery) {
      ((span.tag & kTagHit) != 0 ? hit_self : miss_self).push_back(self);
    } else if (span.kind == SpanKind::kCacheOnUpdate) {
      invalidated += span.tag;
      ++updates;
    }
  }
  for (size_t k = 0; k < kSpanKinds; ++k) {
    summary.median_us[k] = MedianUs(durations[k]);
    summary.self_median_us[k] = MedianUs(selfs[k]);
  }
  summary.hit_self_us = MedianUs(hit_self);
  summary.miss_self_us = MedianUs(miss_self);
  summary.invalidated_per_update =
      updates == 0 ? 0
                   : static_cast<double>(invalidated) /
                         static_cast<double>(updates);
  return summary;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\tkind\tstart_ns\tend_ns\ttag\n");
  for (const Span& span : spans) {
    std::fprintf(out, "%llu\t%llu\t%s\t%lld\t%lld\t%u\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 SpanKindName(span.kind),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.tag);
  }
  return std::fclose(out) == 0;
}

// ----- Decorators. -----

dssp::Status TracedCacheBackend::RegisterApp(
    std::string app_id, const dssp::catalog::Catalog* catalog,
    const dssp::templates::TemplateSet* templates) {
  return inner_.RegisterApp(std::move(app_id), catalog, templates);
}

std::optional<dssp::service::CacheEntry> TracedCacheBackend::Lookup(
    const std::string& app_id, const std::string& key) {
  Tracer::Scope span(tracer_, SpanKind::kCacheLookup);
  return inner_.Lookup(app_id, key);
}

std::optional<dssp::service::CacheEntry> TracedCacheBackend::LookupStale(
    const std::string& app_id, const std::string& key,
    uint64_t max_updates_behind) {
  return inner_.LookupStale(app_id, key, max_updates_behind);
}

void TracedCacheBackend::Store(const std::string& app_id,
                               dssp::service::CacheEntry entry) {
  Tracer::Scope span(tracer_, SpanKind::kCacheStore);
  inner_.Store(app_id, std::move(entry));
}

size_t TracedCacheBackend::OnUpdate(const std::string& app_id,
                                    const dssp::service::UpdateNotice& notice) {
  Tracer::Scope span(tracer_, SpanKind::kCacheOnUpdate);
  const size_t invalidated = inner_.OnUpdate(app_id, notice);
  span.set_tag(static_cast<uint32_t>(invalidated));
  return invalidated;
}

size_t TracedCacheBackend::ClearCache(const std::string& app_id) {
  return inner_.ClearCache(app_id);
}

void TracedCacheBackend::SetStaleRetention(const std::string& app_id,
                                           size_t max_entries) {
  inner_.SetStaleRetention(app_id, max_entries);
}

dssp::service::ChannelOutcome TracedChannel::RoundTrip(
    std::string_view request_frame) {
  Tracer::Scope span(tracer_, SpanKind::kChannelRoundTrip);
  return inner_->RoundTrip(request_frame);
}

dssp::StatusOr<std::string> TracedHomeBackend::HandleQuery(
    std::string_view ciphertext, bool plaintext_result) {
  Tracer::Scope span(tracer_, SpanKind::kBackendQuery);
  return inner_.HandleQuery(ciphertext, plaintext_result);
}

dssp::StatusOr<dssp::engine::UpdateEffect> TracedHomeBackend::HandleUpdate(
    std::string_view ciphertext, uint64_t nonce) {
  Tracer::Scope span(tracer_, SpanKind::kBackendUpdate);
  return inner_.HandleUpdate(ciphertext, nonce);
}

}  // namespace perfbench
