#include "dssp/app.h"

#include "dssp/protocol.h"

namespace dssp::service {

namespace {

// Small fixed overhead modeling request framing on the wire.
constexpr size_t kRequestOverheadBytes = 64;

}  // namespace

ScalableApp::ScalableApp(std::string app_id, CacheBackend* dssp,
                         crypto::KeyRing keyring)
    : home_(std::move(app_id), std::move(keyring)),
      dssp_(dssp),
      channel_(std::make_unique<DirectChannel>(home_)) {
  DSSP_CHECK(dssp_ != nullptr);
}

void ScalableApp::SetChannel(std::unique_ptr<Channel> channel) {
  DSSP_CHECK(channel != nullptr);
  channel_ = std::move(channel);
  if (client_ != nullptr) {
    // Rebind the retry client to the new transport.
    client_ = std::make_unique<RetryingClient>(
        channel_.get(), wire_policy_.retry, wire_policy_.seed);
  }
}

void ScalableApp::SetWirePolicy(const WirePolicy& policy) {
  wire_policy_ = policy;
  client_ = std::make_unique<RetryingClient>(channel_.get(), policy.retry,
                                             policy.seed);
}

WireCounters ScalableApp::wire_counters() const {
  WireCounters out;
  out.attempts = wire_counters_.attempts.load(std::memory_order_relaxed);
  out.retries = wire_counters_.retries.load(std::memory_order_relaxed);
  out.timeouts = wire_counters_.timeouts.load(std::memory_order_relaxed);
  out.corrupt_frames_dropped =
      wire_counters_.corrupt_frames_dropped.load(std::memory_order_relaxed);
  out.stale_serves =
      wire_counters_.stale_serves.load(std::memory_order_relaxed);
  out.failures = wire_counters_.failures.load(std::memory_order_relaxed);
  return out;
}

StatusOr<std::string> ScalableApp::WireCall(const std::string& request_frame,
                                            AccessStats& s) {
  if (client_ == nullptr) {
    // Legacy path: one unsealed attempt, byte-for-byte the pre-channel
    // behavior over a DirectChannel.
    ChannelOutcome outcome = channel_->RoundTrip(request_frame);
    s.wire_attempts = 1;
    s.wire_delay_s += outcome.delay_s;
    s.wan_request_bytes = kRequestOverheadBytes + request_frame.size();
    wire_counters_.attempts.fetch_add(1, std::memory_order_relaxed);
    if (!outcome.delivered) {
      s.wire_timeouts = 1;
      wire_counters_.timeouts.fetch_add(1, std::memory_order_relaxed);
      wire_counters_.failures.fetch_add(1, std::memory_order_relaxed);
      return UnavailableError("home server unreachable");
    }
    s.wan_response_bytes = kRequestOverheadBytes + outcome.response.size();
    return std::move(outcome.response);
  }

  WireStats ws;
  StatusOr<std::string> inner = client_->Call(request_frame, &ws);
  s.wire_attempts = ws.attempts;
  s.wire_retries = ws.retries;
  s.wire_timeouts = ws.timeouts;
  s.corrupt_frames_dropped = ws.corrupt_frames_dropped;
  s.wire_delay_s += ws.delay_s;
  s.wan_request_bytes =
      static_cast<size_t>(ws.attempts) * kRequestOverheadBytes +
      ws.request_bytes;
  s.wan_response_bytes =
      static_cast<size_t>(ws.attempts - ws.timeouts) * kRequestOverheadBytes +
      ws.response_bytes;
  wire_counters_.attempts.fetch_add(ws.attempts, std::memory_order_relaxed);
  wire_counters_.retries.fetch_add(ws.retries, std::memory_order_relaxed);
  wire_counters_.timeouts.fetch_add(ws.timeouts, std::memory_order_relaxed);
  wire_counters_.corrupt_frames_dropped.fetch_add(
      ws.corrupt_frames_dropped, std::memory_order_relaxed);
  if (!inner.ok()) {
    wire_counters_.failures.fetch_add(1, std::memory_order_relaxed);
  }
  return inner;
}

Status ScalableApp::Finalize() {
  if (finalized_) return FailedPreconditionError("already finalized");
  DSSP_RETURN_IF_ERROR(dssp_->RegisterApp(
      app_id(), &home_.database().catalog(), &home_.templates()));
  exposure_ = analysis::ExposureAssignment::FullExposure(
      templates().num_queries(), templates().num_updates());
  finalized_ = true;
  return Status::Ok();
}

Status ScalableApp::SetExposure(analysis::ExposureAssignment exposure) {
  if (!finalized_) return FailedPreconditionError("call Finalize() first");
  if (exposure.query_levels.size() != templates().num_queries() ||
      exposure.update_levels.size() != templates().num_updates()) {
    return InvalidArgumentError("exposure assignment size mismatch");
  }
  DSSP_RETURN_IF_ERROR(exposure.Validate());
  exposure_ = std::move(exposure);
  dssp_->ClearCache(app_id());
  return Status::Ok();
}

std::string ScalableApp::LookupKey(
    const templates::QueryTemplate& tmpl, analysis::ExposureLevel level,
    const std::vector<sql::Value>& params) const {
  switch (level) {
    case analysis::ExposureLevel::kView:
    case analysis::ExposureLevel::kStmt: {
      // Plaintext statement as key.
      std::string key = "s:";
      tmpl.Render(params, &key);
      return key;
    }
    case analysis::ExposureLevel::kTemplate: {
      // Template id + deterministically encrypted parameters.
      std::string key = "t:" + tmpl.id();
      const crypto::DeterministicCipher& cipher = home_.parameter_cipher();
      for (const sql::Value& param : params) {
        key += "|";
        key += cipher.Encrypt(param.EncodeForKey());
      }
      return key;
    }
    case analysis::ExposureLevel::kBlind: {
      // Encrypted full statement.
      std::string text;
      tmpl.Render(params, &text);
      return "b:" + home_.statement_cipher().Encrypt(text);
    }
  }
  DSSP_UNREACHABLE("bad ExposureLevel");
}

StatusOr<engine::QueryResult> ScalableApp::Query(
    std::string_view template_id, const std::vector<sql::Value>& params,
    AccessStats* stats) {
  if (!finalized_) return FailedPreconditionError("call Finalize() first");
  const size_t index = templates().QueryIndex(template_id);
  if (index == templates::TemplateSet::kNpos) {
    return NotFoundError("query template " + std::string(template_id));
  }
  const templates::QueryTemplate& tmpl = templates().queries()[index];
  if (static_cast<int>(params.size()) != tmpl.num_params()) {
    return InvalidArgumentError("parameter count mismatch for " + tmpl.id());
  }
  const analysis::ExposureLevel level = exposure_.query_levels[index];
  std::string key = LookupKey(tmpl, level, params);

  AccessStats local;
  AccessStats& s = stats != nullptr ? *stats : local;
  s = AccessStats{};

  // `blob` views the bytes a hit returns: the shared cache entry's, the
  // home server's response, or a stale entry's. Each owner below outlives
  // the decryption at the end. `result` holds a view-level result that is
  // already decoded (the entry's or the fill's), shared rather than decoded
  // again.
  const std::shared_ptr<const CacheEntry> entry =
      dssp_->LookupShared(app_id(), key);
  std::string fetched;
  std::optional<CacheEntry> stale;
  std::string_view blob;
  std::optional<engine::QueryResult> result;
  s.request_bytes = kRequestOverheadBytes + key.size();
  if (entry != nullptr) {
    s.cache_hit = true;
    blob = entry->blob;
    result = entry->result;
  } else {
    // Miss: the DSSP forwards the (encrypted) query to the home server as a
    // protocol frame (Figure 2), over the configured wire path.
    const bool plaintext_result = level == analysis::ExposureLevel::kView;
    std::string text;
    tmpl.Render(params, &text);
    const std::string request_frame = Encode(QueryRequest{
        home_.statement_cipher().Encrypt(text), plaintext_result});
    StatusOr<std::string> response_frame = WireCall(request_frame, s);
    if (response_frame.ok()) {
      DSSP_ASSIGN_OR_RETURN(fetched, UnwrapQueryResponse(*response_frame));
      blob = fetched;

      CacheEntry fresh;
      fresh.key = std::move(key);  // Not read again on this path.
      fresh.level = level;
      fresh.blob = fetched;
      if (level != analysis::ExposureLevel::kBlind) {
        fresh.template_index = index;
      }
      if (level == analysis::ExposureLevel::kStmt ||
          level == analysis::ExposureLevel::kView) {
        fresh.statement = tmpl.Bind(params);
      }
      if (plaintext_result) {
        DSSP_ASSIGN_OR_RETURN(result,
                              engine::QueryResult::Deserialize(fetched));
        fresh.result = result;
      }
      dssp_->Store(app_id(), std::move(fresh));
    } else {
      // Home unreachable. Degraded mode: serve a recently invalidated
      // entry if the policy's staleness bound allows it (not re-cached,
      // counted separately).
      const StatusCode code = response_frame.status().code();
      if (client_ != nullptr && wire_policy_.stale_serve_bound > 0 &&
          (code == StatusCode::kUnavailable ||
           code == StatusCode::kDeadlineExceeded)) {
        stale = dssp_->LookupStale(app_id(), key,
                                   wire_policy_.stale_serve_bound);
      }
      if (!stale.has_value()) return response_frame.status();
      s.served_stale = true;
      wire_counters_.stale_serves.fetch_add(1, std::memory_order_relaxed);
      blob = stale->blob;
      result = std::move(stale->result);
    }
  }

  s.response_bytes = kRequestOverheadBytes + blob.size();

  if (!result.has_value()) {
    // Client-side decryption of the blob; a view-level blob is already the
    // plaintext serialization.
    std::string decrypted;
    std::string_view serialized = blob;
    if (level != analysis::ExposureLevel::kView) {
      decrypted = home_.result_cipher().Decrypt(blob);
      serialized = decrypted;
    }
    DSSP_ASSIGN_OR_RETURN(result,
                          engine::QueryResult::Deserialize(serialized));
  }
  s.result_rows = result->num_rows();
  return *std::move(result);
}

StatusOr<engine::UpdateEffect> ScalableApp::Update(
    std::string_view template_id, const std::vector<sql::Value>& params,
    AccessStats* stats) {
  if (!finalized_) return FailedPreconditionError("call Finalize() first");
  const size_t index = templates().UpdateIndex(template_id);
  if (index == templates::TemplateSet::kNpos) {
    return NotFoundError("update template " + std::string(template_id));
  }
  const templates::UpdateTemplate& tmpl = templates().updates()[index];
  if (static_cast<int>(params.size()) != tmpl.num_params()) {
    return InvalidArgumentError("parameter count mismatch for " + tmpl.id());
  }
  const analysis::ExposureLevel level = exposure_.update_levels[index];

  AccessStats local;
  AccessStats& s = stats != nullptr ? *stats : local;
  s = AccessStats{};
  s.is_update = true;

  // All updates are routed to the home server in encrypted form (Figure 2).
  // The hardened path stamps a dedup nonce so retries are at-most-once.
  std::string text;
  tmpl.Render(params, &text);
  UpdateRequest request{home_.statement_cipher().Encrypt(text)};
  if (client_ != nullptr) {
    request.nonce = next_nonce_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::string request_frame = Encode(request);
  s.request_bytes = kRequestOverheadBytes + request_frame.size();
  s.response_bytes = kRequestOverheadBytes;  // Acknowledgement.

  // The DSSP monitors the update and invalidates, seeing only the
  // exposure-gated notice.
  UpdateNotice notice;
  notice.level = level;
  if (level != analysis::ExposureLevel::kBlind) {
    notice.template_index = index;
  }
  if (level == analysis::ExposureLevel::kStmt) {
    notice.statement = tmpl.Bind(params);
  }

  StatusOr<std::string> response_frame = WireCall(request_frame, s);
  if (!response_frame.ok()) {
    // No acknowledgement — but the home server may still have applied the
    // update (e.g. only the response was lost). Invalidate conservatively:
    // cached results must never outlive an update that might have landed.
    s.entries_invalidated = dssp_->OnUpdate(app_id(), notice);
    return response_frame.status();
  }
  DSSP_ASSIGN_OR_RETURN(engine::UpdateEffect effect,
                        UnwrapUpdateResponse(*response_frame));
  s.rows_affected = effect.rows_affected;
  s.entries_invalidated = dssp_->OnUpdate(app_id(), notice);
  return effect;
}

}  // namespace dssp::service
