// Differential tests of the per-template text codec: rendering a template's
// parameters must give the bytes binding and printing the statement gives,
// and the keys and request frames ScalableApp builds from it must equal the
// ones built from the bound statement, at every exposure level.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/app.h"
#include "dssp/protocol.h"
#include "workloads/application.h"

namespace dssp::service {
namespace {

using analysis::ExposureAssignment;
using analysis::ExposureLevel;
using sql::Value;

constexpr const char* kApps[] = {"toystore", "bookstore", "auction",
                                 "bboard"};
constexpr int kDrawsPerTemplate = 64;

// Literals whose spellings are easy to get wrong: NULL, the int64 extremes,
// negatives, signed zero, huge, subnormal and non-integral doubles, and
// strings holding quotes, `?` or nothing.
std::vector<Value> ParamPool() {
  return {Value::Null(),
          Value(std::numeric_limits<int64_t>::min()),
          Value(std::numeric_limits<int64_t>::max()),
          Value(int64_t{-1}),
          Value(int64_t{-42}),
          Value(int64_t{0}),
          Value(int64_t{17}),
          Value(-0.0),
          Value(1e300),
          Value(5e-324),
          Value(0.1),
          Value(-2.5),
          Value(std::string("'")),
          Value(std::string("''")),
          Value(std::string("?")),
          Value(std::string("")),
          Value(std::string("it's ? o''clock")),
          Value(std::string("plain"))};
}

std::vector<Value> DrawParams(Rng& rng, const std::vector<Value>& pool,
                              int n) {
  std::vector<Value> params;
  for (int i = 0; i < n; ++i) {
    params.push_back(pool[rng.NextBelow(pool.size())]);
  }
  return params;
}

// Records what the app hands the DSSP and caches nothing, so every query is
// a miss that reaches the wire.
class RecordingBackend : public CacheBackend {
 public:
  Status RegisterApp(std::string, const catalog::Catalog*,
                     const templates::TemplateSet*) override {
    return Status::Ok();
  }
  std::optional<CacheEntry> Lookup(const std::string&,
                                   const std::string& key) override {
    keys.push_back(key);
    return std::nullopt;
  }
  std::optional<CacheEntry> LookupStale(const std::string&,
                                        const std::string&,
                                        uint64_t) override {
    return std::nullopt;
  }
  void Store(const std::string&, CacheEntry) override {}
  size_t OnUpdate(const std::string&, const UpdateNotice& notice) override {
    notices.push_back(notice);
    return 0;
  }
  size_t ClearCache(const std::string&) override { return 0; }
  void SetStaleRetention(const std::string&, size_t) override {}

  std::vector<std::string> keys;
  std::vector<UpdateNotice> notices;
};

// Records each request frame and loses it, so no statement reaches the home
// database (random parameters need not type-check).
class RecordingDropChannel : public Channel {
 public:
  ChannelOutcome RoundTrip(std::string_view request_frame) override {
    frames.emplace_back(request_frame);
    return ChannelOutcome{};
  }

  std::vector<std::string> frames;
};

struct Fixture {
  explicit Fixture(const char* name)
      : app(name, &backend, crypto::KeyRing::FromPassphrase("codec-test")) {
    auto workload = workloads::MakeApplication(name);
    DSSP_CHECK_OK(workload->Setup(app, /*scale=*/0.05, /*seed=*/1));
    DSSP_CHECK_OK(app.Finalize());
    auto owned = std::make_unique<RecordingDropChannel>();
    channel = owned.get();
    app.SetChannel(std::move(owned));
  }

  RecordingBackend backend;
  ScalableApp app;
  RecordingDropChannel* channel = nullptr;
};

TEST(TemplateCodecTest, RenderEqualsToSqlOfBindOnEveryTemplate) {
  const std::vector<Value> pool = ParamPool();
  Rng rng(23);
  for (const char* name : kApps) {
    Fixture f(name);
    const templates::TemplateSet& set = f.app.templates();
    for (const templates::QueryTemplate& tmpl : set.queries()) {
      for (int draw = 0; draw < kDrawsPerTemplate; ++draw) {
        const std::vector<Value> params =
            DrawParams(rng, pool, tmpl.num_params());
        std::string rendered;
        tmpl.Render(params, &rendered);
        ASSERT_EQ(rendered, sql::ToSql(tmpl.Bind(params)))
            << name << " " << tmpl.id();
      }
    }
    for (const templates::UpdateTemplate& tmpl : set.updates()) {
      for (int draw = 0; draw < kDrawsPerTemplate; ++draw) {
        const std::vector<Value> params =
            DrawParams(rng, pool, tmpl.num_params());
        std::string rendered = "prefix";
        tmpl.Render(params, &rendered);
        ASSERT_EQ(rendered, "prefix" + sql::ToSql(tmpl.Bind(params)))
            << name << " " << tmpl.id();
      }
    }
  }
}

// Reference exposure-level key (Section 2.2, footnote 3), built from the
// bound statement: the keys Query renders must equal it byte for byte.
std::string BoundKey(const ScalableApp& app,
                     const templates::QueryTemplate& tmpl,
                     ExposureLevel level, const std::vector<Value>& params) {
  const std::string text = sql::ToSql(tmpl.Bind(params));
  switch (level) {
    case ExposureLevel::kView:
    case ExposureLevel::kStmt:
      return "s:" + text;
    case ExposureLevel::kTemplate: {
      std::string key = "t:" + tmpl.id();
      for (const Value& param : params) {
        key += "|";
        key += app.home().parameter_cipher().Encrypt(param.EncodeForKey());
      }
      return key;
    }
    case ExposureLevel::kBlind:
      return "b:" + app.home().statement_cipher().Encrypt(text);
  }
  return "";
}

TEST(TemplateCodecTest, QueryKeysAndRequestsMatchBoundStatements) {
  const std::vector<Value> pool = ParamPool();
  Rng rng(29);
  for (const char* name : kApps) {
    Fixture f(name);
    const templates::TemplateSet& set = f.app.templates();
    const crypto::DeterministicCipher& cipher =
        f.app.home().statement_cipher();
    for (ExposureLevel level :
         {ExposureLevel::kView, ExposureLevel::kStmt, ExposureLevel::kTemplate,
          ExposureLevel::kBlind}) {
      ExposureAssignment exposure = ExposureAssignment::FullExposure(
          set.num_queries(), set.num_updates());
      for (auto& l : exposure.query_levels) l = level;
      ASSERT_TRUE(f.app.SetExposure(exposure).ok());
      for (const templates::QueryTemplate& tmpl : set.queries()) {
        for (int draw = 0; draw < kDrawsPerTemplate / 4; ++draw) {
          const std::vector<Value> params =
              DrawParams(rng, pool, tmpl.num_params());
          f.backend.keys.clear();
          f.channel->frames.clear();
          // The dropped frame fails the query after the lookup and the send.
          EXPECT_FALSE(f.app.Query(tmpl.id(), params).ok());
          ASSERT_EQ(f.backend.keys.size(), 1u);
          EXPECT_EQ(f.backend.keys[0], BoundKey(f.app, tmpl, level, params))
              << name << " " << tmpl.id() << " "
              << analysis::ExposureLevelName(level);
          ASSERT_EQ(f.channel->frames.size(), 1u);
          auto request = DecodeQueryRequest(f.channel->frames[0]);
          ASSERT_TRUE(request.ok());
          EXPECT_EQ(request->encrypted_statement,
                    cipher.Encrypt(sql::ToSql(tmpl.Bind(params))))
              << name << " " << tmpl.id();
          EXPECT_EQ(request->plaintext_result, level == ExposureLevel::kView);
        }
      }
    }
  }
}

TEST(TemplateCodecTest, UpdateRequestsAndNoticesMatchBoundStatements) {
  const std::vector<Value> pool = ParamPool();
  Rng rng(31);
  for (const char* name : kApps) {
    Fixture f(name);
    const templates::TemplateSet& set = f.app.templates();
    const crypto::DeterministicCipher& cipher =
        f.app.home().statement_cipher();
    for (ExposureLevel level : {ExposureLevel::kStmt, ExposureLevel::kBlind}) {
      ExposureAssignment exposure = ExposureAssignment::FullExposure(
          set.num_queries(), set.num_updates());
      for (auto& l : exposure.update_levels) l = level;
      ASSERT_TRUE(f.app.SetExposure(exposure).ok());
      for (const templates::UpdateTemplate& tmpl : set.updates()) {
        for (int draw = 0; draw < kDrawsPerTemplate / 4; ++draw) {
          const std::vector<Value> params =
              DrawParams(rng, pool, tmpl.num_params());
          const std::string text = sql::ToSql(tmpl.Bind(params));
          f.backend.notices.clear();
          f.channel->frames.clear();
          EXPECT_FALSE(f.app.Update(tmpl.id(), params).ok());
          ASSERT_EQ(f.channel->frames.size(), 1u);
          auto request = DecodeUpdateRequest(f.channel->frames[0]);
          ASSERT_TRUE(request.ok());
          EXPECT_EQ(request->encrypted_statement, cipher.Encrypt(text))
              << name << " " << tmpl.id();
          // A lost acknowledgement still delivers the notice; only a
          // stmt-level one carries the bound statement.
          ASSERT_EQ(f.backend.notices.size(), 1u);
          const UpdateNotice& notice = f.backend.notices[0];
          ASSERT_EQ(notice.statement.has_value(),
                    level == ExposureLevel::kStmt);
          if (notice.statement.has_value()) {
            EXPECT_EQ(sql::ToSql(*notice.statement), text);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dssp::service
