// Property/fuzz tests for the wire-protocol codecs: every message type
// round-trips; mutated, truncated, and extended frames are rejected cleanly
// (no crash, no overread — run under ASan via -DDSSP_ASAN=ON); and the
// sealed-frame envelope detects every byte of damage. Includes regression
// frames for the ReadString/ReadU64 length-overflow bug, where a 64-bit
// attacker-controlled length near UINT64_MAX wrapped the `pos + length`
// bounds check and walked past the end of the frame. The inter-node wire is
// fuzzed end to end too: the invalidation bus endpoint (NodeChannel) answers
// every frame with a sealed, decodable reply, and the retired frame byte 8
// is refused everywhere. The result blob a view-level response carries is
// decoded too, as the client decodes it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "backend/in_memory_backend.h"
#include "cluster/bus.h"
#include "common/random.h"
#include "crypto/keyring.h"
#include "dssp/node.h"
#include "dssp/protocol.h"
#include "engine/query_result.h"

namespace dssp::service {
namespace {

std::string RandomBytes(Rng& rng, size_t length) {
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return out;
}

void AppendLe64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

// Runs every decoder plus the client-side unwrappers over one frame. The
// point is the *absence* of crashes/overreads, so results are discarded.
void ExerciseAllDecoders(const std::string& frame) {
  (void)PeekType(frame);
  (void)DecodeQueryRequest(frame);
  (void)DecodeQueryResponse(frame);
  (void)DecodeUpdateRequest(frame);
  (void)DecodeUpdateResponse(frame);
  (void)DecodeErrorResponse(frame);
  (void)DecodeInvalidateRequest(frame);
  (void)DecodeInvalidateBatchRequest(frame);
  (void)DecodeInvalidateBatchResponse(frame);
  (void)DecodeProbeRequest(frame);
  (void)DecodeProbeResponse(frame);
  (void)Unseal(frame);
  (void)UnwrapUpdateResponse(frame);
  // A view-level response carries a plaintext result the client decodes.
  (void)engine::QueryResult::Deserialize(frame);
  if (auto blob = UnwrapQueryResponse(frame); blob.ok()) {
    (void)engine::QueryResult::Deserialize(*blob);
  }
}

// A random bus notice: legal and illegal levels (3 is kView, never legal for
// an update; 4 is out of range), exposed and unexposed template indexes, and
// an occasional statement.
InvalidateRequest RandomNotice(Rng& rng) {
  InvalidateRequest notice;
  notice.app_id = rng.NextBool(0.8) ? "app" : RandomBytes(rng, 4);
  notice.level = static_cast<uint8_t>(rng.NextBelow(5));
  notice.template_index =
      rng.NextBool(0.5) ? static_cast<uint64_t>(-1) : rng.NextBelow(4);
  if (rng.NextBool(0.2)) notice.statement_sql = "DELETE FROM t WHERE id = 1";
  notice.nonce = rng.Next() | 1;
  return notice;
}

// An unsealed envelope of 1..3 random notices.
std::string RandomEnvelope(Rng& rng) {
  InvalidateBatchRequest batch;
  batch.nonce = rng.Next() | 1;
  const size_t count = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < count; ++i) {
    batch.notices.push_back(Encode(RandomNotice(rng)));
  }
  return Encode(batch);
}

InvalidateBatchResponse RandomAcks(Rng& rng) {
  InvalidateBatchResponse response;
  const size_t count = rng.NextBelow(4);
  for (size_t i = 0; i < count; ++i) {
    if (rng.NextBool(0.5)) {
      response.acks.push_back({true, rng.NextBelow(100), StatusCode::kOk});
    } else {
      response.acks.push_back({false, 0, StatusCode::kInvalidArgument});
    }
  }
  return response;
}

// A serialized result of 0..3 columns and 0..4 rows, as a view-level
// response carries it.
std::string RandomResultBlob(Rng& rng) {
  const size_t ncols = rng.NextBelow(4);
  std::vector<std::string> names;
  for (size_t c = 0; c < ncols; ++c) names.push_back(RandomBytes(rng, 3));
  std::vector<engine::Row> rows(ncols == 0 ? 0 : rng.NextBelow(5));
  for (engine::Row& row : rows) {
    for (size_t c = 0; c < ncols; ++c) {
      const uint64_t kind = rng.NextBelow(3);
      row.push_back(kind == 0   ? sql::Value(static_cast<int64_t>(rng.Next()))
                    : kind == 1 ? sql::Value(RandomBytes(rng, 5))
                                : sql::Value::Null());
    }
  }
  return engine::QueryResult(std::move(names), std::move(rows),
                             rng.NextBool(0.5))
      .Serialize();
}

// One random structural mutation; always returns a string != `frame` unless
// the frame is empty.
std::string Mutate(Rng& rng, const std::string& frame) {
  if (frame.empty()) return std::string(1, '\x01');
  std::string out = frame;
  switch (rng.NextBelow(4)) {
    case 0: {  // Flip one random byte (guaranteed to change it).
      const size_t at = rng.NextBelow(out.size());
      out[at] = static_cast<char>(static_cast<uint8_t>(out[at]) ^
                                  (1 + rng.NextBelow(255)));
      return out;
    }
    case 1:  // Truncate.
      return out.substr(0, rng.NextBelow(out.size()));
    case 2: {  // Extend with random junk.
      const size_t extra = 1 + rng.NextBelow(16);
      return out + RandomBytes(rng, extra);
    }
    default: {  // Overwrite a random run of bytes.
      const size_t at = rng.NextBelow(out.size());
      const size_t run = 1 + rng.NextBelow(8);
      for (size_t i = at; i < out.size() && i < at + run; ++i) {
        out[i] = static_cast<char>(rng.NextBelow(256));
      }
      if (out == frame) out[at] = static_cast<char>(out[at] + 1);
      return out;
    }
  }
}

// ----- Regression: the ReadString/ReadU64 length-overflow. -----

TEST(ProtocolOverflowRegressionTest, HugeLengthInQueryRequestIsRejected) {
  // [kQueryRequest][plaintext_result=0][length=UINT64_MAX]["x"]. Before the
  // fix, `*pos + length` wrapped to a small value, passed the bounds check,
  // and substr walked off the frame.
  std::string frame(1, '\x01');
  frame.push_back('\x00');
  AppendLe64(&frame, UINT64_MAX);
  frame.push_back('x');
  auto decoded = DecodeQueryRequest(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(ProtocolOverflowRegressionTest, WrappingLengthsAreRejectedEverywhere) {
  // Lengths chosen so `pos + length` wraps to values in [0, frame.size()).
  for (const uint64_t length :
       {UINT64_MAX, UINT64_MAX - 1, UINT64_MAX - 9, UINT64_MAX - 64}) {
    std::string query(1, '\x01');
    query.push_back('\x01');
    AppendLe64(&query, length);
    query += std::string(32, 'q');
    EXPECT_FALSE(DecodeQueryRequest(query).ok()) << length;

    std::string response(1, '\x02');
    AppendLe64(&response, length);
    response += std::string(32, 'r');
    EXPECT_FALSE(DecodeQueryResponse(response).ok()) << length;

    std::string update(1, '\x03');
    AppendLe64(&update, length);
    update += std::string(32, 'u');
    EXPECT_FALSE(DecodeUpdateRequest(update).ok()) << length;

    std::string error(1, '\x05');
    AppendLe64(&error, 4);  // Valid status code...
    AppendLe64(&error, length);  // ...then a wrapping message length.
    error += std::string(32, 'e');
    EXPECT_FALSE(DecodeErrorResponse(error).ok()) << length;
  }
}

TEST(ProtocolOverflowRegressionTest, ZeroColumnHugeRowCountIsRejected) {
  // A view-level response whose result blob has no columns and 2^61 rows.
  // The row-count bound once skipped results without columns, so decoding
  // reached `rows.reserve(2^61)`, which threw std::length_error and aborted.
  std::string blob(1, '\x00');  // Unordered.
  AppendLe64(&blob, 0);          // Columns.
  AppendLe64(&blob, uint64_t{1} << 61);  // Rows.
  ASSERT_EQ(blob.size(), 17u);
  auto unwrapped = UnwrapQueryResponse(Encode(QueryResponse{blob}));
  ASSERT_TRUE(unwrapped.ok());
  auto decoded = engine::QueryResult::Deserialize(*unwrapped);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  for (const uint64_t rows : {uint64_t{1}, UINT64_MAX}) {
    std::string other(1, '\x01');
    AppendLe64(&other, 0);
    AppendLe64(&other, rows);
    EXPECT_FALSE(engine::QueryResult::Deserialize(other).ok()) << rows;
  }
}

TEST(ProtocolOverflowRegressionTest, TruncatedFixedFieldsAreRejected) {
  // ReadU64 with fewer than 8 bytes remaining, at every truncation point.
  const std::string frame = Encode(UpdateResponse{0x1122334455667788ull});
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    EXPECT_FALSE(DecodeUpdateResponse(frame.substr(0, keep)).ok()) << keep;
  }
}

// ----- Round-trip properties over random payloads. -----

TEST(ProtocolRoundTripPropertyTest, AllTypesRoundTripRandomPayloads) {
  Rng rng(0xF0F0);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string payload = RandomBytes(rng, rng.NextBelow(256));

    const QueryRequest qreq{payload, rng.NextBool(0.5)};
    auto qreq2 = DecodeQueryRequest(Encode(qreq));
    ASSERT_TRUE(qreq2.ok());
    EXPECT_EQ(qreq2->encrypted_statement, qreq.encrypted_statement);
    EXPECT_EQ(qreq2->plaintext_result, qreq.plaintext_result);

    auto qresp = DecodeQueryResponse(Encode(QueryResponse{payload}));
    ASSERT_TRUE(qresp.ok());
    EXPECT_EQ(qresp->result_blob, payload);

    // Update requests both without a nonce (legacy frame) and with one.
    UpdateRequest ureq{payload};
    auto ureq2 = DecodeUpdateRequest(Encode(ureq));
    ASSERT_TRUE(ureq2.ok());
    EXPECT_EQ(ureq2->encrypted_statement, payload);
    EXPECT_EQ(ureq2->nonce, 0u);
    ureq.nonce = rng.Next() | 1;  // Nonzero.
    auto ureq3 = DecodeUpdateRequest(Encode(ureq));
    ASSERT_TRUE(ureq3.ok());
    EXPECT_EQ(ureq3->encrypted_statement, payload);
    EXPECT_EQ(ureq3->nonce, ureq.nonce);

    auto uresp = DecodeUpdateResponse(Encode(UpdateResponse{rng.Next()}));
    ASSERT_TRUE(uresp.ok());

    const ErrorResponse err{StatusCode::kNotFound, payload};
    auto err2 = DecodeErrorResponse(Encode(err));
    ASSERT_TRUE(err2.ok());
    EXPECT_EQ(err2->code, err.code);
    EXPECT_EQ(err2->message, err.message);
  }
}

TEST(ProtocolRoundTripPropertyTest, NonceCompatibility) {
  // A nonce-free frame is byte-identical to the pre-nonce encoding; an
  // explicit zero nonce on the wire is rejected (zero means "absent").
  const std::string legacy = Encode(UpdateRequest{"stmt"});
  std::string with_zero = legacy;
  AppendLe64(&with_zero, 0);
  EXPECT_FALSE(DecodeUpdateRequest(with_zero).ok());
  // A partial trailing nonce is rejected too.
  std::string partial = legacy;
  partial.push_back('\x07');
  EXPECT_FALSE(DecodeUpdateRequest(partial).ok());
}

TEST(ProtocolRoundTripPropertyTest, SealUnsealRoundTripsEveryType) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string payload = RandomBytes(rng, rng.NextBelow(128));
    const std::string frames[] = {
        Encode(QueryRequest{payload, false}),
        Encode(QueryResponse{payload}),
        Encode(UpdateRequest{payload, rng.Next() | 1}),
        Encode(UpdateResponse{rng.Next()}),
        Encode(ErrorResponse{StatusCode::kUnavailable, payload}),
        Encode(RandomNotice(rng)),
        RandomEnvelope(rng),
        Encode(RandomAcks(rng)),
        Encode(ProbeRequest{rng.Next()}),
        Encode(ProbeResponse{rng.Next()}),
    };
    for (const std::string& frame : frames) {
      const std::string sealed = Seal(frame);
      EXPECT_EQ(PeekType(sealed), MessageType::kSealed);
      auto inner = Unseal(sealed);
      ASSERT_TRUE(inner.ok());
      EXPECT_EQ(*inner, frame);
      // Double-sealing must not round-trip silently.
      EXPECT_FALSE(Unseal(Seal(sealed)).ok());
    }
  }
}

// ----- Mutation fuzz: decoders fail cleanly, seals detect damage. -----

TEST(ProtocolMutationFuzzTest, MutatedFramesNeverCrashAnyDecoder) {
  Rng rng(0xD00D);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string payload = RandomBytes(rng, rng.NextBelow(64));
    std::string frame;
    switch (rng.NextBelow(12)) {
      case 0: frame = Encode(QueryRequest{payload, rng.NextBool(0.5)}); break;
      case 1: frame = Encode(QueryResponse{payload}); break;
      case 2:
        frame = Encode(UpdateRequest{
            payload, rng.NextBool(0.5) ? (rng.Next() | 1) : 0});
        break;
      case 3: frame = Encode(UpdateResponse{rng.Next()}); break;
      case 4:
        frame = Encode(ErrorResponse{StatusCode::kParseError, payload});
        break;
      case 5: frame = Encode(RandomNotice(rng)); break;
      case 6: frame = RandomEnvelope(rng); break;
      case 7: frame = Encode(RandomAcks(rng)); break;
      case 8: frame = Encode(ProbeRequest{rng.Next()}); break;
      case 9: frame = Encode(ProbeResponse{rng.Next()}); break;
      case 10: frame = Encode(QueryResponse{RandomResultBlob(rng)}); break;
      default: frame = Seal(Encode(QueryResponse{payload})); break;
    }
    // Up to three stacked mutations.
    const int rounds = 1 + static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < rounds; ++i) frame = Mutate(rng, frame);
    ExerciseAllDecoders(frame);
  }
}

TEST(ProtocolMutationFuzzTest, PureGarbageNeverCrashesAnyDecoder) {
  Rng rng(0xA5A5);
  for (int trial = 0; trial < 2000; ++trial) {
    ExerciseAllDecoders(RandomBytes(rng, rng.NextBelow(96)));
  }
}

TEST(ProtocolMutationFuzzTest, SealedFrameDetectsEveryMutation) {
  Rng rng(0x5EA1);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::string inner =
        Encode(QueryResponse{RandomBytes(rng, rng.NextBelow(64))});
    const std::string sealed = Seal(inner);
    const std::string mutated = Mutate(rng, sealed);
    if (mutated == sealed) continue;
    auto unsealed = Unseal(mutated);
    // Either the damage is detected, or (vanishing 64-bit checksum
    // collision aside) the inner frame survived untouched. Silent
    // acceptance of a *different* inner frame is the one forbidden outcome.
    if (unsealed.ok()) {
      EXPECT_EQ(*unsealed, inner);
    } else {
      EXPECT_EQ(unsealed.status().code(), StatusCode::kCorruptFrame);
    }
  }
}

TEST(ProtocolMutationFuzzTest, SingleBitFlipsAlwaysDetected) {
  // Exhaustive single-bit damage over a sealed frame: every flip must be
  // caught (type byte -> not sealed; checksum or body -> mismatch).
  const std::string inner = Encode(QueryResponse{"the result blob"});
  const std::string sealed = Seal(inner);
  for (size_t byte = 0; byte < sealed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = sealed;
      damaged[byte] =
          static_cast<char>(static_cast<uint8_t>(damaged[byte]) ^ (1 << bit));
      auto unsealed = Unseal(damaged);
      EXPECT_FALSE(unsealed.ok()) << "byte " << byte << " bit " << bit;
    }
  }
}

// ----- DispatchFrame under fuzzed input: always answers, never crashes. ---

class DispatchFuzzTest : public ::testing::Test {
 protected:
  // No schema: garbage ciphertext already fails at decrypt/parse, which is
  // exactly the path hostile frames take.
  DispatchFuzzTest()
      : home_("fuzz", crypto::KeyRing::FromPassphrase("fuzz-secret")) {}

  backend::InMemoryBackend home_;
};

TEST_F(DispatchFuzzTest, GarbageAndMutatedFramesGetWellFormedReplies) {
  Rng rng(0xC0DE);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string frame;
    if (rng.NextBool(0.5)) {
      frame = RandomBytes(rng, rng.NextBelow(96));
    } else {
      frame = Mutate(
          rng, Encode(QueryRequest{RandomBytes(rng, rng.NextBelow(48)),
                                   rng.NextBool(0.5)}));
    }
    const std::string response = DispatchFrame(home_, frame);
    const auto type = PeekType(response);
    ASSERT_TRUE(type.has_value());
    if (*type == MessageType::kError) {
      EXPECT_TRUE(DecodeErrorResponse(response).ok());
    }
  }
}

TEST_F(DispatchFuzzTest, ResponseTypedRequestsAreRejectedWithErrorFrames) {
  for (const std::string& frame :
       {Encode(QueryResponse{"blob"}), Encode(UpdateResponse{3}),
        Encode(ErrorResponse{StatusCode::kNotFound, "x"})}) {
    const std::string response = DispatchFrame(home_, frame);
    ASSERT_EQ(PeekType(response), MessageType::kError);
    auto error = DecodeErrorResponse(response);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, StatusCode::kInvalidArgument);
  }
}

TEST_F(DispatchFuzzTest, SealedRequestsGetSealedReplies) {
  // A valid sealed request (even one whose inner statement is garbage) gets
  // a sealed reply; a damaged sealed request gets a sealed kCorruptFrame.
  const std::string request = Seal(Encode(QueryRequest{"not-ciphertext"}));
  auto reply = Unseal(DispatchFrame(home_, request));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(PeekType(*reply), MessageType::kError);  // Decrypt/parse failed.

  std::string damaged = request;
  damaged[damaged.size() / 2] ^= 0x40;
  auto corrupt_reply = Unseal(DispatchFrame(home_, damaged));
  ASSERT_TRUE(corrupt_reply.ok());
  auto error = DecodeErrorResponse(*corrupt_reply);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kCorruptFrame);
}

TEST_F(DispatchFuzzTest, RetiredByte8IsRefusedEverywhere) {
  // Byte 8 was the singleton invalidate ack; it is retired, not reused.
  std::string retired(1, '\x08');
  AppendLe64(&retired, 5);  // Its old payload: entries invalidated.
  EXPECT_FALSE(PeekType(retired).has_value());
  EXPECT_EQ(PeekType(std::string(1, '\x07')), MessageType::kInvalidateRequest);
  EXPECT_EQ(PeekType(std::string(1, '\x09')),
            MessageType::kInvalidateBatchRequest);

  // The home dispatcher treats it as an unknown frame...
  auto home_error = DecodeErrorResponse(DispatchFrame(home_, retired));
  ASSERT_TRUE(home_error.ok());
  EXPECT_EQ(home_error->code, StatusCode::kParseError);

  // ...and the bus endpoint answers it with a sealed kError.
  DsspNode node;
  cluster::NodeChannel channel(node);
  const ChannelOutcome outcome = channel.RoundTrip(Seal(retired));
  ASSERT_TRUE(outcome.delivered);
  auto reply = Unseal(outcome.response);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(PeekType(*reply), MessageType::kError);
  EXPECT_TRUE(DecodeErrorResponse(*reply).ok());
  EXPECT_EQ(channel.notices_applied(), 0u);
}

// ----- The invalidation bus endpoint under fuzzed input. -----

TEST(InvalidationEndpointFuzzTest, EveryFrameGetsASealedDecodableReply) {
  DsspNode node;
  cluster::NodeChannel channel(node);
  Rng rng(0xB0B5);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string frame;
    switch (rng.NextBelow(5)) {
      case 0:  // Garbage.
        frame = RandomBytes(rng, rng.NextBelow(96));
        break;
      case 1:  // Correctly sealed garbage.
        frame = Seal(RandomBytes(rng, rng.NextBelow(96)));
        break;
      case 2:  // Damaged before sealing: a hostile but intact frame.
        frame = Seal(Mutate(rng, RandomEnvelope(rng)));
        break;
      case 3:  // Damaged on the wire.
        frame = Mutate(rng, Seal(RandomEnvelope(rng)));
        break;
      default:  // Intact.
        frame = Seal(RandomEnvelope(rng));
        break;
    }
    const uint64_t applied_before = channel.notices_applied();
    const ChannelOutcome outcome = channel.RoundTrip(frame);
    ASSERT_TRUE(outcome.delivered);
    auto reply = Unseal(outcome.response);
    ASSERT_TRUE(reply.ok());
    const auto type = PeekType(*reply);
    if (type == MessageType::kInvalidateBatchResponse) {
      EXPECT_TRUE(DecodeInvalidateBatchResponse(*reply).ok());
    } else {
      ASSERT_EQ(type, MessageType::kError);
      EXPECT_TRUE(DecodeErrorResponse(*reply).ok());
    }
    if (!Unseal(frame).ok()) {
      EXPECT_EQ(channel.notices_applied(), applied_before);
    }
  }
  // The intact share really reached the node.
  EXPECT_GT(channel.notices_applied(), 0u);
}

}  // namespace
}  // namespace dssp::service
