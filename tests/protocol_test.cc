#include <gtest/gtest.h>

#include "backend/in_memory_backend.h"
#include "common/random.h"
#include "dssp/protocol.h"
#include "workloads/toystore.h"

namespace dssp::service {
namespace {

using sql::Value;

// ----- Frame codecs. -----

TEST(ProtocolCodecTest, QueryRequestRoundTrip) {
  const QueryRequest original{"ciphertext bytes \x00\x01\xff", true};
  const std::string frame = Encode(original);
  EXPECT_EQ(PeekType(frame), MessageType::kQueryRequest);
  auto decoded = DecodeQueryRequest(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->encrypted_statement, original.encrypted_statement);
  EXPECT_EQ(decoded->plaintext_result, original.plaintext_result);
}

TEST(ProtocolCodecTest, QueryResponseRoundTrip) {
  const QueryResponse original{std::string(1000, '\x7f')};
  auto decoded = DecodeQueryResponse(Encode(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->result_blob, original.result_blob);
}

TEST(ProtocolCodecTest, UpdateRequestResponseRoundTrip) {
  auto request = DecodeUpdateRequest(Encode(UpdateRequest{"enc"}));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->encrypted_statement, "enc");
  auto response = DecodeUpdateResponse(Encode(UpdateResponse{42}));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->rows_affected, 42u);
}

TEST(ProtocolCodecTest, ErrorRoundTrip) {
  const ErrorResponse original{StatusCode::kConstraintViolation, "fk"};
  auto decoded = DecodeErrorResponse(Encode(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kConstraintViolation);
  EXPECT_EQ(decoded->message, "fk");
}

TEST(ProtocolCodecTest, RejectsWrongTypeAndGarbage) {
  EXPECT_FALSE(PeekType("").has_value());
  // One past the last real type (kMessageTypeEnd) is out of range.
  EXPECT_FALSE(
      PeekType(std::string(
                   1, static_cast<char>(MessageType::kMessageTypeEnd)))
          .has_value());
  const std::string frame = Encode(UpdateResponse{1});
  EXPECT_FALSE(DecodeQueryResponse(frame).ok());
  EXPECT_FALSE(DecodeUpdateResponse(frame + "junk").ok());
  EXPECT_FALSE(DecodeUpdateResponse(frame.substr(0, 3)).ok());
  // An error frame claiming code kOk is malformed.
  std::string ok_error = Encode(ErrorResponse{StatusCode::kNotFound, "x"});
  ok_error[1] = 0;
  EXPECT_FALSE(DecodeErrorResponse(ok_error).ok());
}

TEST(ProtocolCodecTest, FuzzedFramesNeverCrash) {
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    std::string frame;
    const size_t length = rng.NextBelow(64);
    for (size_t i = 0; i < length; ++i) {
      frame.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    (void)DecodeQueryRequest(frame);
    (void)DecodeQueryResponse(frame);
    (void)DecodeUpdateRequest(frame);
    (void)DecodeUpdateResponse(frame);
    (void)DecodeErrorResponse(frame);
    (void)UnwrapQueryResponse(frame);
    (void)UnwrapUpdateResponse(frame);
  }
}

// ----- DispatchFrame against a real home server. -----

class DispatchTest : public ::testing::Test {
 protected:
  DispatchTest()
      : home_("toystore", crypto::KeyRing::FromPassphrase("proto")) {}

  void SetUp() override {
    auto bundle = workloads::MakeToystore();
    ASSERT_TRUE(bundle.ok());
    for (const std::string table : {"toys", "customers", "credit_card"}) {
      ASSERT_TRUE(home_.database()
                      .CreateTable(bundle->db->catalog().GetTable(table))
                      .ok());
      const engine::Table& src = bundle->db->GetTable(table);
      for (size_t slot : src.AllSlots()) {
        ASSERT_TRUE(home_.database().InsertRow(table, src.RowAt(slot)).ok());
      }
    }
  }

  backend::InMemoryBackend home_;
};

TEST_F(DispatchTest, QueryFlow) {
  const std::string frame = Encode(QueryRequest{
      home_.statement_cipher().Encrypt(
          "SELECT qty FROM toys WHERE toy_id = 5"),
      /*plaintext_result=*/true});
  const std::string response = DispatchFrame(home_, frame);
  EXPECT_EQ(PeekType(response), MessageType::kQueryResponse);
  auto blob = UnwrapQueryResponse(response);
  ASSERT_TRUE(blob.ok());
  auto result = engine::QueryResult::Deserialize(*blob);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows()[0][0], Value(36));
}

TEST_F(DispatchTest, UpdateFlow) {
  const std::string frame = Encode(UpdateRequest{
      home_.statement_cipher().Encrypt("DELETE FROM toys WHERE toy_id = 5")});
  auto effect = UnwrapUpdateResponse(DispatchFrame(home_, frame));
  ASSERT_TRUE(effect.ok());
  EXPECT_EQ(effect->rows_affected, 1u);
}

TEST_F(DispatchTest, ErrorsTravelAsErrorFrames) {
  // Constraint violation becomes an error frame that unwraps to the status.
  const std::string frame = Encode(UpdateRequest{
      home_.statement_cipher().Encrypt(
          "INSERT INTO credit_card (cid, number, zip_code) "
          "VALUES (999, 'n', 1)")});
  const std::string response = DispatchFrame(home_, frame);
  EXPECT_EQ(PeekType(response), MessageType::kError);
  auto effect = UnwrapUpdateResponse(response);
  ASSERT_FALSE(effect.ok());
  EXPECT_EQ(effect.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(DispatchTest, BadFramesGetErrorResponses) {
  EXPECT_EQ(PeekType(DispatchFrame(home_, "")), MessageType::kError);
  EXPECT_EQ(PeekType(DispatchFrame(home_, "\xff garbage")),
            MessageType::kError);
  // A response frame sent as a request is rejected.
  EXPECT_EQ(PeekType(DispatchFrame(home_, Encode(UpdateResponse{1}))),
            MessageType::kError);
}

}  // namespace
}  // namespace dssp::service
