#include <gtest/gtest.h>

#include "backend/in_memory_backend.h"
#include "workloads/toystore.h"

namespace dssp::service {
namespace {

using sql::Value;

class HomeServerTest : public ::testing::Test {
 protected:
  HomeServerTest()
      : home_("toystore", crypto::KeyRing::FromPassphrase("home-secret")) {}

  void SetUp() override {
    auto bundle = workloads::MakeToystore();
    ASSERT_TRUE(bundle.ok());
    // Rebuild the toystore schema/data inside the home server's database
    // (FK-dependency order: referenced tables first).
    for (const std::string table : {"toys", "customers", "credit_card"}) {
      const catalog::TableSchema& schema =
          bundle->db->catalog().GetTable(table);
      ASSERT_TRUE(home_.database().CreateTable(schema).ok());
    }
    for (const std::string table : {"toys", "customers", "credit_card"}) {
      const engine::Table& src = bundle->db->GetTable(table);
      for (size_t slot : src.AllSlots()) {
        ASSERT_TRUE(home_.database().InsertRow(table, src.RowAt(slot)).ok());
      }
    }
    ASSERT_TRUE(home_.AddQueryTemplate(
                        "SELECT qty FROM toys WHERE toy_id = ?")
                    .ok());
    ASSERT_TRUE(
        home_.AddUpdateTemplate("DELETE FROM toys WHERE toy_id = ?").ok());
  }

  backend::InMemoryBackend home_;
};

TEST_F(HomeServerTest, QueryOverEncryptedWire) {
  const std::string enc = home_.statement_cipher().Encrypt(
      "SELECT qty FROM toys WHERE toy_id = 5");
  auto blob = home_.HandleQuery(enc, /*plaintext_result=*/true);
  ASSERT_TRUE(blob.ok());
  auto result = engine::QueryResult::Deserialize(*blob);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->rows()[0][0], Value(36));
  EXPECT_EQ(home_.queries_executed(), 1u);
}

TEST_F(HomeServerTest, EncryptedResultRoundTrip) {
  const std::string enc = home_.statement_cipher().Encrypt(
      "SELECT qty FROM toys WHERE toy_id = 5");
  auto blob = home_.HandleQuery(enc, /*plaintext_result=*/false);
  ASSERT_TRUE(blob.ok());
  // Ciphertext is not a valid serialized result...
  EXPECT_FALSE(engine::QueryResult::Deserialize(*blob).ok());
  // ...until decrypted with the application's result cipher.
  auto result = engine::QueryResult::Deserialize(
      home_.result_cipher().Decrypt(*blob));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1u);
}

TEST_F(HomeServerTest, GarbageCiphertextIsRejected) {
  auto blob = home_.HandleQuery("not encrypted with the right key", true);
  EXPECT_FALSE(blob.ok());
  EXPECT_EQ(home_.queries_executed(), 0u);
}

TEST_F(HomeServerTest, WrongKeyCiphertextIsRejected) {
  const crypto::KeyRing other = crypto::KeyRing::FromPassphrase("imposter");
  const std::string enc = other.CipherFor("statement").Encrypt(
      "SELECT qty FROM toys WHERE toy_id = 5");
  EXPECT_FALSE(home_.HandleQuery(enc, true).ok());
}

TEST_F(HomeServerTest, UpdateOverEncryptedWire) {
  const std::string enc = home_.statement_cipher().Encrypt(
      "DELETE FROM toys WHERE toy_id = 5");
  auto effect = home_.HandleUpdate(enc);
  ASSERT_TRUE(effect.ok());
  EXPECT_EQ(effect->rows_affected, 1u);
  EXPECT_EQ(home_.updates_applied(), 1u);
  // Constraint violations propagate over the wire too.
  const std::string bad = home_.statement_cipher().Encrypt(
      "INSERT INTO credit_card (cid, number, zip_code) "
      "VALUES (999, 'n', 1)");
  auto violation = home_.HandleUpdate(bad);
  ASSERT_FALSE(violation.ok());
  EXPECT_EQ(violation.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(HomeServerTest, QueryEndpointRejectsUpdates) {
  const std::string enc = home_.statement_cipher().Encrypt(
      "DELETE FROM toys WHERE toy_id = 5");
  EXPECT_FALSE(home_.HandleQuery(enc, true).ok());
  const std::string enc_q = home_.statement_cipher().Encrypt(
      "SELECT qty FROM toys WHERE toy_id = 5");
  EXPECT_FALSE(home_.HandleUpdate(enc_q).ok());
}

TEST_F(HomeServerTest, TemplateRegistrationValidates) {
  EXPECT_FALSE(home_.AddQueryTemplate("SELECT x FROM ghost WHERE y = ?")
                   .ok());
  EXPECT_FALSE(home_.AddUpdateTemplate("DELETE FROM ghost WHERE y = ?")
                   .ok());
  EXPECT_EQ(home_.templates().num_queries(), 1u);
  EXPECT_EQ(home_.templates().num_updates(), 1u);
}

}  // namespace
}  // namespace dssp::service
