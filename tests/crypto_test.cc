#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/random.h"
#include "crypto/cipher.h"
#include "crypto/keyring.h"

namespace dssp::crypto {
namespace {

Key TestKey() { return Key{0x1234567890abcdefULL, 0xfedcba0987654321ULL}; }

TEST(CipherTest, RoundTripBasic) {
  DeterministicCipher cipher(TestKey());
  const std::string plaintext = "SELECT qty FROM toys WHERE toy_id = 5";
  const std::string ciphertext = cipher.Encrypt(plaintext);
  EXPECT_NE(ciphertext, plaintext);
  EXPECT_EQ(cipher.Decrypt(ciphertext), plaintext);
}

TEST(CipherTest, LengthPreserving) {
  DeterministicCipher cipher(TestKey());
  for (size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 255u, 4096u}) {
    const std::string plaintext(len, 'a');
    EXPECT_EQ(cipher.Encrypt(plaintext).size(), len) << "len=" << len;
  }
}

// Round-trip across a sweep of lengths, including the short-input special
// cases (0 and 1 byte) and odd/even Feistel splits.
class CipherRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CipherRoundTripTest, RoundTrip) {
  DeterministicCipher cipher(TestKey());
  Rng rng(GetParam() + 1);
  std::string plaintext;
  for (size_t i = 0; i < GetParam(); ++i) {
    plaintext.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  EXPECT_EQ(cipher.Decrypt(cipher.Encrypt(plaintext)), plaintext);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CipherRoundTripTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           17, 31, 32, 33, 63, 100, 101, 255,
                                           256, 1000, 4095, 4096));

TEST(CipherTest, Deterministic) {
  DeterministicCipher cipher(TestKey());
  EXPECT_EQ(cipher.Encrypt("same input"), cipher.Encrypt("same input"));
}

TEST(CipherTest, DifferentKeysGiveDifferentCiphertexts) {
  DeterministicCipher a(Key{1, 2});
  DeterministicCipher b(Key{1, 3});
  EXPECT_NE(a.Encrypt("some plaintext here"),
            b.Encrypt("some plaintext here"));
}

TEST(CipherTest, DifferentPlaintextsGiveDifferentCiphertexts) {
  DeterministicCipher cipher(TestKey());
  EXPECT_NE(cipher.Encrypt("plaintext one!"), cipher.Encrypt("plaintext 2!!"));
}

TEST(CipherTest, CiphertextLooksUnstructured) {
  // A crude avalanche check: flipping one plaintext byte changes many
  // ciphertext bytes.
  DeterministicCipher cipher(TestKey());
  std::string a(64, 'a');
  std::string b = a;
  b[10] = 'b';
  const std::string ca = cipher.Encrypt(a);
  const std::string cb = cipher.Encrypt(b);
  int differing = 0;
  for (size_t i = 0; i < ca.size(); ++i) {
    if (ca[i] != cb[i]) ++differing;
  }
  EXPECT_GT(differing, 16);
}

// Known-answer test: ciphertexts recorded from the original byte-at-a-time
// implementation (one SipHash call per keystream block, copied halves). Blind
// cache keys and encrypted blobs are otherwise only round-tripped, so a
// changed keystream would pass every other test. Each row pins the first 33
// ciphertext bytes and a digest of the whole ciphertext.
std::string KnownAnswerPlaintext(size_t len) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>((i * 37 + len * 11 + 5) & 0xff);
  }
  return s;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

TEST(CipherTest, KnownAnswers) {
  const KeyRing ring = KeyRing::FromPassphrase("bookstore");
  const Key keys[] = {Key{0, 0}, TestKey(), Key{~0ULL, 1},
                      ring.CipherFor("result").key()};
  EXPECT_EQ(keys[3], (Key{0x6d2a42e0d1cecd4dULL, 0x1e20c62bfa79de4aULL}));
  struct Row {
    int key;
    size_t len;
    const char* prefix_hex;  // First min(len, 33) ciphertext bytes.
    uint64_t digest;         // Hash64 of the whole ciphertext.
  };
  const Row rows[] = {
    {0, 0, "", 0x5e1af489fd34e238ULL},
    {0, 1, "f1", 0x37d9be4bc2b5ab19ULL},
    {0, 2, "538e", 0x176f236beec98f88ULL},
    {0, 3, "82c0e2", 0xd91aa80e15e0bef8ULL},
    {0, 7, "756c5f6cd1c953", 0x461182d080050b8aULL},
    {0, 8, "f811d368a02ec6cd", 0x685db1628630cba0ULL},
    {0, 9, "0f25d01b9731b81cd0", 0x582c6c6f34956baaULL},
    {0, 15, "000e19ffecaa9e2a4dc0fd655fd71c", 0x05e89e5f1911bb7cULL},
    {0, 16, "ac0e48e91f8cadc1a612a5397b1a237a", 0x40ae07bd5cb06a24ULL},
    {0, 17, "956142006a378ec6421372da8c5027f1b8", 0xdd2377333f82ece8ULL},
    {0, 31, "f0ca2d03c77beadd901ba505a1c7f3cd70160903592b758cf751c4c5cbdb0b", 0x106261c4192fc8bfULL},
    {0, 32, "7c776d41f6dbee45052445aa3456275a3dc18b8ae9817ba7bc51782eb72a00cf", 0x732f8efb877f7baaULL},
    {0, 33, "b9a5255e93cca09c191c88fa5f8b96b7af99194f66c6b90bcd80251e39aa85dd3b", 0xb7f8e1bdec8786d8ULL},
    {0, 1000, "0da05ee2146aed7cd072df992b28af00f7fe1075c380e60910d734ee9ef933c720", 0x6c67372e8405c80cULL},
    {0, 4097, "bcff1b9c11e8742be14bb5d1154902497620f565a6a1eb1eeb1df57d8128a32a84", 0x0a473ac4746252b3ULL},
    {1, 0, "", 0x5e1af489fd34e238ULL},
    {1, 1, "15", 0x262f59f1ff33113bULL},
    {1, 2, "11a7", 0x3b0b8e99bbf78838ULL},
    {1, 3, "3684fc", 0xd8aebd7055637db1ULL},
    {1, 7, "0f9d83e80d7883", 0x4b22577afbe88068ULL},
    {1, 8, "3f790bbe57d1752a", 0x671a72af7a71410eULL},
    {1, 9, "aa029e03ba2e1b150e", 0x130eead87229c84aULL},
    {1, 15, "1a0e82df4ca3cc41da5a79c3c5e69f", 0xd299dd0d3a0619cfULL},
    {1, 16, "181c1cdd2fbceb530145c254317574a6", 0xc67e616f7c16569aULL},
    {1, 17, "93c17c32b9ffb1fc97f772c52bbb5a66f6", 0xd5533696e1c1b197ULL},
    {1, 31, "8bfcd514ec772ef0d571127207a59f6186727683346e2097272bdcf0ab6e21", 0xb0a215dab42fbdd8ULL},
    {1, 32, "9e9b858fe13b85a51a1c1e36e7ed8332f447436612202021dc084d6d8089edb4", 0xc4b5f75022c8a191ULL},
    {1, 33, "9207d5e7fbe9c657feb8d75066b070664c3df23afc0464f3bf32c541773d5c395c", 0x31d6694e59c6e82aULL},
    {1, 1000, "7ac8bd7e7b9c1fef693deaa9b940827084a926340a1ca46e78a6b60289c537d105", 0xb78efd344665de7aULL},
    {1, 4097, "47935b3c279af1f1e1c6056bef4d5644374852d72b7e927494b51c145c152b4592", 0xaa5aa6465e7eed05ULL},
    {2, 0, "", 0x5e1af489fd34e238ULL},
    {2, 1, "a5", 0xf0dd029b375b5b26ULL},
    {2, 2, "4068", 0x4819164e0fb7f9daULL},
    {2, 3, "52d446", 0xec2e9d19b06ff715ULL},
    {2, 7, "6ceb28ed65c1f0", 0x9ef316383fdf2425ULL},
    {2, 8, "946db3b065780fbd", 0x6903192aee85116dULL},
    {2, 9, "18715d7d72068ca1f4", 0x4ce614da0ede65f7ULL},
    {2, 15, "c72e96b08c1842e6c79bee3d7130da", 0x0f92361619376a94ULL},
    {2, 16, "01116e8a37ecc6c5e19de9d36399ffc1", 0x461cf3d3551cc19eULL},
    {2, 17, "feaa4cd12c8098e23f4bb61a0e80ba1737", 0xcc7f426b1b6287aeULL},
    {2, 31, "783e2fbbacbc3fc9822f6459a64ebc6ad5f14ab5680c45a7d482a6dfa94819", 0x39441497760d267dULL},
    {2, 32, "5b65bc48ca1efa08bee3e8cf44dc77e1043b1f0275903ace308bf18ca695bf44", 0xe88636918073d419ULL},
    {2, 33, "5121ddadbdfefd2f983863b2e9009e55eebfdee923ff3fbee95752f32c550cdf4d", 0xa14c79cc4d142756ULL},
    {2, 1000, "068c1c2f81f27924a153f657fe25e6688a1ad31127c2d69b0c3fe437e8c184a941", 0xbe564974836d8539ULL},
    {2, 4097, "53ccc4ce7796af9b3ba5eb630e8ed879f31db4ebf27923acaf5bf77c56ca196f4b", 0x47db71e9605d1d83ULL},
    {3, 0, "", 0x5e1af489fd34e238ULL},
    {3, 1, "5f", 0x4501bca203242e53ULL},
    {3, 2, "2165", 0x47d130d38104bc10ULL},
    {3, 3, "03f39d", 0xf4ebaabda1a2d1feULL},
    {3, 7, "6256cca4079615", 0x12efc66400857da1ULL},
    {3, 8, "9cf09d7dad8746ad", 0xc27fff754475a24cULL},
    {3, 9, "2840cbed440e565576", 0xa9b709e6fc5c7ad7ULL},
    {3, 15, "0a46aa972c90df7b38eaab232889cc", 0x8eeb9e8c8e7064deULL},
    {3, 16, "5848b3276dc52da45227c778790a436c", 0x549f12ab6da27657ULL},
    {3, 17, "f9b596c26fc26559f36bc7b21650f07180", 0x9de5679b918011dcULL},
    {3, 31, "35602ccfd921770db93a6453aef070ddad26c540b5c956b6e98af3a0dacecc", 0x9b355c273f9decd0ULL},
    {3, 32, "bd44d8fb9f9197ef108641358f23ae2ecc60570abe91931728ee89d92a7786a1", 0x5b7218cf20658956ULL},
    {3, 33, "f3f388a282b00bf26a8cd886f666896ee932c722837cc5e02a322d43c9fdc30a7f", 0x0383f694ed99c285ULL},
    {3, 1000, "95244b56717d55f00e0600ba94fd16e2f5723dbeb9351d593d571534825979514a", 0xdf7df4869fa331b3ULL},
    {3, 4097, "5be7092f2be2a3b9d12a3bd5ccb7e22959360d6bc72fafb0335fbe2f646d394daf", 0x913ed1672ade95caULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message() << "key " << row.key << " len "
                                      << row.len);
    const DeterministicCipher cipher(keys[row.key]);
    const std::string plaintext = KnownAnswerPlaintext(row.len);
    const std::string ciphertext = cipher.Encrypt(plaintext);
    EXPECT_EQ(Hex(std::string_view(ciphertext).substr(0, 33)), row.prefix_hex);
    EXPECT_EQ(Hash64(ciphertext), row.digest);
    EXPECT_EQ(cipher.Decrypt(ciphertext), plaintext);
  }
}

TEST(CipherTest, TagIsDeterministicAndKeyed) {
  DeterministicCipher a(TestKey());
  DeterministicCipher b(Key{9, 9});
  EXPECT_EQ(a.Tag("data"), a.Tag("data"));
  EXPECT_NE(a.Tag("data"), b.Tag("data"));
  EXPECT_NE(a.Tag("data"), a.Tag("datb"));
}

TEST(KeyDerivationTest, LabelsAreIndependent) {
  const Key master = TestKey();
  const Key a = DeriveKey(master, "statement");
  const Key b = DeriveKey(master, "params");
  const Key c = DeriveKey(master, "statement");
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a == b);
}

TEST(KeyRingTest, FromPassphraseIsDeterministic) {
  const KeyRing a = KeyRing::FromPassphrase("secret");
  const KeyRing b = KeyRing::FromPassphrase("secret");
  const KeyRing c = KeyRing::FromPassphrase("other");
  EXPECT_EQ(a.master(), b.master());
  EXPECT_FALSE(a.master() == c.master());
}

TEST(KeyRingTest, CipherForPurposeSeparation) {
  const KeyRing ring = KeyRing::FromPassphrase("secret");
  const std::string pt = "the same plaintext";
  EXPECT_EQ(ring.CipherFor("result").Encrypt(pt),
            ring.CipherFor("result").Encrypt(pt));
  EXPECT_NE(ring.CipherFor("result").Encrypt(pt),
            ring.CipherFor("statement").Encrypt(pt));
}

TEST(KeyRingTest, CrossAppIsolation) {
  // Two applications derive from different passphrases; their ciphertexts
  // never decrypt to each other's plaintexts.
  const KeyRing a = KeyRing::FromPassphrase("app-a");
  const KeyRing b = KeyRing::FromPassphrase("app-b");
  const std::string pt = "sensitive customer record";
  const std::string ct = a.CipherFor("result").Encrypt(pt);
  EXPECT_NE(b.CipherFor("result").Decrypt(ct), pt);
}

}  // namespace
}  // namespace dssp::crypto
