#include "crypto/cipher.h"

#include <cstring>

#include "common/hash.h"

namespace dssp::crypto {

namespace {

constexpr uint64_t kRoundMix = 0x9e3779b97f4a7c15ULL;

inline uint64_t Rotl(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

// Two SipHash-2-4 states advanced in lockstep. The two dependency chains
// are independent, so writing them as interleaved straight-line code lets
// the CPU overlap them.
struct SipPair {
  uint64_t a0, a1, a2, a3;
  uint64_t b0, b1, b2, b3;

  void Round() {
    a0 += a1;            b0 += b1;
    a1 = Rotl(a1, 13);   b1 = Rotl(b1, 13);
    a1 ^= a0;            b1 ^= b0;
    a0 = Rotl(a0, 32);   b0 = Rotl(b0, 32);
    a2 += a3;            b2 += b3;
    a3 = Rotl(a3, 16);   b3 = Rotl(b3, 16);
    a3 ^= a2;            b3 ^= b2;
    a0 += a3;            b0 += b3;
    a3 = Rotl(a3, 21);   b3 = Rotl(b3, 21);
    a3 ^= a0;            b3 ^= b0;
    a2 += a1;            b2 += b1;
    a1 = Rotl(a1, 17);   b1 = Rotl(b1, 17);
    a1 ^= a2;            b1 ^= b2;
    a2 = Rotl(a2, 32);   b2 = Rotl(b2, 32);
  }
};

// SipHash24(k0, k1, <8 bytes of counter>) for `counter` and `counter + 1`,
// specialized to the one-block message: the compression of the counter
// word, then the length-only final block (8 << 56), then finalization.
inline void SipHashCounterPair(uint64_t k0, uint64_t k1, uint64_t counter,
                               uint64_t* first, uint64_t* second) {
  const uint64_t v0 = 0x736f6d6570736575ULL ^ k0;
  const uint64_t v1 = 0x646f72616e646f6dULL ^ k1;
  const uint64_t v2 = 0x6c7967656e657261ULL ^ k0;
  const uint64_t v3 = 0x7465646279746573ULL ^ k1;
  const uint64_t m0 = counter;
  const uint64_t m1 = counter + 1;
  constexpr uint64_t kFinal = uint64_t{8} << 56;
  SipPair s{v0, v1, v2, v3 ^ m0, v0, v1, v2, v3 ^ m1};
  s.Round();
  s.Round();
  s.a0 ^= m0;
  s.b0 ^= m1;
  s.a3 ^= kFinal;
  s.b3 ^= kFinal;
  s.Round();
  s.Round();
  s.a0 ^= kFinal;
  s.b0 ^= kFinal;
  s.a2 ^= 0xff;
  s.b2 ^= 0xff;
  s.Round();
  s.Round();
  s.Round();
  s.Round();
  *first = s.a0 ^ s.a1 ^ s.a2 ^ s.a3;
  *second = s.b0 ^ s.b1 ^ s.b2 ^ s.b3;
}

inline void XorWord(char* p, uint64_t word) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  v ^= word;
  std::memcpy(p, &v, sizeof(v));
}

// XORs into out[0, n) a SipHash-based keystream derived from (key, round,
// seed). The seed is compressed to a 64-bit digest once, then expanded in
// counter mode (block i = SipHash24 of the 8-byte counter i), so the cost
// is O(|seed| + n). `seed` must not overlap `out`.
void XorKeystream(const Key& key, uint64_t round, std::string_view seed,
                  char* out, size_t n) {
  const uint64_t k0 = key.k0 ^ (round * kRoundMix);
  const uint64_t digest = SipHash24(k0, key.k1, seed);
  uint64_t counter = 0;
  size_t pos = 0;
  for (; pos + 16 <= n; pos += 16, counter += 2) {
    uint64_t first, second;
    SipHashCounterPair(k0, digest, counter, &first, &second);
    XorWord(out + pos, first);
    XorWord(out + pos + 8, second);
  }
  if (pos < n) {
    uint64_t blocks[2] = {0, 0};
    if (n - pos > 8) {
      SipHashCounterPair(k0, digest, counter, &blocks[0], &blocks[1]);
    } else {
      // One block left: the plain SipHash call beats computing a pair.
      blocks[0] = SipHash24(
          k0, digest,
          std::string_view(reinterpret_cast<const char*>(&counter),
                           sizeof(counter)));
    }
    unsigned char bytes[sizeof(blocks)];
    std::memcpy(bytes, blocks, sizeof(blocks));
    for (size_t i = 0; pos < n; ++i, ++pos) {
      out[pos] = static_cast<char>(static_cast<unsigned char>(out[pos]) ^
                                   bytes[i]);
    }
  }
}

// The 4-round Feistel network, in place: round r XORs F(other half) into
// the left half when r is even and into the right half when r is odd.
// XOR is self-inverse, so running the rounds in reverse order decrypts.
void Feistel(const Key& key, std::string& data, bool inverse) {
  char* const p = data.data();
  const size_t n = data.size();
  if (n < 2) {
    // Degenerate Feistel: XOR with a keystream seeded only by a constant,
    // which is still deterministic and invertible.
    XorKeystream(key, 0xffff, "short", p, n);
    return;
  }
  const size_t half = n / 2;
  for (uint64_t step = 0; step < 4; ++step) {
    const uint64_t round = inverse ? 3 - step : step;
    if (round % 2 == 0) {
      XorKeystream(key, round, std::string_view(p + half, n - half), p, half);
    } else {
      XorKeystream(key, round, std::string_view(p, half), p + half, n - half);
    }
  }
}

}  // namespace

Key DeriveKey(const Key& master, std::string_view label) {
  Key derived;
  derived.k0 = SipHash24(master.k0, master.k1, label);
  std::string label2(label);
  label2 += "\x01";
  derived.k1 = SipHash24(master.k0, master.k1, label2);
  return derived;
}

std::string DeterministicCipher::Encrypt(std::string_view plaintext) const {
  std::string data(plaintext);
  Feistel(key_, data, /*inverse=*/false);
  return data;
}

std::string DeterministicCipher::Decrypt(std::string_view ciphertext) const {
  std::string data(ciphertext);
  Feistel(key_, data, /*inverse=*/true);
  return data;
}

uint64_t DeterministicCipher::Tag(std::string_view plaintext) const {
  return SipHash24(key_.k0 ^ 0x7461675f5f5f5f5fULL, key_.k1, plaintext);
}

}  // namespace dssp::crypto
