#include "calibrate.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

namespace {

uint64_t Rotl(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

// SipHash-2-4 of the 64-bit words `in` under key (k0, k1).
uint64_t Sip(uint64_t k0, uint64_t k1, const uint64_t* in, size_t words) {
  uint64_t v0 = k0 ^ 0x736f6d6570736575ULL;
  uint64_t v1 = k1 ^ 0x646f72616e646f6dULL;
  uint64_t v2 = k0 ^ 0x6c7967656e657261ULL;
  uint64_t v3 = k1 ^ 0x7465646279746573ULL;
  const auto round = [&] {
    v0 += v1; v1 = Rotl(v1, 13); v1 ^= v0; v0 = Rotl(v0, 32);
    v2 += v3; v3 = Rotl(v3, 16); v3 ^= v2;
    v0 += v3; v3 = Rotl(v3, 21); v3 ^= v0;
    v2 += v1; v1 = Rotl(v1, 17); v1 ^= v2; v2 = Rotl(v2, 32);
  };
  for (size_t i = 0; i < words; ++i) {
    v3 ^= in[i];
    round();
    round();
    v0 ^= in[i];
  }
  v2 ^= 0xff;
  for (int i = 0; i < 4; ++i) round();
  return v0 ^ v1 ^ v2 ^ v3;
}

// One round of the kernel, 200 steps of the hit path's kind: format a key,
// hash 128 bytes with SipHash, and insert the key into a map of at most
// 4,096 entries. The map is emptied when it passes 3,000 entries so every
// round does the same mix of inserts, overwrites and frees.
void ProbeRound(std::map<uint32_t, std::string>& map, uint32_t& state) {
  uint64_t block[16];
  for (int i = 0; i < 200; ++i) {
    state = state * 1664525u + 1013904223u;
    for (int w = 0; w < 16; ++w) block[w] = state + static_cast<uint64_t>(w);
    const uint64_t tag = Sip(state, ~static_cast<uint64_t>(state), block, 16);
    map[state % 4096] = std::to_string(tag) + "-perfbench-host-probe";
  }
  if (map.size() > 3000) map.clear();
}

}  // namespace

double HostSpeed() {
  using Clock = std::chrono::steady_clock;
  std::map<uint32_t, std::string> map;
  uint32_t state = 1;
  uint64_t rounds = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  do {
    ProbeRound(map, state);
    ++rounds;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < kProbeS);
  return static_cast<double>(rounds) / elapsed / kReferenceProbeRate;
}

}  // namespace perfbench
