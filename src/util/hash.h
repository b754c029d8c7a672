/// \file hash.h
/// The repo's shared non-cryptographic hashing primitives. Three subsystems
/// grew near-duplicate FNV/splitmix implementations — wire-frame checksums
/// (src/dist/wire.cpp), the 128-bit window-signature streams
/// (src/core/incremental), and fault-injection window keys
/// (src/util/fault_injection) — and the solve cache (src/cache) keys its
/// on-disk records with the same functions. The TCP transport (src/dist/tcp)
/// draws its handshake nonces and attach-backoff jitter from
/// splitmix_finalize too. They live here once, with the
/// exact historical constants, because the bit patterns are load-bearing:
/// window signatures key the persistent cache and the golden scenario
/// corpus, wire checksums are protocol, and fault keys determine which
/// drills fire for a given seed. Changing any constant is a cache-epoch /
/// wire-version / golden-regeneration event, never a refactor.
///
/// Everything is a pure function of explicit integer words: no pointers,
/// clocks, or container addresses ever enter a hash, so all outputs are
/// reproducible across runs, platforms, and processes.
#pragma once

#include <cstdint>
#include <cstring>

namespace vm1::hash {

/// Plain 64-bit FNV-1a over bytes — the wire-frame checksum and the cache
/// store's record checksum.
inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;  // FNV-1a prime
  }
  return h;
}

/// splitmix64 finalizer (same construction as util/rng.h's seeding stage):
/// a bijective avalanche so nearby keys decorrelate completely.
inline std::uint64_t splitmix_finalize(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64-based hash combine (boost::hash_combine shape) used for
/// window keys; stable across platforms so fault schedules are portable.
inline std::uint64_t splitmix_mix(std::uint64_t h, std::uint64_t v) {
  return splitmix_finalize(h ^
                           (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/// Streaming 2x64-bit FNV-1a-style hasher behind the 128-bit window
/// signatures. Stable across platforms and runs: it consumes explicit
/// integer words only — callers hash doubles by bit pattern, never
/// pointers, clocks, or container addresses.
class SignatureHasher {
 public:
  void add(std::uint64_t v) {
    a_ = step(a_, v, kPrimeA);
    b_ = step(b_, v ^ kTweak, kPrimeB);
  }
  void add_int(long long v) { add(static_cast<std::uint64_t>(v)); }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add_bool(bool v) { add(v ? 1u : 0u); }

  std::uint64_t low() const { return a_; }
  std::uint64_t high() const { return b_; }

 private:
  static std::uint64_t step(std::uint64_t h, std::uint64_t v,
                            std::uint64_t prime) {
    h ^= v;
    h *= prime;
    h ^= h >> 29;
    return h;
  }
  static constexpr std::uint64_t kPrimeA = 1099511628211ULL;  // FNV-1a prime
  static constexpr std::uint64_t kPrimeB = 0x9E3779B97F4A7C15ULL;
  static constexpr std::uint64_t kTweak = 0xA5A5A5A55A5A5A5AULL;
  std::uint64_t a_ = 14695981039346656037ULL;  // FNV-1a offset basis
  std::uint64_t b_ = 0x6C62272E07BB0142ULL;
};

}  // namespace vm1::hash
