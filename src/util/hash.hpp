// Hashing: stable FNV-1a for values compared across runs, and a fast
// word-wise payload digest for values compared within one process.
//
// FNV-1a is used wherever a hash value becomes part of simulated or
// persisted state: the task-counter home placement
// (ga/task_counter.cpp), the schedule-cache fingerprints, and the
// result_checksum scalars the benches and examples emit. std::hash is
// unspecified and differs between standard libraries, which would make
// simulated timings and checksum gates non-portable. FNV-1a goes one
// byte at a time, which is fine for keys and result folds but slow for
// bulk data.
//
// digest_words is the bulk-data digest: the checkpoint store takes it
// once per freshly written tile payload (runtime/checkpoint.cpp) and
// seals it with the tile's metadata via fnv1a_u64. It reads the buffer
// as host-order 64-bit words, so its values are compared only inside
// the process that computed them, never across hosts or commits.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace fit::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold `len` raw bytes into a running FNV-1a state. Start from
/// kFnvOffsetBasis (or a previous return value to chain buffers).
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t len,
                                 std::uint64_t h = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a of a string (task-counter homing, label hashing).
inline std::uint64_t fnv1a(std::string_view s,
                           std::uint64_t h = kFnvOffsetBasis) {
  return fnv1a_bytes(s.data(), s.size(), h);
}

/// Mix one little-endian-serialized 64-bit word into the state —
/// used to fold metadata (epochs, indices) into a data checksum
/// without materializing a buffer.
inline std::uint64_t fnv1a_u64(std::uint64_t v,
                               std::uint64_t h = kFnvOffsetBasis) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<unsigned char>(v >> (8 * i));
    h *= kFnvPrime;
  }
  return h;
}

namespace detail {

// Odd 64-bit multipliers with well-spread bits (the xxHash64 primes).
inline constexpr std::uint64_t kDigestP1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kDigestP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kDigestP3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kDigestP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kDigestP5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

// One lane step. For a fixed `acc` it is a bijection of `w`, and for a
// fixed `w` a bijection of `acc` (add, multiply by an odd constant,
// rotate), so a changed word always changes the lane's final state.
inline std::uint64_t digest_round(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * kDigestP2, 31) * kDigestP1;
}

// Fold one value into the running state; a bijection of each argument
// with the other held fixed.
inline std::uint64_t digest_fold(std::uint64_t h, std::uint64_t v) {
  return std::rotl(h ^ digest_round(0, v), 27) * kDigestP1 + kDigestP4;
}

}  // namespace detail

/// Word-wise digest of `len` bytes at `data` (any alignment). Four
/// independent lanes each absorb one 8-byte word per 32-byte stripe;
/// the lanes, the leftover words and the zero-padded byte tail are
/// then folded in order into a state seeded with `len`, and the result
/// is avalanched. Every step is a bijection of the value it absorbs,
/// so any change confined to one aligned 8-byte word of the buffer —
/// in particular every single-bit flip — is guaranteed to change the
/// digest. Several times faster than fnv1a_bytes on large buffers.
inline std::uint64_t digest_words(const void* data, std::size_t len) {
  using namespace detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  std::uint64_t v1 = kDigestP1 + kDigestP2, v2 = kDigestP2, v3 = 0,
                v4 = 0 - kDigestP1;
  for (; end - p >= 32; p += 32) {
    v1 = digest_round(v1, load_word(p));
    v2 = digest_round(v2, load_word(p + 8));
    v3 = digest_round(v3, load_word(p + 16));
    v4 = digest_round(v4, load_word(p + 24));
  }
  std::uint64_t h = kDigestP5 + static_cast<std::uint64_t>(len);
  h = digest_fold(h, v1);
  h = digest_fold(h, v2);
  h = digest_fold(h, v3);
  h = digest_fold(h, v4);
  for (; end - p >= 8; p += 8) h = digest_fold(h, load_word(p));
  if (p != end) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, static_cast<std::size_t>(end - p));
    h = digest_fold(h, tail);
  }
  h ^= h >> 33;
  h *= kDigestP2;
  h ^= h >> 29;
  h *= kDigestP3;
  h ^= h >> 32;
  return h;
}

}  // namespace fit::util
