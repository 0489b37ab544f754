// Deterministic, seedable random number generation.
//
// Everything in this repository that needs randomness (synthetic
// integrals, MO coefficients, property-test inputs) goes through this
// generator so that runs are exactly reproducible across machines.
#pragma once

#include <cstdint>

namespace fit {

/// SplitMix64: tiny, fast, high-quality 64-bit PRNG. Used both directly
/// and as a seeding function; see Steele et al., "Fast splittable
/// pseudorandom number generators".
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) {
    return bound == 0 ? 0 : next_u64() % bound;
  }

 private:
  std::uint64_t state_;
};

/// The seed hash_to_unit mixes its four keys into: an XOR of one
/// product per key. XOR makes it exactly separable,
///   hash_key(a, b, c, d) == hash_key(a, 0, c, d) ^ hash_key(0, b, 0, 0),
/// so a caller that holds some keys fixed over a loop can fold their
/// terms once and XOR in the varying one per iteration, bit for bit.
inline std::uint64_t hash_key(std::uint64_t a, std::uint64_t b = 0x9E37,
                              std::uint64_t c = 0x79B9,
                              std::uint64_t d = 0x7F4A) {
  return a * 0x9E3779B97F4A7C15ull ^ b * 0xC2B2AE3D27D4EB4Full ^
         c * 0x165667B19E3779F9ull ^ d * 0x27D4EB2F165667C5ull;
}

/// Map a mixed seed (hash_key) to a double in [-1, 1).
inline double unit_from_key(std::uint64_t key) {
  SplitMix64 g(key);
  return 2.0 * g.next_double() - 1.0;
}

/// Stateless hash of up to four 64-bit keys to a double in [-1, 1).
/// Used by the on-the-fly integral generators: A(i,j,k,l) must be a
/// pure function of its indices so that recomputation is consistent.
inline double hash_to_unit(std::uint64_t a, std::uint64_t b = 0x9E37,
                           std::uint64_t c = 0x79B9, std::uint64_t d = 0x7F4A) {
  return unit_from_key(hash_key(a, b, c, d));
}

}  // namespace fit
