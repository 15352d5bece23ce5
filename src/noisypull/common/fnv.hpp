// FNV-1a 64-bit hashing for replay-digest auditing.
//
// The engines fold every round's display vector into a chained FNV-1a
// digest (engine.hpp).  Two runs of the same configuration and seed must
// produce identical digests; any divergence pinpoints nondeterminism —
// unseeded randomness, hash-order iteration, uninitialized reads — that
// neither the compiler gate nor noisypull_lint can prove absent.  FNV-1a is
// used for its trivial constexpr implementation and byte-order independence,
// not for adversarial collision resistance (the auditor compares a run
// against itself, not against attackers).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace noisypull::fnv {

inline constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kPrime = 1099511628211ULL;

// Folds one byte into the running digest.
constexpr std::uint64_t hash_byte(std::uint64_t digest,
                                  std::uint8_t byte) noexcept {
  return (digest ^ byte) * kPrime;
}

// Folds a 64-bit value, little-endian byte order (explicitly, so digests are
// comparable across platforms).
constexpr std::uint64_t hash_u64(std::uint64_t digest,
                                 std::uint64_t value) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    digest = hash_byte(digest, static_cast<std::uint8_t>(value >> shift));
  }
  return digest;
}

// kPrime^k mod 2^64: the multiplier that a fold of k bytes applies to the
// digest it starts from (FoldMemo below).
constexpr std::uint64_t prime_power(std::uint64_t k) noexcept {
  std::uint64_t result = 1;
  for (std::uint64_t base = kPrime; k != 0; k >>= 1, base *= base) {
    if ((k & 1) != 0) result *= base;
  }
  return result;
}

// Folds the bytes of `bytes` into `digest`, one hash_byte each.  Eight
// bytes per loop trip: the fold is one serial xor-multiply chain either way,
// but a one-byte loop's speed depends on where the linker places it
// (EXPERIMENTS.md PERF-FOLD).
inline std::uint64_t hash_bytes(std::uint64_t digest,
                                std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  for (; end - p >= 8; p += 8) {
    digest = hash_byte(digest, p[0]);
    digest = hash_byte(digest, p[1]);
    digest = hash_byte(digest, p[2]);
    digest = hash_byte(digest, p[3]);
    digest = hash_byte(digest, p[4]);
    digest = hash_byte(digest, p[5]);
    digest = hash_byte(digest, p[6]);
    digest = hash_byte(digest, p[7]);
  }
  for (; p != end; ++p) digest = hash_byte(digest, *p);
  return digest;
}

// O(1) folds of one fixed byte vector D of length n into many digests.
// The fold is affine in the digest up to its low byte (DESIGN.md §8.3):
//
//   fold_D(x) = P^n·x + C_D[x mod 256]   (mod 2^64),
//
// because x ^ b differs from x only in x's low byte, by an amount that
// depends on that byte alone, and the low byte of (x ^ b)·P depends only on
// the low byte of x.  The memo holds C_D for the low bytes seen so far; an
// entry is learned from one ordinary fold (record()).  reset() starts a new
// D and forgets every entry.
class FoldMemo {
 public:
  // A new byte vector of length n: every entry is unknown.
  void reset(std::uint64_t n) noexcept {
    power_ = prime_power(n);
    known_.fill(false);
  }

  // Learns C_D[x mod 256] from folded = fold_D(x).
  void record(std::uint64_t x, std::uint64_t folded) noexcept {
    const std::size_t low = x & 0xff;
    offset_[low] = folded - power_ * x;
    known_[low] = true;
  }

  // fold_D(x) when C_D[x mod 256] is known; false otherwise.
  bool fold(std::uint64_t x, std::uint64_t& folded) const noexcept {
    const std::size_t low = x & 0xff;
    if (!known_[low]) return false;
    folded = power_ * x + offset_[low];
    return true;
  }

 private:
  std::uint64_t power_ = 1;  // P^n
  std::array<std::uint64_t, 256> offset_{};
  std::array<bool, 256> known_{};
};

}  // namespace noisypull::fnv
