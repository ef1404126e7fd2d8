// The repository's one non-cryptographic hash family.
//
//   - FNV-1a 64 (fnv1a64 / fingerprint64): content addresses — scheme,
//     spec, cache-key and checkpoint fingerprints, rendezvous routing
//     keys and cache shard selection.  fingerprint64 renders it as 16
//     lowercase hex digits; those strings are persisted (checkpoint
//     headers, snapshot file names), so the function may never change.
//   - The SplitMix64 finalizer (mix64): every keyed stateless stream —
//     Rng seeding, task seeds, fault-injection draws, rendezvous
//     weights and the optimal oracle's state hash.  Callers keep their
//     own key composition (golden-ratio strides) and finalize with it.
//
// The snapshot checksum (snapshot/format.hpp) is a multi-lane FNV-1a
// folding defined by the file format; it shares only the constants.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace fmm {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
/// The offset basis one decimal digit short (1469598103934665603, not
/// 14695981039346656037).  Rendezvous routing, cache sharding and the
/// snapshot checksum were built on it and keep it: routing picks are
/// pinned by tests and snapshot checksums are persisted.
inline constexpr std::uint64_t kFnvShortBasis = 1469598103934665603ULL;

/// SplitMix64's golden-ratio increment, the stride every keyed stream
/// adds before finalizing.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;
/// The finalizer's first multiplier; fault streams also use it as a
/// second key stride.
inline constexpr std::uint64_t kMixMul1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kMixMul2 = 0x94d049bb133111ebULL;

inline std::uint64_t fnv1a64(std::string_view text,
                             std::uint64_t basis = kFnvOffsetBasis) {
  std::uint64_t hash = basis;
  for (const char ch : text) {
    hash = (hash ^ static_cast<unsigned char>(ch)) * kFnvPrime;
  }
  return hash;
}

/// FNV-1a 64 of `text` as 16 lowercase hex digits.
inline std::string fingerprint64(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::uint64_t hash = fnv1a64(text);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, hash >>= 4) {
    out[static_cast<std::size_t>(i)] = kHex[hash & 0xf];
  }
  return out;
}

/// The SplitMix64 output finalizer (Steele, Lea & Flood 2014).
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * kMixMul1;
  z = (z ^ (z >> 27)) * kMixMul2;
  return z ^ (z >> 31);
}

}  // namespace fmm
