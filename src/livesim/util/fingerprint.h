// Result fingerprints: one FNV-1a chain for every pinned hash.
//
// Determinism pins (thread-count identity, sub-shard invariance, golden
// session hashes) compare 64-bit fingerprints of results. They all fold
// 64-bit words into the FNV-1a offset basis with the FNV prime, doubles
// by bit pattern, in the caller's order, so two fingerprints are equal
// only if the mixed values agree bit for bit and in sequence.
#ifndef LIVESIM_UTIL_FINGERPRINT_H
#define LIVESIM_UTIL_FINGERPRINT_H

#include <bit>
#include <cstdint>
#include <span>

namespace livesim::util {

class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= kPrime;
    return *this;
  }
  Fingerprint& mix_double(double x) noexcept {
    return mix(std::bit_cast<std::uint64_t>(x));
  }
  /// Every value in order (e.g. a stats::Sampler's samples()).
  Fingerprint& mix_doubles(std::span<const double> xs) noexcept {
    for (double x : xs) mix_double(x);
    return *this;
  }

  std::uint64_t value() const noexcept { return h_; }

 private:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h_ = kOffsetBasis;
};

}  // namespace livesim::util

#endif  // LIVESIM_UTIL_FINGERPRINT_H
