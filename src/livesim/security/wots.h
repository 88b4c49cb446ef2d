// Winternitz one-time signatures (WOTS) over SHA-256.
//
// The §7 defense needs the broadcaster to sign frame hashes so that both
// the ingest server and every viewer can verify integrity. A hash-based
// scheme fits the paper's constraints exactly: cheap on phones (a few
// hundred hashes per signature vs. full-stream TLS), publicly verifiable,
// and amenable to the paper's "sign only selective frames or sign hashes
// across multiple frames" optimization.
//
// Parameters: w = 16 (4-bit chunks) -> 64 message chunks + 3 checksum
// chunks = 67 hash chains of length 15.
#ifndef LIVESIM_SECURITY_WOTS_H
#define LIVESIM_SECURITY_WOTS_H

#include <array>
#include <cstdint>
#include <vector>

#include "livesim/security/sha256.h"

namespace livesim::security {

class Wots {
 public:
  static constexpr std::size_t kChunks = 67;      // 64 message + 3 checksum
  static constexpr std::uint32_t kChainLen = 15;  // w - 1 iterations max
  static constexpr std::size_t kSignatureBytes = kChunks * 32;

  /// Deterministic keypair from a 32-byte seed and a key index.
  struct KeyPair {
    std::array<Digest, kChunks> secret;
    Digest public_key;  // H(pk_0 || ... || pk_66)
  };

  static KeyPair derive(const Digest& seed, std::uint64_t index);

  /// Signs a 32-byte digest; output is kChunks digests concatenated.
  static std::vector<std::uint8_t> sign(const KeyPair& kp,
                                        const Digest& message);

  /// Recomputes the public key from a signature; compare against the
  /// known public key (or feed into a Merkle proof).
  static Digest recover_public_key(const std::vector<std::uint8_t>& signature,
                                   const Digest& message);

 private:
  static std::array<std::uint8_t, kChunks> chunk_message(const Digest& m);
  static Digest chain(const Digest& start, std::uint32_t from,
                      std::uint32_t steps);
};

/// Merkle tree over WOTS public keys: one root authenticates many one-time
/// keys, so the broadcaster only needs to exchange 32 bytes at setup.
class MerkleTree {
 public:
  /// `leaves` must be a power of two in count.
  explicit MerkleTree(std::vector<Digest> leaves);

  const Digest& root() const noexcept { return nodes_[1]; }

  /// Sibling path from leaf `index` to the root.
  std::vector<Digest> auth_path(std::size_t index) const;

  /// Verifies that `leaf` at `index` is under `root` via `path`.
  static bool verify(const Digest& leaf, std::size_t index,
                     const std::vector<Digest>& path, const Digest& root);

 private:
  std::size_t leaf_count_;
  std::vector<Digest> nodes_;  // 1-indexed heap layout
};

}  // namespace livesim::security

#endif  // LIVESIM_SECURITY_WOTS_H
