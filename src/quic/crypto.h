// Packet protection with the multipath nonce construction.
//
// Real QUIC uses AES-GCM/ChaCha20-Poly1305; the cryptography itself is
// irrelevant to transport behaviour, so we use a toy AEAD keyed by a
// per-packet seed. Seal and open each make one pass over the payload in
// 16-byte steps: the step is XORed with a counter-mode keystream block
// (two words from one 64x64->128 multiply of a Weyl counter) and its two
// ciphertext words are absorbed into a two-lane MAC that started on the
// header. What we keep EXACTLY as the draft specifies is the nonce: a
// 96-bit path-and-packet-number -- the 32-bit CID sequence number, two
// zero bits, and the 62-bit packet number -- XORed with the IV. Using the
// wrong path id or packet number fails authentication, which is what gives
// each path an independent nonce space.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "quic/types.h"

namespace xlink::quic {

constexpr std::size_t kAeadTagSize = 8;
constexpr std::size_t kIvSize = 12;  // 96 bits

/// 96-bit AEAD nonce bytes.
using Nonce = std::array<std::uint8_t, kIvSize>;

/// The draft's 96-bit nonce as big-endian words: `hi` holds bytes 0-7 and
/// the low 32 bits of `lo` bytes 8-11 (the IV's layout too). The one
/// definition of the layout: the seal/open seed is built from these words
/// and build_multipath_nonce serializes them.
struct NonceWords {
  std::uint64_t hi;
  std::uint64_t lo;
};

/// [CID sequence number (32b)] [2 zero bits | packet number (62b)].
NonceWords multipath_nonce_words(std::uint32_t cid_sequence, PacketNumber pn);

/// The draft's path-and-packet-number nonce bytes, in network byte order.
Nonce build_multipath_nonce(std::uint32_t cid_sequence, PacketNumber pn);

/// Connection-wide AEAD context; both endpoints of a connection share the
/// same key across every path (the draft's design).
class PacketProtection {
 public:
  explicit PacketProtection(std::uint64_t key);

  /// Encrypts `payload_len` bytes at `payload` in place and writes the
  /// kAeadTagSize-byte tag directly after them (the caller guarantees
  /// room; the pass may read it before the tag lands). `aad` is the
  /// packet header (authenticated, not encrypted). This is the hot path:
  /// no allocation, no copy.
  void seal_in_place(std::uint32_t cid_sequence, PacketNumber pn,
                     std::span<const std::uint8_t> aad, std::uint8_t* payload,
                     std::size_t payload_len) const;

  /// Verifies and decrypts `ciphertext_and_tag` in place; returns the
  /// plaintext length (tag stripped, plaintext at the span's start) or
  /// nullopt when the tag does not verify (wrong key, path id, packet
  /// number, or corrupted bytes). Decryption runs in the same pass as the
  /// MAC, so on failure the buffer holds neither the ciphertext nor a
  /// plaintext: a caller that needs the sealed bytes afterwards opens a
  /// copy.
  std::optional<std::size_t> open_in_place(
      std::uint32_t cid_sequence, PacketNumber pn,
      std::span<const std::uint8_t> aad,
      std::span<std::uint8_t> ciphertext_and_tag) const;

  std::uint64_t key() const { return key_; }

 private:
  /// Folds the key and the full 96-bit effective nonce into one word that
  /// keys both the keystream and the MAC of one packet.
  std::uint64_t packet_seed(std::uint32_t cid_sequence, PacketNumber pn) const;

  std::uint64_t key_;
  // Per-connection IV derived from the key once (fixed derivation), as
  // big-endian words: bytes 0-7, and bytes 8-11 in the low 32 bits.
  std::uint64_t iv_hi_;
  std::uint64_t iv_lo_;
};

}  // namespace xlink::quic
