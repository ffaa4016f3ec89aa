// Packet protection with the multipath nonce construction.
//
// Real QUIC uses AES-GCM/ChaCha20-Poly1305; the cryptography itself is
// irrelevant to transport behaviour, so we use a toy AEAD that works on
// 8-byte words: a counter-mode PRF keystream and a two-lane 8-byte MAC over
// header and ciphertext, both keyed by a per-packet seed. What we keep
// EXACTLY as the draft specifies is the nonce: a 96-bit
// path-and-packet-number -- the 32-bit CID sequence number, two zero bits,
// and the 62-bit packet number -- left-padded to IV size and XORed with the
// IV. Using the wrong path id or packet number fails authentication, which
// is what gives each path an independent nonce space.
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

/// Builds the draft's path-and-packet-number nonce:
/// [CID sequence number (32b)] [2 zero bits | packet number (62b)].
Nonce build_multipath_nonce(std::uint32_t cid_sequence, PacketNumber pn);

/// Connection-wide AEAD context; both endpoints of a connection share the
/// same key across every path (the draft's design).
class PacketProtection {
 public:
  explicit PacketProtection(std::uint64_t key);

  /// Encrypts `payload_len` bytes at `payload` in place and writes the
  /// kAeadTagSize-byte tag directly after them (the caller guarantees
  /// room). `aad` is the packet header (authenticated, not encrypted).
  /// This is the hot path: no allocation, no copy.
  void seal_in_place(std::uint32_t cid_sequence, PacketNumber pn,
                     std::span<const std::uint8_t> aad, std::uint8_t* payload,
                     std::size_t payload_len) const;

  /// Verifies and decrypts `ciphertext_and_tag` in place; returns the
  /// plaintext length (tag stripped, plaintext at the span's start) or
  /// nullopt when the tag does not verify (wrong key, path id, packet
  /// number, or corrupted bytes).
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
  // Per-connection IV derived from the key once (fixed derivation).
  Nonce iv_;
};

}  // namespace xlink::quic
