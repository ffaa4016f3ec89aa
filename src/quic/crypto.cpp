#include "quic/crypto.h"

#include <cstring>

#include "sim/bytes.h"

namespace xlink::quic {
namespace {

/// Small non-cryptographic PRF (splitmix64 finalizer); NOT secure, but
/// deterministic, fast, and collision-resistant enough to make tampered or
/// mis-addressed packets fail authentication in tests.
std::uint64_t prf(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Weyl increment of the keystream counter (the splitmix64 step).
constexpr std::uint64_t kCounterStep = 0x9e3779b97f4a7c15ULL;

std::uint64_t nonce_to_u64(const Nonce& n, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8 && offset + i < n.size(); ++i)
    v = (v << 8) | n[offset + i];
  return v;
}

/// XORs the packet's keystream into `data`: block k is prf(seed + (k+1) *
/// kCounterStep) and covers bytes 8k..8k+7, byte j of the block taking
/// bits 8j..8j+7. One PRF per block, and the blocks are independent.
void apply_keystream(std::uint64_t seed, std::uint8_t* data, std::size_t len) {
  std::uint64_t counter = seed;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    counter += kCounterStep;
    sim::store_le64(data + i, sim::load_le64(data + i) ^ prf(counter));
  }
  if (i < len) {
    const std::uint64_t block = prf(counter + kCounterStep);
    for (std::size_t j = 0; i + j < len; ++j)
      data[i + j] ^= static_cast<std::uint8_t>(block >> (8 * j));
  }
}

/// One MAC lane step: xor, odd multiply, xorshift. It is a bijection of the
/// lane for a fixed word and of the word for a fixed lane, so two inputs
/// that differ in one word never meet in that step. The xorshift matters:
/// in a bare xor-multiply chain a flip of bit 63 passes through the
/// multiply unchanged, so flipping bit 63 in two words of one lane would
/// cancel.
std::uint64_t absorb(std::uint64_t lane, std::uint64_t word) {
  lane = (lane ^ word) * 0xff51afd7ed558ccdULL;
  return lane ^ (lane >> 29);
}

/// Hashes `data` as little-endian words, even words into lane `a` and odd
/// words into lane `b`, zero-padding the last pair of words. The lanes have
/// no data dependence on each other, so their multiplies overlap.
void absorb_words(std::uint64_t& a, std::uint64_t& b,
                  std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 16; p += 16, n -= 16) {
    a = absorb(a, sim::load_le64(p));
    b = absorb(b, sim::load_le64(p + 8));
  }
  if (n > 0) {
    std::uint8_t tail[16] = {};
    std::memcpy(tail, p, n);
    a = absorb(a, sim::load_le64(tail));
    b = absorb(b, sim::load_le64(tail + 8));
  }
}

/// Two-lane word MAC over aad || ciphertext. Absorbing both lengths last
/// tells zero padding from zero bytes and pins the AAD/ciphertext
/// boundary; the final PRF chain mixes the lanes asymmetrically.
std::uint64_t mac(std::uint64_t seed, std::span<const std::uint8_t> aad,
                  std::span<const std::uint8_t> ct) {
  std::uint64_t a = seed;
  std::uint64_t b = ~seed;
  absorb_words(a, b, aad);
  absorb_words(a, b, ct);
  a = absorb(a, aad.size());
  b = absorb(b, ct.size());
  return prf(a ^ prf(b));
}

}  // namespace

Nonce build_multipath_nonce(std::uint32_t cid_sequence, PacketNumber pn) {
  // 96-bit path-and-packet-number: 32-bit CID sequence number in network
  // byte order, then two zero bits and the 62-bit packet number.
  Nonce n{};
  n[0] = static_cast<std::uint8_t>(cid_sequence >> 24);
  n[1] = static_cast<std::uint8_t>(cid_sequence >> 16);
  n[2] = static_cast<std::uint8_t>(cid_sequence >> 8);
  n[3] = static_cast<std::uint8_t>(cid_sequence);
  const std::uint64_t pn62 = pn & ((1ULL << 62) - 1);
  for (int i = 0; i < 8; ++i)
    n[4 + i] = static_cast<std::uint8_t>(pn62 >> (56 - 8 * i));
  return n;
}

PacketProtection::PacketProtection(std::uint64_t key) : key_(key), iv_{} {
  std::uint64_t a = prf(key_ ^ 0x1111111111111111ULL);
  std::uint64_t b = prf(key_ ^ 0x2222222222222222ULL);
  for (int i = 0; i < 8; ++i)
    iv_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(a >> (56 - 8 * i));
  for (int i = 0; i < 4; ++i)
    iv_[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(b >> (24 - 8 * i));
}

std::uint64_t PacketProtection::packet_seed(std::uint32_t cid_sequence,
                                            PacketNumber pn) const {
  Nonce nonce = build_multipath_nonce(cid_sequence, pn);
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] ^= iv_[i];
  // Bytes 0-7 and 4-11 together carry every path-id and packet-number bit.
  return prf(key_ ^ prf(nonce_to_u64(nonce, 0) ^
                        prf(nonce_to_u64(nonce, 4))));
}

void PacketProtection::seal_in_place(std::uint32_t cid_sequence,
                                     PacketNumber pn,
                                     std::span<const std::uint8_t> aad,
                                     std::uint8_t* payload,
                                     std::size_t payload_len) const {
  const std::uint64_t seed = packet_seed(cid_sequence, pn);
  apply_keystream(seed, payload, payload_len);
  const std::uint64_t tag = mac(seed, aad, {payload, payload_len});
  for (std::size_t i = 0; i < kAeadTagSize; ++i)
    payload[payload_len + i] = static_cast<std::uint8_t>(tag >> (56 - 8 * i));
}

std::optional<std::size_t> PacketProtection::open_in_place(
    std::uint32_t cid_sequence, PacketNumber pn,
    std::span<const std::uint8_t> aad,
    std::span<std::uint8_t> ciphertext_and_tag) const {
  if (ciphertext_and_tag.size() < kAeadTagSize) return std::nullopt;
  const std::uint64_t seed = packet_seed(cid_sequence, pn);

  const std::size_t ct_len = ciphertext_and_tag.size() - kAeadTagSize;
  std::uint64_t tag = 0;
  for (std::size_t i = 0; i < kAeadTagSize; ++i)
    tag = (tag << 8) | ciphertext_and_tag[ct_len + i];
  if (tag != mac(seed, aad, ciphertext_and_tag.first(ct_len)))
    return std::nullopt;

  apply_keystream(seed, ciphertext_and_tag.data(), ct_len);
  return ct_len;
}

}  // namespace xlink::quic
