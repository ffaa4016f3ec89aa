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

/// The two keystream words of one 16-byte block.
struct KeyBlock {
  std::uint64_t w0;
  std::uint64_t w1;
};

/// Block k of the packet's keystream, from counter = seed + (k+1) *
/// kCounterStep: one 64x64->128 multiply of the counter by itself xor a
/// constant (wyrand's mixing step). The fold of the two halves is the
/// first word and the high half the second. Counter mode: each block
/// depends only on its own counter, so the blocks are independent.
KeyBlock keystream(std::uint64_t counter) {
  const unsigned __int128 t = static_cast<unsigned __int128>(counter) *
                              (counter ^ 0xe7037ed1a0b428dbULL);
  const auto lo = static_cast<std::uint64_t>(t);
  const auto hi = static_cast<std::uint64_t>(t >> 64);
  return {lo ^ hi, hi};
}

/// One MAC lane step: xorshift the word, xor it into the lane, odd
/// multiply. It is a bijection of the lane for a fixed word and of the
/// word for a fixed lane, so two inputs that differ in one word never meet
/// in that step. The xorshift matters: in a bare xor-multiply chain a flip
/// of bit 63 passes through the multiply unchanged, so flipping bit 63 in
/// two words of one lane would cancel. Applied to the word, it stays off
/// the lane's dependency chain (xor, multiply).
std::uint64_t absorb(std::uint64_t lane, std::uint64_t word) {
  return (lane ^ word ^ (word >> 29)) * 0xff51afd7ed558ccdULL;
}

/// The two MAC lanes of one packet: the first word of each 16-byte step
/// goes into `a`, the second into `b`. The lanes have no data dependence
/// on each other, so their multiplies overlap.
struct Mac {
  std::uint64_t a;
  std::uint64_t b;

  explicit Mac(std::uint64_t seed) : a(seed), b(~seed) {}

  void absorb_step(std::uint64_t w0, std::uint64_t w1) {
    a = absorb(a, w0);
    b = absorb(b, w1);
  }

  /// Absorbs `data` in 16-byte steps, zero-padding the last one.
  void absorb_bytes(std::span<const std::uint8_t> data) {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    for (; n >= 16; p += 16, n -= 16)
      absorb_step(sim::load_le64(p), sim::load_le64(p + 8));
    if (n > 0) {
      std::uint8_t tail[16] = {};
      std::memcpy(tail, p, n);
      absorb_step(sim::load_le64(tail), sim::load_le64(tail + 8));
    }
  }

  /// Absorbing both lengths last tells zero padding from zero bytes and
  /// pins the AAD/ciphertext boundary; the final PRF chain mixes the lanes
  /// asymmetrically.
  std::uint64_t tag(std::size_t aad_len, std::size_t ct_len) const {
    return prf(absorb(a, aad_len) ^ prf(absorb(b, ct_len)));
  }
};

/// One pass over the payload in 16-byte steps: XOR each step with its
/// keystream block and absorb the step's ciphertext words into the MAC.
/// Sealing absorbs after the XOR, opening before it. The 8 bytes after the
/// payload (the tag, or its room when sealing) belong to the buffer, so
/// the last partial step is done with whole-word loads and stores: the
/// keystream is masked to the payload's bytes, which leaves the bytes past
/// it as they were, and the ciphertext is absorbed with zero padding.
template <bool kSeal>
void crypt_and_absorb(std::uint64_t seed, Mac& mac, std::uint8_t* p,
                      std::size_t len) {
  std::uint64_t counter = seed;
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    counter += kCounterStep;
    const KeyBlock k = keystream(counter);
    const std::uint64_t in0 = sim::load_le64(p + i);
    const std::uint64_t in1 = sim::load_le64(p + i + 8);
    const std::uint64_t out0 = in0 ^ k.w0;
    const std::uint64_t out1 = in1 ^ k.w1;
    sim::store_le64(p + i, out0);
    sim::store_le64(p + i + 8, out1);
    if constexpr (kSeal)
      mac.absorb_step(out0, out1);
    else
      mac.absorb_step(in0, in1);
  }
  const std::size_t n = len - i;
  if (n == 0) return;
  const KeyBlock k = keystream(counter + kCounterStep);
  const std::uint64_t m0 = n >= 8 ? ~0ULL : (1ULL << (8 * n)) - 1;
  const std::uint64_t in0 = sim::load_le64(p + i);
  sim::store_le64(p + i, in0 ^ (k.w0 & m0));
  std::uint64_t in1 = 0;
  std::uint64_t m1 = 0;
  if (n > 8) {
    m1 = (1ULL << (8 * (n - 8))) - 1;
    in1 = sim::load_le64(p + i + 8);
    sim::store_le64(p + i + 8, in1 ^ (k.w1 & m1));
  }
  if constexpr (kSeal)
    mac.absorb_step((in0 ^ k.w0) & m0, (in1 ^ k.w1) & m1);
  else
    mac.absorb_step(in0 & m0, in1 & m1);
}

}  // namespace

NonceWords multipath_nonce_words(std::uint32_t cid_sequence,
                                 PacketNumber pn) {
  // 96-bit path-and-packet-number: 32-bit CID sequence number in network
  // byte order, then two zero bits and the 62-bit packet number.
  const std::uint64_t pn62 = pn & ((1ULL << 62) - 1);
  return {(std::uint64_t{cid_sequence} << 32) | (pn62 >> 32),
          pn62 & 0xffffffffULL};
}

Nonce build_multipath_nonce(std::uint32_t cid_sequence, PacketNumber pn) {
  const NonceWords w = multipath_nonce_words(cid_sequence, pn);
  Nonce n{};
  for (std::size_t i = 0; i < 8; ++i)
    n[i] = static_cast<std::uint8_t>(w.hi >> (56 - 8 * i));
  for (std::size_t i = 0; i < 4; ++i)
    n[8 + i] = static_cast<std::uint8_t>(w.lo >> (24 - 8 * i));
  return n;
}

PacketProtection::PacketProtection(std::uint64_t key)
    : key_(key),
      iv_hi_(prf(key ^ 0x1111111111111111ULL)),
      iv_lo_(prf(key ^ 0x2222222222222222ULL) & 0xffffffffULL) {}

std::uint64_t PacketProtection::packet_seed(std::uint32_t cid_sequence,
                                            PacketNumber pn) const {
  // The nonce XOR the IV, word by word: hi = bytes 0-7 (CID sequence, two
  // zero bits, PN bits 61-32) and mid = bytes 4-11 (PN bits 61-0).
  // Together they carry every path-id and packet-number bit.
  const NonceWords n = multipath_nonce_words(cid_sequence, pn);
  const std::uint64_t hi = n.hi ^ iv_hi_;
  const std::uint64_t mid = (hi << 32) | (n.lo ^ iv_lo_);
  return prf(key_ ^ prf(hi ^ prf(mid)));
}

void PacketProtection::seal_in_place(std::uint32_t cid_sequence,
                                     PacketNumber pn,
                                     std::span<const std::uint8_t> aad,
                                     std::uint8_t* payload,
                                     std::size_t payload_len) const {
  const std::uint64_t seed = packet_seed(cid_sequence, pn);
  Mac mac(seed);
  mac.absorb_bytes(aad);
  crypt_and_absorb<true>(seed, mac, payload, payload_len);
  sim::store_le64(payload + payload_len, mac.tag(aad.size(), payload_len));
}

std::optional<std::size_t> PacketProtection::open_in_place(
    std::uint32_t cid_sequence, PacketNumber pn,
    std::span<const std::uint8_t> aad,
    std::span<std::uint8_t> ciphertext_and_tag) const {
  if (ciphertext_and_tag.size() < kAeadTagSize) return std::nullopt;
  const std::size_t ct_len = ciphertext_and_tag.size() - kAeadTagSize;
  const std::uint64_t seed = packet_seed(cid_sequence, pn);
  Mac mac(seed);
  mac.absorb_bytes(aad);
  crypt_and_absorb<false>(seed, mac, ciphertext_and_tag.data(), ct_len);
  if (sim::load_le64(ciphertext_and_tag.data() + ct_len) !=
      mac.tag(aad.size(), ct_len))
    return std::nullopt;
  return ct_len;
}

}  // namespace xlink::quic
