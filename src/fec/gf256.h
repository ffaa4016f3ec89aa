#pragma once

// GF(2^8) arithmetic for the FEC subsystem.
//
// The field is GF(2^8) with the AES/Rijndael reduction polynomial
// x^8 + x^4 + x^3 + x + 1 (0x11b). Single products and divisions go
// through log/exp tables built once at first use from the generator 0x03.
//
// The row operation behind encode and decode (dst ^= c * src over a whole
// symbol) uses split-nibble product tables instead: for every coefficient
// c, lo[c][n] = c * n and hi[c][n] = c * (n << 4), so
// c * s = lo[c][s & 15] ^ hi[c][s >> 4] (multiplication distributes over
// XOR). On hosts with SSSE3 one pshufb looks up 16 nibbles at once, so the
// row op takes 16 bytes per step; the body is chosen once at run time, and
// a portable byte loop over the same tables serves other hosts and the
// SIMD body's tail. Either body gives the same bytes as gf_mul; no
// allocations, fully deterministic.

#include <cstddef>
#include <cstdint>
#include <span>

namespace xlink::fec {

namespace detail {

struct Gf256Tables {
  std::uint8_t exp[512];  // exp[i] = g^i, doubled so mul needs no mod 255
  std::uint8_t log[256];  // log[exp[i]] = i; log[0] unused
  // Split-nibble products of every coefficient (8 KiB together).
  alignas(16) std::uint8_t lo[256][16];  // lo[c][n] = c * n
  alignas(16) std::uint8_t hi[256][16];  // hi[c][n] = c * (n << 4)
  Gf256Tables();
};

const Gf256Tables& gf_tables();

/// One body of the row op over n bytes:
/// dst[i] = (accumulate ? dst[i] : 0) ^ c * src[i]. src may equal dst.
using GfRowBody = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                           std::size_t n, std::uint8_t c, bool accumulate);

/// The byte-at-a-time split-nibble body; runs on any host.
void gf_row_portable(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n, std::uint8_t c, bool accumulate);

/// The 16-bytes-per-step SSSE3 body when this host has it, else nullptr.
/// gf_addmul and gf_scale use it whenever it exists.
GfRowBody gf_row_simd();

}  // namespace detail

/// a * b in GF(2^8).
inline std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = detail::gf_tables();
  return t.exp[static_cast<unsigned>(t.log[a]) + t.log[b]];
}

/// a / b in GF(2^8); b must be non-zero.
inline std::uint8_t gf_div(std::uint8_t a, std::uint8_t b) {
  if (a == 0) return 0;
  const auto& t = detail::gf_tables();
  return t.exp[static_cast<unsigned>(t.log[a]) + 255 - t.log[b]];
}

/// Multiplicative inverse; a must be non-zero.
inline std::uint8_t gf_inv(std::uint8_t a) {
  const auto& t = detail::gf_tables();
  return t.exp[255 - t.log[a]];
}

/// g^power for the Vandermonde generator matrix.
inline std::uint8_t gf_exp(unsigned power) {
  return detail::gf_tables().exp[power % 255];
}

/// dst[i] ^= c * src[i] over the shorter of the two spans. The row
/// operation behind both RS encode (accumulate coded symbols) and decode
/// (matrix elimination). c == 0 is a no-op.
void gf_addmul(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
               std::uint8_t c);

/// dst[i] = c * dst[i] over the span (row scaling during elimination).
void gf_scale(std::span<std::uint8_t> dst, std::uint8_t c);

}  // namespace xlink::fec
