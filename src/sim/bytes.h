// Little-endian 64-bit word access over byte buffers.
//
// Word-wise byte work (the AEAD keystream and MAC, the video model's
// content) defines byte j of a word as bits 8j..8j+7, so the bytes it
// produces are the same on every host. std::memcpy keeps the access free of
// alignment and aliasing assumptions; compilers lower it to one load or
// store.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace xlink::sim {

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

}  // namespace xlink::sim
