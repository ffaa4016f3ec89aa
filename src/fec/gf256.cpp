#include "fec/gf256.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace xlink::fec {
namespace detail {

Gf256Tables::Gf256Tables() {
  // Generator 0x03 is primitive for the 0x11b polynomial: powers of 3
  // enumerate every non-zero field element exactly once.
  std::uint8_t x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    exp[i] = x;
    log[x] = static_cast<std::uint8_t>(i);
    // x *= 3  ==  x ^ (x << 1) with reduction.
    const std::uint8_t hi_bit = static_cast<std::uint8_t>(x & 0x80u);
    std::uint8_t shifted = static_cast<std::uint8_t>(x << 1);
    if (hi_bit) shifted ^= 0x1b;
    x ^= shifted;
  }
  for (unsigned i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  log[0] = 0;  // never read; keeps the table fully initialised

  // gf_mul over the tables just built (gf_mul itself would re-enter
  // gf_tables() while it is being constructed).
  const auto mul = [this](unsigned a, unsigned b) -> std::uint8_t {
    return a == 0 || b == 0 ? 0 : exp[log[a] + log[b]];
  };
  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned n = 0; n < 16; ++n) {
      lo[c][n] = mul(c, n);
      hi[c][n] = mul(c, n << 4);
    }
  }
}

const Gf256Tables& gf_tables() {
  static const Gf256Tables tables;
  return tables;
}

void gf_row_portable(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n, std::uint8_t c, bool accumulate) {
  const std::uint8_t* lo = gf_tables().lo[c];
  const std::uint8_t* hi = gf_tables().hi[c];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t s = src[i];
    const auto p = static_cast<std::uint8_t>(lo[s & 15] ^ hi[s >> 4]);
    dst[i] = accumulate ? static_cast<std::uint8_t>(dst[i] ^ p) : p;
  }
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

/// pshufb looks up 16 nibbles in a 16-entry table at once: one step does
/// 16 bytes. The portable body finishes the tail.
__attribute__((target("ssse3"))) void row_ssse3(std::uint8_t* dst,
                                                const std::uint8_t* src,
                                                std::size_t n, std::uint8_t c,
                                                bool accumulate) {
  const auto& t = gf_tables();
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c]));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c]));
  const __m128i nibble = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i p = _mm_xor_si128(
        _mm_shuffle_epi8(lo, _mm_and_si128(s, nibble)),
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), nibble)));
    if (accumulate)
      p = _mm_xor_si128(
          p, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), p);
  }
  gf_row_portable(dst + i, src + i, n - i, c, accumulate);
}

}  // namespace

GfRowBody gf_row_simd() {
  __builtin_cpu_init();  // may run before the CPU-model constructors
  return __builtin_cpu_supports("ssse3") ? &row_ssse3 : nullptr;
}

#else

GfRowBody gf_row_simd() { return nullptr; }

#endif

}  // namespace detail

namespace {

/// The body every row op runs, chosen once.
detail::GfRowBody row_body() {
  static const detail::GfRowBody body = [] {
    const detail::GfRowBody simd = detail::gf_row_simd();
    return simd ? simd : &detail::gf_row_portable;
  }();
  return body;
}

}  // namespace

void gf_addmul(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
               std::uint8_t c) {
  const std::size_t n = dst.size() < src.size() ? dst.size() : src.size();
  if (c == 0 || n == 0) return;
  row_body()(dst.data(), src.data(), n, c, true);
}

void gf_scale(std::span<std::uint8_t> dst, std::uint8_t c) {
  if (c == 1) return;
  if (c == 0) {
    std::fill(dst.begin(), dst.end(), std::uint8_t{0});
    return;
  }
  row_body()(dst.data(), dst.data(), dst.size(), c, false);
}

}  // namespace xlink::fec
