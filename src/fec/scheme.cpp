#include "fec/scheme.h"

#include <algorithm>

#include "fec/gf256.h"

namespace xlink::fec {

// -------------------------------------------------------------- ReedSolomon

std::uint8_t ReedSolomon::coefficient(std::size_t k, std::uint32_t repair_index,
                                      std::size_t source_index) {
  // Cauchy element 1 / (x_j XOR y_i) with x_j = k + j >= k > i = y_i, so
  // the arguments are always distinct and the inverse exists.
  const std::uint8_t x = static_cast<std::uint8_t>(k + repair_index);
  const std::uint8_t y = static_cast<std::uint8_t>(source_index);
  return gf_inv(static_cast<std::uint8_t>(x ^ y));
}

void ReedSolomon::encode(std::span<const std::span<const std::uint8_t>> sources,
                         std::span<const std::span<std::uint8_t>> repairs) {
  const std::size_t k = sources.size();
  for (std::size_t j = 0; j < repairs.size(); ++j) {
    std::fill(repairs[j].begin(), repairs[j].end(), std::uint8_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      gf_addmul(repairs[j], sources[i],
                coefficient(k, static_cast<std::uint32_t>(j), i));
    }
  }
}

bool ReedSolomon::recover(std::span<SourceSymbol> sources,
                          std::span<RepairSymbol> repairs) {
  const std::size_t k = sources.size();
  if (k > kMaxSources) return false;

  std::size_t missing_idx[kMaxSources];
  std::size_t m = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!sources[i].present) {
      if (m == kMaxSources) return false;
      missing_idx[m++] = i;
    }
  }
  if (m == 0) return true;
  if (m > repairs.size() || m > kMaxRepairs) return false;

  // Subtract the contribution of every present source from each repair,
  // leaving repair_row = sum over MISSING sources only. Then solve the
  // m x m system A * missing = repairs by Gaussian elimination, with the
  // byte matrix on the stack and the symbol rows eliminated in place.
  std::uint8_t a[kMaxRepairs][kMaxRepairs];
  for (std::size_t row = 0; row < m; ++row) {
    RepairSymbol& rep = repairs[row];
    for (std::size_t i = 0; i < k; ++i) {
      if (sources[i].present) {
        gf_addmul(rep.data, sources[i].data, coefficient(k, rep.index, i));
      }
    }
    for (std::size_t col = 0; col < m; ++col) {
      a[row][col] = coefficient(k, rep.index, missing_idx[col]);
    }
  }

  // Forward elimination with partial pivoting (any non-zero pivot works in
  // a finite field; searching keeps the loop robust to row order).
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    while (pivot < m && a[pivot][col] == 0) ++pivot;
    if (pivot == m) return false;  // singular: duplicate repair indices
    if (pivot != col) {
      for (std::size_t c = 0; c < m; ++c) {
        const std::uint8_t tmp = a[col][c];
        a[col][c] = a[pivot][c];
        a[pivot][c] = tmp;
      }
      const RepairSymbol tmp = repairs[col];
      repairs[col] = repairs[pivot];
      repairs[pivot] = tmp;
    }
    const std::uint8_t inv = gf_inv(a[col][col]);
    for (std::size_t c = col; c < m; ++c) a[col][c] = gf_mul(a[col][c], inv);
    gf_scale(repairs[col].data, inv);
    for (std::size_t row = 0; row < m; ++row) {
      if (row == col || a[row][col] == 0) continue;
      const std::uint8_t factor = a[row][col];
      for (std::size_t c = col; c < m; ++c) {
        a[row][c] = static_cast<std::uint8_t>(a[row][c] ^
                                              gf_mul(factor, a[col][c]));
      }
      gf_addmul(repairs[row].data, repairs[col].data, factor);
    }
  }

  // Each eliminated repair row now holds one missing symbol; symbols are
  // equal-length, and a shorter row leaves the rest of the slot zero.
  for (std::size_t row = 0; row < m; ++row) {
    SourceSymbol& dst = sources[missing_idx[row]];
    const std::span<const std::uint8_t> solved = repairs[row].data;
    const std::size_t n = std::min(dst.data.size(), solved.size());
    std::copy_n(solved.begin(), n, dst.data.begin());
    std::fill(dst.data.begin() + static_cast<std::ptrdiff_t>(n), dst.data.end(),
              std::uint8_t{0});
    dst.present = true;
  }
  return true;
}

}  // namespace xlink::fec
