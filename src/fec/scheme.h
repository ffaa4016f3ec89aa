#pragma once

// The erasure code: systematic Cauchy Reed-Solomon over GF(2^8).
//
// A *window* is k equal-length source symbols plus r repair symbols.
// Source symbols travel untouched; repair symbols are linear combinations
// over GF(2^8) with coefficient(j, i) = 1 / ((k + j) XOR i), so the stacked
// [I; C] generator is MDS -- ANY r erasures are recoverable from any k of
// the k+r symbols.
//
// Encode and decode write into caller-provided storage and use only
// fixed-size stack scratch: no heap allocations on the warm path. Repair
// buffers passed to recover() are clobbered.

#include <cstddef>
#include <cstdint>
#include <span>

namespace xlink::fec {

/// Hard caps keeping decode scratch on the stack. k + r must stay <= 256
/// for the Cauchy construction; these are far below that.
inline constexpr std::size_t kMaxSources = 32;
inline constexpr std::size_t kMaxRepairs = 16;

/// One source slot handed to recover(). Present symbols carry their data;
/// missing ones carry a writable, correctly-sized buffer that decode fills.
struct SourceSymbol {
  std::span<std::uint8_t> data;
  bool present = false;
};

/// One received repair symbol. `index` is the repair row in [0, r).
/// The data span is mutated during elimination.
struct RepairSymbol {
  std::span<std::uint8_t> data;
  std::uint32_t index = 0;
};

/// Systematic Cauchy Reed-Solomon over GF(2^8).
class ReedSolomon {
 public:
  /// Generator coefficient applied to source i when forming repair j of a
  /// k-source window. Exposed for the property tests.
  static std::uint8_t coefficient(std::size_t k, std::uint32_t repair_index,
                                  std::size_t source_index);

  /// Compute `repairs.size()` repair symbols over the k = `sources.size()`
  /// source symbols. Every repair span must be at least as long as the
  /// longest source span; repairs are zero-filled first, then accumulated.
  static void encode(std::span<const std::span<const std::uint8_t>> sources,
                     std::span<const std::span<std::uint8_t>> repairs);

  /// Reconstruct the missing entries of `sources` from the available
  /// repairs. Returns true if every missing symbol was recovered (requires
  /// #missing <= repairs.size()). Repair payloads are clobbered.
  static bool recover(std::span<SourceSymbol> sources,
                      std::span<RepairSymbol> repairs);
};

}  // namespace xlink::fec
