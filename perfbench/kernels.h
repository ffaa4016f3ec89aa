// Unit-cost kernels: the per-packet and per-byte primitives a session
// spends its span time in, timed in isolation. Multiplied by the traced
// counts they split the on_datagram / on_readable self time between AEAD,
// frame codec, event dispatch, FEC and content generation. They are
// reported as kernels, never mixed into the workload spans.
#pragma once

#include <string>
#include <vector>

namespace xlink::perfbench {

struct KernelResult {
  std::string name;  // metric name, e.g. "quic.aead_seal_open_ns.1200B"
  std::string unit;
  double value = 0.0;  // median over repetitions
  bool ok = false;     // the kernel's own output check passed
};

/// Runs every kernel (about a second in total) and returns them in a fixed
/// order.
std::vector<KernelResult> run_kernels();

}  // namespace xlink::perfbench
