// Forward erasure correction subsystem tests.
//
// Four layers, bottom up: GF(2^8) field properties (exhaustive over the
// 255 non-zero elements), Reed-Solomon round trips under EVERY
// erasure pattern inside the repair budget (the MDS claim, checked by
// enumeration rather than trusted), a deterministic erasure-fuzz sweep in
// the spirit of test_parser_fuzz.cpp, and the framer <-> recovery-buffer
// datagram round trip plus an end-to-end XLINK session under
// Gilbert-Elliott burst loss. A fold_day regression pins the satellite
// fix: redundancy_pct must fold FEC repair bytes in with re-injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "fec/framer.h"
#include "fec/gf256.h"
#include "fec/scheme.h"
#include "harness/parallel.h"
#include "harness/scenario.h"
#include "net/path.h"
#include "quic/packet.h"
#include "test_support.h"
#include "trace/synthetic.h"

namespace xlink {
namespace {

/// Deterministic xorshift64 byte stream (same idiom as the parser fuzz
/// sweep): tests must not depend on the platform's rand().
class ByteStream {
 public:
  explicit ByteStream(std::uint64_t seed) : x_(seed | 1) {}
  std::uint8_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return static_cast<std::uint8_t>(x_);
  }
  std::uint64_t next_u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | next();
    return v;
  }
  /// Uniform-ish draw in [lo, hi] -- bias is irrelevant for fuzz coverage.
  std::size_t in_range(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(next_u64() % (hi - lo + 1));
  }

 private:
  std::uint64_t x_;
};

// ---------------------------------------------------------------------------
// GF(2^8) field properties.

TEST(Gf256, MulIsCommutativeWithCorrectIdentityAndAnnihilator) {
  for (unsigned a = 0; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(fec::gf_mul(ua, 1), ua);
    EXPECT_EQ(fec::gf_mul(1, ua), ua);
    EXPECT_EQ(fec::gf_mul(ua, 0), 0);
    EXPECT_EQ(fec::gf_mul(0, ua), 0);
    for (unsigned b = a; b < 256; ++b) {
      const auto ub = static_cast<std::uint8_t>(b);
      ASSERT_EQ(fec::gf_mul(ua, ub), fec::gf_mul(ub, ua))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Gf256, MulDistributesOverXorForEveryPair) {
  // Distributivity over addition (= XOR in GF(2^8)) for all pairs against
  // a spread of multipliers; exhaustive triples would be 16M iterations
  // for no additional coverage of the table construction.
  const std::uint8_t cs[] = {1, 2, 3, 0x1d, 0x53, 0x8e, 0xff};
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      for (const std::uint8_t c : cs) {
        const auto lhs = fec::gf_mul(c, static_cast<std::uint8_t>(a ^ b));
        const auto rhs = static_cast<std::uint8_t>(
            fec::gf_mul(c, static_cast<std::uint8_t>(a)) ^
            fec::gf_mul(c, static_cast<std::uint8_t>(b)));
        ASSERT_EQ(lhs, rhs) << "a=" << a << " b=" << b << " c=" << int(c);
      }
    }
  }
}

TEST(Gf256, MulIsAssociativeOnSampledTriples) {
  ByteStream bs(0x9E3779B97F4A7C15ull);
  for (int round = 0; round < 100'000; ++round) {
    const std::uint8_t a = bs.next(), b = bs.next(), c = bs.next();
    ASSERT_EQ(fec::gf_mul(fec::gf_mul(a, b), c),
              fec::gf_mul(a, fec::gf_mul(b, c)))
        << "a=" << int(a) << " b=" << int(b) << " c=" << int(c);
  }
}

TEST(Gf256, EveryNonzeroElementHasAUniqueInverse) {
  bool seen[256] = {};
  for (unsigned a = 1; a < 256; ++a) {
    const std::uint8_t inv = fec::gf_inv(static_cast<std::uint8_t>(a));
    ASSERT_NE(inv, 0);
    ASSERT_EQ(fec::gf_mul(static_cast<std::uint8_t>(a), inv), 1) << "a=" << a;
    // Inversion is an involution and a bijection on the non-zero elements.
    EXPECT_EQ(fec::gf_inv(inv), a);
    EXPECT_FALSE(seen[inv]);
    seen[inv] = true;
  }
}

TEST(Gf256, DivisionInvertsMultiplicationForEveryPair) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 1; b < 256; ++b) {
      const auto ua = static_cast<std::uint8_t>(a);
      const auto ub = static_cast<std::uint8_t>(b);
      ASSERT_EQ(fec::gf_div(fec::gf_mul(ua, ub), ub), ua);
      ASSERT_EQ(fec::gf_mul(fec::gf_div(ua, ub), ub), ua);
    }
  }
}

TEST(Gf256, AddmulAndScaleMatchScalarReference) {
  // Every coefficient against per-byte gf_mul, through each row-op body
  // this host runs and through the public gf_addmul / gf_scale (which add
  // the c == 0 no-op and the c == 1 identity scale). Lengths 0-48 cover every SIMD step count
  // with every tail, 1199-1201 a packet-size row. For each length the
  // destination and source offsets (0-15 each) are drawn from the
  // coefficient so all 256 offset pairs occur; the bytes either side of
  // the row must stay untouched.
  std::vector<std::pair<const char*, fec::detail::GfRowBody>> bodies = {
      {"portable", &fec::detail::gf_row_portable}};
  if (const fec::detail::GfRowBody simd = fec::detail::gf_row_simd())
    bodies.emplace_back("simd", simd);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 48; ++n) lengths.push_back(n);
  for (std::size_t n = 1199; n <= 1201; ++n) lengths.push_back(n);

  ByteStream bs(42);
  std::vector<std::uint8_t> src_buf(1201 + 16), dst_buf(1201 + 32);
  for (auto& v : src_buf) v = bs.next();
  for (auto& v : dst_buf) v = bs.next();
  for (unsigned c = 0; c < 256; ++c) {
    const auto uc = static_cast<std::uint8_t>(c);
    for (const std::size_t n : lengths) {
      const std::size_t d_off = (n + c / 16) % 16;
      const std::size_t s_off = (n + c) % 16;
      const std::uint8_t* src = src_buf.data() + s_off;
      const std::vector<std::uint8_t> dst(dst_buf.begin(),
                                          dst_buf.begin() + d_off + n + 16);
      std::vector<std::uint8_t> addmul_ref = dst, scale_ref = dst;
      for (std::size_t i = 0; i < n; ++i) {
        addmul_ref[d_off + i] ^= fec::gf_mul(uc, src[i]);
        scale_ref[d_off + i] = fec::gf_mul(uc, dst[d_off + i]);
      }
      for (const auto& [name, body] : bodies) {
        std::vector<std::uint8_t> got = dst;
        body(got.data() + d_off, src, n, uc, true);
        ASSERT_EQ(got, addmul_ref) << name << " addmul c=" << c << " n=" << n;
        got = dst;
        body(got.data() + d_off, got.data() + d_off, n, uc, false);
        ASSERT_EQ(got, scale_ref) << name << " scale c=" << c << " n=" << n;
      }
      std::vector<std::uint8_t> got = dst;
      fec::gf_addmul({got.data() + d_off, n}, {src, n}, uc);
      ASSERT_EQ(got, addmul_ref) << "gf_addmul c=" << c << " n=" << n;
      got = dst;
      fec::gf_scale({got.data() + d_off, n}, uc);
      ASSERT_EQ(got, scale_ref) << "gf_scale c=" << c << " n=" << n;
    }
  }
  // Shorter source: addmul must stop at the shorter span (the implicit
  // zero-padding rule the framer's variable-length symbols rely on).
  std::vector<std::uint8_t> got = dst_buf;
  fec::gf_addmul(got, std::span<const std::uint8_t>(src_buf.data(), 100), 0x35);
  for (std::size_t i = 100; i < got.size(); ++i) ASSERT_EQ(got[i], dst_buf[i]);
}

// ---------------------------------------------------------------------------
// Code-level round trips.

std::vector<std::vector<std::uint8_t>> make_sources(std::size_t k,
                                                    std::size_t len,
                                                    ByteStream& bs) {
  std::vector<std::vector<std::uint8_t>> sources(k);
  for (auto& s : sources) {
    s.resize(len);
    for (auto& b : s) b = bs.next();
  }
  return sources;
}

/// Encodes k sources with r repairs, erases `erased` source indices,
/// decodes using only the repair rows in `use_repairs`, and returns
/// whether recover() succeeded with every symbol byte-identical.
bool round_trips(const std::vector<std::vector<std::uint8_t>>& sources,
                 std::size_t r, const std::vector<std::size_t>& erased,
                 const std::vector<std::uint32_t>& use_repairs) {
  const std::size_t k = sources.size();
  const std::size_t len = sources[0].size();

  std::vector<std::span<const std::uint8_t>> src_spans(k);
  for (std::size_t i = 0; i < k; ++i) src_spans[i] = sources[i];
  std::vector<std::vector<std::uint8_t>> repairs(r,
                                                 std::vector<std::uint8_t>(len));
  std::vector<std::span<std::uint8_t>> rep_spans(r);
  for (std::size_t j = 0; j < r; ++j) rep_spans[j] = repairs[j];
  fec::ReedSolomon::encode(src_spans, rep_spans);

  std::vector<std::vector<std::uint8_t>> working = sources;
  std::vector<fec::SourceSymbol> slots(k);
  for (std::size_t i = 0; i < k; ++i) {
    slots[i].present = true;
    slots[i].data = working[i];
  }
  for (const std::size_t e : erased) {
    std::fill(working[e].begin(), working[e].end(), 0xEE);  // poison
    slots[e].present = false;
  }
  std::vector<std::vector<std::uint8_t>> rep_copies;
  std::vector<fec::RepairSymbol> rep_slots;
  for (const std::uint32_t j : use_repairs) {
    rep_copies.push_back(repairs[j]);  // recover() clobbers repair payloads
    rep_slots.push_back({rep_copies.back(), j});
  }
  if (!fec::ReedSolomon::recover(slots, rep_slots)) return false;
  for (std::size_t i = 0; i < k; ++i)
    if (working[i] != sources[i]) return false;
  return true;
}

TEST(ReedSolomon, RecoversEveryErasurePatternWithinTheRepairBudget) {
  ByteStream bs(7);
  const std::size_t k = 8;
  const auto sources = make_sources(k, 48, bs);
  for (std::size_t r = 1; r <= 4; ++r) {
    for (unsigned mask = 0; mask < (1u << k); ++mask) {
      const auto erasures =
          static_cast<std::size_t>(__builtin_popcount(mask));
      if (erasures > r) continue;
      std::vector<std::size_t> erased;
      for (std::size_t i = 0; i < k; ++i)
        if (mask & (1u << i)) erased.push_back(i);
      std::vector<std::uint32_t> all_repairs(r);
      for (std::size_t j = 0; j < r; ++j)
        all_repairs[j] = static_cast<std::uint32_t>(j);
      ASSERT_TRUE(round_trips(sources, r, erased, all_repairs))
          << "r=" << r << " mask=" << mask;
    }
  }
}

TEST(ReedSolomon, AnyRepairSubsetOfErasureSizeDecodes) {
  // The MDS property in full: e erasures are recoverable from ANY e of the
  // r repair symbols, not just the first e (repairs get lost too).
  ByteStream bs(11);
  const std::size_t k = 6, r = 4;
  const auto sources = make_sources(k, 32, bs);
  for (unsigned src_mask = 0; src_mask < (1u << k); ++src_mask) {
    const auto e = static_cast<std::size_t>(__builtin_popcount(src_mask));
    if (e == 0 || e > r) continue;
    std::vector<std::size_t> erased;
    for (std::size_t i = 0; i < k; ++i)
      if (src_mask & (1u << i)) erased.push_back(i);
    for (unsigned rep_mask = 0; rep_mask < (1u << r); ++rep_mask) {
      if (static_cast<std::size_t>(__builtin_popcount(rep_mask)) != e)
        continue;
      std::vector<std::uint32_t> use;
      for (std::uint32_t j = 0; j < r; ++j)
        if (rep_mask & (1u << j)) use.push_back(j);
      ASSERT_TRUE(round_trips(sources, r, erased, use))
          << "src_mask=" << src_mask << " rep_mask=" << rep_mask;
    }
  }
}

TEST(ReedSolomon, FailsCleanlyPastTheBudget) {
  ByteStream bs(13);
  const auto sources = make_sources(8, 40, bs);
  // 3 erasures, 2 repair symbols: must return false, not garbage.
  EXPECT_FALSE(round_trips(sources, 2, {1, 4, 6}, {0, 1}));
}

TEST(ReedSolomon, RepairBytesArePinned) {
  // A different multiplication that is still self-consistent would pass
  // every round trip above; this pins the repair bytes themselves (FNV-1a
  // over the six repairs of one k = 8 window of 1200-byte sources).
  ByteStream bs(0x5eed);
  const auto sources = make_sources(8, 1200, bs);
  const std::vector<std::span<const std::uint8_t>> src_spans(sources.begin(),
                                                             sources.end());
  std::vector<std::vector<std::uint8_t>> repairs(
      6, std::vector<std::uint8_t>(1200));
  const std::vector<std::span<std::uint8_t>> rep_spans(repairs.begin(),
                                                       repairs.end());
  fec::ReedSolomon::encode(src_spans, rep_spans);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& r : repairs) {
    for (const std::uint8_t b : r) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  EXPECT_EQ(h, 0xf602ecc8af8a17f9ull) << std::hex << h;
}

TEST(ReedSolomon, CoefficientMatrixHasNoZerosAndDistinctRows) {
  // Cauchy construction sanity: every generator coefficient is non-zero
  // (a zero would make a source invisible to that repair row) and no two
  // repair rows are identical.
  const std::size_t k = 8, r = 4;
  for (std::uint32_t j = 0; j < r; ++j)
    for (std::size_t i = 0; i < k; ++i)
      ASSERT_NE(fec::ReedSolomon::coefficient(k, j, i), 0)
          << "j=" << j << " i=" << i;
  for (std::uint32_t a = 0; a < r; ++a)
    for (std::uint32_t b = a + 1; b < r; ++b) {
      bool same = true;
      for (std::size_t i = 0; i < k; ++i)
        same &= fec::ReedSolomon::coefficient(k, a, i) ==
                fec::ReedSolomon::coefficient(k, b, i);
      EXPECT_FALSE(same) << "rows " << a << " and " << b;
    }
}

TEST(FecFuzz, DeterministicErasureSweep) {
  // Random window shapes, symbol lengths, contents and erasure patterns;
  // fixed seed so a failure reproduces exactly.
  ByteStream bs(0xFEC);
  for (int round = 0; round < 300; ++round) {
    const std::size_t k = bs.in_range(2, 16);
    const std::size_t r = bs.in_range(1, 4);
    const std::size_t len = bs.in_range(1, 280);
    const auto sources = make_sources(k, len, bs);
    const std::size_t e = bs.in_range(0, std::min(r, k));
    std::vector<std::size_t> erased;
    while (erased.size() < e) {
      const std::size_t i = bs.in_range(0, k - 1);
      if (std::find(erased.begin(), erased.end(), i) == erased.end())
        erased.push_back(i);
    }
    std::vector<std::uint32_t> use;
    while (use.size() < e) {
      const auto j = static_cast<std::uint32_t>(bs.in_range(0, r - 1));
      if (std::find(use.begin(), use.end(), j) == use.end()) use.push_back(j);
    }
    ASSERT_TRUE(round_trips(sources, r, erased, use))
        << "round=" << round << " k=" << k << " r=" << r << " len=" << len;
  }
}

// ---------------------------------------------------------------------------
// Framer <-> recovery buffer: the datagram-level round trip.

std::vector<std::uint8_t> fake_wire(quic::PacketNumber pn, std::size_t len) {
  std::vector<std::uint8_t> wire(len);
  for (std::size_t b = 0; b < len; ++b)
    wire[b] = static_cast<std::uint8_t>(pn * 31 + b * 7 + 1);
  return wire;
}

TEST(FecFramer, RepairFramesRebuildDroppedDatagramsByteForByte) {
  fec::FecConfig cfg;
  cfg.enabled = true;
  cfg.window = 4;
  cfg.min_repairs = 2;
  cfg.max_repairs = 2;
  fec::FecFramer framer(cfg);
  fec::RecoveryBuffer recovery(cfg);

  const quic::PathId path = 1;
  std::vector<quic::Frame> out;
  std::vector<fec::RecoveryBuffer::Recovered> recovered;
  std::vector<std::vector<std::uint8_t>> originals;

  // Two windows of four variable-length packets; pns 1 and 2 are dropped
  // on the wire (window 0, two erasures = the repair budget), window 1
  // arrives intact so its repairs are pure waste.
  for (quic::PacketNumber pn = 0; pn < 8; ++pn) {
    const auto wire = fake_wire(pn, 40 + 13 * static_cast<std::size_t>(pn));
    originals.push_back(wire);
    const sim::Time now = sim::millis(pn);
    out.clear();
    framer.on_packet_sent(path, pn, wire, now, /*loss_estimate=*/0.0, out);
    const bool dropped = pn == 1 || pn == 2;
    if (!dropped) recovery.on_source(path, pn, wire, now);
    for (const quic::Frame& f : out) {
      const auto* rf = std::get_if<quic::RepairFrame>(&f);
      ASSERT_NE(rf, nullptr);
      recovery.on_repair(path, *rf, now, recovered);
    }
  }

  ASSERT_EQ(recovered.size(), 2u);
  std::sort(recovered.begin(), recovered.end(),
            [](const auto& a, const auto& b) { return a.pn < b.pn; });
  EXPECT_EQ(recovered[0].pn, 1u);
  EXPECT_EQ(recovered[1].pn, 2u);
  for (const auto& rec : recovered) {
    const auto got = rec.wire.cspan();
    const auto& want = originals[rec.pn];
    ASSERT_EQ(got.size(), want.size()) << "pn " << rec.pn;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "pn " << rec.pn;
  }

  EXPECT_EQ(framer.stats().windows_closed, 2u);
  EXPECT_EQ(framer.stats().windows_protected, 2u);
  EXPECT_EQ(framer.stats().repair_symbols, 4u);
  EXPECT_EQ(recovery.stats().recovered, 2u);
  // Window 1 had no erasures: both of its repair symbols bought nothing.
  EXPECT_EQ(recovery.stats().wasted, 2u);
  EXPECT_EQ(recovery.stats().erased_seen, 2u);
}

TEST(FecFramer, GateClosedClosesWindowsWithoutRepairs) {
  fec::FecConfig cfg;
  cfg.enabled = true;
  cfg.window = 4;
  fec::FecFramer framer(cfg);
  framer.set_gate(false);
  std::vector<quic::Frame> out;
  for (quic::PacketNumber pn = 0; pn < 8; ++pn) {
    const auto wire = fake_wire(pn, 100);
    framer.on_packet_sent(2, pn, wire, sim::millis(pn), 0.5, out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(framer.stats().windows_closed, 2u);
  EXPECT_EQ(framer.stats().windows_protected, 0u);
  // Unprotected windows must NOT suppress re-injection.
  EXPECT_FALSE(framer.covers(2, 1, sim::millis(10)));
}

TEST(FecFramer, CoverTracksEmittedWindowsAndExpires) {
  fec::FecConfig cfg;
  cfg.enabled = true;
  cfg.window = 4;
  cfg.min_repairs = 1;
  fec::FecFramer framer(cfg);
  std::vector<quic::Frame> out;
  for (quic::PacketNumber pn = 0; pn < 4; ++pn)
    framer.on_packet_sent(1, pn, fake_wire(pn, 80), sim::millis(100), 0.0,
                          out);
  ASSERT_EQ(out.size(), 1u);
  for (quic::PacketNumber pn = 0; pn < 4; ++pn)
    EXPECT_TRUE(framer.covers(1, pn, sim::millis(150))) << "pn " << pn;
  EXPECT_FALSE(framer.covers(1, 4, sim::millis(150)));  // next window
  EXPECT_FALSE(framer.covers(2, 1, sim::millis(150)));  // other path
  // Past the linger the cover stops suppressing re-injection.
  EXPECT_FALSE(framer.covers(1, 1, sim::millis(500)));
}

TEST(FecFramer, AdaptiveRedundancyScalesWithLossEstimate) {
  fec::FecConfig cfg;
  cfg.enabled = true;
  cfg.window = 8;
  cfg.min_repairs = 1;
  cfg.max_repairs = 4;
  cfg.loss_multiplier = 3.0;
  const auto repairs_for = [&cfg](double loss) {
    fec::FecFramer framer(cfg);
    std::vector<quic::Frame> out;
    for (quic::PacketNumber pn = 0; pn < 8; ++pn)
      framer.on_packet_sent(1, pn, fake_wire(pn, 60), sim::millis(pn), loss,
                            out);
    return out.size();
  };
  EXPECT_EQ(repairs_for(0.0), 1u);                   // floor
  EXPECT_EQ(repairs_for(0.08), 2u);                  // ceil(8*.08*3) = 2
  EXPECT_EQ(repairs_for(0.9), 4u);                   // clamped to ceiling
  EXPECT_LE(repairs_for(0.25), cfg.max_repairs);
}

// ---------------------------------------------------------------------------
// Connection: only a datagram that authenticates becomes a source symbol.

TEST(FecConnection, DatagramFailingAuthenticationIsAnErasure) {
  // The server protects k = 8 windows with r = 2. On the wire, data packet
  // pn 20 gets one ciphertext byte flipped and pn 21 is dropped: both are
  // erasures of one window, and its two repair symbols rebuild both. A
  // corrupt datagram kept as a present source would instead rebuild pn 21
  // from bad bytes (a second authentication failure) and hide pn 20.
  test::WirePair::Options o;
  o.server_config.fec.enabled = true;
  o.server_config.fec.window = 8;
  o.server_config.fec.min_repairs = 2;
  o.server_config.fec.max_repairs = 2;
  o.client_config.fec.enabled = true;
  o.client_config.fec.protect = false;
  test::WirePair pair(std::move(o));
  pair.drop_server_to_client = [&](quic::PathId path, const net::Datagram& d) {
    quic::PacketHeader h;
    if (path != 0 || !quic::parse_header(d.cspan(), h)) return false;
    if (h.packet_number == 21) return true;
    if (h.packet_number != 20) return false;
    net::Datagram corrupt = d.clone();
    corrupt[corrupt.size() / 2] ^= 0x01;  // a ciphertext byte
    pair.loop.schedule_in(sim::millis(10),
                          [&pair, path, c = std::move(corrupt)]() mutable {
                            pair.client->on_datagram(path, std::move(c));
                          });
    return true;
  };
  ASSERT_TRUE(pair.establish());
  const quic::StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(100));
  const auto payload = test::pattern_bytes(60 * 1024, 3);
  pair.server->stream_send(id, payload, true);
  pair.run_for(sim::seconds(2));

  const auto& stats = pair.client->stats();
  EXPECT_EQ(stats.auth_failures, 1u);
  EXPECT_EQ(stats.fec_recovered_packets, 2u);
  EXPECT_EQ(stats.fec_erased_seen, 2u);
  EXPECT_EQ(pair.client->consume_stream(id, 1 << 20), payload);
}

TEST(FecConnection, RebuiltDatagramFailingAuthenticationLeavesTheStash) {
  // An authenticated peer can still send a bogus repair symbol. The server
  // protects k = 8 windows with r = 2. On the wire, data packet pn 21 is
  // dropped, and the first repair symbol of its window gets one byte of
  // pn 21's ciphertext flipped; the packet carrying it is sealed again,
  // so it authenticates. That symbol rebuilds a pn 21 which fails
  // authentication. It must leave the stash, so the window's second
  // symbol rebuilds pn 21 correctly. Kept as a present source, the bad
  // bytes would count the second symbol as wasted and leave pn 21 to a
  // retransmission.
  test::WirePair::Options o;
  o.server_config.fec.enabled = true;
  o.server_config.fec.window = 8;
  o.server_config.fec.min_repairs = 2;
  o.server_config.fec.max_repairs = 2;
  o.client_config.fec.enabled = true;
  o.client_config.fec.protect = false;
  const quic::PacketProtection aead(o.server_config.aead_key);
  test::WirePair pair(std::move(o));
  std::size_t dropped_len = 0;
  bool corrupted = false;
  std::vector<quic::Frame> frames;
  pair.drop_server_to_client = [&](quic::PathId path, const net::Datagram& d) {
    quic::PacketHeader h;
    if (path != 0 || corrupted || !quic::parse_header(d.cspan(), h))
      return false;
    if (h.packet_number == 21) {
      dropped_len = d.size();
      return true;
    }
    if (dropped_len == 0) return false;
    net::Datagram copy = d.clone();
    const auto pkt = quic::parse_packet_view(copy.span());
    const auto plain =
        pkt ? quic::open_packet_in_place(aead, *pkt) : std::nullopt;
    frames.clear();
    if (!plain || !quic::parse_frames_into(*plain, frames)) return false;
    for (const quic::Frame& f : frames) {
      const auto* r = std::get_if<quic::RepairFrame>(&f);
      if (!r || r->first_pn > 21 || r->first_pn + r->k <= 21) continue;
      // Symbol byte 2 + i is byte i of pn 21's datagram (after the length
      // prefix): flip one in the middle of its ciphertext.
      const auto at = static_cast<std::size_t>(r->payload.data() -
                                               copy.data()) +
                      2 + dropped_len / 2;
      copy[at] ^= 0x01;
      aead.seal_in_place(h.cid_sequence, h.packet_number, pkt->header_bytes,
                         pkt->ciphertext.data(), plain->size());
      corrupted = true;
      pair.loop.schedule_in(sim::millis(10),
                            [&pair, path, c = std::move(copy)]() mutable {
                              pair.client->on_datagram(path, std::move(c));
                            });
      return true;
    }
    return false;
  };
  ASSERT_TRUE(pair.establish());
  const quic::StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(100));
  const auto payload = test::pattern_bytes(60 * 1024, 3);
  pair.server->stream_send(id, payload, true);
  pair.run_for(sim::seconds(2));

  ASSERT_TRUE(corrupted);
  const auto& stats = pair.client->stats();
  EXPECT_EQ(stats.auth_failures, 1u);  // the rebuilt-from-bogus pn 21
  // Only the rebuild that authenticated counts as a recovery.
  EXPECT_EQ(stats.fec_recovered_packets, 1u);
  EXPECT_EQ(stats.fec_erased_seen, 2u);
  EXPECT_EQ(pair.client->consume_stream(id, 1 << 20), payload);
}

// ---------------------------------------------------------------------------
// End-to-end: XLINK session under Gilbert-Elliott burst loss.

harness::SessionConfig fec_session_config(std::uint64_t seed) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = seed;
  cfg.time_limit = sim::seconds(30);
  cfg.video.duration = sim::seconds(4);
  cfg.video.bitrate_bps = 3'000'000;
  cfg.options.xlink_redundancy = core::XlinkRedundancy::kFec;
  cfg.options.fec.window = 8;
  cfg.options.fec.min_repairs = 4;
  cfg.options.fec.max_repairs = 6;
  cfg.options.fec.loss_multiplier = 8.0;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::campus_walk_wifi(seed * 5 + 1,
                                                    sim::seconds(20)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(seed * 5 + 2, sim::seconds(20)),
      sim::millis(90)));
  net::PathSpec::GeLoss ge;
  ge.p_good_to_bad = 0.006;
  ge.p_bad_to_good = 0.35;
  ge.loss_bad = 0.45;
  for (auto& p : cfg.paths) p.ge_loss = ge;
  return cfg;
}

TEST(FecSession, RecoversErasuresEndToEndUnderBurstLoss) {
  const auto result = harness::Session(fec_session_config(3)).run();
  EXPECT_TRUE(result.download_finished);
  const auto& m = result.metrics;
  EXPECT_GT(m.counter("fec.server.windows_protected"), 0u);
  EXPECT_GT(m.counter("fec.server.repair_packets"), 0u);
  EXPECT_GT(m.counter("fec.server.repair_bytes"), 0u);
  EXPECT_GT(m.counter("fec.client.erased_seen"), 0u);
  EXPECT_GT(m.counter("fec.client.recovered_packets"), 0u);
  EXPECT_LE(m.counter("fec.client.recovered_packets"),
            m.counter("fec.client.erased_seen"));
  // FEC repair bytes count as redundancy egress.
  EXPECT_GT(result.redundancy_ratio, 0.0);
}

TEST(FecSession, IsDeterministicForAFixedSeed) {
  const auto a = harness::Session(fec_session_config(5)).run();
  const auto b = harness::Session(fec_session_config(5)).run();
  EXPECT_EQ(a.chunk_rct_seconds, b.chunk_rct_seconds);
  for (const char* name :
       {"fec.server.repair_bytes", "fec.server.repair_packets",
        "fec.server.windows_protected", "fec.client.recovered_packets",
        "fec.client.wasted_symbols", "fec.client.erased_seen",
        "quic.server.bytes_sent"})
    EXPECT_EQ(a.metrics.counter(name), b.metrics.counter(name)) << name;
}

TEST(FecSession, NoFecArmSendsNoRepairTraffic) {
  auto cfg = fec_session_config(3);
  cfg.options.xlink_redundancy = core::XlinkRedundancy::kReinject;
  const auto result = harness::Session(std::move(cfg)).run();
  EXPECT_EQ(result.metrics.counter("fec.server.repair_packets"), 0u);
  EXPECT_EQ(result.metrics.counter("fec.server.repair_bytes"), 0u);
  EXPECT_EQ(result.metrics.counter("fec.client.recovered_packets"), 0u);
}

// ---------------------------------------------------------------------------
// Satellite regression: fold_day's redundancy accounting includes FEC.

TEST(FoldDay, RedundancyPctFoldsFecRepairBytesInWithReinjection) {
  harness::SessionResult r1;
  r1.metrics.add_counter("quic.server.stream_bytes_sent", 1000);
  r1.metrics.add_counter("quic.server.reinjected_bytes", 50);
  r1.metrics.add_counter("fec.server.repair_bytes", 150);
  r1.download_finished = true;
  harness::SessionResult r2;
  r2.metrics.add_counter("quic.server.stream_bytes_sent", 1000);
  r2.download_finished = true;
  const auto day = harness::fold_day({r1, r2});
  // (50 reinjected + 150 repair) / 2000 payload = 10%; before the fix this
  // reported 2.5% (re-injection only), under-stating redundancy cost.
  EXPECT_DOUBLE_EQ(day.redundancy_pct, 10.0);
}

}  // namespace
}  // namespace xlink
