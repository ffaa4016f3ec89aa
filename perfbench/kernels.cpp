#include "kernels.h"

#include <cstdint>
#include <span>
#include <variant>

#include "fec/framer.h"
#include "perfbench.h"
#include "quic/crypto.h"
#include "quic/frame.h"
#include "sim/event_loop.h"
#include "video/video_model.h"

namespace xlink::perfbench {
namespace {

constexpr int kRepetitions = 5;

/// Times `body()`, which does `units` units of work, kRepetitions times and
/// returns the median cost per unit in ns; `ok` is cleared when any
/// repetition fails its check.
template <typename Body>
double median_ns_per_unit(std::uint64_t units, bool& ok, Body&& body) {
  std::vector<double> per_unit;
  for (int r = 0; r < kRepetitions; ++r) {
    const std::int64_t t0 = now_ns();
    if (!body()) ok = false;
    per_unit.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(units));
  }
  return median(std::move(per_unit));
}

/// Seal then open `payload_len` bytes in place: one packet each way.
KernelResult aead_seal_open(const std::string& name, std::size_t payload_len) {
  KernelResult k{name, "ns", 0.0, true};
  const quic::PacketProtection aead(0x5eed);
  std::vector<std::uint8_t> aad(20, 0x40);
  std::vector<std::uint8_t> buf(payload_len + quic::kAeadTagSize);
  constexpr std::uint64_t kOps = 20'000;
  quic::PacketNumber pn = 0;
  k.value = median_ns_per_unit(kOps, k.ok, [&] {
    bool good = true;
    for (std::uint64_t i = 0; i < kOps; ++i, ++pn) {
      for (std::size_t b = 0; b < payload_len; b += 64)
        buf[b] = static_cast<std::uint8_t>(pn + b);
      aead.seal_in_place(1, pn, aad, buf.data(), payload_len);
      const auto opened = aead.open_in_place(1, pn, aad, buf);
      good &= opened && *opened == payload_len &&
              buf[0] == static_cast<std::uint8_t>(pn);
    }
    return good;
  });
  return k;
}

/// Payload length of the smallest packet a session sends: one ACK_MP
/// frame acknowledging a single range.
std::size_t ack_only_payload_len() {
  quic::AckMpFrame ack;
  ack.path_id = 1;
  ack.info.ranges.push_back({100, 120});
  return quic::frame_wire_size(quic::Frame{ack});
}

/// Parses a 1200 B payload carrying one STREAM frame, borrowing its data.
KernelResult frame_parse_1200() {
  KernelResult k{"quic.frame_parse_ns.1200B", "ns", 0.0, true};
  std::vector<std::uint8_t> body(1200 - 16, 0xab);
  quic::StreamFrame f;
  f.stream_id = 4;
  f.offset = 1 << 20;
  f.data = quic::FrameData::borrowed(body);
  quic::Writer w;
  quic::encode_frame(quic::Frame{f}, w);
  while (w.size() < 1200) w.u8(0);  // PADDING up to the packet size
  const std::vector<std::uint8_t> payload = w.take();
  std::vector<quic::Frame> frames;
  constexpr std::uint64_t kOps = 200'000;
  k.value = median_ns_per_unit(kOps, k.ok, [&] {
    bool good = true;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      frames.clear();
      good &= quic::parse_frames_into(payload, frames) && !frames.empty() &&
              std::holds_alternative<quic::StreamFrame>(frames.front());
    }
    return good;
  });
  return k;
}

/// Schedules a batch of timers at spread-out times, then fires them all.
KernelResult schedule_fire() {
  KernelResult k{"sim.schedule_fire_ns", "ns", 0.0, true};
  constexpr std::uint64_t kEvents = 200'000;
  k.value = median_ns_per_unit(kEvents, k.ok, [&] {
    sim::EventLoop loop;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i)
      loop.schedule_in(static_cast<sim::Duration>(i % 9973),
                       [&fired] { ++fired; });
    loop.run();
    return fired == kEvents;
  });
  return k;
}

/// FEC warm path: k sealed-size packets per window through the framer,
/// one source erased, rebuilt by the receiver from the repair symbols.
KernelResult fec_encode_decode() {
  KernelResult k{"fec.encode_decode_ns_per_pkt", "ns", 0.0, true};
  fec::FecConfig cfg;
  cfg.enabled = true;
  cfg.window = 8;
  cfg.min_repairs = 2;
  cfg.max_repairs = 2;
  fec::FecFramer framer(cfg);
  fec::RecoveryBuffer recovery(cfg);
  std::vector<quic::Frame> frames;
  std::vector<fec::RecoveryBuffer::Recovered> out;
  std::vector<std::uint8_t> wire(1200);
  quic::PacketNumber pn = 0;
  sim::Time now = 0;

  const auto run_window = [&]() {
    const quic::PacketNumber base = pn;
    std::uint64_t recovered = 0;
    for (std::size_t i = 0; i < cfg.window; ++i) {
      for (std::size_t b = 0; b < wire.size(); ++b)
        wire[b] = static_cast<std::uint8_t>(pn * 31 + b);
      frames.clear();
      framer.on_packet_sent(0, pn, wire, now, 0.05, frames);
      if (pn != base + 3) recovery.on_source(0, pn, wire, now);
      ++pn;
      for (auto& fr : frames) {
        out.clear();
        recovery.on_repair(0, std::get<quic::RepairFrame>(fr), now, out);
        recovered += out.size();
      }
    }
    ++now;
    return recovered;
  };

  for (int i = 0; i < 64; ++i) run_window();  // warm the pool and stash
  constexpr std::uint64_t kWindows = 4'000;
  k.value = median_ns_per_unit(kWindows * cfg.window, k.ok, [&] {
    std::uint64_t recovered = 0;
    for (std::uint64_t w = 0; w < kWindows; ++w) recovered += run_window();
    return recovered == kWindows;
  });
  out.clear();
  return k;
}

/// Content generation: the server's body fill reads VideoModel::byte_at.
KernelResult byte_fill() {
  KernelResult k{"video.byte_fill_ns_per_byte", "ns", 0.0, true};
  video::VideoSpec spec;
  spec.duration = sim::seconds(10);
  spec.bitrate_bps = 8'000'000;
  const video::VideoModel model(spec);
  constexpr std::uint64_t kBytes = 4 << 20;
  std::uint64_t reference = 0;
  bool first = true;
  k.value = median_ns_per_unit(kBytes, k.ok, [&] {
    std::uint64_t sum = 0;
    for (std::uint64_t off = 0; off < kBytes; ++off)
      sum = sum * 31 + model.byte_at(off);
    if (first) {
      reference = sum;
      first = false;
    }
    return sum == reference;
  });
  return k;
}

}  // namespace

std::vector<KernelResult> run_kernels() {
  std::vector<KernelResult> ks;
  ks.push_back(aead_seal_open("quic.aead_seal_open_ns.1200B", 1200));
  ks.push_back(aead_seal_open("quic.aead_seal_open_ns.ack",
                              ack_only_payload_len()));
  ks.push_back(frame_parse_1200());
  ks.push_back(schedule_fire());
  ks.push_back(fec_encode_decode());
  ks.push_back(byte_fill());
  return ks;
}

}  // namespace xlink::perfbench
