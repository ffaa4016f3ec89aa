#include "fec/framer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace xlink::fec {

// ----------------------------------------------------------------- FecFramer

FecFramer::FecFramer(const FecConfig& cfg) : cfg_(cfg) {
  cfg_.window = std::clamp<std::size_t>(cfg_.window, 1, kMaxSources);
  cfg_.max_repairs = std::clamp<std::size_t>(cfg_.max_repairs, 1, kMaxRepairs);
  cfg_.min_repairs = std::clamp<std::size_t>(cfg_.min_repairs, 0,
                                             cfg_.max_repairs);
}

FecFramer::PathSender& FecFramer::sender(quic::PathId path) {
  for (auto& p : paths_)
    if (p.in_use && p.id == path) return p;
  for (auto& p : paths_) {
    if (!p.in_use) {
      p.in_use = true;
      p.id = path;
      return p;
    }
  }
  // More simultaneous paths than slots: recycle deterministically. The
  // displaced path's partial window is simply dropped (never emitted).
  PathSender& p = paths_[path % kMaxPaths];
  p = PathSender{};
  p.in_use = true;
  p.id = path;
  return p;
}

std::size_t FecFramer::decide_repairs(double loss_estimate) const {
  // The constructor clamped min_repairs <= max_repairs <= kMaxRepairs.
  const double want = std::ceil(static_cast<double>(cfg_.window) *
                                std::max(0.0, loss_estimate) *
                                cfg_.loss_multiplier);
  std::size_t r = cfg_.min_repairs;
  if (want > static_cast<double>(r))
    r = want >= static_cast<double>(cfg_.max_repairs)
            ? cfg_.max_repairs
            : static_cast<std::size_t>(want);
  return r;
}

void FecFramer::on_packet_sent(quic::PathId path, quic::PacketNumber pn,
                               std::span<const std::uint8_t> wire,
                               sim::Time now, double loss_estimate,
                               std::vector<quic::Frame>& out) {
  PathSender& s = sender(path);
  if (s.count > 0 && pn != s.first_pn + s.count) {
    // Discontinuity (shouldn't happen: repairs are the only unfed packets
    // and they sit at window boundaries) -- restart the window here.
    s.count = 0;
    s.max_symbol = 0;
  }
  if (s.count == 0) s.first_pn = pn;

  // Symbol = [2-byte big-endian length || wire bytes]; zero padding to the
  // window's longest symbol is implicit (gf_addmul stops at the shorter
  // span, which is exactly the all-zero-tail semantics).
  const std::size_t sym = 2 + wire.size();
  net::PacketBuffer& buf = s.sources[s.count];
  buf.resize(sym);
  buf[0] = static_cast<std::uint8_t>(wire.size() >> 8);
  buf[1] = static_cast<std::uint8_t>(wire.size() & 0xff);
  if (!wire.empty()) std::memcpy(buf.data() + 2, wire.data(), wire.size());
  s.max_symbol = std::max(s.max_symbol, sym);
  ++s.count;
  if (s.count < cfg_.window) return;

  // Window closed: decide redundancy, emit.
  ++stats_.windows_closed;
  const std::uint64_t window_id = s.next_window_id++;
  const std::size_t k = cfg_.window;
  const std::size_t r = gate_ ? decide_repairs(loss_estimate) : 0;

  Cover& cover = s.covers[s.cover_head];
  s.cover_head = (s.cover_head + 1) % kCoverRing;
  cover.first_pn = s.first_pn;
  cover.k = k;
  cover.at = now;
  cover.emitted = r > 0;

  if (r > 0) {
    std::array<std::span<const std::uint8_t>, kMaxSources> src_spans;
    for (std::size_t i = 0; i < k; ++i) src_spans[i] = s.sources[i].cspan();
    std::array<std::span<std::uint8_t>, kMaxRepairs> rep_spans;
    for (std::size_t j = 0; j < r; ++j) {
      s.repairs[j].resize(s.max_symbol);
      rep_spans[j] = s.repairs[j].span();
    }
    ReedSolomon::encode({src_spans.data(), k}, {rep_spans.data(), r});
    for (std::size_t j = 0; j < r; ++j) {
      quic::RepairFrame f;
      f.path_id = path;
      f.window_id = window_id;
      f.first_pn = s.first_pn;
      f.k = k;
      f.repair_count = r;
      f.symbol_index = static_cast<std::uint64_t>(j);
      f.payload = quic::FrameData::borrowed(s.repairs[j].cspan());
      out.emplace_back(std::move(f));
    }
    ++stats_.windows_protected;
    stats_.repair_symbols += r;
  }
  s.count = 0;
  s.max_symbol = 0;
}

bool FecFramer::covers(quic::PathId path, quic::PacketNumber pn,
                       sim::Time now) const {
  for (const auto& p : paths_) {
    if (!p.in_use || p.id != path) continue;
    for (const Cover& c : p.covers) {
      if (!c.emitted || c.k == 0) continue;
      if (pn < c.first_pn || pn >= c.first_pn + c.k) continue;
      if (now - c.at <= kCoverLinger) return true;
    }
    return false;
  }
  return false;
}

// ------------------------------------------------------------ RecoveryBuffer

RecoveryBuffer::RecoveryBuffer(const FecConfig& cfg) : cfg_(cfg) {}

RecoveryBuffer::PathRecv& RecoveryBuffer::recv(quic::PathId path) {
  for (auto& p : paths_)
    if (p.in_use && p.id == path) return p;
  for (auto& p : paths_) {
    if (!p.in_use) {
      p.in_use = true;
      p.id = path;
      return p;
    }
  }
  PathRecv& p = paths_[path % kMaxPaths];
  p = PathRecv{};
  p.in_use = true;
  p.id = path;
  return p;
}

const RecoveryBuffer::StashEntry* RecoveryBuffer::stash_find(
    const PathRecv& p, quic::PacketNumber pn) const {
  const StashEntry& e = p.stash[pn % kStash];
  return e.valid && e.pn == pn ? &e : nullptr;
}

void RecoveryBuffer::stage(std::span<const std::uint8_t> wire) {
  const std::size_t sym = 2 + wire.size();
  // A jumbo buffer left here by an oversize symbol would otherwise pin its
  // capacity forever; drop it and reacquire from the pool.
  if (staged_.capacity() > net::PacketBufferPool::kSlotCapacity &&
      sym <= net::PacketBufferPool::kSlotCapacity) {
    staged_.reset();
  }
  // Stored in SYMBOL format -- [2-byte big-endian length || wire] -- so a
  // present entry can be handed to the decoder as-is; the sender built its
  // source symbols with exactly this prefix.
  staged_.resize(sym);
  staged_[0] = static_cast<std::uint8_t>(wire.size() >> 8);
  staged_[1] = static_cast<std::uint8_t>(wire.size() & 0xff);
  if (!wire.empty()) std::memcpy(staged_.data() + 2, wire.data(), wire.size());
}

void RecoveryBuffer::commit(quic::PathId path, quic::PacketNumber pn,
                            sim::Time now) {
  now_ = now;
  commit_to(recv(path), pn, now, false);
}

bool RecoveryBuffer::drop_unconfirmed(quic::PathId path,
                                      quic::PacketNumber pn) {
  PathRecv& p = recv(path);
  StashEntry& e = p.stash[pn % kStash];
  if (!e.valid || e.pn != pn || !e.rebuilt) return false;
  p.stash_bytes -= e.buf.size();
  e.valid = false;
  e.rebuilt = false;
  e.buf.reset();
  return true;
}

void RecoveryBuffer::commit_to(PathRecv& p, quic::PacketNumber pn,
                               sim::Time now, bool rebuilt) {
  // The staged buffer moves into the slot and the slot's old buffer
  // becomes the next staging buffer: no copy, no pool traffic.
  StashEntry& e = p.stash[pn % kStash];
  if (e.valid) p.stash_bytes -= e.buf.size();
  std::swap(e.buf, staged_);
  e.pn = pn;
  e.at = now;
  e.valid = true;
  e.rebuilt = rebuilt;
  p.stash_bytes += e.buf.size();
  if (p.stash_bytes > cfg_.stash_bytes_cap) evict_over_cap(p);
}

void RecoveryBuffer::evict_over_cap(PathRecv& p) {
  // Drop-oldest until back under the per-path byte cap. A single entry
  // larger than the whole cap is evicted too (the loop drains to empty).
  while (p.stash_bytes > cfg_.stash_bytes_cap) {
    StashEntry* oldest = nullptr;
    for (auto& e : p.stash) {
      if (!e.valid) continue;
      if (!oldest || e.at < oldest->at ||
          (e.at == oldest->at && e.pn < oldest->pn)) {
        oldest = &e;
      }
    }
    if (!oldest) break;  // accounting bug; the auditor will catch it
    const std::size_t bytes = oldest->buf.size();
    p.stash_bytes -= bytes;
    const quic::PacketNumber pn = oldest->pn;
    oldest->valid = false;
    oldest->buf.reset();
    ++stats_.stash_evicted;
    XLINK_TRACE(trace_, telemetry::Event::fec_stash_evicted(
                            now_, origin_, static_cast<std::uint8_t>(p.id), pn,
                            bytes, p.stash_bytes));
  }
}

void RecoveryBuffer::on_source(quic::PathId path, quic::PacketNumber pn,
                               std::span<const std::uint8_t> wire,
                               sim::Time now) {
  stage(wire);
  commit(path, pn, now);
}

std::size_t RecoveryBuffer::stash_bytes_tracked() const {
  std::size_t total = 0;
  for (const auto& p : paths_)
    if (p.in_use) total += p.stash_bytes;
  return total;
}

std::size_t RecoveryBuffer::audit_recompute_stash_bytes() const {
  std::size_t total = 0;
  for (const auto& p : paths_) {
    if (!p.in_use) continue;
    for (const auto& e : p.stash)
      if (e.valid) total += e.buf.size();
  }
  return total;
}

std::size_t RecoveryBuffer::count_missing(const PathRecv& p,
                                          const Pending& w) const {
  std::size_t missing = 0;
  for (std::size_t i = 0; i < w.k; ++i)
    if (!stash_find(p, w.first_pn + i)) ++missing;
  return missing;
}

void RecoveryBuffer::drop_window(Pending& w) {
  for (std::size_t j = 0; j < w.repair_count; ++j) w.repairs[j].reset();
  w.repair_count = 0;
  w.active = false;
}

RecoveryBuffer::RepairOutcome RecoveryBuffer::on_repair(
    quic::PathId path, const quic::RepairFrame& f, sim::Time now,
    std::vector<Recovered>& out) {
  RepairOutcome res;
  now_ = now;
  if (f.k == 0 || f.k > kMaxSources || f.repair_count > kMaxRepairs ||
      f.payload.size() < 2) {
    // Outside this implementation's budget; treat as pure overhead.
    ++stats_.wasted;
    res.wasted = 1;
    return res;
  }
  if (f.payload.size() > kMaxSymbolBytes) {
    // An honest symbol fits the sealed MTU; refusing the copy here keeps a
    // REPAIR bomb from landing arbitrary-size buffers in pending windows.
    ++stats_.oversize_rejected;
    ++stats_.wasted;
    res.wasted = 1;
    return res;
  }
  PathRecv& p = recv(path);

  Pending* w = nullptr;
  for (auto& cand : p.pending) {
    if (cand.active && cand.window_id == f.window_id &&
        cand.first_pn == f.first_pn) {
      w = &cand;
      break;
    }
  }
  if (!w) {
    Pending probe;
    probe.first_pn = f.first_pn;
    probe.k = static_cast<std::size_t>(f.k);
    if (count_missing(p, probe) == 0) {
      // Window already complete (or long decoded): this symbol bought
      // nothing.
      ++stats_.wasted;
      res.wasted = 1;
      return res;
    }
    // Claim a pending slot, evicting the oldest incomplete window.
    for (auto& cand : p.pending)
      if (!cand.active) { w = &cand; break; }
    if (!w) {
      w = &p.pending[0];
      for (auto& cand : p.pending)
        if (cand.window_id < w->window_id) w = &cand;
      stats_.wasted += w->repair_count;
      ++stats_.unrecoverable;
      drop_window(*w);
    }
    w->active = true;
    w->window_id = f.window_id;
    w->first_pn = f.first_pn;
    w->k = static_cast<std::size_t>(f.k);
    w->repair_total = f.repair_count;
    w->repair_count = 0;
    const std::size_t missing = count_missing(p, *w);
    stats_.erased_seen += missing;
    ++stats_.windows_observed;
    res.erased_newly_seen = missing;
  }

  // Duplicate symbol rows contribute nothing (singular system); drop them.
  for (std::size_t j = 0; j < w->repair_count; ++j) {
    if (w->repair_index[j] == f.symbol_index) {
      ++stats_.wasted;
      res.wasted += 1;
      return res;
    }
  }
  if (w->repair_count == kMaxRepairs) return res;  // budget cap, hold as-is
  w->repair_index[w->repair_count] = static_cast<std::uint32_t>(f.symbol_index);
  w->repairs[w->repair_count] = net::PacketBuffer::copy_of(f.payload.span());
  ++w->repair_count;

  const std::size_t missing = count_missing(p, *w);
  if (missing == 0) {
    // Every source arrived by other means; the held symbols were overhead.
    stats_.wasted += w->repair_count;
    res.wasted += w->repair_count;
    drop_window(*w);
    return res;
  }
  if (missing > w->repair_total) {
    // More erasures than the sender's budget: unrecoverable.
    stats_.wasted += w->repair_count;
    res.wasted += w->repair_count;
    ++stats_.unrecoverable;
    drop_window(*w);
    return res;
  }
  if (w->repair_count < missing) return res;  // wait for more symbols

  // Decode: symbol length is the repair payload length (>= every source
  // symbol in the window by construction).
  std::size_t symbol_len = 0;
  for (std::size_t j = 0; j < w->repair_count; ++j)
    symbol_len = std::max(symbol_len, w->repairs[j].size());

  std::array<SourceSymbol, kMaxSources> sources;
  std::array<RepairSymbol, kMaxRepairs> repairs;
  sim::Time newest_source = 0;
  std::size_t scratch_used = 0;
  for (std::size_t i = 0; i < w->k; ++i) {
    StashEntry& e = p.stash[(w->first_pn + i) % kStash];
    if (e.valid && e.pn == w->first_pn + i) {
      sources[i].data = e.buf.span();
      sources[i].present = true;
      newest_source = std::max(newest_source, e.at);
    } else {
      net::PacketBuffer& scratch = decode_scratch_[scratch_used++];
      scratch.resize(symbol_len);
      sources[i].data = scratch.span();
      sources[i].present = false;
    }
  }
  for (std::size_t j = 0; j < w->repair_count; ++j) {
    repairs[j].data = w->repairs[j].span();
    repairs[j].index = w->repair_index[j];
  }

  if (!ReedSolomon::recover({sources.data(), w->k},
                            {repairs.data(), w->repair_count})) {
    stats_.wasted += w->repair_count;
    res.wasted += w->repair_count;
    ++stats_.unrecoverable;
    drop_window(*w);
    return res;
  }

  const std::uint64_t latency =
      now > newest_source ? now - newest_source : 0;
  for (std::size_t i = 0; i < w->k; ++i) {
    const StashEntry* have = stash_find(p, w->first_pn + i);
    if (have) continue;  // was present before decode
    const std::span<const std::uint8_t> sym = sources[i].data;
    const std::size_t len =
        (static_cast<std::size_t>(sym[0]) << 8) | sym[1];
    if (len == 0 || len + 2 > sym.size()) continue;  // corrupt symbol
    Recovered rec;
    rec.wire = net::PacketBuffer::copy_of(sym.subspan(2, len));
    rec.pn = w->first_pn + i;
    rec.window_id = w->window_id;
    rec.latency_us = latency;
    stage(rec.wire.cspan());
    commit_to(p, rec.pn, now, true);
    out.push_back(std::move(rec));
    ++stats_.recovered;
    ++res.recovered;
  }
  const std::size_t surplus = w->repair_count - missing;
  stats_.wasted += surplus;
  res.wasted += surplus;
  drop_window(*w);
  return res;
}

}  // namespace xlink::fec
