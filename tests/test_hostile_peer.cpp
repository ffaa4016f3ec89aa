// Hostile-peer attack suite: scripted adversaries drive real connections
// through protocol abuse, and every attack must end in a graceful
// CONNECTION_CLOSE with the right RFC 9000 transport error code (or, for
// amplification probes, in suppressed sends) -- with zero leaked pooled
// buffers and bounded memory throughout.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "fec/framer.h"
#include "harness/hostile.h"
#include "net/packet_buffer.h"
#include "quic/guard.h"
#include "test_support.h"

namespace xlink {
namespace {

using harness::HostilePeer;
using quic::Connection;
using quic::Frame;
using quic::TransportError;
using quic::ViolationKind;
using test::WirePair;

std::uint64_t code(TransportError e) { return static_cast<std::uint64_t>(e); }

/// Established pair + attacker aimed at one side. The victim's outbound
/// datagrams are redirected into `captured` (the honest peer stops hearing
/// from it; the attack phase owns the victim's wire).
struct AttackRig {
  explicit AttackRig(WirePair::Options opts = {})
      : pool(net::PacketBufferPool::local()) {
    pool.reset_counters();
    pair = std::make_unique<WirePair>(std::move(opts));
    EXPECT_TRUE(pair->establish());
  }

  /// Points the attacker at `victim` and starts capturing its output.
  HostilePeer& aim(Connection& victim) {
    attacker = std::make_unique<HostilePeer>(victim);
    victim.set_send_callback([this](quic::PathId, net::Datagram d) {
      captured.emplace_back(d.cspan().begin(), d.cspan().end());
    });
    return *attacker;
  }

  /// Tears down the rig and verifies no pooled buffer leaked.
  void expect_no_leaks() {
    attacker.reset();
    pair.reset();
    EXPECT_EQ(pool.counters().outstanding(), 0u);
  }

  net::PacketBufferPool& pool;
  std::unique_ptr<WirePair> pair;
  std::unique_ptr<HostilePeer> attacker;
  std::vector<std::vector<std::uint8_t>> captured;
};

/// The victim closed on its own initiative, with error `err` (whose RFC
/// 9000 §20.1 name is `err_name`) because the guard check for `kind`
/// fired: several kinds share one error code, so the kind is read from
/// the close reason, both locally and in the CONNECTION_CLOSE on the wire.
void expect_guard_close(const Connection& victim, const HostilePeer& attacker,
                        const std::vector<std::vector<std::uint8_t>>& captured,
                        TransportError err, const char* err_name,
                        ViolationKind kind) {
  const std::string reason =
      std::string("guard: ") + quic::violation_kind_name(kind);
  EXPECT_TRUE(victim.is_closed());
  EXPECT_EQ(victim.close_state(), Connection::CloseState::kClosing);
  EXPECT_FALSE(victim.close_info().peer_initiated);
  EXPECT_EQ(victim.close_info().error_code, code(err));
  EXPECT_EQ(victim.close_info().reason, reason);
  // Graceful: a CONNECTION_CLOSE with that code actually went on the wire.
  const auto close = attacker.find_close(captured);
  ASSERT_TRUE(close.has_value());
  EXPECT_EQ(close->error_code, code(err));
  EXPECT_STREQ(quic::transport_error_name(close->error_code), err_name);
  EXPECT_EQ(close->reason, reason);
  EXPECT_GE(victim.guard_counters().violations, 1u);
}

void expect_closed_with(AttackRig& rig, Connection& victim,
                        TransportError err, const char* err_name,
                        ViolationKind kind) {
  expect_guard_close(victim, *rig.attacker, rig.captured, err, err_name, kind);
}

// ---------------------------------------------------------------- attacks

TEST(HostilePeer, AckFloodClosesConnection) {
  WirePair::Options opts;
  opts.server_config.budgets.ack_flood_base = 64;
  opts.server_config.budgets.ack_flood_per_packet_sent = 0;
  AttackRig rig(opts);
  auto& attacker = rig.aim(*rig.pair->server);

  // Empty ack ranges pass the lying-ack check; the sheer rate is the abuse.
  quic::AckMpFrame ack;
  ack.path_id = 0;
  for (int i = 0; i < 200 && !rig.pair->server->is_closed(); ++i)
    attacker.inject(0, {Frame{ack}});

  expect_closed_with(rig, *rig.pair->server, TransportError::kProtocolViolation,
                     "PROTOCOL_VIOLATION", ViolationKind::kAckFlood);
  EXPECT_LE(rig.pair->server->guard_counters().ack_frames, 66u);
  rig.expect_no_leaks();
}

TEST(HostilePeer, LyingAckRangeClosesConnection) {
  AttackRig rig;
  auto& attacker = rig.aim(*rig.pair->server);

  quic::AckMpFrame ack;
  ack.path_id = 0;
  ack.info.ranges = {{100000, 100000}};  // far beyond anything ever sent
  attacker.inject(0, {Frame{ack}});

  expect_closed_with(rig, *rig.pair->server, TransportError::kProtocolViolation,
                     "PROTOCOL_VIOLATION", ViolationKind::kLyingAck);
  EXPECT_NE(rig.pair->server->close_info().reason.find("lying_ack"),
            std::string::npos);
  rig.expect_no_leaks();
}

TEST(HostilePeer, StreamExhaustionClosesConnection) {
  WirePair::Options opts;
  opts.server_config.budgets.max_open_recv_streams = 64;
  AttackRig rig(opts);
  auto& attacker = rig.aim(*rig.pair->server);

  for (quic::StreamId id = 0; id < 4 * 80 && !rig.pair->server->is_closed();
       id += 4)
    attacker.inject(0, {Frame{quic::StreamFrame{id, 0, {1}, false}}});

  expect_closed_with(rig, *rig.pair->server, TransportError::kStreamLimitError,
                     "STREAM_LIMIT_ERROR", ViolationKind::kStreamLimit);
  // Bounded memory: at most the budgeted stream count ever existed.
  EXPECT_LE(rig.pair->server->guard_counters().peak_open_recv_streams, 64u);
  rig.expect_no_leaks();
}

TEST(HostilePeer, FinishedStreamsWithHolesCloseConnection) {
  WirePair::Options opts;
  opts.server_config.budgets.max_open_recv_streams = 64;
  AttackRig rig(opts);
  Connection& server = *rig.pair->server;
  auto& attacker = rig.aim(server);

  // Each stream is whole and read through, so it retires at once and is
  // never open for long; but stride 8 leaves a hole below every one, and
  // each retired id would otherwise pin its own interval.
  int streams = 0;
  for (quic::StreamId id = 0; id < 8 * 400 && !server.is_closed(); id += 8) {
    attacker.inject(0, {Frame{quic::StreamFrame{id, 0, {1}, true}}});
    server.consume_stream(id, 100);
    ++streams;
  }

  expect_closed_with(rig, server, TransportError::kStreamLimitError,
                     "STREAM_LIMIT_ERROR", ViolationKind::kStreamLimit);
  // 64 retired streams leave 64 holes: the 65th id is one too many.
  EXPECT_EQ(streams, 65);
  EXPECT_EQ(server.guard_counters().peak_open_recv_streams, 1u);
  rig.expect_no_leaks();
}

TEST(HostilePeer, FrameForRetiredStreamIsDroppedNotReopened) {
  AttackRig rig;
  Connection& server = *rig.pair->server;
  auto& attacker = rig.aim(server);

  // A whole request, read through its FIN: the stream retires.
  attacker.inject(0, {Frame{quic::StreamFrame{4, 0, {1, 2, 3}, true}}});
  ASSERT_EQ(server.consume_stream(4, 100).size(), 3u);
  EXPECT_EQ(server.recv_stream(4), nullptr);

  // Late copies -- a re-injected duplicate, and bytes past the old final
  // size -- are acknowledged and dropped: no stream reappears and the
  // connection stays open.
  attacker.inject(0, {Frame{quic::StreamFrame{4, 0, {1, 2, 3}, true}}});
  attacker.inject(0, {Frame{quic::StreamFrame{4, 3, {4}, false}}});
  EXPECT_EQ(server.recv_stream(4), nullptr);
  EXPECT_FALSE(server.is_closed());
  EXPECT_EQ(server.guard_counters().peak_open_recv_streams, 1u);
  const auto& ranges = server.path_state(0).recv_ranges;
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.front().last, attacker.next_pn(0) - 1);  // to be acked
  rig.expect_no_leaks();
}

TEST(HostilePeer, FabricatedStreamIdClosesConnection) {
  AttackRig rig;
  auto& attacker = rig.aim(*rig.pair->server);

  attacker.inject(0, {Frame{quic::StreamFrame{3, 0, {1}, false}}});

  expect_closed_with(rig, *rig.pair->server, TransportError::kStreamStateError,
                     "STREAM_STATE_ERROR", ViolationKind::kStreamIdInvalid);
  rig.expect_no_leaks();
}

TEST(HostilePeer, StreamFlowControlOverrunClosesConnection) {
  AttackRig rig;
  auto& attacker = rig.aim(*rig.pair->server);

  // One byte past the per-stream grant. The guard must trip BEFORE
  // reassembly: no 8 MB buffer may be provisioned for the offset bomb.
  const std::uint64_t grant =
      rig.pair->options_.server_config.params.initial_max_stream_data;
  attacker.inject(0, {Frame{quic::StreamFrame{4, grant, {1}, false}}});

  expect_closed_with(rig, *rig.pair->server, TransportError::kFlowControlError,
                     "FLOW_CONTROL_ERROR", ViolationKind::kStreamFlowControl);
  const auto* s = rig.pair->server->recv_stream(4);
  if (s != nullptr) {
    EXPECT_EQ(s->readable_bytes(), 0u);
  }
  rig.expect_no_leaks();
}

TEST(HostilePeer, ConnectionFlowControlOverrunClosesConnection) {
  AttackRig rig;
  auto& attacker = rig.aim(*rig.pair->server);

  // Sparse offset bombs charge the connection-level grant without shipping
  // the bytes: two streams exhaust the 16 MB budget, the third overruns.
  const std::uint64_t stream_grant =
      rig.pair->options_.server_config.params.initial_max_stream_data;
  attacker.inject(0, {Frame{quic::StreamFrame{4, stream_grant - 1, {1}, false}}});
  attacker.inject(0, {Frame{quic::StreamFrame{8, stream_grant - 1, {1}, false}}});
  EXPECT_FALSE(rig.pair->server->is_closed());
  attacker.inject(0, {Frame{quic::StreamFrame{12, 100, {1}, false}}});

  expect_closed_with(rig, *rig.pair->server, TransportError::kFlowControlError,
                     "FLOW_CONTROL_ERROR",
                     ViolationKind::kConnectionFlowControl);
  EXPECT_NE(rig.pair->server->close_info().reason.find("connection_flow"),
            std::string::npos);
  rig.expect_no_leaks();
}

TEST(HostilePeer, MovedFinalSizeClosesConnection) {
  AttackRig rig;
  auto& attacker = rig.aim(*rig.pair->server);

  attacker.inject(0, {Frame{quic::StreamFrame{4, 0, {1, 2}, true}}});
  EXPECT_FALSE(rig.pair->server->is_closed());
  attacker.inject(0, {Frame{quic::StreamFrame{4, 10, {3}, false}}});

  expect_closed_with(rig, *rig.pair->server, TransportError::kFinalSizeError,
                     "FINAL_SIZE_ERROR", ViolationKind::kFinalSizeChanged);
  rig.expect_no_leaks();
}

TEST(HostilePeer, RepairBombClosesConnection) {
  AttackRig rig;
  auto& attacker = rig.aim(*rig.pair->server);

  quic::RepairFrame bomb;
  bomb.path_id = 0;
  bomb.k = 1;
  bomb.payload.assign(4096, 0xab);  // no legal symbol is this large
  attacker.inject(0, {Frame{std::move(bomb)}});

  expect_closed_with(rig, *rig.pair->server, TransportError::kProtocolViolation,
                     "PROTOCOL_VIOLATION", ViolationKind::kRepairOversized);
  EXPECT_NE(rig.pair->server->close_info().reason.find("repair_oversized"),
            std::string::npos);
  rig.expect_no_leaks();
}

TEST(HostilePeer, RepairFloodClosesConnection) {
  WirePair::Options opts;
  opts.server_config.budgets.repair_flood_base = 32;
  opts.server_config.budgets.repair_flood_per_packet_received = 0;
  opts.server_config.fec.enabled = true;  // flood a real RecoveryBuffer
  opts.server_config.fec.protect = false;
  AttackRig rig(opts);
  auto& attacker = rig.aim(*rig.pair->server);

  quic::RepairFrame r;
  r.path_id = 0;
  r.k = 4;
  r.payload.assign(64, 0x5a);
  for (int i = 0; i < 60 && !rig.pair->server->is_closed(); ++i) {
    r.window_id = static_cast<std::uint64_t>(i);
    r.first_pn = static_cast<quic::PacketNumber>(4 * i);
    attacker.inject(0, {Frame{r}});
  }

  expect_closed_with(rig, *rig.pair->server, TransportError::kProtocolViolation,
                     "PROTOCOL_VIOLATION", ViolationKind::kRepairFlood);
  EXPECT_NE(rig.pair->server->close_info().reason.find("repair_flood"),
            std::string::npos);
  rig.expect_no_leaks();
}

TEST(HostilePeer, DatagramReplayFloodClosesConnection) {
  WirePair::Options opts;
  opts.server_config.budgets.max_replayed_packets = 50;
  AttackRig rig(opts);
  auto& attacker = rig.aim(*rig.pair->server);

  // One honestly-numbered packet, replayed verbatim: same wire bytes, same
  // packet number, cryptographically valid every time. The sealed buffer
  // is pooled, so it must be gone before the leak check.
  {
    const net::PacketBuffer wire =
        attacker.seal(0, attacker.next_pn(0), {Frame{quic::PingFrame{}}});
    for (int i = 0; i < 60 && !rig.pair->server->is_closed(); ++i)
      attacker.inject_wire(0, wire);
  }

  expect_closed_with(rig, *rig.pair->server, TransportError::kProtocolViolation,
                     "PROTOCOL_VIOLATION", ViolationKind::kReplayFlood);
  EXPECT_GE(rig.pair->server->guard_counters().replayed_packets, 50u);
  rig.expect_no_leaks();
}

TEST(HostilePeer, ReplayBelowDroppedAckRangesIsStillAReplay) {
  AttackRig rig;
  Connection& server = *rig.pair->server;
  auto& attacker = rig.aim(server);

  // One PING, then 33 more with a gap after each: 34 ranges exceed the 32
  // the receiver keeps, and the PING's range is dropped. RFC 9000 §13.2.3:
  // a receiver that discards ranges still counts every packet below them
  // as received, so the PING replayed verbatim is a replay, not news.
  const quic::PacketNumber first = attacker.next_pn(0);
  {
    const net::PacketBuffer wire =
        attacker.seal(0, first, {Frame{quic::PingFrame{}}});
    attacker.inject_wire(0, wire);
    for (quic::PacketNumber i = 1; i <= 33; ++i)
      attacker.inject_at(0, first + 2 * i, {Frame{quic::PingFrame{}}});
    const auto& ranges = server.path_state(0).recv_ranges;
    ASSERT_EQ(ranges.size(), 32u);
    ASSERT_GT(ranges.back().first, first);
    EXPECT_EQ(server.guard_counters().replayed_packets, 0u);

    attacker.inject_wire(0, wire);
  }
  EXPECT_EQ(server.guard_counters().replayed_packets, 1u);
  EXPECT_FALSE(server.is_closed());
  rig.expect_no_leaks();
}

TEST(HostilePeer, CidLimitOverrunClosesConnection) {
  AttackRig rig;
  auto& attacker = rig.aim(*rig.pair->server);

  quic::NewConnectionIdFrame f;
  f.sequence =
      rig.pair->options_.server_config.params.active_connection_id_limit;
  attacker.inject(0, {Frame{f}});

  expect_closed_with(rig, *rig.pair->server,
                     TransportError::kConnectionIdLimitError,
                     "CONNECTION_ID_LIMIT_ERROR", ViolationKind::kCidLimit);
  rig.expect_no_leaks();
}

TEST(HostilePeer, HandshakeDoneAtServerClosesConnection) {
  AttackRig rig;
  auto& attacker = rig.aim(*rig.pair->server);

  attacker.inject(0, {Frame{quic::HandshakeDoneFrame{}}});

  expect_closed_with(rig, *rig.pair->server, TransportError::kProtocolViolation,
                     "PROTOCOL_VIOLATION", ViolationKind::kFrameIllegalInState);
  rig.expect_no_leaks();
}

TEST(HostilePeer, StreamDataBeforeHandshakeClosesConnection) {
  // A fresh server that has never completed a handshake: data frames are
  // illegal until CRYPTO establishes the connection.
  auto& pool = net::PacketBufferPool::local();
  pool.reset_counters();
  {
    sim::EventLoop loop;
    Connection::Config cfg;
    cfg.role = quic::Role::kServer;
    Connection server(loop, cfg);
    std::vector<std::vector<std::uint8_t>> captured;
    server.set_send_callback([&](quic::PathId, net::Datagram d) {
      captured.emplace_back(d.cspan().begin(), d.cspan().end());
    });

    HostilePeer attacker(server);
    attacker.inject_wire(
        0, attacker.seal_initial(0, 0,
                                 {Frame{quic::StreamFrame{4, 0, {1}, false}}}));

    expect_guard_close(server, attacker, captured,
                       TransportError::kProtocolViolation,
                       "PROTOCOL_VIOLATION",
                       ViolationKind::kFrameIllegalInState);
  }
  EXPECT_EQ(pool.counters().outstanding(), 0u);
}

TEST(HostilePeer, AmplificationProbeIsSuppressed) {
  // A spoofed-source packet opens a new (unvalidated) server path; the
  // attacker never answers the server's PATH_CHALLENGE, so PTO retransmits
  // would amplify forever -- the 3x cap must clamp them instead.
  AttackRig rig;
  Connection& server = *rig.pair->server;
  auto& attacker = rig.aim(server);

  attacker.inject(2, {Frame{quic::PathChallengeFrame{{1, 2, 3, 4}}}});
  ASSERT_TRUE(server.has_path(2));
  rig.pair->run_for(sim::seconds(8));  // several PTO cycles

  const auto& p = server.path_state(2);
  EXPECT_EQ(p.state, quic::PathState::State::kValidating);  // never promoted
  EXPECT_GE(server.guard_counters().amplification_blocked, 1u);
  EXPECT_LE(p.bytes_sent,
            quic::kAmplificationFactor * p.bytes_received);
  EXPECT_FALSE(server.is_closed());  // suppression, not escalation
  rig.expect_no_leaks();
}

TEST(HostilePeer, GapSprayIsCollapsedNotFatal) {
  WirePair::Options opts;
  opts.server_config.budgets.max_recv_gaps_per_stream = 16;
  AttackRig rig(opts);
  Connection& server = *rig.pair->server;
  auto& attacker = rig.aim(server);

  // Every other byte: each frame is a new reassembly gap (a map node the
  // peer pins). The cap collapses the smallest gap instead of closing.
  for (std::uint64_t i = 0; i < 200; ++i)
    attacker.inject(0, {Frame{quic::StreamFrame{4, 2 * i, {1}, false}}});

  EXPECT_FALSE(server.is_closed());  // soft defense
  const auto* s = server.recv_stream(4);
  ASSERT_NE(s, nullptr);
  EXPECT_LE(s->tracked_intervals(), 16u);
  EXPECT_GT(server.guard_counters().gap_collapses, 0u);
  EXPECT_GT(server.guard_counters().phantom_bytes, 0u);
  rig.expect_no_leaks();
}

// ------------------------------------------------- closing and draining

TEST(HostilePeer, ClosingStateRateLimitsCloseResends) {
  AttackRig rig;
  Connection& server = *rig.pair->server;
  auto& attacker = rig.aim(server);

  quic::AckMpFrame lying;
  lying.path_id = 0;
  lying.info.ranges = {{100000, 100000}};
  attacker.inject(0, {Frame{lying}});
  ASSERT_EQ(server.close_state(), Connection::CloseState::kClosing);

  const std::size_t closes_before = rig.captured.size();
  for (int i = 0; i < 100; ++i)
    attacker.inject(0, {Frame{quic::PingFrame{}}});

  // RFC 9000 §10.2.1: one re-send per exponentially growing packet count;
  // 100 inbound packets may earn ~log2(100) responses, never 100.
  const std::uint64_t resends = server.guard_counters().close_resends;
  EXPECT_GE(resends, 2u);
  EXPECT_LE(resends, 8u);
  EXPECT_LE(rig.captured.size() - closes_before, 8u);
  rig.expect_no_leaks();
}

TEST(HostilePeer, PeerCloseEntersDrainingAndGoesSilent) {
  AttackRig rig;
  Connection& server = *rig.pair->server;
  auto& attacker = rig.aim(server);

  attacker.inject(0, {Frame{quic::ConnectionCloseFrame{0x42, "bye"}}});

  EXPECT_TRUE(server.is_closed());
  EXPECT_EQ(server.close_state(), Connection::CloseState::kDraining);
  EXPECT_TRUE(server.close_info().peer_initiated);
  EXPECT_EQ(server.close_info().error_code, 0x42u);
  EXPECT_EQ(server.close_info().reason, "bye");

  // Draining sends NOTHING: not for new input, not for app writes.
  const std::size_t sent_before = rig.captured.size();
  for (int i = 0; i < 20; ++i)
    attacker.inject(0, {Frame{quic::PingFrame{}}});
  server.pump_send();
  rig.pair->run_for(sim::seconds(2));
  EXPECT_EQ(rig.captured.size(), sent_before);
  rig.expect_no_leaks();
}

// ------------------------------------------------------ fec stash bounds

TEST(HostilePeer, FecStashFloodEvictsDropOldest) {
  fec::FecConfig cfg;
  cfg.enabled = true;
  cfg.stash_bytes_cap = 16 * 1024;
  fec::RecoveryBuffer recv(cfg);

  // Oversize source datagrams, distinct packet numbers: without the cap
  // the 64-slot ring would pin 64 * 4 KB of standalone blocks per path.
  std::vector<std::uint8_t> jumbo(4096, 0xcd);
  for (quic::PacketNumber pn = 0; pn < 40; ++pn)
    recv.on_source(0, pn, jumbo, sim::millis(pn));

  EXPECT_GT(recv.stats().stash_evicted, 0u);
  EXPECT_LE(recv.stash_bytes_tracked(), cfg.stash_bytes_cap);
  // The incremental accounting matches a from-scratch walk.
  EXPECT_EQ(recv.stash_bytes_tracked(), recv.audit_recompute_stash_bytes());
}

TEST(HostilePeer, FecOversizeSymbolRejected) {
  fec::FecConfig cfg;
  cfg.enabled = true;
  fec::RecoveryBuffer recv(cfg);

  quic::RepairFrame bomb;
  bomb.path_id = 0;
  bomb.k = 1;
  bomb.repair_count = 1;
  bomb.payload.assign(fec::kMaxSymbolBytes + 1, 0xee);
  std::vector<fec::RecoveryBuffer::Recovered> out;
  const auto res = recv.on_repair(0, bomb, sim::millis(1), out);
  EXPECT_EQ(res.recovered, 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(recv.stats().oversize_rejected, 1u);
}

// ------------------------------------------------------ invariant auditor

TEST(InvariantAuditor, CleanOnHonestTraffic) {
  AttackRig rig;
  Connection& server = *rig.pair->server;
  rig.pair->client->open_stream();
  rig.pair->client->stream_send(0, test::pattern_bytes(20000), true);
  rig.pair->client->pump_send();
  rig.pair->run_for(sim::seconds(2));

  EXPECT_GT(server.audit_now(), 0u);
  EXPECT_GT(rig.pair->client->audit_now(), 0u);
  EXPECT_EQ(server.auditor().failures(), 0u);
  EXPECT_EQ(rig.pair->client->auditor().failures(), 0u);
  rig.expect_no_leaks();
}

TEST(InvariantAuditor, CatchesSeededLedgerCorruption) {
  AttackRig rig;
  Connection& server = *rig.pair->server;

  std::vector<quic::AuditFailure> caught;
  server.auditor().set_on_failure(
      [&](const Connection&, const quic::AuditFailure& f) {
        caught.push_back(f);
      });

  // Seed the bug: a phantom sent-record the bytes_in_flight counter never
  // saw (tracked as non-eliciting, then flipped). The re-derivation from
  // the sent-packet queue must disagree with the incremental sum.
  quic::SentRecord& phantom = server.path_state(0).loss.on_packet_sent(
      999999, rig.pair->loop.now(), 777, /*ack_eliciting=*/false);
  phantom.ack_eliciting = true;

  server.audit_now();
  ASSERT_FALSE(caught.empty());
  EXPECT_STREQ(caught.front().check, "bytes_in_flight_ledger");
  EXPECT_GE(server.auditor().failures(), 1u);

  // Un-seed so teardown audits (timer ticks) stay quiet.
  phantom.ack_eliciting = false;
  rig.expect_no_leaks();
}

TEST(InvariantAuditor, EnvVariableDisablesAtRuntime) {
  ::setenv("XLINK_AUDIT", "0", 1);
  EXPECT_FALSE(quic::audit_enabled_by_env());
  {
    sim::EventLoop loop;
    Connection::Config cfg;
    Connection conn(loop, cfg);
    EXPECT_FALSE(conn.auditor().enabled());
  }
  ::unsetenv("XLINK_AUDIT");
  EXPECT_TRUE(quic::audit_enabled_by_env());
}

}  // namespace
}  // namespace xlink
