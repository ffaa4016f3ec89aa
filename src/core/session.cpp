#include "core/session.h"

#include "mpquic/schedulers.h"

namespace xlink::core {

std::string to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSinglePath: return "SP";
    case Scheme::kConnMigration: return "CM";
    case Scheme::kVanillaMp: return "Vanilla-MP";
    case Scheme::kMptcpLike: return "MPTCP";
    case Scheme::kRedundant: return "Redundant";
    case Scheme::kReinjectNoQoe: return "Reinj-noQoE";
    case Scheme::kXlink: return "XLINK";
  }
  return "?";
}

bool is_multipath(Scheme scheme) {
  return scheme != Scheme::kSinglePath && scheme != Scheme::kConnMigration;
}

quic::Connection::Config make_scheme_config(Scheme scheme, quic::Role role,
                                            const SchemeOptions& opts) {
  quic::Connection::Config config;
  config.role = role;
  config.cc = opts.cc;
  config.aead_key = opts.aead_key;
  config.pacing.enabled = opts.pacing;
  config.params.enable_multipath = is_multipath(scheme);

  // Schedulers act on the data sender; in the video workload that is the
  // server, but both sides get the same scheduler so uploads behave too.
  switch (scheme) {
    case Scheme::kSinglePath:
    case Scheme::kConnMigration:
      config.scheduler = nullptr;
      config.ack_policy = quic::AckPathPolicy::kOriginalPath;
      break;
    case Scheme::kVanillaMp:
      config.scheduler = mpquic::make_min_rtt_scheduler();
      config.ack_policy = quic::AckPathPolicy::kOriginalPath;
      break;
    case Scheme::kMptcpLike:
      config.scheduler = mpquic::make_min_rtt_scheduler();
      config.ack_policy = quic::AckPathPolicy::kOriginalPath;
      config.tcp_style_rto = true;
      break;
    case Scheme::kRedundant:
      config.scheduler = mpquic::make_redundant_scheduler();
      config.ack_policy = quic::AckPathPolicy::kOriginalPath;
      break;
    case Scheme::kReinjectNoQoe: {
      XlinkSchedulerConfig xc;
      xc.control.mode = ControlMode::kAlwaysOn;
      xc.insert_mode = quic::InsertMode::kAppend;  // Fig. 4a behaviour
      config.scheduler = make_xlink_scheduler(xc);
      config.ack_policy = quic::AckPathPolicy::kOriginalPath;
      break;
    }
    case Scheme::kXlink: {
      XlinkSchedulerConfig xc;
      xc.control = opts.control;
      xc.insert_mode = opts.xlink_insert_mode;
      xc.redundancy = opts.xlink_redundancy;
      config.scheduler = make_xlink_scheduler(xc);
      config.ack_policy = opts.xlink_ack_policy;
      if (redundancy_has_fec(opts.xlink_redundancy)) {
        // The video server is the protecting sender (FecFramer only); the
        // client only recovers (RecoveryBuffer only).
        config.fec = opts.fec;
        config.fec.enabled = true;
        config.fec.protect = (role == quic::Role::kServer);
      }
      break;
    }
  }
  return config;
}

}  // namespace xlink::core
