#include "mpquic/scheduler_util.h"
#include "mpquic/schedulers.h"

namespace xlink::mpquic {
namespace {

/// Full redundancy: every packet's payload is duplicated onto another path
/// as soon as the queue drains (Raven-style). Maximum robustness, maximum
/// cost -- the paper's argument for why naive duplication cannot be
/// deployed for video.
class RedundantScheduler final : public quic::Scheduler {
 public:
  std::optional<quic::PathId> select_path(quic::Connection& conn) override {
    return pick_for_queue_head(conn);
  }

  void maybe_reinject(quic::Connection& conn) override {
    if (conn.schedulable_path_ids().size() < 2) return;
    if (!conn.send_queue().empty()) return;
    for (quic::PathId id : conn.path_ids()) {
      auto& p = conn.path_state(id);
      for (quic::SentRecord& rec : p.loss.unacked()) {
        if (rec.items.empty() || rec.reinjected || rec.is_reinjection)
          continue;
        const std::uint64_t bytes =
            conn.reinject_record(rec, quic::InsertMode::kAppend);
        if (bytes > 0) {
          XLINK_TRACE(conn.trace(),
                      telemetry::Event::reinjection(
                          conn.loop().now(), conn.trace_origin(),
                          static_cast<std::uint8_t>(id), bytes, rec.pn));
        }
      }
    }
  }

  std::string name() const override { return "redundant"; }
};

}  // namespace

std::shared_ptr<quic::Scheduler> make_redundant_scheduler() {
  return std::make_shared<RedundantScheduler>();
}

}  // namespace xlink::mpquic
