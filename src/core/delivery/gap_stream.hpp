// Gap delivery (§4.2): best-effort chain forwarding.
//
// All sensor nodes of a stream form one logical chain — we use the app's
// placement order, so the app-bearing process is the chain head. Exactly
// one process is responsible for getting events to the active logic node:
//   * if the app-bearing process hosts an active (in-range) sensor node,
//     it simply delivers its own receipts;
//   * otherwise the *closest* alive in-range process in chain order
//     forwards its receipts to the app-bearing process; every other
//     receiving node discards.
// No recovery of lost events is attempted: a sensor-process link loss on
// the forwarder's link, or a crash inside the detection window, produces a
// gap — that is the contract.
//
// Polling: only the forwarder polls, once per epoch (optimal overhead,
// Fig 8); when it crashes, the next in-range process in the chain takes
// over after failure detection.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <set>

#include "core/delivery/stream_context.hpp"
#include "core/wire.hpp"

namespace riv::core {

class GapStream {
 public:
  GapStream(StreamContext ctx, std::size_t dedup_window);

  void start();

  void on_device_event(const devices::SensorEvent& e);
  void on_forward(ProcessId from, const wire::EventPayload& p);

  std::uint64_t ingested() const { return ingested_; }
  std::uint64_t forwards() const { return forwards_; }
  std::uint64_t discarded() const { return discarded_; }
  std::uint64_t polls_issued() const { return polls_issued_; }
  std::uint64_t staleness_reports() const { return staleness_reports_; }

  // --- state capture (DESIGN.md §13) ---------------------------------
  // Dedup window in arrival order, epoch tracking, counters, and the
  // epoch-boundary timer (poll streams only).
  void clone_state(BinaryWriter& w) const {
    w.u32(first_epoch_);
    w.u64(recent_order_.size());
    for (EventId id : recent_order_) w.event_id(id);
    w.u64(epochs_seen_.size());
    for (std::uint32_t e : epochs_seen_) w.u32(e);
    w.u64(ingested_);
    w.u64(forwards_);
    w.u64(discarded_);
    w.u64(polls_issued_);
    w.u64(staleness_reports_);
    if (ctx_.timers->sim().encode_timer(w, epoch_timer_)) w.u32(epoch_pending_);
  }
  void restore_clone(BinaryReader& r);

 private:
  // The process hosting the active logic node, per our local view.
  std::optional<ProcessId> app_bearing() const;
  // The alive in-range sensor node closest to the chain head.
  std::optional<ProcessId> forwarder() const;
  void deliver_dedup(const devices::SensorEvent& e, const char* src);
  void note_epoch(const devices::SensorEvent& e);
  void schedule_epoch(std::uint32_t epoch);
  void on_epoch_boundary(std::uint32_t epoch);
  std::uint32_t current_epoch() const;

  StreamContext ctx_;
  std::uint32_t first_epoch_{0};
  std::size_t dedup_window_;
  std::set<EventId> recent_;
  std::deque<EventId> recent_order_;
  std::set<std::uint32_t> epochs_seen_;

  std::uint64_t ingested_{0};
  std::uint64_t forwards_{0};
  std::uint64_t discarded_{0};
  std::uint64_t polls_issued_{0};
  std::uint64_t staleness_reports_{0};

  sim::TimerId epoch_timer_{0};
  std::uint32_t epoch_pending_{0};
};

}  // namespace riv::core
