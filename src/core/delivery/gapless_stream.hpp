// Gapless delivery (§4.1): ring protocol with reliable-broadcast fallback
// and coordinated polling.
//
// Invariant provided (post-ingest): any event received from the sensor by
// at least one correct process is eventually replicated at every available
// process, and hence delivered to the active logic node wherever it ends
// up after failures.
//
// Protocol summary, exactly as in the paper:
//   * ingest: first receipt of event e at p_i sends (e : {p_i} : v_i) to
//     p_i's ring successor per its local view, and delivers e locally;
//   * forward: an unseen (e:S:V) is re-sent to the successor as
//     (e : S ∪ {p_i} : V ∪ v_i);
//   * a *seen* (e:S:V) with S ≠ V and p_i ∈ S means the ring stalled after
//     p_i already forwarded it — p_i falls back to reliable broadcast;
//   * on gaining a new ring successor, p_i synchronizes it Bayou-style
//     (handled app-wide by the runtime via the event log's high-water
//     marks; the stream re-sends the missing suffix).
//
// Coordinated polling: the active sensor nodes in the local view pick
// disjoint slots i*e/n inside each epoch of length e without communicating
// (§4.1); a node skips its slot when an event for the epoch was already
// seen (own poll or ring forward).
#pragma once

#include <cstdint>
#include <optional>
#include <set>

#include "core/delivery/stream_context.hpp"
#include "core/wire.hpp"

namespace riv::core {

class GaplessStream {
 public:
  explicit GaplessStream(StreamContext ctx);

  // Arm epoch timers for poll-based sensors; no-op for push sensors.
  void start();

  // An event arrived over the device link (push emission or poll reply).
  void on_device_event(const devices::SensorEvent& e);

  // Ring / reliable-broadcast messages routed here by the runtime.
  void on_ring(ProcessId from, const wire::RingPayload& p);
  void on_rb(ProcessId from, const wire::EventPayload& p);

  // The runtime resolved a sync response from the new successor: re-send
  // every stored event newer than the successor's high-water mark.
  void sync_successor(ProcessId successor, TimePoint their_high_water);

  // Statistics.
  std::uint64_t ingested() const { return ingested_; }
  std::uint64_t ring_forwards() const { return ring_forwards_; }
  std::uint64_t rb_initiated() const { return rb_initiated_; }
  std::uint64_t polls_issued() const { return polls_issued_; }
  std::uint64_t staleness_reports() const { return staleness_reports_; }

  // --- state capture (DESIGN.md §13) ---------------------------------
  // Epoch tracking, broadcast dedup, counters, and the epoch-boundary and
  // poll-slot timers (poll streams only; push streams hold no timers).
  // Event content lives in the EventLog.
  void clone_state(BinaryWriter& w) const {
    w.u32(first_epoch_);
    w.u64(epochs_seen_.size());
    for (std::uint32_t e : epochs_seen_) w.u32(e);
    w.u64(rb_done_.size());
    for (EventId id : rb_done_) w.event_id(id);
    w.u64(ingested_);
    w.u64(ring_forwards_);
    w.u64(rb_initiated_);
    w.u64(polls_issued_);
    w.u64(staleness_reports_);
    const sim::Simulation& sim = ctx_.timers->sim();
    if (sim.encode_timer(w, epoch_timer_)) w.u32(epoch_pending_);
    if (sim.encode_timer(w, slot_timer_)) w.u32(slot_epoch_);
  }
  void restore_clone(BinaryReader& r);

 private:
  std::optional<ProcessId> ring_successor() const;
  void accept_new_event(const devices::SensorEvent& e, PidSet seen,
                        PidSet need, const char* src);
  void forward_to_successor(const devices::SensorEvent& e,
                            const PidSet& seen, const PidSet& need);
  void initiate_reliable_broadcast(EventId id);
  void reflood(ProcessId origin, const wire::EventPayload& p);
  void note_epoch(const devices::SensorEvent& e);
  bool epoch_seen(std::uint32_t epoch) const;
  void schedule_epoch(std::uint32_t epoch);
  void on_epoch_boundary(std::uint32_t epoch);
  void on_poll_slot(std::uint32_t epoch);
  std::uint32_t current_epoch() const;

  StreamContext ctx_;
  std::uint32_t first_epoch_{0};
  std::set<std::uint32_t> epochs_seen_;
  std::set<EventId> rb_done_;  // events already broadcast/re-flooded here

  std::uint64_t ingested_{0};
  std::uint64_t ring_forwards_{0};
  std::uint64_t rb_initiated_{0};
  std::uint64_t polls_issued_{0};
  std::uint64_t staleness_reports_{0};

  sim::TimerId epoch_timer_{0};
  std::uint32_t epoch_pending_{0};  // epoch the boundary timer will open
  sim::TimerId slot_timer_{0};
  std::uint32_t slot_epoch_{0};
};

}  // namespace riv::core
