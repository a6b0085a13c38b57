// Per-application replicated event log (Gapless delivery state).
//
// Each process keeps, per Gapless stream, every event it has seen together
// with the protocol's S (seen) and V (must-see) sets, so that:
//   * dedup is exact (an event is delivered to the local logic node at
//     most once per process),
//   * a new ring successor can be synchronized Bayou-style by high-water
//     timestamp (§4.1), re-sending exactly the missing suffix,
//   * a newly promoted logic node can replay the backlog past the gossiped
//     processed watermark (§5, Fig 7's post-failover spike).
//
// The log lives in memory while its process is up. At the crash instant the
// process writes the log's durable form to its StableStore, and recovery
// reads it back and erases it, so the log's keys exist in the store only
// while the process is down (§3.1's crash-recovery model).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/pid_set.hpp"
#include "devices/event.hpp"
#include "sim/stable_store.hpp"

namespace riv::core {

struct StoredEvent {
  devices::SensorEvent event;
  PidSet seen;  // S
  PidSet need;  // V
};

class EventLog {
 public:
  // `store` may be null (volatile log — used by tests); `cap` bounds the
  // number of retained events per stream. The log touches `store` only in
  // persist_durable() and recover().
  EventLog(AppId app, sim::StableStore* store, std::size_t cap);

  bool seen(EventId id) const;

  // Insert if new; returns false (and leaves the log unchanged) for
  // duplicates.
  bool append(const devices::SensorEvent& e, PidSet s, PidSet v);

  // Merge updated S/V knowledge about an already-stored event.
  void merge_sets(EventId id, const PidSet& s, const PidSet& v);

  const StoredEvent* find(EventId id) const;

  // Largest emitted_at among stored events of `sensor` (zero when empty).
  TimePoint high_water(SensorId sensor) const;

  // Bayou-style sync mark: the timestamp of the last event in the
  // *contiguous* sequence prefix held for `sensor`. Crash-recovery can
  // punch holes in the middle of a log (events missed while down, newer
  // events ingested right after recovery); reporting the prefix mark makes
  // the predecessor re-send everything from the first hole onward, so
  // anti-entropy actually fills holes rather than hiding them behind a
  // fresh maximum timestamp.
  TimePoint prefix_high_water(SensorId sensor) const;

  // Events of `sensor` with emitted_at strictly greater than `after`, in
  // emission order.
  std::vector<const StoredEvent*> events_after(SensorId sensor,
                                               TimePoint after) const;

  // --- processed watermark (gossiped via keep-alives) -----------------
  TimePoint processed_watermark(SensorId sensor) const;
  void advance_processed_watermark(SensorId sensor, TimePoint t);

  std::size_t size(SensorId sensor) const;
  std::vector<SensorId> sensors() const;

  // --- crash recovery (DESIGN.md §4.3) --------------------------------
  // Write the durable form to the store: the crash point. That form is
  // each event in devices::encode form (narrow values quantized, chain and
  // mac dropped) with its S/V sets, each stream's eviction floor if it
  // evicted, and each processed watermark above zero.
  void persist_durable() const;
  // Rebuild in-memory state from the durable form, then erase it from the
  // store.
  void recover();
  // Is `key` one of the store keys persist_durable() writes, for any app?
  static bool is_durable_key(std::string_view key);

  // --- state capture (DESIGN.md §13) ---------------------------------
  // The full log — per-stream retention bounds, every stored event with
  // every in-memory field (payload size and integrity trailer included,
  // so re-sends from a restored log are byte-for-byte what the source
  // would have sent) and its S/V sets, and the processed watermarks. All
  // containers here are ordered, so this is a pure function of log
  // content. No timers here.
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  // One per-sensor stream plus the bookkeeping that keeps the sync-path
  // queries (prefix_high_water, events_after) off O(n) scans: syncs run
  // every anti-entropy period on every process, so they sit on the
  // simulation hot path (DESIGN.md §9).
  struct Stream {
    // Ordered by sequence number (== emission order per sensor).
    std::map<std::uint32_t, StoredEvent> events;
    // Lowest sequence this log is still expected to hold (raised only by
    // capacity eviction). The contiguous prefix is measured from here, so
    // a node that missed a stream's beginning reports prefix 0 and gets
    // the full history re-sent, instead of hiding the gap.
    std::uint32_t first_retained{1};
    // One past the contiguous run [first_retained, prefix_next): every
    // sequence in that range is present. Maintained incrementally on
    // append/evict so prefix_high_water() is a lookup, not a walk.
    std::uint32_t prefix_next{1};
    // emitted_at is nondecreasing in seq for real sensors (both advance
    // together at emission; anti-entropy re-sends carry the original
    // stamps). The fast paths rely on this; a fabricated out-of-order
    // append flips the flag and queries fall back to full scans.
    bool monotone{true};
  };

  std::string event_key(EventId id) const;
  std::string hw_key(SensorId sensor) const;
  std::string retained_key(SensorId sensor) const;
  void evict(Stream& stream);
  // Advance prefix_next over whatever contiguous run is now present.
  static void advance_prefix(Stream& stream);

  AppId app_;
  sim::StableStore* store_;
  std::size_t cap_;
  std::map<SensorId, Stream> streams_;
  std::map<SensorId, TimePoint> processed_hw_;
};

}  // namespace riv::core
