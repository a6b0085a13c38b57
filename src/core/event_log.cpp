#include "core/event_log.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/codec.hpp"

namespace riv::core {
namespace {

void write_pid_set(BinaryWriter& w, const PidSet& s) {
  w.u8(static_cast<std::uint8_t>(s.size()));
  for (ProcessId p : s) w.process_id(p);
}

PidSet read_pid_set(BinaryReader& r) {
  PidSet out;
  std::uint8_t n = r.u8();
  out.reserve(n);
  // Encoded sets are already ascending, so each insert is an append.
  for (std::uint8_t i = 0; i < n; ++i) out.insert(r.process_id());
  return out;
}

}  // namespace

EventLog::EventLog(AppId app, sim::StableStore* store, std::size_t cap)
    : app_(app), store_(store), cap_(cap) {}

std::string EventLog::event_key(EventId id) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "app%u/ev/%u/%010u", app_.value,
                id.sensor.value, id.seq);
  return buf;
}

std::string EventLog::hw_key(SensorId sensor) const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "app%u/hw/%u", app_.value, sensor.value);
  return buf;
}

bool EventLog::seen(EventId id) const {
  auto sit = streams_.find(id.sensor);
  if (sit == streams_.end()) return false;
  const Stream& stream = sit->second;
  // Everything inside the contiguous prefix is present by construction;
  // dedup checks (every ring/RB/device delivery) usually land here and
  // skip the tree walk entirely.
  if (id.seq >= stream.first_retained && id.seq < stream.prefix_next)
    return true;
  return stream.events.count(id.seq) != 0;
}

void EventLog::advance_prefix(Stream& stream) {
  auto it = stream.events.lower_bound(stream.prefix_next);
  while (it != stream.events.end() && it->first == stream.prefix_next) {
    ++stream.prefix_next;
    ++it;
  }
}

bool EventLog::append(const devices::SensorEvent& e, PidSet s, PidSet v) {
  Stream& stream = streams_[e.id.sensor];
  auto [it, inserted] = stream.events.emplace(
      e.id.seq, StoredEvent{e, std::move(s), std::move(v)});
  if (!inserted) return false;
  if (stream.monotone) {
    // Out-of-order timestamps (only possible with fabricated events) void
    // the fast-path ordering assumption for this stream.
    if (it != stream.events.begin() &&
        std::prev(it)->second.event.emitted_at > e.emitted_at)
      stream.monotone = false;
    auto nx = std::next(it);
    if (nx != stream.events.end() &&
        e.emitted_at > nx->second.event.emitted_at)
      stream.monotone = false;
  }
  if (e.id.seq == stream.prefix_next) advance_prefix(stream);
  persist(it->second);
  evict(e.id.sensor, stream);
  return true;
}

void EventLog::merge_sets(EventId id, const PidSet& s, const PidSet& v) {
  auto sit = streams_.find(id.sensor);
  if (sit == streams_.end()) return;
  auto it = sit->second.events.find(id.seq);
  if (it == sit->second.events.end()) return;
  StoredEvent& se = it->second;
  // Re-persist only when the merge actually added knowledge; rewriting an
  // identical record (the common duplicate-ring-message case) is a no-op
  // for recovery and pure overhead.
  std::size_t before = se.seen.size() + se.need.size();
  se.seen.insert(s.begin(), s.end());
  se.need.insert(v.begin(), v.end());
  if (se.seen.size() + se.need.size() != before) persist(se);
}

const StoredEvent* EventLog::find(EventId id) const {
  auto sit = streams_.find(id.sensor);
  if (sit == streams_.end()) return nullptr;
  auto it = sit->second.events.find(id.seq);
  return it == sit->second.events.end() ? nullptr : &it->second;
}

TimePoint EventLog::high_water(SensorId sensor) const {
  TimePoint hw{};
  auto sit = streams_.find(sensor);
  if (sit == streams_.end() || sit->second.events.empty()) return hw;
  // Timestamps track sequence order, so the max lives at the tail.
  if (sit->second.monotone)
    return sit->second.events.rbegin()->second.event.emitted_at;
  for (const auto& [seq, se] : sit->second.events)
    hw = std::max(hw, se.event.emitted_at);
  return hw;
}

TimePoint EventLog::prefix_high_water(SensorId sensor) const {
  auto sit = streams_.find(sensor);
  if (sit == streams_.end() || sit->second.events.empty()) return TimePoint{};
  const Stream& stream = sit->second;
  if (stream.monotone) {
    // The prefix counts only when the head of the stream is exactly
    // first_retained (a stray re-ingested pre-eviction entry below it
    // voids the prefix, same as a hole). [first_retained, prefix_next)
    // is the contiguous run; its max timestamp is at its tail.
    if (stream.events.begin()->first != stream.first_retained)
      return TimePoint{};
    return stream.events.find(stream.prefix_next - 1)
        ->second.event.emitted_at;
  }
  TimePoint hw{};
  // The prefix must start at the first sequence number this log is still
  // responsible for; a missing head is a hole like any other.
  std::uint32_t expected = stream.first_retained;
  for (const auto& [seq, se] : stream.events) {
    if (seq != expected) break;  // first hole
    hw = std::max(hw, se.event.emitted_at);
    ++expected;
  }
  return hw;
}

std::vector<const StoredEvent*> EventLog::events_after(SensorId sensor,
                                                       TimePoint after) const {
  std::vector<const StoredEvent*> out;
  auto sit = streams_.find(sensor);
  if (sit == streams_.end()) return out;
  const Stream& stream = sit->second;
  if (stream.monotone) {
    // Matching events form a suffix in sequence order, which is already
    // (emitted_at, seq)-sorted: walk back to the boundary, then emit
    // forward. O(matches) instead of a full scan plus sort.
    auto it = stream.events.end();
    while (it != stream.events.begin() &&
           std::prev(it)->second.event.emitted_at > after)
      --it;
    for (; it != stream.events.end(); ++it) out.push_back(&it->second);
    return out;
  }
  for (const auto& [seq, se] : stream.events) {
    if (se.event.emitted_at > after) out.push_back(&se);
  }
  std::sort(out.begin(), out.end(), [](const StoredEvent* a,
                                       const StoredEvent* b) {
    if (a->event.emitted_at != b->event.emitted_at)
      return a->event.emitted_at < b->event.emitted_at;
    return a->event.id.seq < b->event.id.seq;
  });
  return out;
}

TimePoint EventLog::processed_watermark(SensorId sensor) const {
  auto it = processed_hw_.find(sensor);
  return it == processed_hw_.end() ? TimePoint{} : it->second;
}

void EventLog::advance_processed_watermark(SensorId sensor, TimePoint t) {
  TimePoint& hw = processed_hw_[sensor];
  if (t <= hw) return;
  hw = t;
  if (store_ != nullptr) {
    BinaryWriter w;
    w.time_point(t);
    store_->put(hw_key(sensor), w.take());
  }
}

std::size_t EventLog::size(SensorId sensor) const {
  auto sit = streams_.find(sensor);
  return sit == streams_.end() ? 0 : sit->second.events.size();
}

std::vector<SensorId> EventLog::sensors() const {
  std::vector<SensorId> out;
  out.reserve(streams_.size());
  for (const auto& [sensor, stream] : streams_) {
    // A recovered first-retained marker without surviving events is
    // bookkeeping only, not a stream.
    if (!stream.events.empty()) out.push_back(sensor);
  }
  return out;
}

void EventLog::persist(const StoredEvent& se) {
  if (store_ == nullptr) return;
  BinaryWriter w;
  w.reserve(se.event.wire_size() + 2 +
            2 * (se.seen.size() + se.need.size()));
  devices::encode(w, se.event);
  write_pid_set(w, se.seen);
  write_pid_set(w, se.need);
  store_->put(event_key(se.event.id), w.take());
}

std::string EventLog::retained_key(SensorId sensor) const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "app%u/fr/%u", app_.value, sensor.value);
  return buf;
}

void EventLog::evict(SensorId sensor, Stream& stream) {
  bool evicted = false;
  while (stream.events.size() > cap_) {
    std::uint32_t seq = stream.events.begin()->first;
    if (store_ != nullptr)
      store_->erase(event_key(stream.events.begin()->second.event.id));
    stream.events.erase(stream.events.begin());
    stream.first_retained = std::max(stream.first_retained, seq + 1);
    evicted = true;
  }
  if (stream.prefix_next < stream.first_retained) {
    // Eviction jumped first_retained over the old prefix (the evicted
    // head sat above it); restart the run at the new floor.
    stream.prefix_next = stream.first_retained;
    advance_prefix(stream);
  }
  if (evicted && store_ != nullptr) {
    BinaryWriter w;
    w.u32(stream.first_retained);
    store_->put(retained_key(sensor), w.take());
  }
}

void EventLog::recover() {
  if (store_ == nullptr) return;
  streams_.clear();
  processed_hw_.clear();
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "app%u/ev/", app_.value);
  for (const std::string& key : store_->keys_with_prefix(prefix)) {
    auto raw = store_->get(key);
    RIV_ASSERT(raw.has_value(), "key listed but missing");
    BinaryReader r(*raw);
    StoredEvent se;
    se.event = devices::decode_event(r);
    se.seen = read_pid_set(r);
    se.need = read_pid_set(r);
    RIV_ASSERT(r.ok(), "corrupt stored event");
    streams_[se.event.id.sensor].events.emplace(se.event.id.seq,
                                                std::move(se));
  }
  std::snprintf(prefix, sizeof(prefix), "app%u/hw/", app_.value);
  for (const std::string& key : store_->keys_with_prefix(prefix)) {
    auto raw = store_->get(key);
    BinaryReader r(*raw);
    SensorId sensor{
        static_cast<std::uint16_t>(std::stoul(key.substr(key.rfind('/') + 1)))};
    processed_hw_[sensor] = r.time_point();
  }
  std::snprintf(prefix, sizeof(prefix), "app%u/fr/", app_.value);
  for (const std::string& key : store_->keys_with_prefix(prefix)) {
    auto raw = store_->get(key);
    BinaryReader r(*raw);
    SensorId sensor{
        static_cast<std::uint16_t>(std::stoul(key.substr(key.rfind('/') + 1)))};
    streams_[sensor].first_retained = r.u32();
  }
  // Rebuild the derived per-stream bookkeeping the fast paths rely on.
  for (auto& [sensor, stream] : streams_) {
    stream.prefix_next = stream.first_retained;
    advance_prefix(stream);
    TimePoint last{};
    for (const auto& [seq, se] : stream.events) {
      if (se.event.emitted_at < last) {
        stream.monotone = false;
        break;
      }
      last = se.event.emitted_at;
    }
  }
}

void EventLog::clone_state(BinaryWriter& w) const {
  w.app_id(app_);
  w.u64(streams_.size());
  for (const auto& [sensor, stream] : streams_) {
    w.sensor_id(sensor);
    w.u32(stream.first_retained);
    w.u32(stream.prefix_next);
    w.u8(stream.monotone ? 1 : 0);
    w.u64(stream.events.size());
    for (const auto& [seq, se] : stream.events) {
      w.u32(seq);
      w.u32(se.event.epoch);
      w.time_point(se.event.emitted_at);
      w.u8(se.event.poll_based ? 1 : 0);
      w.f64(se.event.value);
      w.u32(se.event.payload_size);
      w.u64(se.event.chain);
      w.u64(se.event.mac);
      write_pid_set(w, se.seen);
      write_pid_set(w, se.need);
    }
  }
  w.u64(processed_hw_.size());
  for (const auto& [sensor, t] : processed_hw_) {
    w.sensor_id(sensor);
    w.time_point(t);
  }
}

void EventLog::restore_clone(BinaryReader& r) {
  AppId app = r.app_id();
  RIV_ASSERT(app == app_, "clone restore: event log app identity mismatch");
  streams_.clear();
  const std::uint64_t n_streams = r.u64();
  for (std::uint64_t i = 0; i < n_streams; ++i) {
    SensorId sensor = r.sensor_id();
    Stream& stream = streams_[sensor];
    stream.first_retained = r.u32();
    stream.prefix_next = r.u32();
    stream.monotone = r.u8() != 0;
    const std::uint64_t n_events = r.u64();
    for (std::uint64_t j = 0; j < n_events; ++j) {
      std::uint32_t seq = r.u32();
      StoredEvent se;
      se.event.id = EventId{sensor, seq};
      se.event.epoch = r.u32();
      se.event.emitted_at = r.time_point();
      se.event.poll_based = r.u8() != 0;
      se.event.value = r.f64();
      se.event.payload_size = r.u32();
      se.event.chain = r.u64();
      se.event.mac = r.u64();
      se.seen = read_pid_set(r);
      se.need = read_pid_set(r);
      stream.events.emplace_hint(stream.events.end(), seq, std::move(se));
    }
  }
  processed_hw_.clear();
  const std::uint64_t n_hw = r.u64();
  for (std::uint64_t i = 0; i < n_hw; ++i) {
    SensorId sensor = r.sensor_id();
    processed_hw_[sensor] = r.time_point();
  }
}

}  // namespace riv::core
