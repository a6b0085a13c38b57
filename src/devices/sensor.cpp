#include "devices/sensor.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "trace/trace.hpp"

namespace riv::devices {

const char* to_string(SensorKind kind) {
  switch (kind) {
    case SensorKind::kTemperature: return "temperature";
    case SensorKind::kHumidity: return "humidity";
    case SensorKind::kLuminance: return "luminance";
    case SensorKind::kUv: return "uv";
    case SensorKind::kMotion: return "motion";
    case SensorKind::kDoor: return "door";
    case SensorKind::kMoisture: return "moisture";
    case SensorKind::kSmoke: return "smoke";
    case SensorKind::kCo2: return "co2";
    case SensorKind::kEnergy: return "energy";
    case SensorKind::kVibration: return "vibration";
    case SensorKind::kCamera: return "camera";
    case SensorKind::kMicrophone: return "microphone";
    case SensorKind::kWearable: return "wearable";
  }
  return "unknown";
}

bool is_binary_kind(SensorKind kind) {
  switch (kind) {
    case SensorKind::kMotion:
    case SensorKind::kDoor:
    case SensorKind::kMoisture:
    case SensorKind::kSmoke:
    case SensorKind::kVibration:
    case SensorKind::kWearable:
      return true;
    default:
      return false;
  }
}

Sensor::Sensor(sim::Simulation& sim, SensorSpec spec, Rng rng)
    : sim_(&sim), spec_(std::move(spec)), rng_(rng), timers_(sim) {}

void Sensor::add_link(ProcessId process, LinkParams params) {
  links_[process] = Link{params};
}

void Sensor::remove_link(ProcessId process) { links_.erase(process); }

void Sensor::set_link_loss(ProcessId process, double loss_prob) {
  auto it = links_.find(process);
  RIV_ASSERT(it != links_.end(), "no such link");
  it->second.params.loss_prob = loss_prob;
}

double Sensor::link_loss(ProcessId process) const {
  auto it = links_.find(process);
  RIV_ASSERT(it != links_.end(), "no such link");
  return it->second.params.loss_prob;
}

std::vector<ProcessId> Sensor::linked_processes() const {
  std::vector<ProcessId> out;
  out.reserve(links_.size());
  for (const auto& [p, link] : links_) out.push_back(p);
  return out;
}

bool Sensor::linked_to(ProcessId process) const {
  return links_.count(process) != 0;
}

void Sensor::start() {
  if (!spec_.push || running_) return;
  running_ = true;
  schedule_next_emission();
}

void Sensor::stop() {
  running_ = false;
  timers_.cancel_all();
  in_flight_.clear();
}

void Sensor::crash() {
  crashed_ = true;
  busy_ = false;
  timers_.cancel_all();
  in_flight_.clear();
}

void Sensor::recover() {
  if (!crashed_) return;
  crashed_ = false;
  if (running_ && spec_.push) schedule_next_emission();
}

void Sensor::schedule_next_emission() {
  if (!running_ || crashed_ || !spec_.push) return;
  RIV_ASSERT(spec_.rate_hz > 0, "push sensor needs a positive rate");
  Duration gap{};
  const double mean_us = 1e6 / spec_.rate_hz;
  switch (spec_.pattern) {
    case EmitPattern::kPeriodic:
      gap = Duration{static_cast<std::int64_t>(mean_us)};
      break;
    case EmitPattern::kPoisson:
      gap = Duration{static_cast<std::int64_t>(rng_.exponential(mean_us))};
      break;
    case EmitPattern::kBurst:
      if (burst_remaining_ > 0) {
        --burst_remaining_;
        gap = milliseconds(30);  // back-to-back within a burst
      } else {
        burst_remaining_ = spec_.burst_size - 1;
        gap = Duration{static_cast<std::int64_t>(
            rng_.exponential(mean_us * spec_.burst_size))};
      }
      break;
  }
  emission_timer_ = timers_.schedule_after(gap, emission_tick());
}

sim::Simulation::Callback Sensor::emission_tick() {
  return [this] {
    emit(0, /*poll_based=*/false);
    schedule_next_emission();
  };
}

sim::Simulation::Callback Sensor::poll_response(ProcessId from,
                                                std::uint32_t epoch_tag) {
  return [this, from, epoch_tag] {
    busy_ = false;
    ++polls_served_;
    emit(epoch_tag, /*poll_based=*/true, from);
  };
}

sim::Simulation::Callback Sensor::delivery(std::uint32_t slot) {
  return [this, slot] {
    InFlight f = in_flight_.take(slot);
    if (deliver_) deliver_(f.process, f.event);
  };
}

void Sensor::emit_now() {
  RIV_ASSERT(spec_.push, "emit_now is for push sensors");
  if (!crashed_) emit(0, /*poll_based=*/false);
}

void Sensor::enable_integrity(std::uint64_t key) {
  integrity_ = true;
  integrity_key_ = key;
}

double Sensor::sample_value() {
  if (is_binary_kind(spec_.kind)) {
    // Alternate open/close, motion/clear — apps only care about edges.
    return static_cast<double>(next_seq_ % 2);
  }
  const double t = static_cast<double>(sim_->now().us);
  const double period = static_cast<double>(spec_.value_period.us);
  double v = spec_.value_base +
             spec_.value_amplitude * std::sin(2.0 * M_PI * t / period);
  v += rng_.uniform(-spec_.value_noise, spec_.value_noise);
  return v;
}

Duration Sensor::link_latency(const Link& link) {
  const TechProfile& prof = profile(spec_.tech);
  Duration base =
      link.params.latency.us > 0 ? link.params.latency : prof.link_latency;
  double jitter =
      link.params.jitter_frac >= 0 ? link.params.jitter_frac : prof.link_jitter;
  double us = static_cast<double>(base.us) * (1.0 + rng_.uniform(0.0, jitter));
  // Transmission time for the payload plus technology framing.
  us += static_cast<double>(spec_.payload_size + prof.frame_overhead) /
        prof.bandwidth_bytes_per_us;
  return Duration{static_cast<std::int64_t>(us)};
}

void Sensor::transmit(ProcessId process, const Link& link,
                      const SensorEvent& e) {
  const TechProfile& prof = profile(spec_.tech);
  double loss = std::max(link.params.loss_prob, prof.loss_floor);
  if (rng_.bernoulli(loss)) return;  // lost on the air
  Duration lat = link_latency(link);
  const std::uint32_t slot = in_flight_.put({process, e});
  in_flight_.bind(slot, timers_.schedule_after(lat, delivery(slot)));
}

void Sensor::emit(std::uint32_t epoch_tag, bool poll_based,
                  ProcessId poll_target) {
  SensorEvent e;
  e.id = EventId{spec_.id, next_seq_++};
  e.epoch = epoch_tag;
  e.emitted_at = sim_->now();
  e.poll_based = poll_based;
  e.value = sample_value();
  e.payload_size = spec_.payload_size;
  if (integrity_) {
    // Fold this emission into the per-origin hash chain; the digest
    // commits to the full (seq, epoch, value) history up to this event.
    chain_ = hash::fnv1a(chain_, &e.id.seq, sizeof e.id.seq);
    chain_ = hash::fnv1a(chain_, &e.epoch, sizeof e.epoch);
    chain_ = hash::fnv1a(chain_, &e.value, sizeof e.value);
    e.chain = chain_;
    e.mac = event_mac(integrity_key_, e);
    if (recent_.size() < kRecentWindow) {
      recent_.push_back(e);
    } else {
      recent_[recent_pos_] = e;
      recent_pos_ = (recent_pos_ + 1) % kRecentWindow;
    }
  }
  ++events_emitted_;
  if (trace::active(trace::Component::kDevice)) {
    if (integrity_) {
      trace::emit(sim_->now(), poll_based ? poll_target : ProcessId{0},
                  trace::Component::kDevice, trace::Kind::kEmit,
                  provenance_of(e.id), trace::fe(trace::Key::kEvent, e.id),
                  trace::fu(trace::Key::kEpoch, e.epoch),
                  trace::fu(trace::Key::kPoll, poll_based ? 1 : 0),
                  trace::fu(trace::Key::kChain, e.chain));
    } else {
      trace::emit(sim_->now(), poll_based ? poll_target : ProcessId{0},
                  trace::Component::kDevice, trace::Kind::kEmit,
                  provenance_of(e.id), trace::fe(trace::Key::kEvent, e.id),
                  trace::fu(trace::Key::kEpoch, e.epoch),
                  trace::fu(trace::Key::kPoll, poll_based ? 1 : 0));
    }
  }

  if (poll_based) {
    // A poll response travels only over the requesting process's link.
    auto it = links_.find(poll_target);
    if (it != links_.end()) transmit(poll_target, it->second, e);
    return;
  }
  const TechProfile& prof = profile(spec_.tech);
  if (prof.multicast) {
    for (const auto& [process, link] : links_) transmit(process, link, e);
  } else if (!links_.empty()) {
    // Non-multicast technology (BLE): only the bonded process — the first
    // attached link — receives emissions.
    const auto& [process, link] = *links_.begin();
    transmit(process, link, e);
  }
}

void Sensor::poll(ProcessId from, std::uint32_t epoch_tag) {
  if (crashed_) return;
  if (links_.find(from) == links_.end()) return;  // out of range
  ++polls_received_;
  if (busy_) {
    // §8.5: one outstanding request; the rest are dropped silently.
    ++polls_dropped_;
    return;
  }
  busy_ = true;
  double scale = 1.0 + rng_.uniform(-spec_.poll_jitter, spec_.poll_jitter);
  if (spec_.poll_tail_prob > 0.0 && rng_.bernoulli(spec_.poll_tail_prob))
    scale *= spec_.poll_tail_factor;  // stack-level retransmission
  auto latency = static_cast<std::int64_t>(
      static_cast<double>(spec_.poll_latency.us) * scale);
  poll_from_ = from;
  poll_epoch_ = epoch_tag;
  poll_timer_ =
      timers_.schedule_after(Duration{latency}, poll_response(from, epoch_tag));
}

void Sensor::clone_state(BinaryWriter& w) const {
  w.sensor_id(spec_.id);
  for (std::uint64_t word : rng_.state()) w.u64(word);
  w.u64(links_.size());
  for (const auto& [p, link] : links_) {
    w.process_id(p);
    w.f64(link.params.loss_prob);
    w.duration(link.params.latency);
    w.f64(link.params.jitter_frac);
  }
  w.u8(running_ ? 1 : 0);
  w.u8(crashed_ ? 1 : 0);
  w.u8(busy_ ? 1 : 0);
  w.u32(next_seq_);
  w.u32(static_cast<std::uint32_t>(burst_remaining_));
  w.u8(integrity_ ? 1 : 0);
  w.u64(integrity_key_);
  w.u64(chain_);
  w.u64(recent_.size());
  w.u64(recent_pos_);
  for (const SensorEvent& e : recent_) encode_clone(w, e);
  w.u64(events_emitted_);
  w.u64(polls_received_);
  w.u64(polls_dropped_);
  w.u64(polls_served_);

  sim_->encode_timer(w, emission_timer_);
  if (sim_->encode_timer(w, poll_timer_)) {
    w.process_id(poll_from_);
    w.u32(poll_epoch_);
  }
  const auto flights = in_flight_.by_timer();
  w.u64(flights.size());
  for (const auto* f : flights) {
    w.u64(f->timer);
    w.process_id(f->value.process);
    encode_clone(w, f->value.event);
  }
}

void Sensor::restore_clone(BinaryReader& r) {
  SensorId id = r.sensor_id();
  RIV_ASSERT(id == spec_.id, "clone restore: sensor identity mismatch");
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = r.u64();
  rng_.set_state(state);
  links_.clear();
  const std::uint64_t n_links = r.u64();
  for (std::uint64_t i = 0; i < n_links; ++i) {
    ProcessId p = r.process_id();
    LinkParams params;
    params.loss_prob = r.f64();
    params.latency = r.duration();
    params.jitter_frac = r.f64();
    links_[p] = Link{params};
  }
  running_ = r.u8() != 0;
  crashed_ = r.u8() != 0;
  busy_ = r.u8() != 0;
  next_seq_ = r.u32();
  burst_remaining_ = static_cast<int>(r.u32());
  integrity_ = r.u8() != 0;
  integrity_key_ = r.u64();
  chain_ = r.u64();
  const std::uint64_t n_recent = r.u64();
  recent_pos_ = r.u64();
  recent_.clear();
  recent_.reserve(n_recent);
  for (std::uint64_t i = 0; i < n_recent; ++i)
    recent_.push_back(decode_clone_event(r));
  events_emitted_ = r.u64();
  polls_received_ = r.u64();
  polls_dropped_ = r.u64();
  polls_served_ = r.u64();

  if (sim::TimerId id = sim::Simulation::decode_timer(r))
    emission_timer_ = timers_.restore_at(id, emission_tick());
  if (sim::TimerId id = sim::Simulation::decode_timer(r)) {
    poll_from_ = r.process_id();
    poll_epoch_ = r.u32();
    poll_timer_ =
        timers_.restore_at(id, poll_response(poll_from_, poll_epoch_));
  }
  const std::uint64_t n_flight = r.u64();
  for (std::uint64_t i = 0; i < n_flight; ++i) {
    sim::TimerId id = r.u64();
    InFlight f;
    f.process = r.process_id();
    f.event = decode_clone_event(r);
    const std::uint32_t slot = in_flight_.put(std::move(f));
    in_flight_.bind(slot, timers_.restore_at(id, delivery(slot)));
  }
}

}  // namespace riv::devices
