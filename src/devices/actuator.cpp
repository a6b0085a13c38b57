#include "devices/actuator.hpp"

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace riv::devices {

Actuator::Actuator(sim::Simulation& sim, ActuatorSpec spec, Rng rng)
    : sim_(&sim),
      spec_(std::move(spec)),
      rng_(rng),
      timers_(sim),
      state_(spec_.initial_state) {}

void Actuator::add_link(ProcessId process, double loss_prob) {
  links_[process] = loss_prob;
}

bool Actuator::linked_to(ProcessId process) const {
  return links_.count(process) != 0;
}

std::vector<ProcessId> Actuator::linked_processes() const {
  std::vector<ProcessId> out;
  out.reserve(links_.size());
  for (const auto& [p, loss] : links_) out.push_back(p);
  return out;
}

void Actuator::crash() {
  crashed_ = true;
  timers_.cancel_all();
  in_flight_.clear();
}

void Actuator::submit(ProcessId from, const Command& cmd) {
  auto it = links_.find(from);
  if (it == links_.end()) return;  // out of range
  if (rng_.bernoulli(it->second)) return;  // lost on the device link
  const TechProfile& prof = profile(spec_.tech);
  Duration delay = prof.link_latency + spec_.actuate_latency;
  const std::uint32_t slot = in_flight_.put(cmd);
  in_flight_.bind(slot, timers_.schedule_after(delay, delivery(slot)));
}

sim::Simulation::Callback Actuator::delivery(std::uint32_t slot) {
  return [this, slot] {
    Command cmd = in_flight_.take(slot);
    if (!crashed_) apply(cmd);
  };
}

void Actuator::apply(const Command& cmd) {
  bool duplicate = !seen_.insert(cmd.id).second;
  if (duplicate) ++duplicate_deliveries_;

  bool accepted = true;
  if (cmd.test_and_set) {
    RIV_ASSERT(spec_.supports_test_and_set,
               "Test&Set command sent to a device without support");
    accepted = state_ == cmd.expected;
    if (!accepted) ++rejected_tas_;
  }
  if (accepted) {
    state_ = cmd.value;
    ++actions_;
    // A duplicate delivery that is accepted and the device is not
    // idempotent: a real-world double dispense / double brew.
    if (duplicate && !spec_.idempotent) ++unwarranted_actions_;
  }
  if (trace::active(trace::Component::kDevice)) {
    trace::emit(sim_->now(), ProcessId{0}, trace::Component::kDevice,
                trace::Kind::kActuated, cmd.cause,
                trace::fc(trace::Key::kCmd, cmd.id),
                trace::fa(trace::Key::kActuator, cmd.actuator),
                trace::fu(trace::Key::kAccepted, accepted ? 1 : 0),
                trace::fu(trace::Key::kDup, duplicate ? 1 : 0));
  }
  history_.push_back(
      Applied{cmd.id, cmd.value, sim_->now(), accepted, cmd.cause});
}

void Actuator::clone_state(BinaryWriter& w) const {
  w.actuator_id(spec_.id);
  for (std::uint64_t word : rng_.state()) w.u64(word);
  w.u64(links_.size());
  for (const auto& [p, loss] : links_) {
    w.process_id(p);
    w.f64(loss);
  }
  w.u8(crashed_ ? 1 : 0);
  w.f64(state_);
  w.u64(seen_.size());
  for (CommandId id : seen_) w.command_id(id);
  w.u64(history_.size());
  for (const Applied& a : history_) {
    w.command_id(a.id);
    w.f64(a.value);
    w.time_point(a.at);
    w.u8(a.accepted ? 1 : 0);
    w.provenance_id(a.cause);
  }
  w.u64(actions_);
  w.u64(duplicate_deliveries_);
  w.u64(unwarranted_actions_);
  w.u64(rejected_tas_);

  const auto flights = in_flight_.by_timer();
  w.u64(flights.size());
  for (const auto* f : flights) {
    w.u64(f->timer);
    encode(w, f->value);
  }
}

void Actuator::restore_clone(BinaryReader& r) {
  ActuatorId id = r.actuator_id();
  RIV_ASSERT(id == spec_.id, "clone restore: actuator identity mismatch");
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = r.u64();
  rng_.set_state(state);
  links_.clear();
  const std::uint64_t n_links = r.u64();
  for (std::uint64_t i = 0; i < n_links; ++i) {
    ProcessId p = r.process_id();
    links_[p] = r.f64();
  }
  crashed_ = r.u8() != 0;
  state_ = r.f64();
  seen_.clear();
  const std::uint64_t n_seen = r.u64();
  for (std::uint64_t i = 0; i < n_seen; ++i) seen_.insert(r.command_id());
  history_.clear();
  const std::uint64_t n_hist = r.u64();
  history_.reserve(n_hist);
  for (std::uint64_t i = 0; i < n_hist; ++i) {
    Applied a;
    a.id = r.command_id();
    a.value = r.f64();
    a.at = r.time_point();
    a.accepted = r.u8() != 0;
    a.cause = r.provenance_id();
    history_.push_back(a);
  }
  actions_ = r.u64();
  duplicate_deliveries_ = r.u64();
  unwarranted_actions_ = r.u64();
  rejected_tas_ = r.u64();

  const std::uint64_t n_flight = r.u64();
  for (std::uint64_t i = 0; i < n_flight; ++i) {
    sim::TimerId id = r.u64();
    const std::uint32_t slot = in_flight_.put(decode_command(r));
    in_flight_.bind(slot, timers_.restore_at(id, delivery(slot)));
  }
}

}  // namespace riv::devices
