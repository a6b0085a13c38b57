#include "devices/home_bus.hpp"

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace riv::devices {

HomeBus::HomeBus(sim::Simulation& sim) : sim_(&sim) {}

Sensor& HomeBus::add_sensor(const SensorSpec& spec) {
  RIV_ASSERT(sensors_.count(spec.id) == 0, "duplicate sensor id");
  auto sensor = std::make_unique<Sensor>(*sim_, spec,
                                         sim_->rng().fork(spec.id.value));
  sensor->set_delivery([this](ProcessId p, const SensorEvent& e) {
    dispatch(p, e);
  });
  Sensor& ref = *sensor;
  sensors_.emplace(spec.id, std::move(sensor));
  return ref;
}

Actuator& HomeBus::add_actuator(const ActuatorSpec& spec) {
  RIV_ASSERT(actuators_.count(spec.id) == 0, "duplicate actuator id");
  auto act = std::make_unique<Actuator>(
      *sim_, spec, sim_->rng().fork(0x4000u + spec.id.value));
  Actuator& ref = *act;
  actuators_.emplace(spec.id, std::move(act));
  return ref;
}

void HomeBus::add_adapter(ProcessId process, Technology tech) {
  adapters_.emplace(std::make_pair(process, tech), Adapter(tech));
}

bool HomeBus::has_adapter(ProcessId process, Technology tech) const {
  return adapters_.count({process, tech}) != 0;
}

Adapter& HomeBus::adapter(ProcessId process, Technology tech) {
  auto it = adapters_.find({process, tech});
  RIV_ASSERT(it != adapters_.end(), "no such adapter");
  return it->second;
}

void HomeBus::link_sensor(SensorId sensor_id, ProcessId process,
                          LinkParams params) {
  Sensor& s = sensor(sensor_id);
  RIV_ASSERT(has_adapter(process, s.spec().tech),
             "process lacks the adapter for this sensor's technology");
  s.add_link(process, params);
}

void HomeBus::link_actuator(ActuatorId actuator_id, ProcessId process,
                            double loss_prob) {
  Actuator& a = actuator(actuator_id);
  RIV_ASSERT(has_adapter(process, a.spec().tech),
             "process lacks the adapter for this actuator's technology");
  a.add_link(process, loss_prob);
}

void HomeBus::subscribe(ProcessId process, EventHandler handler) {
  handlers_[process] = std::move(handler);
}

void HomeBus::unsubscribe(ProcessId process) { handlers_.erase(process); }

bool HomeBus::sensor_in_range(ProcessId process, SensorId sensor_id) const {
  auto it = sensors_.find(sensor_id);
  return it != sensors_.end() && it->second->linked_to(process);
}

bool HomeBus::actuator_in_range(ProcessId process,
                                ActuatorId actuator_id) const {
  auto it = actuators_.find(actuator_id);
  return it != actuators_.end() && it->second->linked_to(process);
}

std::vector<ProcessId> HomeBus::processes_in_range(SensorId sensor_id) const {
  auto it = sensors_.find(sensor_id);
  RIV_ASSERT(it != sensors_.end(), "unknown sensor");
  return it->second->linked_processes();
}

std::vector<ProcessId> HomeBus::processes_in_range(
    ActuatorId actuator_id) const {
  auto it = actuators_.find(actuator_id);
  RIV_ASSERT(it != actuators_.end(), "unknown actuator");
  return it->second->linked_processes();
}

void HomeBus::poll(ProcessId from, SensorId sensor_id,
                   std::uint32_t epoch_tag) {
  Sensor& s = sensor(sensor_id);
  auto it = adapters_.find({from, s.spec().tech});
  if (it != adapters_.end()) it->second.count_tx_frame();
  s.poll(from, epoch_tag);
}

void HomeBus::inject_event(ProcessId process, const SensorEvent& e) {
  dispatch(process, e);
}

void HomeBus::actuate(ProcessId from, const Command& cmd) {
  Actuator& a = actuator(cmd.actuator);
  auto it = adapters_.find({from, a.spec().tech});
  if (it != adapters_.end()) it->second.count_tx_frame();
  a.submit(from, cmd);
}

Sensor& HomeBus::sensor(SensorId id) {
  auto it = sensors_.find(id);
  RIV_ASSERT(it != sensors_.end(), "unknown sensor");
  return *it->second;
}

const Sensor& HomeBus::sensor(SensorId id) const {
  auto it = sensors_.find(id);
  RIV_ASSERT(it != sensors_.end(), "unknown sensor");
  return *it->second;
}

Actuator& HomeBus::actuator(ActuatorId id) {
  auto it = actuators_.find(id);
  RIV_ASSERT(it != actuators_.end(), "unknown actuator");
  return *it->second;
}

const Actuator& HomeBus::actuator(ActuatorId id) const {
  auto it = actuators_.find(id);
  RIV_ASSERT(it != actuators_.end(), "unknown actuator");
  return *it->second;
}

std::vector<SensorId> HomeBus::sensors() const {
  std::vector<SensorId> out;
  out.reserve(sensors_.size());
  for (const auto& [id, s] : sensors_) out.push_back(id);
  return out;
}

std::vector<ActuatorId> HomeBus::actuators() const {
  std::vector<ActuatorId> out;
  out.reserve(actuators_.size());
  for (const auto& [id, a] : actuators_) out.push_back(id);
  return out;
}

void HomeBus::start_all() {
  for (auto& [id, s] : sensors_) s->start();
}

void HomeBus::dispatch(ProcessId process, const SensorEvent& e) {
  auto ait = adapters_.find({process, sensor(e.id.sensor).spec().tech});
  if (ait != adapters_.end()) ait->second.count_rx_frame();
  auto it = handlers_.find(process);
  bool up = it != handlers_.end() && it->second;
  if (trace::active(trace::Component::kDevice)) {
    trace::emit(sim_->now(), process, trace::Component::kDevice,
                trace::Kind::kAdapterRx, provenance_of(e.id),
                trace::fe(trace::Key::kEvent, e.id),
                trace::fu(trace::Key::kUp, up ? 1 : 0));
  }
  if (up) it->second(e);
}

void HomeBus::perturb(std::uint64_t salt) {
  sim_->rng() = sim_->rng().fork(salt);
  std::uint64_t i = 1;
  for (auto& [id, sensor] : sensors_) sensor->perturb(salt ^ (i++ << 32));
}

std::vector<ProcessId> HomeBus::subscribers() const {
  std::vector<ProcessId> out;
  out.reserve(handlers_.size());
  for (const auto& [p, handler] : handlers_) out.push_back(p);
  return out;
}

void HomeBus::clone_state(BinaryWriter& w) const {
  w.u64(sensors_.size());
  for (const auto& [id, sensor] : sensors_) sensor->clone_state(w);
  w.u64(actuators_.size());
  for (const auto& [id, actuator] : actuators_) actuator->clone_state(w);
  w.u64(adapters_.size());
  for (const auto& [key, adapter] : adapters_) {
    w.process_id(key.first);
    w.u8(static_cast<std::uint8_t>(key.second));
    w.u64(adapter.frames_received());
    w.u64(adapter.frames_sent());
  }
}

void HomeBus::restore_clone(BinaryReader& r) {
  RIV_ASSERT(r.u64() == sensors_.size(),
             "clone restore: sensor count mismatch (different scenario?)");
  for (auto& [id, sensor] : sensors_) sensor->restore_clone(r);
  RIV_ASSERT(r.u64() == actuators_.size(),
             "clone restore: actuator count mismatch");
  for (auto& [id, actuator] : actuators_) actuator->restore_clone(r);
  RIV_ASSERT(r.u64() == adapters_.size(),
             "clone restore: adapter count mismatch");
  for (auto& [key, adapter] : adapters_) {
    ProcessId pid = r.process_id();
    auto tech = static_cast<Technology>(r.u8());
    RIV_ASSERT(pid == key.first && tech == key.second,
               "clone restore: adapter identity mismatch");
    std::uint64_t rx = r.u64();
    std::uint64_t tx = r.u64();
    adapter.restore_counts(rx, tx);
  }
}

}  // namespace riv::devices
