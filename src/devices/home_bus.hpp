// HomeBus: the wiring layer between devices and Rivulet processes.
//
// Owns every sensor and actuator in the simulated home, knows which host
// has which radio adapters (§7), and which device links exist. The Rivulet
// runtime queries it to decide active vs. shadow node placement (§3.3):
// a process gets an active node for a device iff it has an adapter for the
// device's technology AND a link to the device exists (in range).
//
// This is the moral equivalent of the adapter layer + physical air in the
// paper's testbed.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "devices/actuator.hpp"
#include "devices/sensor.hpp"

namespace riv::devices {

class HomeBus {
 public:
  using EventHandler = std::function<void(const SensorEvent&)>;

  explicit HomeBus(sim::Simulation& sim);

  // --- Construction of the home -------------------------------------
  Sensor& add_sensor(const SensorSpec& spec);
  Actuator& add_actuator(const ActuatorSpec& spec);
  void add_adapter(ProcessId process, Technology tech);
  bool has_adapter(ProcessId process, Technology tech) const;
  // The adapter instance (frame counters) of a process's radio.
  Adapter& adapter(ProcessId process, Technology tech);

  // Wire a device link. Requires a matching adapter on the process.
  void link_sensor(SensorId sensor, ProcessId process, LinkParams params = {});
  void link_actuator(ActuatorId actuator, ProcessId process,
                     double loss_prob = 0.0);

  // --- Runtime interface --------------------------------------------
  // All events any linked sensor delivers to `process` flow to `handler`.
  void subscribe(ProcessId process, EventHandler handler);
  void unsubscribe(ProcessId process);  // crashed process hears nothing

  bool sensor_in_range(ProcessId process, SensorId sensor) const;
  bool actuator_in_range(ProcessId process, ActuatorId actuator) const;
  std::vector<ProcessId> processes_in_range(SensorId sensor) const;
  std::vector<ProcessId> processes_in_range(ActuatorId actuator) const;

  void poll(ProcessId from, SensorId sensor, std::uint32_t epoch_tag);
  void actuate(ProcessId from, const Command& cmd);

  // Chaos-only injection hook: hand a (possibly forged or replayed)
  // sensor event straight to `process`'s adapter, as if it had arrived
  // over the radio. The Byzantine injector is the only caller — real
  // devices always go through Sensor::transmit.
  void inject_event(ProcessId process, const SensorEvent& e);

  // --- Access ---------------------------------------------------------
  Sensor& sensor(SensorId id);
  const Sensor& sensor(SensorId id) const;
  Actuator& actuator(ActuatorId id);
  const Actuator& actuator(ActuatorId id) const;
  std::vector<SensorId> sensors() const;
  std::vector<ActuatorId> actuators() const;

  // Start autonomous emission on every push sensor.
  void start_all();

  sim::Simulation& sim() { return *sim_; }

  // Processes with a subscribed event handler, in pid order.
  std::vector<ProcessId> subscribers() const;

  // --- state capture (DESIGN.md §13) ---------------------------------
  // Every device plus the adapter frame counters. Subscriptions are not
  // encoded: handlers are closures, a process is subscribed iff it is up,
  // and a restored process re-subscribes as part of its own restore
  // (checkpoint/clone.cpp asserts the set on capture and after apply).
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

  // Divergence lever: salt every sensor's RNG stream (and the kernel's)
  // so a clone of a warm home diverges deterministically — see
  // Sensor::perturb.
  void perturb(std::uint64_t salt);

 private:
  void dispatch(ProcessId process, const SensorEvent& e);

  sim::Simulation* sim_;
  std::map<SensorId, std::unique_ptr<Sensor>> sensors_;
  std::map<ActuatorId, std::unique_ptr<Actuator>> actuators_;
  std::map<std::pair<ProcessId, Technology>, Adapter> adapters_;
  std::map<ProcessId, EventHandler> handlers_;
};

}  // namespace riv::devices
