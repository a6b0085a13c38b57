// Grand tour: a five-host home running several applications at once,
// narrated through a day of faults.
//
// Demonstrates the pieces working together:
//   * each device is heard by the hosts in its radio range: the hub
//     (p1, hallway), TV (p2, living room), fridge (p3, kitchen), washer
//     (p4, utility room) and speaker (p5, bedroom),
//   * three applications (intrusion detection, temperature HVAC with
//     coordinated polling, energy billing with replicated state) share
//     the same five Rivulet processes,
//   * crash, sensor death, and a router partition hit mid-run.
//
// Build & run:  ./build/examples/smart_home_tour
#include <cstdio>

#include "workload/apps.hpp"
#include "workload/deployment.hpp"

int main() {
  using namespace riv;

  workload::HomeDeployment::Options options;
  options.seed = 77;
  options.n_processes = 5;
  workload::HomeDeployment home(options);
  const ProcessId hub = home.pid(0), tv = home.pid(1), fridge = home.pid(2),
                  washer = home.pid(3), speaker = home.pid(4);
  // Walls cost a few percent of the short-range radios' frames.
  devices::LinkParams through_walls;
  through_walls.loss_prob = 0.05;

  // --- devices, each linked to the hosts in its range -------------------
  devices::SensorSpec front_door;
  front_door.id = SensorId{1};
  front_door.name = "front-door";
  front_door.kind = devices::SensorKind::kDoor;
  front_door.tech = devices::Technology::kZigbee;
  front_door.rate_hz = 0.3;
  home.add_sensor(front_door, {hub, tv, speaker}, through_walls);

  devices::SensorSpec back_door = front_door;
  back_door.id = SensorId{2};
  back_door.name = "back-door";
  back_door.rate_hz = 0.1;
  home.add_sensor(back_door, {hub, fridge, washer}, through_walls);

  devices::SensorSpec thermometer;
  thermometer.id = SensorId{3};
  thermometer.name = "hallway-thermometer";
  thermometer.kind = devices::SensorKind::kTemperature;
  thermometer.tech = devices::Technology::kZWave;
  thermometer.push = false;
  thermometer.poll_latency = milliseconds(400);
  thermometer.value_base = 20.0;
  thermometer.value_amplitude = 4.0;
  thermometer.value_period = minutes(10);  // a fast "day" for the demo
  home.add_sensor(thermometer, {hub, tv, fridge, speaker}, through_walls);

  devices::SensorSpec meter;
  meter.id = SensorId{4};
  meter.name = "house-meter";
  meter.kind = devices::SensorKind::kEnergy;
  meter.tech = devices::Technology::kIp;
  meter.payload_size = 8;
  meter.rate_hz = 1.0;
  meter.value_base = 900.0;
  meter.value_amplitude = 300.0;
  meter.value_period = minutes(5);
  home.add_sensor(meter, home.processes());

  devices::ActuatorSpec siren;
  siren.id = ActuatorId{1};
  siren.name = "siren";
  siren.tech = devices::Technology::kZWave;
  home.add_actuator(siren, {hub, tv, fridge, speaker});

  devices::ActuatorSpec hvac;
  hvac.id = ActuatorId{2};
  hvac.name = "hvac";
  hvac.tech = devices::Technology::kIp;
  home.add_actuator(hvac, home.processes());

  devices::ActuatorSpec bill;
  bill.id = ActuatorId{3};
  bill.name = "billing-display";
  bill.tech = devices::Technology::kIp;
  home.add_actuator(bill, home.processes());

  std::printf("Sensor connectivity:\n");
  for (SensorId s : home.bus().sensors()) {
    std::printf("  %-22s heard by:", home.bus().sensor(s).spec().name.c_str());
    for (ProcessId p : home.bus().processes_in_range(s))
      std::printf(" %s", to_string(p).c_str());
    std::printf("\n");
  }

  // --- applications -----------------------------------------------------
  home.deploy(workload::apps::intrusion_detection(
      AppId{1}, {SensorId{1}, SensorId{2}}, ActuatorId{1}));
  home.deploy(workload::apps::temperature_hvac(
      AppId{2}, SensorId{3}, ActuatorId{2}, seconds(10), 19.0, 23.0));
  home.deploy(workload::apps::energy_billing(
      AppId{3}, SensorId{4}, ActuatorId{3}, seconds(30), 0.28));
  home.start();

  auto report = [&](const char* phase) {
    std::printf("\n[%s]\n", phase);
    std::printf("  siren alarms   : %llu\n",
                static_cast<unsigned long long>(
                    home.bus().actuator(ActuatorId{1}).actions()));
    std::printf("  HVAC commands  : %llu (state %+.0f)\n",
                static_cast<unsigned long long>(
                    home.bus().actuator(ActuatorId{2}).actions()),
                home.bus().actuator(ActuatorId{2}).state());
    std::printf("  billing updates: %llu (last %.4f $/window)\n",
                static_cast<unsigned long long>(
                    home.bus().actuator(ActuatorId{3}).actions()),
                home.bus().actuator(ActuatorId{3}).state());
    std::printf("  thermometer polls: %llu (dropped %llu)\n",
                static_cast<unsigned long long>(
                    home.bus().sensor(SensorId{3}).polls_received()),
                static_cast<unsigned long long>(
                    home.bus().sensor(SensorId{3}).polls_dropped()));
  };

  home.run_for(minutes(2));
  report("2 min: healthy");

  home.process(0).crash();  // the hub dies
  home.run_for(minutes(2));
  report("4 min: hub crashed (apps failed over)");

  home.process(0).recover();
  home.net().set_partition({{home.pid(0), home.pid(1), home.pid(4)},
                            {home.pid(2), home.pid(3)}});
  home.run_for(minutes(2));
  report("6 min: hub back, WiFi partitioned");

  home.net().heal_partition();
  home.bus().sensor(SensorId{1}).crash();  // the front door sensor dies
  home.run_for(minutes(2));
  report("8 min: healed; front-door sensor dead (back door still alerts)");
  return 0;
}
