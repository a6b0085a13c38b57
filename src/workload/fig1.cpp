#include "workload/fig1.hpp"

#include <algorithm>
#include <set>

#include "devices/home_bus.hpp"
#include "sim/simulation.hpp"

namespace riv::workload {

std::uint64_t Fig1Result::Row::skew() const {
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& [p, n] : received) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  return received.empty() ? 0 : hi - lo;
}

Fig1Result run_fig1_deployment(const Fig1Options& options) {
  // Declared before the bus so they outlive the handlers that fill them.
  std::map<SensorId, std::map<ProcessId, std::uint64_t>> counts;
  std::set<EventId> received_anywhere;
  sim::Simulation sim(options.seed);
  devices::HomeBus bus(sim);

  std::vector<ProcessId> procs;
  for (int i = 0; i < options.n_processes; ++i) {
    ProcessId p{static_cast<std::uint16_t>(i + 1)};
    procs.push_back(p);
    bus.add_adapter(p, devices::Technology::kZWave);
  }

  // Sensor fleet: name, mean events/day, per-link loss probabilities.
  // Loss rates reflect placement: Door 1 sits behind a concrete wall from
  // p2 (heavy loss), the motion sensors see mild interference skew.
  struct SensorPlan {
    const char* name;
    devices::SensorKind kind;
    double events_per_day;
    std::vector<double> link_loss;  // one per process
  };
  const std::vector<SensorPlan> plan = {
      {"Door 1", devices::SensorKind::kDoor, 820.0, {0.015, 0.205, 0.045}},
      {"Door 2", devices::SensorKind::kDoor, 310.0, {0.010, 0.030, 0.020}},
      {"Motion 1", devices::SensorKind::kMotion, 2600.0,
       {0.004, 0.019, 0.009}},
      {"Motion 2", devices::SensorKind::kMotion, 1900.0,
       {0.006, 0.011, 0.008}},
      {"Motion 3", devices::SensorKind::kMotion, 1400.0,
       {0.003, 0.0042, 0.0048}},
      {"Motion 4", devices::SensorKind::kMotion, 3100.0,
       {0.008, 0.021, 0.013}},
  };

  // Sensor i (0-based) gets id i + 1 and result row i.
  Fig1Result result;
  for (const SensorPlan& sp : plan) {
    devices::SensorSpec spec;
    spec.id = SensorId{static_cast<std::uint16_t>(result.rows.size() + 1)};
    spec.name = sp.name;
    spec.kind = sp.kind;
    spec.tech = devices::Technology::kZWave;
    spec.push = true;
    spec.payload_size = 4;
    spec.rate_hz = sp.events_per_day / 86400.0;
    spec.pattern = devices::EmitPattern::kPoisson;
    bus.add_sensor(spec);
    for (std::size_t i = 0; i < procs.size(); ++i) {
      devices::LinkParams link;
      link.loss_prob = sp.link_loss[i % sp.link_loss.size()];
      bus.link_sensor(spec.id, procs[i], link);
    }
    Fig1Result::Row row;
    row.sensor = sp.name;
    result.rows.push_back(row);
  }

  for (ProcessId p : procs) {
    bus.subscribe(p, [p, &counts, &received_anywhere](
                         const devices::SensorEvent& e) {
      ++counts[e.id.sensor][p];
      received_anywhere.insert(e.id);
    });
  }

  bus.start_all();
  sim.run_until(TimePoint{} + options.duration);

  std::uint64_t total_emitted = 0;
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const SensorId sensor{static_cast<std::uint16_t>(i + 1)};
    Fig1Result::Row& row = result.rows[i];
    row.emitted = bus.sensor(sensor).events_emitted();
    total_emitted += row.emitted;
    for (ProcessId p : procs) row.received[p] = counts[sensor][p];
  }
  if (total_emitted > 0) {
    result.all_link_loss_fraction =
        1.0 - static_cast<double>(received_anywhere.size()) /
                  static_cast<double>(total_emitted);
  }
  return result;
}

}  // namespace riv::workload
