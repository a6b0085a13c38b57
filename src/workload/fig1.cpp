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

struct Fig1Deployment::Impl {
  Fig1Options options;
  sim::Simulation sim;
  devices::HomeBus bus;
  std::vector<ProcessId> procs;
  std::map<SensorId, std::size_t> row_of;
  std::map<SensorId, std::map<ProcessId, std::uint64_t>> counts;
  std::set<EventId> received_anywhere;
  std::vector<Fig1Result::Row> rows;

  explicit Impl(const Fig1Options& opt)
      : options(opt), sim(opt.seed), bus(sim) {}
};

Fig1Deployment::Fig1Deployment(const Fig1Options& options)
    : impl_(std::make_unique<Impl>(options)) {
  Impl& im = *impl_;
  for (int i = 0; i < options.n_processes; ++i) {
    ProcessId p{static_cast<std::uint16_t>(i + 1)};
    im.procs.push_back(p);
    im.bus.add_adapter(p, devices::Technology::kZWave);
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

  std::uint16_t next_id = 1;
  for (const SensorPlan& sp : plan) {
    devices::SensorSpec spec;
    spec.id = SensorId{next_id++};
    spec.name = sp.name;
    spec.kind = sp.kind;
    spec.tech = devices::Technology::kZWave;
    spec.push = true;
    spec.payload_size = 4;
    spec.rate_hz = sp.events_per_day / 86400.0;
    spec.pattern = devices::EmitPattern::kPoisson;
    im.bus.add_sensor(spec);
    for (std::size_t i = 0; i < im.procs.size(); ++i) {
      devices::LinkParams link;
      link.loss_prob = sp.link_loss[i % sp.link_loss.size()];
      im.bus.link_sensor(spec.id, im.procs[i], link);
    }
    im.row_of[spec.id] = im.rows.size();
    Fig1Result::Row row;
    row.sensor = sp.name;
    im.rows.push_back(row);
  }

  for (ProcessId p : im.procs) {
    im.bus.subscribe(p, [p, &im](const devices::SensorEvent& e) {
      ++im.counts[e.id.sensor][p];
      im.received_anywhere.insert(e.id);
    });
  }
}

Fig1Deployment::~Fig1Deployment() = default;

void Fig1Deployment::start() { impl_->bus.start_all(); }

void Fig1Deployment::run_to(TimePoint t) { impl_->sim.run_until(t); }

TimePoint Fig1Deployment::now() const { return impl_->sim.now(); }

TimePoint Fig1Deployment::end_time() const {
  return TimePoint{} + impl_->options.duration;
}

sim::Simulation& Fig1Deployment::sim() { return impl_->sim; }

void Fig1Deployment::checkpoint_sim(BinaryWriter& w) const {
  impl_->sim.clone_state(w);
}

void Fig1Deployment::checkpoint_bus(BinaryWriter& w) const {
  impl_->bus.clone_state(w);
}

Fig1Result Fig1Deployment::result() const {
  Impl& im = *impl_;
  Fig1Result result;
  result.rows = im.rows;
  std::uint64_t total_emitted = 0;
  for (const auto& [sensor, idx] : im.row_of) {
    Fig1Result::Row& row = result.rows[idx];
    row.emitted = im.bus.sensor(sensor).events_emitted();
    total_emitted += row.emitted;
    for (ProcessId p : im.procs) row.received[p] = im.counts[sensor][p];
  }
  if (total_emitted > 0) {
    result.all_link_loss_fraction =
        1.0 - static_cast<double>(im.received_anywhere.size()) /
                  static_cast<double>(total_emitted);
  }
  return result;
}

Fig1Result run_fig1_deployment(const Fig1Options& options) {
  Fig1Deployment d(options);
  d.start();
  d.run_to(TimePoint{} + options.duration);
  return d.result();
}

}  // namespace riv::workload
