#include "fleet/population.hpp"

#include <string>

namespace riv::fleet {

int IntRange::sample(Rng& rng) const {
  if (hi <= lo) return lo;
  return lo + static_cast<int>(rng.uniform_int(
                  static_cast<std::uint64_t>(hi - lo + 1)));
}

double DoubleRange::sample(Rng& rng) const {
  if (hi <= lo) return lo;
  return rng.uniform(lo, hi);
}

devices::Technology TechMix::sample(Rng& rng) const {
  const double total = ip + zigbee + zwave + ble;
  double u = rng.uniform() * (total > 0 ? total : 1.0);
  if ((u -= ip) < 0) return devices::Technology::kIp;
  if ((u -= zigbee) < 0) return devices::Technology::kZigbee;
  if ((u -= zwave) < 0) return devices::Technology::kZWave;
  return devices::Technology::kBle;
}

namespace {

// Sensor kinds the sampler rotates through: a mix of analog and binary
// devices so sampled homes exercise both value models.
constexpr devices::SensorKind kKinds[] = {
    devices::SensorKind::kTemperature, devices::SensorKind::kMotion,
    devices::SensorKind::kDoor,        devices::SensorKind::kHumidity,
    devices::SensorKind::kEnergy,
};

}  // namespace

HomeSpec sample_home(const PopulationModel& model, std::uint64_t fleet_seed,
                     std::uint64_t index) {
  HomeSpec home;
  home.seed = derive_seed(fleet_seed, index);
  home.index = index;
  home.sim_duration = model.sim_duration;
  // All draws come from the home's own generator, in a fixed order — the
  // spec depends only on (model, home.seed), never on other homes.
  Rng rng(home.seed);
  home.n_processes = model.processes.sample(rng);
  const int n_sensors = model.sensors.sample(rng);
  for (int s = 0; s < n_sensors; ++s) {
    HomeSpec::SensorPlan plan;
    devices::SensorSpec& spec = plan.spec;
    spec.id = SensorId{static_cast<std::uint16_t>(s + 1)};
    spec.name = to_string(spec.id);
    spec.kind = kKinds[rng.uniform_int(std::size(kKinds))];
    spec.tech = model.tech.sample(rng);
    spec.push = true;
    spec.payload_size =
        static_cast<std::uint32_t>(model.payload_bytes.sample(rng));
    spec.rate_hz = model.rate_hz.sample(rng);
    spec.pattern = rng.bernoulli(model.burst_fraction)
                       ? devices::EmitPattern::kBurst
                       : devices::EmitPattern::kPeriodic;
    plan.link_loss = model.link_loss.sample(rng);
    plan.guarantee = rng.bernoulli(model.gapless_fraction)
                         ? appmodel::Guarantee::kGapless
                         : appmodel::Guarantee::kGap;
    // Distinct receiver processes, drawn without replacement.
    int want = model.receivers.sample(rng);
    if (want > home.n_processes) want = home.n_processes;
    if (want < 1) want = 1;
    std::vector<int> pool;
    for (int p = 0; p < home.n_processes; ++p) pool.push_back(p);
    for (int r = 0; r < want; ++r) {
      std::size_t pick = rng.uniform_int(pool.size());
      plan.receivers.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    home.sensors.push_back(std::move(plan));
  }
  return home;
}

std::unique_ptr<workload::HomeDeployment> build_home(const HomeSpec& spec) {
  workload::HomeDeployment::Options opt;
  opt.seed = spec.seed;
  opt.n_processes = spec.n_processes;
  auto home = std::make_unique<workload::HomeDeployment>(opt);

  appmodel::AppBuilder app(AppId{1}, "fleet-sink");
  auto op = app.add_operator("FleetSink");
  for (const HomeSpec::SensorPlan& plan : spec.sensors) {
    std::vector<ProcessId> receivers;
    for (int r : plan.receivers) receivers.push_back(home->pid(r));
    devices::LinkParams link;
    link.loss_prob = plan.link_loss;
    home->add_sensor(plan.spec, receivers, link);
    op.add_sensor(plan.spec.id, plan.guarantee,
                  appmodel::WindowSpec::count_window(1));
  }
  op.handle_triggered_window(
      [](const std::vector<appmodel::StreamWindow>&,
         appmodel::TriggerContext&) {});
  home->deploy(app.build());
  return home;
}

}  // namespace riv::fleet
