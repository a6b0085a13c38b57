// Ablation (extension; cf. Beam in the paper's related work): placement
// policy and blast radius.
//
// §7's placement puts every logic node on the process with the most
// active devices — with symmetric connectivity that concentrates ALL
// applications on one host, so a single crash interrupts every app at
// once (each suffering the ~2 s Gap detection hole). The load-balanced
// extension spreads logic nodes, shrinking the blast radius of one crash.
//
// Setup: 5 processes, 10 Gap applications, every device visible
// everywhere (the worst case for concentration). At t=60 s we crash the
// process hosting the most logic nodes and count total events lost across
// all apps.
#include "bench_util.hpp"

namespace riv::bench {
namespace {

struct Result {
  int max_apps_on_one_process;
  std::uint64_t total_lost;
};

Result run(core::PlacementPolicy policy, std::uint64_t seed) {
  constexpr int kApps = 10;
  workload::HomeDeployment::Options opt;
  opt.seed = seed;
  opt.n_processes = 5;
  opt.config.placement_policy = policy;
  workload::HomeDeployment home(opt);

  for (std::uint16_t i = 1; i <= kApps; ++i) {
    devices::SensorSpec spec;
    spec.id = SensorId{i};
    spec.name = to_string(spec.id);
    spec.kind = devices::SensorKind::kDoor;
    spec.tech = devices::Technology::kIp;
    spec.rate_hz = 10.0;
    home.add_sensor(spec, home.processes());

    appmodel::AppBuilder app(AppId{i}, "app" + std::to_string(i));
    auto op = app.add_operator("Sink");
    op.add_sensor(SensorId{i}, appmodel::Guarantee::kGap,
                  appmodel::WindowSpec::count_window(1));
    op.handle_triggered_window(
        [](const std::vector<appmodel::StreamWindow>&,
           appmodel::TriggerContext&) {});
    home.deploy(app.build());
  }
  home.start();
  home.run_for(seconds(60));

  // Which process hosts the most active logic nodes?
  int best_count = 0;
  core::RivuletProcess* victim = nullptr;
  for (int i = 0; i < 5; ++i) {
    int count = 0;
    for (std::uint16_t a = 1; a <= kApps; ++a)
      count += home.process(i).logic_active(AppId{a});
    if (count > best_count) {
      best_count = count;
      victim = &home.process(i);
    }
  }
  victim->crash();
  home.run_for(seconds(60));

  Result r;
  r.max_apps_on_one_process = best_count;
  r.total_lost = 0;
  for (std::uint16_t a = 1; a <= kApps; ++a) {
    std::uint64_t emitted =
        home.bus().sensor(SensorId{a}).events_emitted();
    std::uint64_t delivered = home.metrics().counter_value(
        "app" + std::to_string(a) + ".delivered");
    r.total_lost += emitted - std::min(emitted, delivered);
  }
  return r;
}

}  // namespace
}  // namespace riv::bench

int main() {
  using namespace riv::bench;
  print_header(
      "Ablation: placement policy vs crash blast radius (10 Gap apps)",
      "paper policy concentrates all apps on one host -> one crash "
      "interrupts all 10; load balancing spreads them -> ~1/5 of the loss");
  std::printf("\n%-18s %-22s %-18s\n", "policy", "max apps on one proc",
              "events lost @crash");
  Result paper = run(riv::core::PlacementPolicy::kMaxActiveDevices, 1600);
  std::printf("%-18s %-22d %-18llu\n", "paper (§7)",
              paper.max_apps_on_one_process,
              static_cast<unsigned long long>(paper.total_lost));
  Result balanced = run(riv::core::PlacementPolicy::kLoadBalanced, 1600);
  std::printf("%-18s %-22d %-18llu\n", "load-balanced",
              balanced.max_apps_on_one_process,
              static_cast<unsigned long long>(balanced.total_lost));
  return 0;
}
