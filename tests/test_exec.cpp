// Tests of the execution service (§5): placement, promotion/demotion along
// the chain, failover with Gapless backlog replay, recovery-triggered
// demotion, partitions (dual actives + idempotent/Test&Set actuation).
#include <gtest/gtest.h>

#include "core/exec/placement.hpp"
#include "workload/apps.hpp"
#include "workload/deployment.hpp"

namespace riv {
namespace {

using workload::HomeDeployment;

constexpr AppId kApp{1};
constexpr SensorId kDoor{1};
constexpr ActuatorId kLight{1};

devices::SensorSpec door_sensor(double rate_hz = 10.0) {
  devices::SensorSpec spec;
  spec.id = kDoor;
  spec.name = "door";
  spec.kind = devices::SensorKind::kDoor;
  spec.tech = devices::Technology::kIp;
  spec.payload_size = 4;
  spec.rate_hz = rate_hz;
  return spec;
}

devices::ActuatorSpec light_actuator(bool idempotent = true,
                                     bool tas = false) {
  devices::ActuatorSpec spec;
  spec.id = kLight;
  spec.name = "light";
  spec.tech = devices::Technology::kIp;
  spec.idempotent = idempotent;
  spec.supports_test_and_set = tas;
  return spec;
}

TEST(Placement, PrefersProcessWithMostActiveDevices) {
  HomeDeployment::Options opt;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  home.add_sensor(door_sensor(), {home.pid(2)});
  home.add_actuator(light_actuator(), {home.pid(2)});
  appmodel::AppGraph g =
      workload::apps::turn_light_on_off(kApp, kDoor, kLight);
  auto chain = core::placement_chain(g, home.bus(), home.processes());
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], home.pid(2));  // 2 active devices there
  EXPECT_EQ(chain[1], home.pid(0));  // then id order
  EXPECT_EQ(chain[2], home.pid(1));
}

TEST(Placement, TieBreaksOnProcessId) {
  HomeDeployment::Options opt;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  home.add_sensor(door_sensor(), {home.pid(1)});
  home.add_actuator(light_actuator(), {home.pid(2)});
  appmodel::AppGraph g =
      workload::apps::turn_light_on_off(kApp, kDoor, kLight);
  auto chain = core::placement_chain(g, home.bus(), home.processes());
  EXPECT_EQ(chain[0], home.pid(1));  // 1 device each; lower id wins
  EXPECT_EQ(chain[1], home.pid(2));
}

struct ExecFixture : ::testing::Test {
  std::unique_ptr<HomeDeployment> make_home(
      int n, appmodel::Guarantee g = appmodel::Guarantee::kGapless,
      bool idempotent = true, bool tas = false, std::uint64_t seed = 31) {
    HomeDeployment::Options opt;
    opt.seed = seed;
    opt.n_processes = n;
    auto home = std::make_unique<HomeDeployment>(opt);
    // Sensor visible everywhere: every process can serve the app alone.
    home->add_sensor(door_sensor(), home->processes());
    home->add_actuator(light_actuator(idempotent, tas), home->processes());
    home->deploy(workload::apps::turn_light_on_off(kApp, kDoor, kLight, g));
    return home;
  }
};

TEST_F(ExecFixture, ExactlyOneActiveLogicInSteadyState) {
  auto home = make_home(5);
  home->start();
  home->run_for(seconds(5));
  int actives = 0;
  for (int i = 0; i < 5; ++i) actives += home->process(i).logic_active(kApp);
  EXPECT_EQ(actives, 1);
}

TEST_F(ExecFixture, FailoverPromotesNextInChain) {
  auto home = make_home(3);
  home->start();
  home->run_for(seconds(5));
  core::RivuletProcess* first = home->active_logic_process(kApp);
  ASSERT_NE(first, nullptr);
  first->crash();
  home->run_for(seconds(4));  // > 2 s detection
  core::RivuletProcess* second = home->active_logic_process(kApp);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second->id(), first->id());
  int actives = 0;
  for (int i = 0; i < 3; ++i) {
    if (home->process(i).up())
      actives += home->process(i).logic_active(kApp);
  }
  EXPECT_EQ(actives, 1);
}

TEST_F(ExecFixture, GaplessFailoverLosesNoEvents) {
  auto home = make_home(3);
  home->start();
  home->run_for(seconds(10));
  core::RivuletProcess* first = home->active_logic_process(kApp);
  ASSERT_NE(first, nullptr);
  first->crash();
  home->run_for(seconds(20));
  std::uint64_t emitted = home->bus().sensor(kDoor).events_emitted();
  // Every emitted event is eventually processed by *some* active logic
  // node (duplicates possible at failover). The global metric survives
  // the crashed process's state teardown.
  std::uint64_t total = home->metrics().counter_value("app1.delivered");
  EXPECT_GE(total + 3, emitted);  // small in-flight allowance at horizon
}

TEST_F(ExecFixture, RecoveredHigherPriorityProcessReclaimsLeadership) {
  auto home = make_home(3);
  home->start();
  home->run_for(seconds(5));
  core::RivuletProcess* first = home->active_logic_process(kApp);
  ASSERT_NE(first, nullptr);
  ProcessId first_id = first->id();
  first->crash();
  home->run_for(seconds(4));
  ASSERT_NE(home->active_logic_process(kApp), nullptr);
  first->recover();
  home->run_for(seconds(4));
  core::RivuletProcess* now = home->active_logic_process(kApp);
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now->id(), first_id);  // §5: demote when the successor recovers
  int actives = 0;
  for (int i = 0; i < 3; ++i) actives += home->process(i).logic_active(kApp);
  EXPECT_EQ(actives, 1);
}

TEST_F(ExecFixture, PartitionCreatesActivesOnBothSides) {
  auto home = make_home(4);
  home->start();
  home->run_for(seconds(5));
  home->net().set_partition({{home->pid(0), home->pid(1)},
                             {home->pid(2), home->pid(3)}});
  home->run_for(seconds(5));
  int actives = 0;
  for (int i = 0; i < 4; ++i) actives += home->process(i).logic_active(kApp);
  EXPECT_EQ(actives, 2);  // §5: every partition side promotes its own
}

TEST_F(ExecFixture, PartitionHealLeavesExactlyOneActive)
{
  auto home = make_home(4);
  home->start();
  home->run_for(seconds(5));
  home->net().set_partition({{home->pid(0), home->pid(1)},
                             {home->pid(2), home->pid(3)}});
  home->run_for(seconds(5));
  home->net().heal_partition();
  home->run_for(seconds(5));
  int actives = 0;
  for (int i = 0; i < 4; ++i) actives += home->process(i).logic_active(kApp);
  EXPECT_EQ(actives, 1);
}

TEST_F(ExecFixture, DualActivesOnIdempotentActuatorAreHarmless) {
  auto home = make_home(4, appmodel::Guarantee::kGap, /*idempotent=*/true);
  home->start();
  home->run_for(seconds(5));
  home->net().set_partition({{home->pid(0), home->pid(1)},
                             {home->pid(2), home->pid(3)}});
  home->run_for(seconds(10));
  const devices::Actuator& light = home->bus().actuator(kLight);
  EXPECT_GT(light.actions(), 0u);
  EXPECT_EQ(light.unwarranted_actions(), 0u);  // idempotent: duplicates ok
}

TEST_F(ExecFixture, WholeHomeKeepsRunningAfterAnyTwoCrashes) {
  auto home = make_home(5);
  home->start();
  home->run_for(seconds(5));
  home->process(0).crash();
  home->process(1).crash();
  home->run_for(seconds(5));
  core::RivuletProcess* active = home->active_logic_process(kApp);
  ASSERT_NE(active, nullptr);
  std::uint64_t before = active->delivered(kApp);
  home->run_for(seconds(5));
  EXPECT_GT(active->delivered(kApp), before);  // still processing events
}

TEST_F(ExecFixture, LastSurvivorServesAlone) {
  auto home = make_home(3);
  home->start();
  home->run_for(seconds(5));
  home->process(0).crash();
  home->process(1).crash();
  home->run_for(seconds(5));
  EXPECT_TRUE(home->process(2).logic_active(kApp));
  std::uint64_t before = home->process(2).delivered(kApp);
  home->run_for(seconds(5));
  EXPECT_GT(home->process(2).delivered(kApp), before);
}

TEST_F(ExecFixture, CrashedProcessStopsActuating) {
  auto home = make_home(2);
  home->start();
  home->run_for(seconds(5));
  const devices::Actuator& light = home->bus().actuator(kLight);
  home->process(0).crash();
  home->process(1).crash();
  home->run_for(seconds(1));
  std::uint64_t frozen = light.actions();
  home->run_for(seconds(5));
  EXPECT_EQ(light.actions(), frozen);  // nobody left to actuate
}

}  // namespace
}  // namespace riv

// --- appended: placement-policy extension ---------------------------------

namespace riv {
namespace {

TEST(PlacementPolicy, LoadBalancedPrefersIdleProcess) {
  HomeDeployment::Options opt;
  opt.n_processes = 3;
  HomeDeployment home(opt);
  home.add_sensor(door_sensor(), {home.pid(0)});
  home.add_actuator(light_actuator(), {home.pid(0)});
  appmodel::AppGraph g =
      workload::apps::turn_light_on_off(kApp, kDoor, kLight);
  // Without load, p1 wins (it has both devices).
  auto idle = core::placement_chain(g, home.bus(), home.processes(),
                                    core::PlacementPolicy::kLoadBalanced);
  EXPECT_EQ(idle[0], home.pid(0));
  // With p1 already loaded, the balanced policy moves the head elsewhere.
  std::map<ProcessId, int> load{{home.pid(0), 2}};
  auto busy = core::placement_chain(g, home.bus(), home.processes(),
                                    core::PlacementPolicy::kLoadBalanced,
                                    load);
  EXPECT_NE(busy[0], home.pid(0));
  // The paper policy ignores load entirely.
  auto paper = core::placement_chain(
      g, home.bus(), home.processes(),
      core::PlacementPolicy::kMaxActiveDevices, load);
  EXPECT_EQ(paper[0], home.pid(0));
}

TEST(PlacementPolicy, RuntimeSpreadsAppsAcrossProcesses) {
  HomeDeployment::Options opt;
  opt.seed = 85;
  opt.n_processes = 3;
  opt.config.placement_policy = core::PlacementPolicy::kLoadBalanced;
  HomeDeployment home(opt);
  for (std::uint16_t i = 1; i <= 6; ++i) {
    devices::SensorSpec spec = door_sensor();
    spec.id = SensorId{i};
    home.add_sensor(spec, home.processes());
    std::string name = "a";
    name += std::to_string(i);
    appmodel::AppBuilder app(AppId{i}, name);
    auto op = app.add_operator("Sink");
    op.add_sensor(SensorId{i}, appmodel::Guarantee::kGap,
                  appmodel::WindowSpec::count_window(1));
    op.handle_triggered_window(
        [](const std::vector<appmodel::StreamWindow>&,
           appmodel::TriggerContext&) {});
    home.deploy(app.build());
  }
  home.start();
  home.run_for(seconds(3));
  // 6 apps over 3 processes: exactly 2 active logic nodes each.
  for (int p = 0; p < 3; ++p) {
    int active = 0;
    for (std::uint16_t i = 1; i <= 6; ++i)
      active += home.process(p).logic_active(AppId{i});
    EXPECT_EQ(active, 2) << "process " << p;
  }
}

}  // namespace
}  // namespace riv
