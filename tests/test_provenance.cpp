// Tests for the causal-provenance analyzer (src/trace/provenance):
// synthetic traces with known shapes exercise chain reconstruction, leg
// latencies, orphan classification, duplicate detection, fault
// attribution and the health check; a live deployment run then proves the
// real emit sites produce a causally sound trace end-to-end.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "trace/provenance.hpp"
#include "trace/trace.hpp"
#include "workload/apps.hpp"
#include "workload/deployment.hpp"

namespace riv {
namespace {

using namespace riv::trace;

// One record built through the typed append API the emit sites use,
// decoded back out of the recorder.
template <IsField... Fields>
Record rec(std::int64_t us, std::uint16_t pid, Component c, Kind k,
           ProvenanceId prov, const Fields&... fields) {
  Recorder r;
  r.append(TimePoint{us}, ProcessId{pid}, c, k, prov, fields...);
  return r.records().at(0);
}

FieldEvent ev(std::uint32_t seq) {
  return fe(Key::kEvent, EventId{SensorId{1}, seq});
}

// One event walking the full pipeline with per-leg gaps of 2..7 µs. All
// legs stay under 16 µs where histogram buckets are exact, so the
// assertions below are equalities, not tolerances.
std::vector<Record> full_pipeline(ProvenanceId id, std::int64_t base) {
  const FieldEvent x = ev(id.seq);
  const FieldCmd cmd = fc(Key::kCmd, CommandId{ProcessId{1}, 1});
  const FieldAct act = fa(Key::kActuator, ActuatorId{1});
  return {
      rec(base + 0, 0, Component::kDevice, Kind::kEmit, id, x),
      rec(base + 2, 1, Component::kDevice, Kind::kAdapterRx, id, x,
          fu(Key::kUp, 1)),
      rec(base + 5, 1, Component::kDelivery, Kind::kIngest, id,
          fu(Key::kApp, 1), x, fs(Key::kSrcName, "device")),
      rec(base + 9, 1, Component::kRuntime, Kind::kDeliver, id,
          fu(Key::kApp, 1), x),
      rec(base + 14, 1, Component::kRuntime, Kind::kLogicFire, id,
          fu(Key::kApp, 1), fs(Key::kOp, "light")),
      rec(base + 20, 1, Component::kRuntime, Kind::kCommand, id, cmd, act),
      rec(base + 27, 0, Component::kDevice, Kind::kActuated, id, cmd, act,
          fu(Key::kAccepted, 1), fu(Key::kDup, 0)),
  };
}

TEST(ProvenanceAnalyze, ReconstructsChainAndLegLatencies) {
  std::vector<Record> records = full_pipeline(ProvenanceId{1, 1}, 0);
  Analysis a = analyze(records);

  EXPECT_EQ(a.n_chains, 1u);
  EXPECT_EQ(a.stages_present(), kStageCount);
  for (int i = 0; i < kStageCount; ++i)
    EXPECT_EQ(a.stage_chains[static_cast<std::size_t>(i)], 1u);

  // Legs are exactly the constructed gaps (sub-16µs buckets are exact).
  const std::int64_t want[kStageCount] = {0, 2, 3, 4, 5, 6, 7};
  for (int i = 1; i < kStageCount; ++i) {
    ASSERT_EQ(a.leg[static_cast<std::size_t>(i)].count(), 1u) << i;
    EXPECT_EQ(a.leg[static_cast<std::size_t>(i)].percentile(0.5).us,
              want[i])
        << to_string(static_cast<Stage>(i));
  }
  ASSERT_EQ(a.e2e_delivery.count(), 1u);
  EXPECT_EQ(a.e2e_delivery.max().us, 9);
  ASSERT_EQ(a.e2e_full.count(), 1u);
  EXPECT_EQ(a.e2e_full.max().us, 27);

  EXPECT_TRUE(a.orphans.empty());
  EXPECT_TRUE(a.duplicates.empty());
  EXPECT_TRUE(a.ordering_violations.empty());
  EXPECT_TRUE(check(a).ok);
}

TEST(ProvenanceAnalyze, ClassifiesOrphans) {
  AnalyzeOptions opt;
  opt.grace = seconds(5);
  std::vector<Record> records;
  // Orphan 1: ingested one second before the trace ends — in flight.
  records.push_back(rec(seconds(19).us, 1, Component::kDelivery,
                        Kind::kIngest, ProvenanceId{1, 1}, fu(Key::kApp, 1),
                        ev(1), fs(Key::kSrcName, "device")));
  // Orphan 2: ingested early, but its only host crashed and stayed down.
  records.push_back(rec(seconds(1).us, 2, Component::kDelivery,
                        Kind::kIngest, ProvenanceId{1, 2}, fu(Key::kApp, 1),
                        ev(2), fs(Key::kSrcName, "device")));
  records.push_back(rec(seconds(2).us, 2, Component::kRuntime,
                        Kind::kCrash, ProvenanceId{}));
  // Orphan 3: ingested early, host alive the whole time — a real bug.
  records.push_back(rec(seconds(1).us, 3, Component::kDelivery,
                        Kind::kIngest, ProvenanceId{1, 3}, fu(Key::kApp, 1),
                        ev(3), fs(Key::kSrcName, "device")));
  // Push the end of the trace out to t=20s.
  records.push_back(rec(seconds(20).us, 0, Component::kChaos, Kind::kMark,
                        ProvenanceId{}, fs(Key::kText, "end")));

  Analysis a = analyze(records, opt);
  ASSERT_EQ(a.orphans.size(), 3u);
  EXPECT_EQ(a.unexplained_orphans(), 1u);
  for (const Orphan& o : a.orphans) {
    if (o.id == ProvenanceId{1, 1}) {
      EXPECT_EQ(o.reason, "in_flight_at_end");
    }
    if (o.id == ProvenanceId{1, 2}) {
      EXPECT_EQ(o.reason, "crashed_host");
    }
    if (o.id == ProvenanceId{1, 3}) {
      EXPECT_EQ(o.reason, "unexplained");
    }
  }
  CheckResult cr = check(a);
  EXPECT_FALSE(cr.ok);
  ASSERT_EQ(cr.problems.size(), 1u);
  EXPECT_NE(cr.problems[0].find("unexplained orphan"), std::string::npos);

  // A recovered host is not a crashed host: orphan 2 becomes unexplained.
  records.push_back(rec(seconds(20).us + 1, 2, Component::kRuntime,
                        Kind::kRecover, ProvenanceId{}));
  Analysis b = analyze(records, opt);
  EXPECT_EQ(b.unexplained_orphans(), 2u);
}

TEST(ProvenanceAnalyze, DetectsDuplicatesWithinOnePromotionEpoch) {
  ProvenanceId id{1, 5};
  const FieldU app = fu(Key::kApp, 1);
  std::vector<Record> records;
  records.push_back(rec(100, 1, Component::kRuntime, Kind::kPromote,
                        ProvenanceId{}, app));
  records.push_back(
      rec(200, 1, Component::kRuntime, Kind::kDeliver, id, app, ev(5)));
  // Failover: p2 promoted, re-delivery there is legitimate.
  records.push_back(rec(300, 2, Component::kRuntime, Kind::kPromote,
                        ProvenanceId{}, app));
  records.push_back(
      rec(400, 2, Component::kRuntime, Kind::kDeliver, id, app, ev(5)));
  Analysis clean = analyze(records);
  EXPECT_TRUE(clean.duplicates.empty());

  // Same event again to p2 with no intervening promotion: a duplicate.
  records.push_back(
      rec(500, 2, Component::kRuntime, Kind::kDeliver, id, app, ev(5)));
  Analysis dirty = analyze(records);
  ASSERT_EQ(dirty.duplicates.size(), 1u);
  EXPECT_EQ(dirty.duplicates[0].id, id);
  EXPECT_EQ(dirty.duplicates[0].process, ProcessId{2});
  EXPECT_EQ(dirty.duplicates[0].deliveries, 2u);
  EXPECT_FALSE(check(dirty).ok);

  // A promotion between repeats resets the epoch: no duplicate.
  records.pop_back();
  records.push_back(rec(450, 2, Component::kRuntime, Kind::kPromote,
                        ProvenanceId{}, app));
  records.push_back(
      rec(500, 2, Component::kRuntime, Kind::kDeliver, id, app, ev(5)));
  EXPECT_TRUE(analyze(records).duplicates.empty());
}

TEST(ProvenanceAnalyze, AttributesTailLatencyToOverlappingFaults) {
  std::vector<Record> records;
  // Three fast events early on (1 ms e2e each).
  for (std::uint32_t i = 1; i <= 3; ++i) {
    ProvenanceId id{1, i};
    std::int64_t base = static_cast<std::int64_t>(i) * 100000;
    records.push_back(
        rec(base, 0, Component::kDevice, Kind::kEmit, id, ev(i)));
    records.push_back(rec(base + 1000, 1, Component::kRuntime,
                          Kind::kDeliver, id, fu(Key::kApp, 1), ev(i)));
  }
  // One slow event spanning an injected fault: generated at 10s,
  // partition at 15s, finally delivered at 30s.
  ProvenanceId slow{1, 9};
  records.push_back(rec(seconds(10).us, 0, Component::kDevice, Kind::kEmit,
                        slow, ev(9)));
  records.push_back(rec(seconds(15).us, 0, Component::kChaos, Kind::kFault,
                        ProvenanceId{}, fu(Key::kFaultId, 3),
                        fs(Key::kText, "partition {p1} | {p2 p3}")));
  records.push_back(rec(seconds(30).us, 1, Component::kRuntime,
                        Kind::kDeliver, slow, fu(Key::kApp, 1), ev(9)));

  Analysis a = analyze(records);
  ASSERT_EQ(a.faults.size(), 1u);
  EXPECT_EQ(a.faults[0].fault_id, 3);
  EXPECT_EQ(a.faults[0].what, "partition {p1} | {p2 p3}");
  ASSERT_FALSE(a.tails.empty());
  // Tails are sorted slowest-first; the slow chain leads and carries the
  // fault id, while the fast chains (if present at the threshold) do not.
  EXPECT_EQ(a.tails[0].id, slow);
  ASSERT_EQ(a.tails[0].fault_ids.size(), 1u);
  EXPECT_EQ(a.tails[0].fault_ids[0], 3);
  for (std::size_t i = 1; i < a.tails.size(); ++i)
    EXPECT_TRUE(a.tails[i].fault_ids.empty());
}

TEST(ProvenanceAnalyze, FlagsStageOrderingViolations) {
  ProvenanceId id{1, 7};
  std::vector<Record> records;
  records.push_back(rec(5000, 1, Component::kRuntime, Kind::kDeliver, id,
                        fu(Key::kApp, 1), ev(7)));
  records.push_back(rec(9000, 1, Component::kDelivery, Kind::kIngest, id,
                        fu(Key::kApp, 1), ev(7), fs(Key::kSrcName, "device")));
  Analysis a = analyze(records);
  ASSERT_EQ(a.ordering_violations.size(), 1u);
  EXPECT_NE(a.ordering_violations[0].find("delivered"), std::string::npos);
  EXPECT_FALSE(check(a).ok);
}

TEST(ProvenanceAnalyze, RendersHumanAndJsonReports) {
  std::vector<Record> records = full_pipeline(ProvenanceId{1, 1}, 0);
  Analysis a = analyze(records);

  std::string text = render(a);
  EXPECT_NE(text.find("stage coverage"), std::string::npos);
  EXPECT_NE(text.find("generated"), std::string::npos);
  EXPECT_NE(text.find("e2e generated -> delivered"), std::string::npos);
  EXPECT_NE(text.find("orphans: 0"), std::string::npos);

  std::string json = render_json(a);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"chains\":1"), std::string::npos);
  EXPECT_NE(json.find("\"e2e_delivery\""), std::string::npos);
  EXPECT_NE(json.find("\"ordering_violations\":[]"), std::string::npos);
}

// A real deployment: the paper's door -> light app on three processes,
// with the flight recorder on. The emit sites across devices, delivery,
// runtime and logic must together produce a causally sound trace that the
// analyzer reconstructs end-to-end.
TEST(ProvenanceLive, GaplessPipelineProducesHealthyChains) {
  auto recorder = std::make_shared<trace::Recorder>(
      trace::kAllComponents &
      ~trace::component_bit(trace::Component::kSim));
  Analysis a;
  {
    trace::Scope scope(*recorder);

    workload::HomeDeployment::Options opt;
    opt.seed = 11;
    opt.n_processes = 3;
    workload::HomeDeployment home(opt);

    devices::SensorSpec spec;
    spec.id = SensorId{1};
    spec.name = "door";
    spec.kind = devices::SensorKind::kDoor;
    spec.tech = devices::Technology::kIp;
    spec.rate_hz = 5.0;
    home.add_sensor(spec, {home.pid(0), home.pid(1)});

    devices::ActuatorSpec light;
    light.id = ActuatorId{1};
    light.name = "light";
    light.tech = devices::Technology::kIp;
    home.add_actuator(light, {home.pid(0)});
    home.deploy(workload::apps::turn_light_on_off(
        AppId{1}, SensorId{1}, ActuatorId{1},
        appmodel::Guarantee::kGapless));

    home.start();
    home.run_for(seconds(10));
    home.drain_to_quiescence();
    a = analyze(recorder->records());
  }

  EXPECT_GT(a.n_chains, 10u);
  // The full loop closes: every stage from generated to actuated appears.
  EXPECT_GE(a.stages_present(), 5);
  EXPECT_EQ(a.unexplained_orphans(), 0u);
  EXPECT_TRUE(a.duplicates.empty());
  EXPECT_TRUE(a.ordering_violations.empty()) << a.ordering_violations[0];
  EXPECT_TRUE(check(a).ok);

  // Where-the-time-went accounting: on a fault-free run the summed leg
  // medians on the delivery path agree with the measured end-to-end
  // median within a small factor (medians are not strictly additive).
  ASSERT_FALSE(a.e2e_delivery.empty());
  std::int64_t sum_legs = 0;
  for (int i = 1; i <= static_cast<int>(Stage::kDelivered); ++i)
    sum_legs += a.leg[static_cast<std::size_t>(i)].percentile(0.5).us;
  std::int64_t e2e = a.e2e_delivery.percentile(0.5).us;
  EXPECT_GT(sum_legs, 0);
  EXPECT_GT(e2e, 0);
  EXPECT_LT(sum_legs, e2e * 3);
  EXPECT_LT(e2e, sum_legs * 3);
}

// The blessed chaos golden exercises crashes, partitions and fallback
// paths; the analyzer must still find a causally healthy trace there.
TEST(ProvenanceLive, ChaosGoldenPassesCheck) {
  trace::Recorder golden;
  std::string err;
  ASSERT_TRUE(trace::Recorder::load(
      std::string(RIV_TRACE_GOLDEN_DIR) + "/chaos_flight.rivtrace",
      &golden, &err))
      << err;
  Analysis a = analyze(golden.records());
  EXPECT_GE(a.stages_present(), 5);
  EXPECT_GT(a.n_chains, 0u);
  EXPECT_FALSE(a.faults.empty());
  CheckResult cr = check(a);
  EXPECT_TRUE(cr.ok) << (cr.problems.empty() ? "" : cr.problems[0]);
}

}  // namespace
}  // namespace riv
