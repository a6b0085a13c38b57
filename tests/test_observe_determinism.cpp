// Tier-2 observatory acceptance gate: a 100k-home fleet run with 0.1%
// sampled flight recording, SLO health scoring, and a correlated campaign
// must produce the same sampled-home set, per-home trace FNV hashes,
// top-K health list, and fleet fault digest under --jobs 1 and --jobs 8
// (pinned at full scale; test_observe carries the fast 96-home version in
// tier 1). A 4,096-home run makes the same checks small enough for the
// ThreadSanitizer job, which skips the 100k-home case.
#include <gtest/gtest.h>

#include <cstdint>

#include "fleet/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/observe.hpp"

namespace riv::fleet {
namespace {

FleetOptions acceptance_fleet(std::uint64_t homes, int jobs) {
  FleetOptions opt;
  opt.seed = 1;
  opt.homes = homes;
  opt.jobs = jobs;
  // Short steady-state window: the gate is about fold determinism at
  // fleet scale, not per-home dynamics, and 100k homes x 2 runs must fit
  // the tier-2 budget.
  opt.population.sim_duration = seconds(2);
  CampaignEvent wifi;
  wifi.kind = CampaignFault::kWifiOutage;
  wifi.at = milliseconds(500);
  wifi.duration = seconds(1);
  wifi.fraction = 0.05;
  opt.campaign.events.push_back(wifi);
  // ~100 flight-recorded homes at any fleet size (0.1% of 100k).
  opt.observe.sample = 100.0 / static_cast<double>(homes);
  opt.observe.top_k = 16;
  return opt;
}

void expect_jobs_invariant(std::uint64_t homes) {
  FleetResult serial = run_fleet(acceptance_fleet(homes, 1));
  FleetResult threaded = run_fleet(acceptance_fleet(homes, 8));

  // ~100 sampled homes (the Bernoulli count concentrates; the exact set
  // is pinned by the sampler's purity, not by luck).
  ASSERT_GT(serial.observation.samples.size(), 50u);
  ASSERT_LT(serial.observation.samples.size(), 200u);

  EXPECT_EQ(serial.fault_digest, threaded.fault_digest);
  EXPECT_EQ(registry_fingerprint(serial.merged),
            registry_fingerprint(threaded.merged));

  // Sampled set + per-home trace hashes, in one comparison each way.
  EXPECT_EQ(serial.observation.samples, threaded.observation.samples);
  EXPECT_EQ(serial.observation.trace_digest(),
            threaded.observation.trace_digest());

  // Leg histograms folded from the sampled traces.
  for (int s = 1; s < trace::kStageCount; ++s)
    EXPECT_EQ(serial.observation.leg[s].buckets(),
              threaded.observation.leg[s].buckets())
        << "leg " << s;
  EXPECT_EQ(serial.observation.e2e_delivery.buckets(),
            threaded.observation.e2e_delivery.buckets());

  // The worst-offenders list survives the shard merge bit-for-bit.
  ASSERT_EQ(serial.observation.top.rows().size(), 16u);
  EXPECT_EQ(serial.observation.top.rows(), threaded.observation.top.rows());

  // And a triage replay of the very worst home reproduces whatever the
  // sampler would have recorded for it.
  const HomeHealth& worst = serial.observation.top.rows().front();
  TriageReport rep = triage_home(acceptance_fleet(homes, 1), worst.index);
  EXPECT_GT(rep.trace_records, 0u);
  EXPECT_EQ(rep.health.delay_p99_us, worst.delay_p99_us);
}

TEST(ObservedFleetDeterminism, HundredThousandHomesJobsInvariant) {
  expect_jobs_invariant(100'000);
}

TEST(ObservedFleetDeterminism, FourThousandHomesJobsInvariant) {
  expect_jobs_invariant(4'096);
}

}  // namespace
}  // namespace riv::fleet
