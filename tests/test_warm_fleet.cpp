// Warm-fleet execution (DESIGN.md §16): snapshot-cloned warm-ups must be
// indistinguishable from cold re-execution — same outcome rows, fault
// digest, merged-metrics fingerprint, and sampled flight-trace hashes —
// for any --jobs value. These are the tier-1 differential gates; the
// 256-home × 3-campaign sweep lives in test_warm_fleet_determinism
// (tier2).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "checkpoint/clone.hpp"
#include "common/parallel.hpp"
#include "fleet/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/observe.hpp"
#include "fleet/population.hpp"

namespace riv::fleet {
namespace {

// Small-but-not-trivial fleet: every technology, bursts, both guarantees,
// a campaign that hits about half the homes, and a flight-recorder sample
// so the warm path has cold (sampled) homes interleaved with cloned ones.
FleetOptions warm_test_options() {
  FleetOptions opt;
  opt.seed = 7;
  opt.homes = 24;
  opt.jobs = 1;
  opt.shard_size = 8;
  opt.population.sim_duration = seconds(3);
  opt.observe.sample = 0.15;
  opt.keep_home_rows = true;
  opt.warm.prefix = seconds(2);

  CampaignEvent ev;
  ev.kind = CampaignFault::kWifiOutage;
  ev.at = seconds(1);
  ev.duration = seconds(1);
  ev.fraction = 0.5;
  opt.campaign.events.push_back(ev);
  return opt;
}

void expect_equal_results(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.fault_digest, b.fault_digest);
  EXPECT_EQ(registry_fingerprint(a.merged), registry_fingerprint(b.merged));
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.homes_hit, b.homes_hit);
  EXPECT_EQ(a.homes_hit_survived, b.homes_hit_survived);
  EXPECT_EQ(a.homes_survived, b.homes_survived);
  // Sampled flight recordings: identical homes sampled, identical bytes.
  ASSERT_EQ(a.observation.samples.size(), b.observation.samples.size());
  for (std::size_t i = 0; i < a.observation.samples.size(); ++i) {
    EXPECT_EQ(a.observation.samples[i].index, b.observation.samples[i].index);
    EXPECT_EQ(a.observation.samples[i].trace_hash,
              b.observation.samples[i].trace_hash);
    EXPECT_EQ(a.observation.samples[i].records,
              b.observation.samples[i].records);
  }
}

// --- warm ≡ cold ----------------------------------------------------------

TEST(WarmFleet, WarmEqualsColdSingleCampaign) {
  FleetOptions cold = warm_test_options();
  cold.warm.enabled = false;
  FleetOptions warm = cold;
  warm.warm.enabled = true;

  const FleetResult rc = run_fleet(cold);
  const FleetResult rw = run_fleet(warm);
  ASSERT_FALSE(rc.rows.empty());
  EXPECT_GT(rc.homes_hit, 0u);
  expect_equal_results(rc, rw);
}

TEST(WarmFleet, WarmEqualsColdMultiCampaign) {
  FleetOptions cold = warm_test_options();
  cold.homes = 12;
  cold.warm.enabled = false;
  cold.warm.resalt = 0xabcdef;  // campaigns decorrelate via perturb

  std::vector<CampaignPlan> campaigns(3);
  CampaignEvent ev;
  ev.at = seconds(1);
  ev.duration = seconds(1);
  ev.fraction = 0.6;
  ev.kind = CampaignFault::kWifiOutage;
  campaigns[0].events.push_back(ev);
  ev.kind = CampaignFault::kPowerBlip;
  campaigns[1].events.push_back(ev);
  ev.kind = CampaignFault::kSensorDegrade;
  campaigns[2].events.push_back(ev);

  FleetOptions warm = cold;
  warm.warm.enabled = true;

  const std::vector<FleetResult> rc = run_fleet_campaigns(cold, campaigns);
  const std::vector<FleetResult> rw = run_fleet_campaigns(warm, campaigns);
  ASSERT_EQ(rc.size(), campaigns.size());
  ASSERT_EQ(rw.size(), campaigns.size());
  for (std::size_t c = 0; c < campaigns.size(); ++c)
    expect_equal_results(rc[c], rw[c]);
  // The three campaigns are genuinely different experiments.
  EXPECT_NE(rc[0].fault_digest, rc[1].fault_digest);
  EXPECT_NE(registry_fingerprint(rc[0].merged),
            registry_fingerprint(rc[1].merged));
}

TEST(WarmFleet, WarmJobsInvariance) {
  FleetOptions warm = warm_test_options();
  warm.warm.enabled = true;
  FleetOptions warm8 = warm;
  warm8.jobs = 8;

  const FleetResult r1 = run_fleet(warm);
  const FleetResult r8 = run_fleet(warm8);
  expect_equal_results(r1, r8);
}

// --- sampled attestation --------------------------------------------------

TEST(WarmFleet, AttestationSelectionIsDeterministic) {
  EXPECT_FALSE(home_attested(1, 5, 0.0));
  EXPECT_TRUE(home_attested(1, 5, 1.0));
  int picked = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const bool a = home_attested(42, i, 0.1);
    EXPECT_EQ(a, home_attested(42, i, 0.1));  // pure function
    picked += a ? 1 : 0;
  }
  EXPECT_GT(picked, 50);
  EXPECT_LT(picked, 200);
}

TEST(WarmFleet, FullAttestationPassesAndChangesNothing) {
  FleetOptions warm = warm_test_options();
  warm.homes = 8;
  warm.warm.enabled = true;
  const FleetResult base = run_fleet(warm);
  // Byte-attest every clone against the image it was restored from: an
  // honest build must pass, and attestation must not perturb results.
  warm.warm.attest_sample = 1.0;
  const FleetResult attested = run_fleet(warm);
  expect_equal_results(base, attested);
}

// The negative control for the test above: a clone changed in one layer
// after apply must fail attestation with that layer's section named (an
// attest_clone that always returned "" would pass every other test).
TEST(WarmFleet, AttestationNamesTheChangedLayer) {
  PopulationModel model;
  model.sim_duration = seconds(2);
  const HomeSpec spec = sample_home(model, 7, 3);
  auto source = build_home(spec);
  source->start();
  source->run_for(seconds(1));
  checkpoint::WarmImage img;
  checkpoint::capture_warm_home(*source, spec.seed, img);

  auto clone_of = [&] {
    auto clone = build_home(spec);
    std::string err;
    EXPECT_TRUE(checkpoint::apply_warm_home(img, *clone, spec.seed, &err))
        << err;
    EXPECT_EQ(checkpoint::attest_clone(img, *clone), "");
    return clone;
  };

  // Devices: salt one sensor's RNG stream.
  auto devices = clone_of();
  devices->bus().sensor(devices->bus().sensors().front()).perturb(0x5a17);
  const std::string dev_diff = checkpoint::attest_clone(img, *devices);
  EXPECT_NE(dev_diff.find("section 'bus.devices'"), std::string::npos)
      << dev_diff;

  // One process: a stable-storage write on its host.
  auto proc = clone_of();
  const ProcessId victim = proc->processes().back();
  proc->process(victim).store().put("attest/probe", {std::byte{1}});
  const std::string proc_diff = checkpoint::attest_clone(img, *proc);
  EXPECT_NE(proc_diff.find("section 'proc." + std::to_string(victim.value) +
                           "'"),
            std::string::npos)
      << proc_diff;

  // The clock: time moving on shows up in the kernel section first.
  auto kernel = clone_of();
  kernel->run_for(milliseconds(1));
  EXPECT_NE(checkpoint::attest_clone(img, *kernel).find("snapshot time"),
            std::string::npos);
}

// --- identity-mismatch rejection ------------------------------------------

TEST(WarmFleet, ApplyRejectsWrongHome) {
  PopulationModel model;
  model.sim_duration = seconds(2);
  const HomeSpec a = sample_home(model, 7, 0);
  const HomeSpec b = sample_home(model, 7, 1);

  auto source = build_home(a);
  source->start();
  source->run_for(seconds(1));
  checkpoint::WarmImage img;
  checkpoint::capture_warm_home(*source, a.seed, img);

  // Different home seed: rejected cleanly, with the reason observable.
  auto target = build_home(b);
  std::string err;
  EXPECT_FALSE(checkpoint::apply_warm_home(img, *target, b.seed, &err));
  EXPECT_NE(err.find("identity mismatch"), std::string::npos) << err;

  // Same identity: accepted, and the clone keeps running.
  auto clone = build_home(a);
  err = "sentinel";
  ASSERT_TRUE(checkpoint::apply_warm_home(img, *clone, a.seed, &err)) << err;
  EXPECT_TRUE(err.empty());
  clone->run_for(seconds(1));
}

TEST(WarmFleet, ApplyRejectsWrongShape) {
  PopulationModel model;
  model.sim_duration = seconds(2);
  const HomeSpec spec = sample_home(model, 7, 0);
  auto source = build_home(spec);
  source->start();
  source->run_for(seconds(1));
  checkpoint::WarmImage img;
  checkpoint::capture_warm_home(*source, spec.seed, img);

  // Forge a deployment-level identity mismatch without touching the
  // blobs: the gate fires before any restore call runs.
  checkpoint::WarmImage forged = img;
  forged.n_processes += 1;
  auto target = build_home(spec);
  std::string err;
  EXPECT_FALSE(checkpoint::apply_warm_home(forged, *target, spec.seed, &err));
  EXPECT_NE(err.find("identity mismatch"), std::string::npos) << err;
  // The untouched target is still usable cold.
  target->start();
  target->run_for(seconds(1));
}

// --- worker pool ----------------------------------------------------------

TEST(WorkerPool, PersistsAcrossCallsAndStaysByteIdentical) {
  auto square = [](std::size_t i) { return i * i; };
  const std::vector<std::size_t> serial =
      parallel_map<std::size_t>(1, 64, square);
  const std::vector<std::size_t> par = parallel_map<std::size_t>(4, 64, square);
  EXPECT_EQ(serial, par);
  const std::size_t threads_after_first = WorkerPool::instance().size();
  EXPECT_GE(threads_after_first, 3u);
  for (int round = 0; round < 50; ++round)
    EXPECT_EQ(parallel_map<std::size_t>(4, 16, square),
              parallel_map<std::size_t>(4, 16, square));
  // Pool threads are reused, not respawned per call: 100 more runs at the
  // same width added no threads.
  EXPECT_EQ(WorkerPool::instance().size(), threads_after_first);
}

TEST(WorkerPool, PropagatesFirstExceptionAndStopsClaiming) {
  std::atomic<int> ran{0};
  // Items take a little time, so the queue cannot drain in the instant
  // between one worker claiming item 3 and that worker throwing.
  EXPECT_THROW(
      parallel_map<int>(4, 1000,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 3) throw std::runtime_error("boom");
                          std::this_thread::sleep_for(
                              std::chrono::microseconds(100));
                          return 0;
                        }),
      std::runtime_error);
  // Workers stop claiming once a failure is flagged.
  EXPECT_LT(ran.load(), 1000);
  // The pool survives the failed run and serves the next one.
  EXPECT_EQ(parallel_map<int>(4, 8, [](std::size_t i) {
              return static_cast<int>(i);
            }),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(WorkerPool, NestedParallelMapFallsBackInline) {
  // A parallel_map inside a pool worker must not deadlock: the inner call
  // degrades to the serial loop on that worker.
  const std::vector<std::size_t> out =
      parallel_map<std::size_t>(4, 8, [](std::size_t i) {
        const std::vector<std::size_t> inner =
            parallel_map<std::size_t>(4, 4, [](std::size_t j) { return j; });
        return i + inner[3];
      });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 3);
}

}  // namespace
}  // namespace riv::fleet
