// Checkpoints, warm clones & time-travel replay, proven correct by
// differential testing.
//
// The correctness contract is "restored ≡ uninterrupted, byte-for-byte,
// traces and hashes included", and every test here is a differential:
//
//   * each blessed golden scenario is run with a mid-run checkpoint, the
//     checkpoint file is restored into a fresh scenario, and the restored
//     run's complete trace must be byte-identical to the blessed golden
//     file (same FNV-1a footer);
//   * clone-per-seed chaos sweeps must produce, per seed, exactly the
//     fault trace a from-scratch run of that seed produces;
//   * capture must be a pure function of logical state, pinned against
//     the known sources of incidental divergence (StableStore hash-map
//     iteration, timer cancel order, chunked-vs-monolithic runs).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "checkpoint/clone.hpp"
#include "checkpoint/rivc.hpp"
#include "checkpoint/scenario.hpp"
#include "common/parallel.hpp"
#include "sim/simulation.hpp"
#include "sim/stable_store.hpp"
#include "trace/trace.hpp"
#include "workload/deployment.hpp"

#ifndef RIV_TRACE_GOLDEN_DIR
#error "RIV_TRACE_GOLDEN_DIR must point at tests/trace_golden"
#endif

namespace riv {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(RIV_TRACE_GOLDEN_DIR) + "/" + name + ".rivtrace";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Checkpoint halfway through the interesting part of each scenario: past
// the failover crash at 3s for the home runs, mid-plan for chaos.
TimePoint mid_time(const std::string& name) {
  return TimePoint{} + (name == "chaos_flight" ? seconds(6) : seconds(4));
}

std::string chaos_fingerprint(const chaos::ChaosResult& r) {
  return r.trace_digest + " violations=" + std::to_string(r.violations.size()) +
         " faults=" + std::to_string(r.faults_injected) +
         " noop=" + std::to_string(r.faults_noop) +
         " attacks=" + std::to_string(r.byzantine_attacks) +
         " delivered=" + std::to_string(r.delivered) +
         " quiesced=" + (r.quiesced ? "1" : "0");
}

// One golden scenario end-to-end: checkpoint mid-run, prove the
// checkpoint changed nothing, then restore from the file into a fresh
// scenario and prove the restored run reproduces the blessed golden
// byte-for-byte.
void check_golden_scenario(const std::string& name) {
  SCOPED_TRACE(name);
  trace::Recorder golden;
  std::string err;
  ASSERT_TRUE(trace::Recorder::load(golden_path(name), &golden, &err)) << err;
  const std::uint64_t golden_hash = golden.hash();
  const std::size_t golden_records = golden.size();

  // --- checkpointed run: capture mid-run, then keep going ---------------
  std::unique_ptr<checkpoint::Scenario> sc =
      checkpoint::make_golden_scenario(name);
  ASSERT_NE(sc, nullptr);
  sc->start();
  sc->run_to(mid_time(name));
  checkpoint::Snapshot snap = sc->capture();
  EXPECT_EQ(snap.at, mid_time(name));
  EXPECT_FALSE(snap.sections.empty());

  const std::string rivc_path =
      ::testing::TempDir() + "ckpt_" + name + ".rivc";
  ASSERT_TRUE(checkpoint::save(snap, rivc_path, &err)) << err;

  sc->run_to(sc->end_time());
  sc->finish();
  // Capturing a checkpoint must be invisible: the interrupted run's full
  // trace still matches the blessed golden exactly.
  EXPECT_EQ(sc->recorder()->hash(), golden_hash);
  EXPECT_EQ(sc->recorder()->size(), golden_records);

  // --- restore from the file into a fresh scenario ----------------------
  sc.reset();
  const std::string trace_path = rivc_path + ".trace";
  checkpoint::Snapshot loaded;
  ASSERT_TRUE(checkpoint::load(rivc_path, &loaded, &err)) << err;
  checkpoint::RestoreReport rep = checkpoint::restore(loaded);
  ASSERT_TRUE(rep.ok) << rep.error;
  rep.scenario->run_to(rep.scenario->end_time());
  rep.scenario->finish();
  std::shared_ptr<trace::Recorder> rec = rep.scenario->recorder();
  ASSERT_TRUE(rec->save(trace_path, &err)) << err;
  EXPECT_EQ("hash=" + rec->digest() + " records=" + std::to_string(rec->size()),
            "hash=" + golden.digest() +
                " records=" + std::to_string(golden_records));
  // The restored run's saved trace is byte-identical to the blessed
  // golden file — identical records, chunking, and FNV-1a footer.
  const std::string restored_bytes = read_file(trace_path);
  ASSERT_FALSE(restored_bytes.empty());
  EXPECT_EQ(restored_bytes, read_file(golden_path(name)))
      << "restored trace file differs from blessed golden";
  std::remove(rivc_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(CheckpointGolden, GaplessRing) { check_golden_scenario("gapless_ring"); }
TEST(CheckpointGolden, GapChain) { check_golden_scenario("gap_chain"); }
TEST(CheckpointGolden, Failover) { check_golden_scenario("failover"); }
TEST(CheckpointGolden, ChaosFlight) { check_golden_scenario("chaos_flight"); }

// A tampered checkpoint must fail the restore attestation with the exact
// divergent section named — the negative control for the equivalences
// above (if this passed, the byte-compares would be vacuous).
TEST(CheckpointGolden, TamperedSectionFailsAttestation) {
  std::unique_ptr<checkpoint::Scenario> sc =
      checkpoint::make_golden_scenario("gapless_ring");
  sc->start();
  sc->run_to(mid_time("gapless_ring"));
  checkpoint::Snapshot snap = sc->capture();
  checkpoint::Section* target = nullptr;
  for (checkpoint::Section& s : snap.sections)
    if (s.name == "proc.1") target = &s;
  ASSERT_NE(target, nullptr);
  ASSERT_FALSE(target->payload.empty());
  target->payload[3] ^= std::byte{0x40};

  checkpoint::RestoreReport rep = checkpoint::restore(snap);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("restore attestation failed"), std::string::npos)
      << rep.error;
  EXPECT_NE(rep.error.find("proc.1"), std::string::npos) << rep.error;
}

// clone-per-seed ≡ fresh-per-seed: N seeds run as clones of one shared
// warm session must produce exactly the fault traces and outcomes of N
// independent from-scratch runs arming the same plans at the same time.
TEST(CheckpointClone, ClonePerSeedMatchesFreshRuns) {
  const Duration warmup = seconds(2);
  const std::vector<std::uint64_t> seeds = {101, 202, 303};
  auto make_options = [] {
    chaos::EngineOptions opt;
    opt.scenario.seed = 11;
    opt.scenario.n_processes = 3;
    opt.plan.horizon = seconds(8);
    opt.defer_plan = true;
    return opt;
  };

  std::vector<std::string> fresh;
  for (std::uint64_t seed : seeds) {
    chaos::ChaosSession session(make_options());
    session.run_to(TimePoint{} + warmup);
    session.arm_plan(seed, warmup);
    session.run_to(session.run_end());
    chaos::ChaosResult r;
    session.finish(r);
    fresh.push_back(chaos_fingerprint(r));
  }

  checkpoint::WarmImage img;
  {
    chaos::ChaosSession shared(make_options());
    shared.run_to(TimePoint{} + warmup);
    checkpoint::capture_warm_session(shared, img);
  }
  const std::vector<std::string> cloned = parallel_map<std::string>(
      2, seeds.size(), [&img, &seeds, &make_options](std::size_t i) {
        std::unique_ptr<chaos::ChaosSession> s =
            checkpoint::clone_warm_session(img, make_options());
        s->arm_plan(seeds[i], seconds(2));
        s->run_to(s->run_end());
        chaos::ChaosResult r;
        s->finish(r);
        return chaos_fingerprint(r);
      });

  ASSERT_EQ(cloned.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i)
    EXPECT_EQ(cloned[i], fresh[i]) << "seed " << seeds[i];
}

// A session holds plan timers whose actions are not encoded once a plan
// is armed, so cloning one is refused rather than silently dropping them.
TEST(CheckpointClone, ArmedSessionIsNeverCloned) {
  // Earlier tests started WorkerPool threads: re-exec for the death test.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  chaos::EngineOptions opt;
  opt.scenario.seed = 11;
  opt.scenario.n_processes = 3;
  opt.plan.horizon = seconds(8);
  opt.defer_plan = true;
  checkpoint::WarmImage img;
  {
    chaos::ChaosSession session(opt);
    session.run_to(TimePoint{} + seconds(1));
    session.arm_plan(101, seconds(1));
    checkpoint::capture_warm_session(session, img);
  }
  EXPECT_DEATH(checkpoint::clone_warm_session(img, opt),
               "never cloned after arm_plan");
}

TEST(CheckpointRivc, EncodeDecodeRoundTrips) {
  std::unique_ptr<checkpoint::Scenario> sc =
      checkpoint::make_golden_scenario("gap_chain");
  sc->start();
  sc->run_to(mid_time("gap_chain"));
  checkpoint::Snapshot snap = sc->capture();

  std::vector<std::byte> wire = checkpoint::encode(snap);
  checkpoint::Snapshot back;
  std::string err;
  ASSERT_TRUE(checkpoint::decode(wire, &back, &err)) << err;
  EXPECT_EQ(checkpoint::diff_snapshots(snap, back), "");
  EXPECT_EQ(back.scenario, "gap_chain");
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.at, snap.at);
  EXPECT_EQ(back.trace_hash, snap.trace_hash);
  ASSERT_NE(back.find("sim.kernel"), nullptr);
  ASSERT_NE(back.find("net.wifi"), nullptr);
  ASSERT_NE(back.find("bus.devices"), nullptr);
  ASSERT_NE(back.find("proc.1"), nullptr);
  EXPECT_EQ(back.find("nonexistent"), nullptr);
  // Re-encoding the decoded snapshot is byte-identical (canonical form).
  EXPECT_EQ(checkpoint::encode(back), wire);
}

TEST(CheckpointRivc, DiffNamesFirstDivergentSectionAndByte) {
  checkpoint::Snapshot a;
  a.scenario = "x";
  a.sections.push_back(
      {"sim.kernel", {std::byte{1}, std::byte{2}, std::byte{3}}});
  a.sections.push_back(
      {"proc.2", {std::byte{9}, std::byte{8}, std::byte{7}}});
  checkpoint::Snapshot b = a;
  EXPECT_EQ(checkpoint::diff_snapshots(a, b), "");
  b.sections[1].payload[1] = std::byte{0x3b};
  const std::string diff = checkpoint::diff_snapshots(a, b);
  EXPECT_NE(diff.find("proc.2"), std::string::npos) << diff;
  EXPECT_NE(diff.find("byte 1"), std::string::npos) << diff;
  b = a;
  b.trace_hash = 1;
  EXPECT_NE(checkpoint::diff_snapshots(a, b).find("trace hash"),
            std::string::npos);
}

// Two independent runs of the same scenario, captured at the same virtual
// time, must serialize byte-identically — capture is a pure function of
// logical state with no incidental layout leaking through.
TEST(CheckpointDeterminismPins, CaptureIsAPureFunctionOfState) {
  auto capture_at_mid = [] {
    std::unique_ptr<checkpoint::Scenario> sc =
        checkpoint::make_golden_scenario("failover");
    sc->start();
    sc->run_to(mid_time("failover"));
    return checkpoint::encode(sc->capture());
  };
  EXPECT_EQ(capture_at_mid(), capture_at_mid());
}

// Running to T in several uneven chunks (how a checkpointing run crosses
// T) must capture exactly what one monolithic run_to(T) captures.
TEST(CheckpointDeterminismPins, ChunkedRunEqualsMonolithicRun) {
  auto capture_at_end = [](bool chunked) {
    std::unique_ptr<checkpoint::Scenario> sc =
        checkpoint::make_golden_scenario("failover");
    sc->start();
    if (chunked) {
      sc->run_to(TimePoint{} + milliseconds(1234));
      sc->run_to(TimePoint{} + milliseconds(2500));
      sc->run_to(TimePoint{} + seconds(4));
      sc->run_to(TimePoint{} + milliseconds(7001));
    }
    sc->run_to(TimePoint{} + seconds(8));
    return checkpoint::encode(sc->capture());
  };
  EXPECT_EQ(capture_at_end(true), capture_at_end(false));
}

// StableStore is the one unordered container on a state-affecting path:
// its encoding must not depend on insertion order or rehash history (the
// sort in clone_state is load-bearing).
TEST(CheckpointDeterminismPins, StableStoreOrder) {
  auto value = [](int i) {
    return std::vector<std::byte>{std::byte(i), std::byte(i / 7)};
  };
  sim::StableStore ascending;
  for (int i = 0; i < 40; ++i)
    ascending.put("key/" + std::to_string(i), value(i));
  sim::StableStore descending;
  // Different insertion order plus churn: extra keys inserted and erased
  // to perturb the hash map's bucket/rehash history.
  for (int i = 0; i < 64; ++i)
    descending.put("churn/" + std::to_string(i), value(i));
  for (int i = 39; i >= 0; --i)
    descending.put("key/" + std::to_string(i), value(i));
  for (int i = 0; i < 64; ++i) descending.erase("churn/" + std::to_string(i));

  BinaryWriter wa, wb;
  ascending.clone_state(wa);
  descending.clone_state(wb);
  EXPECT_EQ(wa.take(), wb.take());
}

// Cancelling timers in different orders leaves different slab/free-list
// layouts behind; the kernel's capture must not see any of it.
TEST(CheckpointDeterminismPins, TimerCancelOrderIndependence) {
  auto capture = [](bool swap_cancel_order) {
    sim::Simulation sim(7);
    sim::TimerId keep1 = sim.schedule_after(seconds(10), [] {});
    sim::TimerId victim1 = sim.schedule_after(seconds(20), [] {});
    sim::TimerId victim2 = sim.schedule_after(seconds(30), [] {});
    sim::TimerId keep2 = sim.schedule_after(seconds(40), [] {});
    (void)keep1;
    (void)keep2;
    if (swap_cancel_order) {
      sim.cancel(victim2);
      sim.cancel(victim1);
    } else {
      sim.cancel(victim1);
      sim.cancel(victim2);
    }
    sim.run_for(seconds(1));
    BinaryWriter w;
    sim.clone_state(w);
    return w.take();
  };
  EXPECT_EQ(capture(false), capture(true));
}

}  // namespace
}  // namespace riv
