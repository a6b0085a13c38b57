// Sharded fleet runner: thousands-to-millions of deterministic homes.
//
// Each home is an independent simulation — own kernel, network, devices,
// registry — fully determined by derive_seed(fleet_seed, home_index), so
// a fleet shards embarrassingly across worker threads (parallel_map,
// src/common/parallel.hpp). Homes are grouped into fixed contiguous
// shards; a worker runs its shard's homes serially in index order and
// folds their metrics shard-locally, then the main thread folds shard
// results fleet-globally in shard order. Because shard boundaries and
// per-home content never depend on which worker ran what, the merged
// metrics, per-home outcomes and fault-trace digest are bit-identical
// for --jobs 1 and --jobs N (test_fleet pins a 256-home fleet against
// 8 jobs).
//
// A CampaignPlan layers correlated chaos over the population; per-home
// survival and the population-wide delivery-latency histogram feed the
// fleet dashboard.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/campaign.hpp"
#include "fleet/observe.hpp"
#include "fleet/population.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace riv::fleet {

// Warm-fleet execution (DESIGN.md §16): run each home's fault-free
// warm-up prefix once, snapshot-clone the warmed state, and restore it
// into a fresh deployment per campaign — an N-campaign sweep pays
// construction + warm-up once per home instead of N times.
//
// `prefix` is honored by BOTH the warm and the cold path: with a
// non-zero prefix every campaign's fault schedule is shifted to start
// after it (FaultInjector::arm offset), so the cold leg is the exact
// reference the warm leg must reproduce bit-for-bit — same outcome
// rows, fault digest, and merged-metrics fingerprint. `enabled` only
// switches the *mechanism* (clone-restore vs re-execute); it never
// changes results. prefix == 0 preserves the historical single-campaign
// behavior byte-for-byte (faults armed before start).
struct WarmOptions {
  bool enabled{false};
  Duration prefix{};  // fault-free warm-up shared by every campaign
  // Fraction of warm homes whose restored clone is re-captured and
  // byte-compared against the image it came from before running (sampled
  // integrity check; selection is a pure function of (seed, index)).
  double attest_sample{0.0};
  // Non-zero: fold salt ^ campaign_index into the device RNGs at the
  // prefix point (Sensor::perturb seam) so campaigns decorrelate. Applied
  // identically on the warm and cold paths.
  std::uint64_t resalt{0};
};

struct FleetOptions {
  std::uint64_t seed{1};
  std::uint64_t homes{1000};
  int jobs{1};  // 0 = auto-detect hardware_concurrency()
  // Homes per work item. Small enough to keep every core busy at the
  // tail, large enough that shard bookkeeping is noise.
  std::uint64_t shard_size{64};
  PopulationModel population{};
  CampaignPlan campaign{};
  WarmOptions warm{};
  // Observability: sampled flight recording, SLO health scoring, top-K
  // worst-offender tracking (src/fleet/observe.hpp). Off by default.
  ObserveOptions observe{};
  // Keep one HomeOutcome row per home (10 scalar fields; ~56 B/home —
  // fine at 256 homes, 56 MB at a million). Aggregates are always kept.
  bool keep_home_rows{false};
};

// One home's outcome row (kept only when FleetOptions::keep_home_rows).
struct HomeOutcome {
  std::uint64_t seed{0};
  std::uint64_t fault_hash{0};  // per-home fault-trace FNV; 0 = no faults
  std::uint32_t n_processes{0};
  std::uint32_t n_sensors{0};
  std::uint32_t faults_injected{0};
  std::uint64_t sim_events{0};
  std::uint64_t emitted{0};
  std::uint64_t delivered{0};
  bool hit{false};       // sampled by >= 1 campaign event
  bool survived{false};  // see FleetResult::homes_survived

  bool operator==(const HomeOutcome&) const = default;
};
// The keep_home_rows memory budget above leans on this staying true.
static_assert(sizeof(HomeOutcome) <= 72,
              "HomeOutcome grew past the ~64 B/home row budget");

struct FleetResult {
  std::uint64_t homes{0};
  std::uint64_t processes{0};
  std::uint64_t sensors{0};
  std::uint64_t sim_events{0};
  std::uint64_t emitted{0};
  std::uint64_t delivered{0};
  std::uint64_t faults_injected{0};
  // Homes sampled by at least one campaign event.
  std::uint64_t homes_hit{0};
  // Hit homes that survived: delivered at least one event after their
  // last fault healed (the protocols actually recovered). An outage that
  // outlives a home's window counts as not survived.
  std::uint64_t homes_hit_survived{0};
  // Unhit homes that delivered at all (the healthy baseline).
  std::uint64_t homes_survived{0};
  // FNV-1a over every home's fault-trace hash, in home-index order — the
  // fleet-wide chaos determinism fingerprint.
  std::uint64_t fault_digest{0};
  // Counters + delivery-latency histograms of every home, folded with
  // merge_scalars_from (order-invariant, so sharding cannot change it).
  metrics::Registry merged;
  std::vector<HomeOutcome> rows;  // empty unless keep_home_rows
  // Sampled traces, latency legs, health top-K (empty unless
  // FleetOptions::observe is enabled). Folded in shard order like
  // everything else, so bit-identical for any --jobs.
  Observation observation;
};

// Run the fleet. Deterministic: bit-identical result for any jobs value.
FleetResult run_fleet(const FleetOptions& opt);

// Multi-campaign fan-out: run the same population under each campaign,
// returning one FleetResult per campaign (in input order; opt.campaign is
// ignored). With opt.warm.enabled each home is built + warmed once and
// snapshot-cloned per campaign; flight-sampled homes always run the cold
// path so their recordings stay replayable by fleet_triage. Results are
// bit-identical to running each campaign through run_fleet() with the
// same WarmOptions prefix, for any jobs value.
std::vector<FleetResult> run_fleet_campaigns(
    const FleetOptions& opt, const std::vector<CampaignPlan>& campaigns);

// Is `index` in the warm attestation sample? Pure function of
// (fleet_seed, index, fraction) — exposed so tests can pin the selection.
bool home_attested(std::uint64_t fleet_seed, std::uint64_t home_index,
                   double fraction);

// One home of the fleet, executed exactly as run_fleet() would execute
// it, optionally with the flight recorder installed for the home's whole
// lifetime (construction through teardown — the same envelope sampled
// homes record under). Pure function of (opt, index, traced, mask): the
// packed trace bytes are identical on every call, which is what lets
// fleet_triage reproduce a sampled home's recording hash-for-hash.
struct HomeRun {
  HomeOutcome outcome;
  // Copy of the home's own merged registry (cheap: one home's counters).
  metrics::Registry metrics;
  std::shared_ptr<trace::Recorder> flight;  // null unless traced
};
HomeRun run_home(const FleetOptions& opt, std::uint64_t index, bool traced,
                 std::uint32_t flight_mask = trace::kAllComponents);

// Order-sensitive FNV-1a fingerprint of a registry's scalar contents
// (counter names/values, histogram buckets/count/sum/min/max) — what
// fleet_run prints as the merged-metrics digest. std::map iteration is
// name-ordered, so equal registries always fingerprint equally.
std::uint64_t registry_fingerprint(const metrics::Registry& reg);

// Sum of every "*.delivered" counter — total app deliveries in `reg`.
std::uint64_t total_delivered(const metrics::Registry& reg);

// Population-level rollup of a result + wall-clock rates, rendered as the
// fleet dashboard (fleet_run, bench_fleet).
struct Dashboard {
  double homes_per_sec{0};
  double events_per_sec_per_core{0};
  double bytes_per_home{0};
  double survival_rate{1.0};  // over hit homes; 1.0 when nothing was hit
  Duration delay_p50{};
  Duration delay_p99{};
  Duration delay_max{};
};

Dashboard make_dashboard(const FleetResult& r, double wall_s, int jobs);
std::string render_dashboard(const FleetResult& r, const Dashboard& d);

}  // namespace riv::fleet
