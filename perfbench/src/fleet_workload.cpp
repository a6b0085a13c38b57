// fleet_sweep: a warm multi-campaign fan-out through run_fleet_campaigns.
//
// A busy population (4-8 sensors per home at 4-12 Hz) runs a fault-free
// prefix once per home; the warmed state is snapshot-cloned into each of
// six single-event campaigns (wifi, power and rf at 30% and 15%). 5% of
// clones are byte-attested, top-K health scoring is on, flight sampling
// is off. Every campaign event heals strictly before the per-home window
// ends, so the survival probe fires for every hit home.
//
// The traced run adds a probe: the first kProbeHomes homes re-executed
// step by step through the same public calls the fleet runner makes,
// with a span around each, and their outcome rows compared against
// run_fleet_campaigns' rows for the same homes.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "chaos/injector.hpp"
#include "chaos/trace.hpp"
#include "checkpoint/clone.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "model_counts.hpp"
#include "workload/deployment.hpp"

namespace rivbench {
namespace {

using namespace riv;
using namespace riv::fleet;

// One pass: kFleets fleets (seeds derived from the workload seed) of
// kHomesPerFleet homes each, one run_fleet_campaigns call per fleet.
constexpr std::uint64_t kFleets = 10;
constexpr std::uint64_t kHomesPerFleet = 20;
constexpr std::uint64_t kProbeHomes = 16;
constexpr Duration kPrefix = seconds(6);
constexpr Duration kWindow = seconds(2);
// Campaign clock, relative to the end of the prefix: the outage starts
// at 0.5 s and heals at 1.5 s, half a second before the 2 s window ends.
constexpr Duration kEventAt = milliseconds(500);
constexpr Duration kEventLen = seconds(1);
static_assert(kEventAt + kEventLen < kWindow,
              "campaign events must heal strictly inside the window");

FleetOptions fleet_options(std::uint64_t fleet_seed, int jobs) {
  FleetOptions o;
  o.seed = fleet_seed;
  o.homes = kHomesPerFleet;
  o.jobs = jobs;
  o.shard_size = 5;
  o.population.sensors = {4, 8};
  o.population.rate_hz = {4.0, 12.0};
  o.population.sim_duration = kWindow;
  o.warm.enabled = true;
  o.warm.prefix = kPrefix;
  o.warm.attest_sample = 0.05;
  o.warm.resalt = 0x77a7;
  o.observe.top_k = 16;
  return o;
}

std::vector<CampaignPlan> campaigns() {
  const CampaignFault kinds[] = {CampaignFault::kWifiOutage,
                                 CampaignFault::kPowerBlip,
                                 CampaignFault::kSensorDegrade};
  std::vector<CampaignPlan> plans;
  for (double fraction : {0.3, 0.15}) {
    for (CampaignFault kind : kinds) {
      CampaignEvent ev;
      ev.kind = kind;
      ev.at = kEventAt;
      ev.duration = kEventLen;
      ev.fraction = fraction;
      CampaignPlan plan;
      plan.events.push_back(ev);
      plans.push_back(plan);
    }
  }
  return plans;
}

// Per-campaign fault digest and merged-metrics fingerprint, in order.
std::uint64_t fleet_digest(const std::vector<FleetResult>& results) {
  hash::Fnv1aStream h;
  for (const FleetResult& r : results) {
    const std::uint64_t fp = registry_fingerprint(r.merged);
    h.put(&r.fault_digest, sizeof r.fault_digest);
    h.put(&fp, sizeof fp);
  }
  return h.value();
}

// The fields a probe row must reproduce.
bool same_row(const HomeOutcome& a, const HomeOutcome& b) {
  return a.fault_hash == b.fault_hash && a.sim_events == b.sim_events &&
         a.emitted == b.emitted && a.delivered == b.delivered;
}

struct ProbeTotals {
  std::uint64_t rows{0};
  std::uint64_t mismatched{0};
  std::uint64_t rejected{0};  // clone rejected or attestation failed
  std::uint64_t injected{0};
  std::uint64_t noops{0};
  std::uint64_t sim_events{0};  // fired inside sim.warmup + sim.window
  double image_bytes{0};
  std::uint64_t images{0};
};

// One home of the warm sweep, step by step: the same calls, in the same
// order, that the fleet runner's warm path makes for it.
void probe_home(const FleetOptions& opt, const std::vector<CampaignPlan>& plans,
                std::uint64_t index,
                const std::vector<std::vector<HomeOutcome>>& ref_rows,
                Tracer& tr, ProbeTotals& t) {
  HomeSpec spec;
  {
    Tracer::Scope sp(tr, "fleet.sample");
    spec = sample_home(opt.population, opt.seed, index);
  }
  // Warm source: build, fault-free prefix, capture. The attested capture
  // is an extra copy taken only so every probed clone can be attested.
  checkpoint::WarmImage img;
  checkpoint::WarmImage img_attest;
  const bool attest = home_attested(opt.seed, index, opt.warm.attest_sample);
  {
    std::unique_ptr<workload::HomeDeployment> src;
    {
      Tracer::Scope sp(tr, "workload.build");
      src = build_home(spec);
    }
    {
      Tracer::Scope sp(tr, "sim.warmup");
      checkpoint::enable_clone_tracking(*src);
      src->start();
      src->run_for(opt.warm.prefix);
    }
    t.sim_events += src->sim().events_fired();
    {
      Tracer::Scope sp(tr, "checkpoint.capture");
      checkpoint::capture_warm_home(*src, spec.seed, img, attest);
    }
    checkpoint::capture_warm_home(*src, spec.seed, img_attest, true);
    t.image_bytes += static_cast<double>(img.bytes());
    ++t.images;
    Tracer::Scope sp(tr, "workload.teardown");
    src.reset();
  }

  metrics::Registry merged;
  for (std::size_t c = 0; c < plans.size(); ++c) {
    tr.next_op();
    HomeOutcome out;
    out.seed = spec.seed;
    out.n_processes = static_cast<std::uint32_t>(spec.n_processes);
    out.n_sensors = static_cast<std::uint32_t>(spec.sensors.size());
    std::unique_ptr<workload::HomeDeployment> home;
    {
      Tracer::Scope sp(tr, "workload.build");
      home = build_home(spec);
    }
    {
      chaos::TraceRecorder fault_trace;
      chaos::FaultInjector injector(*home, fault_trace);
      std::uint64_t delivered_at_heal = 0;
      bool probed = false;
      bool applied = false;
      std::string err;
      {
        Tracer::Scope sp(tr, "checkpoint.apply");
        applied = checkpoint::apply_warm_home(img, *home, spec.seed, &err);
      }
      if (applied && c == 0) {
        Tracer::Scope sp(tr, "checkpoint.attest");
        applied = checkpoint::attest_clone(img_attest, *home).empty();
      }
      ++t.rows;
      if (!applied) {
        ++t.rejected;
        continue;
      }
      const std::uint64_t salt =
          opt.warm.resalt == 0 ? 0 : derive_seed(opt.warm.resalt, c);
      if (salt != 0) home->bus().perturb(salt);
      const std::uint64_t events0 = home->sim().events_fired();
      {
        Tracer::Scope sp(tr, "chaos.arm");
        chaos::FaultPlan plan = stamp_home_plan(plans[c], opt.seed, spec);
        if (!plan.actions.empty()) {
          out.hit = true;
          injector.arm(plan, {}, opt.warm.prefix);
          const TimePoint sim_end =
              TimePoint{} + opt.warm.prefix + spec.sim_duration;
          const TimePoint heal =
              last_heal_time(plans[c], opt.seed, index) + opt.warm.prefix;
          if (heal < sim_end) {
            workload::HomeDeployment* h = home.get();
            home->sim().schedule_at(heal, [h, &delivered_at_heal, &probed] {
              delivered_at_heal = total_delivered(h->metrics());
              probed = true;
            });
          }
        }
      }
      {
        Tracer::Scope sp(tr, "sim.window");
        home->run_for(spec.sim_duration);
      }
      t.sim_events += home->sim().events_fired() - events0;
      const metrics::Registry& m = home->metrics();
      out.delivered = total_delivered(m);
      out.sim_events = home->sim().events_fired();
      for (SensorId s : home->bus().sensors())
        out.emitted += home->bus().sensor(s).events_emitted();
      out.faults_injected =
          static_cast<std::uint32_t>(injector.injected() + injector.noops());
      t.injected += injector.injected();
      t.noops += injector.noops();
      if (out.hit) {
        out.fault_hash = fault_trace.hash();
        out.survived = probed && out.delivered > delivered_at_heal;
      } else {
        out.survived = out.delivered > 0;
      }
      {
        Tracer::Scope sp(tr, "observe.score");
        (void)score_home(opt.observe.slo, index, out, m);
      }
      {
        Tracer::Scope sp(tr, "metrics.merge");
        merged.merge_scalars_from(m);
      }
    }
    if (!same_row(out, ref_rows[c][index])) ++t.mismatched;
    Tracer::Scope sp(tr, "workload.teardown");
    home.reset();
  }
}

}  // namespace

Report run_fleet_sweep(const RunOptions& ro, Tracer& tr) {
  const std::vector<CampaignPlan> plans = campaigns();
  const std::uint64_t ops_per_fleet = kHomesPerFleet * plans.size();
  const std::uint64_t ops_per_pass = kFleets * ops_per_fleet;
  Report r;

  // Set-up, timed once and cold: from process start through the options
  // of every fleet and a warm-up sweep of two homes per job in one-home
  // shards. The warm-up is the process's first simulation and its first
  // parallel_map, so it also starts the WorkerPool threads.
  std::vector<FleetOptions> fleets;
  for (std::uint64_t f = 0; f < kFleets; ++f)
    fleets.push_back(fleet_options(derive_seed(ro.seed, f), ro.jobs));
  {
    FleetOptions warm = fleets[0];
    warm.homes = 2 * static_cast<std::uint64_t>(std::max(ro.jobs, 1));
    warm.shard_size = 1;
    (void)run_fleet_campaigns(warm, plans);
  }
  const double setup_s = now_s() - ro.start_s;
  if (ro.setup_only) {
    r.metric("setup_s", setup_s, "s");
    return r;
  }

  std::vector<double> pass_walls, pass_rates;
  // Best time of each fleet over the passes (see chaos_workloads.cpp).
  std::vector<double> best_s(kFleets, 1e300);
  std::vector<std::vector<FleetResult>> first(kFleets);
  std::uint64_t pass_events = 0;
  std::uint64_t digest0 = 0;
  const std::uint64_t allocs0 = total_allocs();
  const double t_start = now_s();
  for (int pass = 0;; ++pass) {
    hash::Fnv1aStream h;
    std::uint64_t events = 0;
    const double p0 = now_s();
    for (std::uint64_t f = 0; f < kFleets; ++f) {
      std::vector<FleetResult> results;
      bool threw = false;
      const double t0 = now_s();
      try {
        Tracer::Scope sp(tr, "fleet.run_campaigns");
        results = run_fleet_campaigns(fleets[f], plans);
      } catch (const std::exception& e) {
        // A rejected or mis-attested warm clone aborts the sweep.
        threw = true;
        r.note("error", e.what());
      }
      best_s[f] = std::min(best_s[f], now_s() - t0);
      r.attempted += ops_per_fleet;
      if (threw) r.failed += ops_per_fleet;
      for (const FleetResult& fr : results) events += fr.sim_events;
      const std::uint64_t d = threw ? 0 : fleet_digest(results);
      h.put(&d, sizeof d);
      if (pass == 0) first[f] = std::move(results);
    }
    const double wall = now_s() - p0;
    pass_walls.push_back(wall);
    pass_rates.push_back(static_cast<double>(ops_per_pass) / wall);
    if (pass == 0) {
      digest0 = h.value();
      pass_events = events;
    }
    if (h.value() != digest0) r.consistent = false;
    ++r.passes;
    if (now_s() - t_start >= ro.seconds) break;
  }
  // Every worker is idle between run_fleet_campaigns calls, so the fold
  // of the per-thread counters is exact here.
  const double pass_allocs = static_cast<double>(total_allocs() - allocs0);
  r.sim_digest = hash::fnv1a_digest(digest0);
  for (double b : best_s) r.best_pass_s += b;
  r.note_pass_walls(pass_walls);

  if (!tr.on()) {
    const double best_pass_s = r.best_pass_s;
    const double homes_per_s = static_cast<double>(ops_per_pass) / best_pass_s;
    r.metric("setup_s", setup_s, "s");
    r.metric("ops_per_s", homes_per_s, "ops/s");
    r.metric("sim_events_per_s",
             static_cast<double>(pass_events) / best_pass_s, "events/s");
    r.add_info("homes_per_s", homes_per_s, "runs/s");
    r.add_info("pass_homes_per_s_p50", median(pass_rates), "runs/s");
    return r;
  }

  // ---- traced run -------------------------------------------------------
  // Modelled counts and survival from the first pass.
  ModelCounts counts;
  double delivered = 0, emitted = 0, hit = 0, hit_survived = 0;
  std::uint64_t attested = 0;
  for (std::uint64_t f = 0; f < kFleets; ++f) {
    for (const FleetResult& fr : first[f]) {
      counts += model_counts(fr.merged);
      delivered += static_cast<double>(fr.delivered);
      emitted += static_cast<double>(fr.emitted);
      hit += static_cast<double>(fr.homes_hit);
      hit_survived += static_cast<double>(fr.homes_hit_survived);
    }
    for (std::uint64_t i = 0; i < kHomesPerFleet; ++i)
      attested += home_attested(fleets[f].seed, i,
                                fleets[f].warm.attest_sample) ? 1 : 0;
  }
  report_model_counts(counts, static_cast<double>(ops_per_pass), delivered,
                      emitted, r);
  r.metric("fleet.survival_frac", ratio(hit_survived, hit), "frac");
  r.metric("bench.allocs_per_op",
           ratio(pass_allocs, static_cast<double>(r.attempted)), "count");
  r.metric("checkpoint.attested", static_cast<double>(attested), "count");

  // Scaling: each fleet at one job and at the run's jobs, back to back so
  // both legs see the same host conditions.
  {
    double wall1 = 0, wall_n = 0;
    for (FleetOptions f : fleets) {
      f.jobs = 1;
      double t0 = now_s();
      (void)run_fleet_campaigns(f, plans);
      wall1 += now_s() - t0;
      f.jobs = ro.jobs;
      t0 = now_s();
      (void)run_fleet_campaigns(f, plans);
      wall_n += now_s() - t0;
    }
    r.metric("fleet.scaling_eff",
             ratio(wall1, static_cast<double>(std::max(ro.jobs, 1)) * wall_n),
             "frac");
  }

  // Probe: the first kProbeHomes homes step by step, checked row for row
  // against the fleet runner on the same homes.
  FleetOptions probe_opt = fleets[0];
  probe_opt.homes = kProbeHomes;
  probe_opt.keep_home_rows = true;
  std::vector<std::vector<HomeOutcome>> ref_rows;
  for (const FleetResult& fr : run_fleet_campaigns(probe_opt, plans))
    ref_rows.push_back(fr.rows);
  ProbeTotals pt;
  for (std::uint64_t i = 0; i < kProbeHomes; ++i) {
    tr.next_op();
    probe_home(probe_opt, plans, i, ref_rows, tr, pt);
  }
  r.attempted += pt.rows;
  r.failed += pt.mismatched + pt.rejected;

  const Tracer::Totals warmup = tr.totals("sim.warmup");
  const Tracer::Totals window = tr.totals("sim.window");
  const Tracer::Totals build = tr.totals("workload.build");
  const Tracer::Totals apply = tr.totals("checkpoint.apply");
  const double sim_events = static_cast<double>(pt.sim_events);
  r.metric("sim.ns_per_event", ratio(warmup.ns + window.ns, sim_events),
           "ns");
  r.metric("sim.allocs_per_event",
           ratio(warmup.allocs + window.allocs, sim_events), "count");
  r.metric("chaos.arm_us", tr.totals("chaos.arm").mean_us(), "us");
  r.metric("chaos.faults_injected",
           ratio(static_cast<double>(pt.injected),
                 static_cast<double>(pt.rows)),
           "count");
  r.metric("chaos.noop_frac",
           ratio(static_cast<double>(pt.noops),
                 static_cast<double>(pt.injected + pt.noops)),
           "frac");
  r.metric("fleet.sample_us", tr.totals("fleet.sample").mean_us(), "us");
  r.metric("workload.build_us", build.mean_us(), "us");
  r.metric("workload.build_allocs", build.mean_allocs(), "count");
  r.metric("workload.teardown_us", tr.totals("workload.teardown").mean_us(),
           "us");
  r.metric("sim.warmup_us", warmup.mean_us(), "us");
  r.metric("sim.window_us", window.mean_us(), "us");
  r.metric("metrics.merge_us", tr.totals("metrics.merge").mean_us(), "us");
  r.metric("observe.score_us", tr.totals("observe.score").mean_us(), "us");
  r.metric("checkpoint.capture_us",
           tr.totals("checkpoint.capture").mean_us(), "us");
  r.metric("checkpoint.image_bytes",
           ratio(pt.image_bytes, static_cast<double>(pt.images)), "bytes");
  r.metric("checkpoint.apply_us", apply.mean_us(), "us");
  r.metric("checkpoint.apply_allocs", apply.mean_allocs(), "count");
  r.metric("checkpoint.attest_us", tr.totals("checkpoint.attest").mean_us(),
           "us");
  return r;
}

}  // namespace rivbench
