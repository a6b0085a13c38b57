#include "fleet/fleet.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "chaos/injector.hpp"
#include "chaos/trace.hpp"
#include "checkpoint/clone.hpp"
#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "trace/provenance.hpp"

namespace riv::fleet {

namespace {

constexpr std::uint64_t kAttestSalt = 0x5761'726d'4174'7431ULL;  // "WarmAtt1"

// Uniform [0,1) from a mixed 64-bit state (same mantissa trick as Rng).
double unit_from(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

// Per-campaign RNG salt folded into the device RNGs at the prefix point
// (identically on the warm and cold paths). Zero = resalting off.
std::uint64_t campaign_salt(const WarmOptions& warm, std::uint64_t campaign) {
  return warm.resalt == 0 ? 0 : derive_seed(warm.resalt, campaign);
}

void fnv_u64(hash::Fnv1aStream& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    h.put(static_cast<std::uint8_t>((v >> (8 * b)) & 0xff));
}

void fnv_i64(hash::Fnv1aStream& h, std::int64_t v) {
  fnv_u64(h, static_cast<std::uint64_t>(v));
}

// Everything one shard (a contiguous run of home indices) produces;
// combined on the main thread in shard order so the fleet result never
// depends on worker scheduling.
struct ShardResult {
  metrics::Registry merged;
  std::vector<std::uint64_t> fault_hashes;  // one per home, index order
  std::vector<HomeOutcome> rows;
  Observation obs;
  std::uint64_t processes{0};
  std::uint64_t sensors{0};
  std::uint64_t sim_events{0};
  std::uint64_t emitted{0};
  std::uint64_t delivered{0};
  std::uint64_t faults_injected{0};
  std::uint64_t homes_hit{0};
  std::uint64_t homes_hit_survived{0};
  std::uint64_t homes_survived{0};
};

// The one execution envelope for a fleet home — run_fleet's shard loop
// and run_home (triage replays) both come through here, which is what
// makes a replayed trace byte-identical to the sampled recording. When
// `flight` is non-null it is installed as the current trace sink before
// any simulation object exists and stays installed through deployment
// teardown (same discipline as ChaosSession; scoping below is
// load-bearing). `after_run(outcome, metrics)` fires after the simulation
// finishes, while the home's own registry is still alive — the only
// window in which per-home health can be scored without copying.
//
// Three entry modes share the envelope (WarmOptions, fleet.hpp):
//   * prefix == 0, image == null — the historical path: faults armed
//     before start(), byte-compatible with pre-warm fleet digests.
//   * prefix > 0, image == null — cold reference: run the fault-free
//     prefix, fold in the campaign salt, arm the campaign shifted past
//     the prefix, run the window.
//   * image != null — warm clone: restore the captured prefix state into
//     the freshly built deployment (never started; the snapshot carries
//     every pending timer), then salt/arm/run exactly as the cold leg
//     does from its prefix point. Identical (id, seq) timer counters at
//     the arm point are what make the two legs bit-identical.
template <typename AfterRun>
HomeOutcome execute_home(const FleetOptions& opt, const CampaignPlan& campaign,
                         std::uint64_t salt, std::uint64_t index,
                         trace::Recorder* flight,
                         const checkpoint::WarmImage* image, bool attest,
                         AfterRun&& after_run) {
  std::optional<trace::Scope> flight_scope;
  if (flight != nullptr) flight_scope.emplace(*flight);

  const HomeSpec spec = sample_home(opt.population, opt.seed, index);
  std::unique_ptr<workload::HomeDeployment> home = build_home(spec);
  const Duration prefix = opt.warm.prefix;

  HomeOutcome out;
  out.seed = spec.seed;
  out.n_processes = static_cast<std::uint32_t>(spec.n_processes);
  out.n_sensors = static_cast<std::uint32_t>(spec.sensors.size());

  {
    // Campaign projection: arm this home's stamped fault plan (if any
    // event sampled it) and plant the survival probe at the last heal.
    // Inner scope: the injector references the home and must be gone
    // before the home is torn down below.
    chaos::TraceRecorder fault_trace;
    chaos::FaultInjector injector(*home, fault_trace);
    std::uint64_t delivered_at_heal = 0;
    bool probed = false;
    const TimePoint sim_end = TimePoint{} + prefix + spec.sim_duration;
    auto arm_campaign = [&] {
      if (campaign.empty()) return;
      chaos::FaultPlan plan = stamp_home_plan(campaign, opt.seed, spec);
      if (plan.actions.empty()) return;
      out.hit = true;
      injector.arm(plan, {}, prefix);
      const TimePoint heal = last_heal_time(campaign, opt.seed, index) + prefix;
      if (heal < sim_end) {
        workload::HomeDeployment* h = home.get();
        home->sim().schedule_at(heal, [h, &delivered_at_heal, &probed] {
          delivered_at_heal = total_delivered(h->metrics());
          probed = true;
        });
      }
    };

    if (image != nullptr) {
      std::string err;
      if (!checkpoint::apply_warm_home(*image, *home, spec.seed, &err))
        throw std::runtime_error("warm clone rejected (home " +
                                 std::to_string(index) + "): " + err);
      if (attest) {
        const std::string diff = checkpoint::attest_clone(*image, *home);
        if (!diff.empty())
          throw std::runtime_error("warm clone attestation failed (home " +
                                   std::to_string(index) + "): " + diff);
      }
      if (salt != 0) home->bus().perturb(salt);
      arm_campaign();
      home->run_for(spec.sim_duration);
    } else if (prefix.us > 0) {
      home->start();
      home->run_for(prefix);
      if (salt != 0) home->bus().perturb(salt);
      arm_campaign();
      home->run_for(spec.sim_duration);
    } else {
      if (salt != 0) home->bus().perturb(salt);
      arm_campaign();
      home->start();
      home->run_for(spec.sim_duration);
    }

    const metrics::Registry& m = home->metrics();
    out.delivered = total_delivered(m);
    out.sim_events = home->sim().events_fired();
    for (SensorId s : home->bus().sensors())
      out.emitted += home->bus().sensor(s).events_emitted();
    out.faults_injected =
        static_cast<std::uint32_t>(injector.injected() + injector.noops());
    if (out.hit) {
      out.fault_hash = fault_trace.hash();
      // Survived = delivered after the last fault healed. An outage that
      // outlives the home's window never gets a post-heal probe and counts
      // as not survived.
      out.survived = probed && out.delivered > delivered_at_heal;
    } else {
      out.survived = out.delivered > 0;
    }
    after_run(static_cast<const HomeOutcome&>(out), m);
  }
  // Tear the home down while the flight scope is still installed so the
  // shutdown records land in the trace (triage replays and sampled
  // recordings must see the same byte stream).
  home.reset();
  return out;
}

// One fleet home, with observability: sample-or-not is a pure function of
// (fleet_seed, index), health rows are scored in the after-run window,
// and a sampled home's trace is analyzed (and optionally saved) right
// here on the worker — only bounded derivatives enter the shard fold.
HomeOutcome run_one_home(const FleetOptions& opt, const CampaignPlan& campaign,
                         std::uint64_t salt, std::uint64_t index,
                         ShardResult& shard,
                         const checkpoint::WarmImage* image, bool attest) {
  const ObserveOptions& ob = opt.observe;
  const bool sampled = home_sampled(opt.seed, index, ob.sample);
  // Flight-sampled homes always run cold: a recording of a cloned home
  // would not be replayable from scratch by fleet_triage.
  RIV_ASSERT(image == nullptr || !sampled,
             "warm clone offered for a flight-sampled home");

  std::optional<trace::Recorder> flight;
  if (sampled) flight.emplace(ob.flight_mask);

  HomeHealth health;
  HomeOutcome out = execute_home(
      opt, campaign, salt, index, sampled ? &*flight : nullptr, image, attest,
      [&](const HomeOutcome& o, const metrics::Registry& m) {
        if (ob.top_k > 0 || sampled) health = score_home(ob.slo, index, o, m);
        shard.merged.merge_scalars_from(m);
      });

  if (sampled) {
    const trace::Analysis an = trace::analyze(flight->records());
    apply_provenance(health, an);
    for (int s = 1; s < trace::kStageCount; ++s)
      shard.obs.leg[static_cast<std::size_t>(s)].merge(
          an.leg[static_cast<std::size_t>(s)]);
    shard.obs.e2e_delivery.merge(an.e2e_delivery);
    shard.obs.chains += an.n_chains;
    shard.obs.orphans += an.orphans.size();
    shard.obs.unexplained_orphans += an.unexplained_orphans();
    shard.obs.duplicates += an.duplicates.size();
    TraceSample samp;
    samp.index = index;
    samp.seed = out.seed;
    samp.trace_hash = flight->hash();
    samp.records = flight->size();
    samp.bytes = flight->payload_bytes();
    shard.obs.trace_records += samp.records;
    shard.obs.trace_bytes += samp.bytes;
    shard.obs.samples.push_back(samp);
    if (!ob.trace_dir.empty()) {
      const std::string path =
          ob.trace_dir + "/home-" + std::to_string(index) + ".rivtrace";
      std::string err;
      if (!flight->save(path, &err))
        throw std::runtime_error("fleet trace save: " + err);
    }
  }
  if (ob.top_k > 0) shard.obs.top.add(health);
  return out;
}

void accumulate_row(const FleetOptions& opt, ShardResult& shard,
                    const HomeOutcome& row) {
  shard.fault_hashes.push_back(row.fault_hash);
  shard.processes += row.n_processes;
  shard.sensors += row.n_sensors;
  shard.sim_events += row.sim_events;
  shard.emitted += row.emitted;
  shard.delivered += row.delivered;
  shard.faults_injected += row.faults_injected;
  if (row.hit) {
    ++shard.homes_hit;
    if (row.survived) ++shard.homes_hit_survived;
  } else if (row.survived) {
    ++shard.homes_survived;
  }
  if (opt.keep_home_rows) shard.rows.push_back(row);
}

// One shard of a multi-campaign sweep: one ShardResult per campaign.
// With warm execution each non-sampled home is built + warmed once, its
// prefix state snapshotted, and the snapshot restored into a fresh
// deployment per campaign. The WarmImage is shard-local scratch whose
// buffers keep their capacity from home to home (pooled shard memory).
std::vector<ShardResult> run_shard_campaigns(
    const FleetOptions& opt, const std::vector<CampaignPlan>& campaigns,
    std::uint64_t first, std::uint64_t last) {
  std::vector<ShardResult> shards(campaigns.size());
  for (ShardResult& s : shards) {
    s.obs.top = TopKHealth{opt.observe.top_k};
    s.fault_hashes.reserve(last - first);
  }
  const bool warm = opt.warm.enabled && opt.warm.prefix.us > 0;
  checkpoint::WarmImage img;
  for (std::uint64_t i = first; i < last; ++i) {
    const bool sampled = home_sampled(opt.seed, i, opt.observe.sample);
    const bool use_warm = warm && !sampled;
    bool attest = false;
    if (use_warm) {
      attest = home_attested(opt.seed, i, opt.warm.attest_sample);
      // Warm source: construction + fault-free prefix paid once per home,
      // regardless of how many campaigns fan out below.
      const HomeSpec spec = sample_home(opt.population, opt.seed, i);
      std::unique_ptr<workload::HomeDeployment> home = build_home(spec);
      home->start();
      home->run_for(opt.warm.prefix);
      checkpoint::capture_warm_home(*home, spec.seed, img);
    }
    for (std::size_t c = 0; c < campaigns.size(); ++c) {
      HomeOutcome row = run_one_home(
          opt, campaigns[c], campaign_salt(opt.warm, c), i, shards[c],
          use_warm ? &img : nullptr, attest && c == 0);
      accumulate_row(opt, shards[c], row);
    }
  }
  return shards;
}

}  // namespace

std::vector<FleetResult> run_fleet_campaigns(
    const FleetOptions& opt, const std::vector<CampaignPlan>& campaigns) {
  RIV_ASSERT(!campaigns.empty(), "run_fleet_campaigns needs >= 1 campaign");
  const std::uint64_t shard_size = opt.shard_size > 0 ? opt.shard_size : 64;
  const std::uint64_t n_shards =
      opt.homes == 0 ? 0 : (opt.homes + shard_size - 1) / shard_size;

  std::vector<std::vector<ShardResult>> shards =
      parallel_map<std::vector<ShardResult>>(
          opt.jobs, n_shards, [&opt, &campaigns, shard_size](std::size_t s) {
            const std::uint64_t first = s * shard_size;
            const std::uint64_t last =
                std::min<std::uint64_t>(first + shard_size, opt.homes);
            return run_shard_campaigns(opt, campaigns, first, last);
          });

  std::vector<FleetResult> results(campaigns.size());
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    FleetResult& r = results[c];
    r.homes = opt.homes;
    r.observation.top = TopKHealth{opt.observe.top_k};
    hash::Fnv1aStream digest;
    for (std::vector<ShardResult>& per_campaign : shards) {
      ShardResult& shard = per_campaign[c];
      r.merged.merge_scalars_from(shard.merged);
      r.observation.fold_from(shard.obs);
      r.processes += shard.processes;
      r.sensors += shard.sensors;
      r.sim_events += shard.sim_events;
      r.emitted += shard.emitted;
      r.delivered += shard.delivered;
      r.faults_injected += shard.faults_injected;
      r.homes_hit += shard.homes_hit;
      r.homes_hit_survived += shard.homes_hit_survived;
      r.homes_survived += shard.homes_survived;
      for (std::uint64_t h : shard.fault_hashes) fnv_u64(digest, h);
      if (opt.keep_home_rows)
        r.rows.insert(r.rows.end(), shard.rows.begin(), shard.rows.end());
    }
    r.fault_digest = digest.value();
  }
  return results;
}

FleetResult run_fleet(const FleetOptions& opt) {
  std::vector<FleetResult> results = run_fleet_campaigns(opt, {opt.campaign});
  return std::move(results[0]);
}

bool home_attested(std::uint64_t fleet_seed, std::uint64_t home_index,
                   double fraction) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  return unit_from(derive_seed(fleet_seed ^ kAttestSalt, home_index)) <
         fraction;
}

HomeRun run_home(const FleetOptions& opt, std::uint64_t index, bool traced,
                 std::uint32_t flight_mask) {
  HomeRun r;
  if (traced) r.flight = std::make_shared<trace::Recorder>(flight_mask);
  // Campaign-0 salt: triage replays reproduce single-campaign runs (the
  // only kind fleet_triage points at) exactly; sampled homes of a sweep
  // replay under their own campaign via the same salt derivation.
  r.outcome = execute_home(
      opt, opt.campaign, campaign_salt(opt.warm, 0), index, r.flight.get(),
      nullptr, false,
      [&r](const HomeOutcome&, const metrics::Registry& m) {
        r.metrics = m;
      });
  return r;
}

std::uint64_t total_delivered(const metrics::Registry& reg) {
  static constexpr char kSuffix[] = ".delivered";
  constexpr std::size_t kLen = sizeof(kSuffix) - 1;
  std::uint64_t total = 0;
  for (const auto& [name, counter] : reg.counters()) {
    if (name.size() >= kLen &&
        name.compare(name.size() - kLen, kLen, kSuffix) == 0)
      total += counter.value();
  }
  return total;
}

std::uint64_t registry_fingerprint(const metrics::Registry& reg) {
  hash::Fnv1aStream h;
  for (const auto& [name, counter] : reg.counters()) {
    h.put(name.data(), name.size());
    fnv_u64(h, counter.value());
  }
  for (const auto& [name, lat] : reg.latencies()) {
    h.put(name.data(), name.size());
    const metrics::Histogram& hist = lat.hist();
    fnv_u64(h, hist.count());
    fnv_u64(h, hist.overflow());
    fnv_i64(h, hist.sum_us());
    fnv_i64(h, hist.min().us);
    fnv_i64(h, hist.max().us);
    for (std::uint64_t b : hist.buckets()) fnv_u64(h, b);
  }
  return h.value();
}

Dashboard make_dashboard(const FleetResult& r, double wall_s, int jobs) {
  Dashboard d;
  if (wall_s > 0) {
    d.homes_per_sec = static_cast<double>(r.homes) / wall_s;
    d.events_per_sec_per_core = static_cast<double>(r.sim_events) /
                                (wall_s * (jobs > 0 ? jobs : 1));
  }
  if (r.homes > 0) {
    d.bytes_per_home =
        static_cast<double>(r.merged.counter_sum("net.bytes.")) /
        static_cast<double>(r.homes);
  }
  if (r.homes_hit > 0) {
    // Survival over the homes the campaign actually touched: the number
    // every correlated-outage experiment is after.
    d.survival_rate = static_cast<double>(r.homes_hit_survived) /
                      static_cast<double>(r.homes_hit);
  }
  // Population delivery latency: every home's app delay histograms merged.
  metrics::Histogram delay;
  for (const auto& [name, lat] : r.merged.latencies()) {
    if (name.size() >= 6 &&
        name.compare(name.size() - 6, 6, ".delay") == 0)
      delay.merge(lat.hist());
  }
  d.delay_p50 = delay.percentile(0.50);
  d.delay_p99 = delay.percentile(0.99);
  d.delay_max = delay.max();
  return d;
}

std::string render_dashboard(const FleetResult& r, const Dashboard& d) {
  char buf[1024];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "homes           %12llu   (%llu processes, %llu sensors)\n",
                static_cast<unsigned long long>(r.homes),
                static_cast<unsigned long long>(r.processes),
                static_cast<unsigned long long>(r.sensors));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "events          %12llu sim   %llu emitted   %llu delivered\n",
                static_cast<unsigned long long>(r.sim_events),
                static_cast<unsigned long long>(r.emitted),
                static_cast<unsigned long long>(r.delivered));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "throughput      %12.0f homes/s   %.0f events/s/core\n",
                d.homes_per_sec, d.events_per_sec_per_core);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "delivery delay  p50 %.2fms   p99 %.2fms   max %.2fms\n",
                d.delay_p50.millis(), d.delay_p99.millis(),
                d.delay_max.millis());
  out += buf;
  std::snprintf(buf, sizeof(buf), "network         %.0f bytes/home\n",
                d.bytes_per_home);
  out += buf;
  if (r.homes_hit > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "chaos           %llu homes hit (%.2f%%)   %llu faults   "
        "survival %.2f%%\n",
        static_cast<unsigned long long>(r.homes_hit),
        100.0 * static_cast<double>(r.homes_hit) /
            static_cast<double>(r.homes),
        static_cast<unsigned long long>(r.faults_injected),
        100.0 * d.survival_rate);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "digest          faults=%s metrics=%s\n",
                hash::fnv1a_digest(r.fault_digest).c_str(),
                hash::fnv1a_digest(registry_fingerprint(r.merged)).c_str());
  out += buf;
  return out;
}

}  // namespace riv::fleet
