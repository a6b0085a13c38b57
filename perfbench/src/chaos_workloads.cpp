// chaos_sweep and flight_audit: serial chaos seeds on the default scenario
// (gapless, 4 processes, 2 receivers, 10 Hz, 10% device-link loss).
//
//   chaos_sweep   default non-Byzantine fault plan, no flight recorder.
//   flight_audit  the Byzantine corpus fault kinds (crash, spoof-event,
//                 replay-event, corrupt-begin) with a full-mask in-memory
//                 flight recorder; every seed's records are then decoded,
//                 analysed and audited, and both verdicts must pass.
//
// The input set is a fixed run of consecutive chaos seeds derived from the
// workload seed. A pass runs the whole set; passes repeat until the run's
// time is up, and every pass must reproduce the first pass's digest.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "chaos/engine.hpp"
#include "common/hash.hpp"
#include "metrics/metrics.hpp"
#include "model_counts.hpp"
#include "trace/provenance.hpp"
#include "workload/deployment.hpp"

namespace rivbench {
namespace {

using namespace riv;

constexpr std::uint64_t kSweepSeeds = 64;
constexpr std::uint64_t kAuditSeeds = 24;

// Consecutive chaos seeds; sets of neighbouring workload seeds never
// overlap.
std::uint64_t first_chaos_seed(std::uint64_t workload_seed) {
  return 1 + workload_seed * 1000;
}

chaos::EngineOptions sweep_options() { return chaos::EngineOptions{}; }

// scripts/check_byzantine_corpus.sh's --kinds set: every plan category
// off, then crash/recover and the three Byzantine categories on.
chaos::EngineOptions audit_options() {
  chaos::EngineOptions o;
  chaos::PlanOptions& p = o.plan;
  p.crashes = true;
  p.partitions = false;
  p.asym_partitions = false;
  p.delay_spikes = false;
  p.edge_loss = false;
  p.device_link_loss = false;
  p.device_crashes = false;
  p.spoof_events = true;
  p.replay_events = true;
  p.corrupt_process = true;
  o.flight = true;
  o.flight_mask = trace::kAllComponents;
  return o;
}

struct SeedOutcome {
  bool ok{false};
  std::uint64_t trace_hash{0};
  std::uint64_t flight_hash{0};
  std::uint64_t sim_events{0};
  std::uint64_t run_events{0};  // fired inside run_to (before the drain)
  std::uint64_t emitted{0};
  std::uint64_t delivered{0};
  std::uint64_t faults_injected{0};
  std::uint64_t faults_noop{0};
  std::uint64_t records{0};
  std::uint64_t record_bytes{0};
  std::uint64_t attacks{0};
  std::uint64_t detected{0};
  double capture_s{0};  // session construction through teardown
  double analyze_s{0};  // records() + analyze + audit + both checks
  ModelCounts counts;   // traced run only
};

SeedOutcome run_seed(chaos::EngineOptions opt, std::uint64_t seed,
                     Tracer& tr) {
  opt.scenario.seed = seed;
  SeedOutcome out;
  chaos::ChaosResult res;
  std::shared_ptr<trace::Recorder> flight;
  const double t0 = now_s();
  {
    std::optional<chaos::ChaosSession> s;
    {
      Tracer::Scope sp(tr, "chaos.build");
      s.emplace(opt);
    }
    {
      Tracer::Scope sp(tr, "chaos.run");
      s->run_to(s->run_end());
    }
    out.run_events = s->home().sim().events_fired();
    {
      Tracer::Scope sp(tr, "chaos.finish");
      s->finish(res);
    }
    if (tr.on()) out.counts = model_counts(s->home().metrics());
    flight = s->flight();
    {
      Tracer::Scope sp(tr, "chaos.teardown");
      s.reset();
    }
  }
  const double t1 = now_s();
  out.capture_s = t1 - t0;
  out.ok = res.ok();
  out.trace_hash = res.trace_hash;
  out.sim_events = res.sim_events;
  out.emitted = res.emitted;
  out.delivered = res.delivered;
  out.faults_injected = res.faults_injected;
  out.faults_noop = res.faults_noop;
  if (flight == nullptr) return out;

  out.flight_hash = flight->hash();
  out.records = flight->size();
  out.record_bytes = flight->payload_bytes();
  std::vector<trace::Record> records;
  trace::Analysis an;
  trace::Audit au;
  {
    Tracer::Scope sp(tr, "trace.decode");
    records = flight->records();
  }
  {
    Tracer::Scope sp(tr, "provenance.analyze");
    an = trace::analyze(records);
  }
  {
    Tracer::Scope sp(tr, "provenance.audit");
    au = trace::audit(records);
  }
  const bool verdicts = trace::check(an).ok && trace::check(au).ok &&
                        au.all_accounted();
  out.analyze_s = now_s() - t1;
  out.ok = out.ok && verdicts;
  out.attacks = au.attacks;
  out.detected = au.detected;
  return out;
}

Report run_chaos_workload(const RunOptions& opt, Tracer& tr, bool audit) {
  const chaos::EngineOptions eng = audit ? audit_options() : sweep_options();
  const std::uint64_t n = audit ? kAuditSeeds : kSweepSeeds;
  const std::uint64_t base = first_chaos_seed(opt.seed);
  Report r;

  // Set-up, timed once and cold: from process start through the input
  // list and one warm-up seed just past the set. The warm-up is the
  // process's first simulation, so its first-touch costs (allocator
  // arenas, page faults, cold caches) land in setup_s and stay out of the
  // passes.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < n; ++i) seeds.push_back(base + i);
  {
    Tracer off(false);
    run_seed(eng, base + n, off);
  }
  const double setup_s = now_s() - opt.start_s;
  if (opt.setup_only) {
    r.metric("setup_s", setup_s, "s");
    return r;
  }

  std::vector<double> pass_walls, pass_seed_rates;
  std::vector<double> seed_ms;
  // Best time of each input over the passes: the work is identical every
  // pass, so the spread between passes is host interference.
  std::vector<double> best_s(seeds.size(), 1e300);
  std::uint64_t pass_events = 0;
  SeedOutcome sum;  // field-wise totals over every seed of every pass
  double capture_s = 0, analyze_s = 0;
  std::uint64_t digest0 = 0;
  const std::uint64_t allocs0 = total_allocs();
  const double t_start = now_s();
  for (int pass = 0;; ++pass) {
    hash::Fnv1aStream h;
    std::uint64_t events = 0;
    const double t0 = now_s();
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      tr.next_op();
      const SeedOutcome o = run_seed(eng, seeds[i], tr);
      ++r.attempted;
      if (!o.ok) ++r.failed;
      h.put(&o.trace_hash, sizeof o.trace_hash);
      if (audit) h.put(&o.flight_hash, sizeof o.flight_hash);
      events += o.sim_events;
      seed_ms.push_back((o.capture_s + o.analyze_s) * 1e3);
      best_s[i] = std::min(best_s[i], o.capture_s + o.analyze_s);
      capture_s += o.capture_s;
      analyze_s += o.analyze_s;
      sum.sim_events += o.sim_events;
      sum.run_events += o.run_events;
      sum.emitted += o.emitted;
      sum.delivered += o.delivered;
      sum.faults_injected += o.faults_injected;
      sum.faults_noop += o.faults_noop;
      sum.records += o.records;
      sum.record_bytes += o.record_bytes;
      sum.attacks += o.attacks;
      sum.detected += o.detected;
      sum.counts += o.counts;
    }
    const double wall = now_s() - t0;
    pass_walls.push_back(wall);
    pass_seed_rates.push_back(static_cast<double>(seeds.size()) / wall);
    if (pass == 0) {
      digest0 = h.value();
      pass_events = events;
    }
    if (h.value() != digest0) r.consistent = false;
    ++r.passes;
    if (now_s() - t_start >= opt.seconds) break;
  }
  const double pass_allocs = static_cast<double>(total_allocs() - allocs0);
  r.sim_digest = hash::fnv1a_digest(digest0);
  for (double b : best_s) r.best_pass_s += b;
  r.note_pass_walls(pass_walls);
  const double ops = static_cast<double>(r.attempted);

  if (!tr.on()) {
    const double best_pass_s = r.best_pass_s;
    const double seeds_per_s = static_cast<double>(seeds.size()) / best_pass_s;
    r.metric("setup_s", setup_s, "s");
    r.metric("ops_per_s", seeds_per_s, "ops/s");
    r.metric("sim_events_per_s",
             static_cast<double>(pass_events) / best_pass_s, "events/s");
    const int tail = tail_percentile(seed_ms.size());
    r.add_info("seeds_per_s", seeds_per_s, "seeds/s");
    r.add_info("pass_seeds_per_s_p50", median(pass_seed_rates), "seeds/s");
    r.add_info("seed_ms_p50", percentile(seed_ms, 50), "ms");
    r.add_info("seed_ms_tail", percentile(seed_ms, tail), "ms");
    char sample[48];
    std::snprintf(sample, sizeof sample, "p%d n=%zu", tail, seed_ms.size());
    r.note("seed_ms_tail", sample);
    if (audit) {
      r.add_info("records_per_s",
                 ratio(static_cast<double>(sum.records), capture_s),
                 "records/s");
      r.add_info("analyzed_records_per_s",
                 ratio(static_cast<double>(sum.records), analyze_s),
                 "records/s");
    }
    return r;
  }

  // ---- traced run: per-layer figures from the spans --------------------
  const Tracer::Totals run = tr.totals("chaos.run");
  r.metric("chaos.build_us", tr.totals("chaos.build").mean_us(), "us");
  r.metric("chaos.run_us", run.mean_us(), "us");
  r.metric("chaos.finish_us", tr.totals("chaos.finish").mean_us(), "us");
  r.metric("chaos.teardown_us", tr.totals("chaos.teardown").mean_us(), "us");
  r.metric("sim.ns_per_event",
           ratio(run.ns, static_cast<double>(sum.run_events)), "ns");
  r.metric("sim.allocs_per_event",
           ratio(run.allocs, static_cast<double>(sum.run_events)), "count");
  r.metric("bench.allocs_per_op", ratio(pass_allocs, ops), "count");
  r.metric("chaos.faults_injected",
           ratio(static_cast<double>(sum.faults_injected), ops), "count");
  r.metric("chaos.noop_frac",
           ratio(static_cast<double>(sum.faults_noop),
                 static_cast<double>(sum.faults_injected + sum.faults_noop)),
           "frac");
  report_model_counts(sum.counts, ops, static_cast<double>(sum.delivered),
                      static_cast<double>(sum.emitted), r);
  if (!audit) return r;

  const double records = static_cast<double>(sum.records);
  r.metric("trace.bytes_per_record",
           ratio(static_cast<double>(sum.record_bytes), records), "bytes");
  r.metric("trace.decode_ns_per_record",
           ratio(tr.totals("trace.decode").ns, records), "ns");
  r.metric("provenance.analyze_ns_per_record",
           ratio(tr.totals("provenance.analyze").ns, records), "ns");
  r.metric("provenance.audit_ns_per_record",
           ratio(tr.totals("provenance.audit").ns, records), "ns");
  r.metric("audit.detected_frac",
           ratio(static_cast<double>(sum.detected),
                 static_cast<double>(sum.attacks)),
           "frac");

  // Capture cost: each seed again without the recorder, outside the
  // passes (so span_overhead compares like with like). The recorder must
  // not change the simulation: the unrecorded fault trace must match.
  chaos::EngineOptions plain = eng;
  plain.flight = false;
  Tracer off(false);
  double rec_ns = 0, plain_ns = 0, rec_allocs = 0, plain_allocs = 0;
  std::uint64_t one_pass_records = 0;
  for (std::uint64_t seed : seeds) {
    std::uint64_t a0 = thread_allocs();
    const SeedOutcome rec = run_seed(eng, seed, off);
    rec_allocs += static_cast<double>(thread_allocs() - a0);
    a0 = thread_allocs();
    const SeedOutcome bare = run_seed(plain, seed, off);
    plain_allocs += static_cast<double>(thread_allocs() - a0);
    rec_ns += rec.capture_s * 1e9;
    plain_ns += bare.capture_s * 1e9;
    one_pass_records += rec.records;
    ++r.attempted;
    if (bare.trace_hash != rec.trace_hash) ++r.failed;
  }
  const double pass_records = static_cast<double>(one_pass_records);
  r.metric("trace.capture_ns_per_record",
           ratio(rec_ns - plain_ns, pass_records), "ns");
  r.metric("trace.allocs_per_record",
           ratio(rec_allocs - plain_allocs, pass_records), "count");
  return r;
}

}  // namespace

Report run_chaos_sweep(const RunOptions& opt, Tracer& tr) {
  return run_chaos_workload(opt, tr, /*audit=*/false);
}

Report run_flight_audit(const RunOptions& opt, Tracer& tr) {
  return run_chaos_workload(opt, tr, /*audit=*/true);
}

}  // namespace rivbench
