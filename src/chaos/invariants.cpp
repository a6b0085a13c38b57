#include "chaos/invariants.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "common/assert.hpp"

namespace riv::chaos {

std::string to_string(const Violation& v) {
  return "[" + v.invariant + "] at t=" + std::to_string(v.at.us) + "us: " +
         v.detail;
}

namespace {

std::string delivered_counter(AppId app) {
  return "app" + std::to_string(app.value) + ".delivered";
}

std::string ingest_counter(ProcessId p, SensorId s) {
  return "ingest.p" + std::to_string(p.value) + ".s" +
         std::to_string(s.value);
}

// Events of `sensor` in `p`'s log for `app` emitted at or before `cutoff`
// (everything when `final_check`).
std::uint64_t log_count(core::RivuletProcess& p, AppId app, SensorId sensor,
                        TimePoint cutoff, bool final_check) {
  core::EventLog* log = p.event_log(app);
  if (log == nullptr) return 0;
  if (final_check) return log->size(sensor);
  std::uint64_t n = 0;
  for (const core::StoredEvent* se :
       log->events_after(sensor, TimePoint{-1})) {
    if (se->event.emitted_at <= cutoff) ++n;
  }
  return n;
}

}  // namespace

void NoDuplicateDelivery::check(const CheckContext& ctx,
                                std::vector<Violation>& out) const {
  workload::HomeDeployment& home = *ctx.home;
  std::uint64_t dups = home.metrics().counter_value(
      "app" + std::to_string(ctx.app.value) + ".dup_instance_delivery");
  if (dups > reported_) {
    out.push_back({name(), home.sim().now(),
                   std::to_string(dups - reported_) +
                       " duplicate event(s) fed to a logic instance"});
    reported_ = dups;
  }
}

void NoOverDelivery::check(const CheckContext& ctx,
                           std::vector<Violation>& out) const {
  workload::HomeDeployment& home = *ctx.home;
  std::uint64_t delivered =
      home.metrics().counter_value(delivered_counter(ctx.app));
  std::uint64_t emitted = home.bus().sensor(ctx.sensor).events_emitted();
  if (delivered > emitted) {
    out.push_back({name(), home.sim().now(),
                   "delivered=" + std::to_string(delivered) + " > emitted=" +
                       std::to_string(emitted)});
  }
}

void SingleActiveLogic::check(const CheckContext& ctx,
                              std::vector<Violation>& out) const {
  workload::HomeDeployment& home = *ctx.home;
  int actives = 0;
  std::string who;
  for (ProcessId p : home.processes()) {
    core::RivuletProcess& proc = home.process(p);
    if (proc.up() && proc.logic_active(ctx.app)) {
      ++actives;
      if (!who.empty()) who += ",";
      who += to_string(p);
    }
  }
  if (actives != 1) {
    out.push_back({name(), home.sim().now(),
                   "expected exactly one active logic node, have " +
                       std::to_string(actives) + " {" + who + "}"});
  }
}

void LogSetConvergence::check(const CheckContext& ctx,
                              std::vector<Violation>& out) const {
  workload::HomeDeployment& home = *ctx.home;
  std::uint64_t lo = UINT64_MAX, hi = 0;
  std::string counts;
  for (ProcessId p : home.processes()) {
    core::RivuletProcess& proc = home.process(p);
    if (!proc.up()) continue;
    std::uint64_t n =
        log_count(proc, ctx.app, ctx.sensor, ctx.cutoff, ctx.final_check);
    lo = std::min(lo, n);
    hi = std::max(hi, n);
    if (!counts.empty()) counts += " ";
    counts += to_string(p) + "=" + std::to_string(n);
  }
  if (lo != hi) {
    out.push_back({name(), home.sim().now(),
                   std::string("live logs disagree") +
                       (ctx.final_check
                            ? ""
                            : " for events emitted before t=" +
                                  std::to_string(ctx.cutoff.us) + "us") +
                       ": " + counts});
  }
}

void GaplessPostIngest::check(const CheckContext& ctx,
                              std::vector<Violation>& out) const {
  if (!ctx.final_check) return;  // delivery counters are cumulative
  workload::HomeDeployment& home = *ctx.home;
  std::uint64_t delivered =
      home.metrics().counter_value(delivered_counter(ctx.app));
  std::uint64_t ingested_anywhere = 0;
  std::uint64_t union_log = 0;
  for (ProcessId p : home.processes()) {
    ingested_anywhere =
        std::max(ingested_anywhere,
                 home.metrics().counter_value(ingest_counter(p, ctx.sensor)));
    union_log = std::max(
        union_log,
        log_count(home.process(p), ctx.app, ctx.sensor, {}, true));
  }
  if (delivered < ingested_anywhere) {
    out.push_back({name(), home.sim().now(),
                   "delivered=" + std::to_string(delivered) +
                       " < ingested=" + std::to_string(ingested_anywhere)});
  }
  if (delivered < union_log) {
    out.push_back({name(), home.sim().now(),
                   "delivered=" + std::to_string(delivered) +
                       " < replicated-log=" + std::to_string(union_log)});
  }
}

void NoForgedActuation::check(const CheckContext& ctx,
                              std::vector<Violation>& out) const {
  workload::HomeDeployment& home = *ctx.home;
  devices::HomeBus& bus = home.bus();
  const std::vector<SensorId> sensors = bus.sensors();
  for (ActuatorId aid : bus.actuators()) {
    const auto& history = bus.actuator(aid).history();
    std::size_t& cursor = scanned_[aid];
    for (; cursor < history.size(); ++cursor) {
      const ProvenanceId cause = history[cursor].cause;
      if (!cause.valid()) continue;
      // Only sensor-origin provenance is judgeable here (logic-derived
      // origins carry 0xffff and no per-device emission history).
      SensorId origin{cause.origin};
      if (std::find(sensors.begin(), sensors.end(), origin) ==
          sensors.end())
        continue;
      // Device seqs are 1-based: after N emissions the genuine seqs are
      // exactly 1..N, so anything above events_emitted() is fabricated.
      if (cause.seq > bus.sensor(origin).events_emitted()) {
        out.push_back(
            {name(), home.sim().now(),
             to_string(aid) + " actuated on " + to_string(origin) + "#" +
                 std::to_string(cause.seq) + " which " + to_string(origin) +
                 " never emitted (emitted " +
                 std::to_string(bus.sensor(origin).events_emitted()) + ")"});
      }
    }
  }
}

void NoForgedActuation::clone_state(BinaryWriter& w) const {
  w.u64(scanned_.size());
  for (const auto& [aid, cursor] : scanned_) {
    w.actuator_id(aid);
    w.u64(cursor);
  }
}

void NoForgedActuation::restore_clone(BinaryReader& r) {
  scanned_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const ActuatorId aid = r.actuator_id();
    scanned_[aid] = r.u64();
  }
}

void NoOriginSeqRegression::check(const CheckContext& ctx,
                                  std::vector<Violation>& out) const {
  workload::HomeDeployment& home = *ctx.home;
  if (!home.config().integrity) return;
  for (ProcessId p : home.processes()) {
    core::RivuletProcess& proc = home.process(p);
    std::uint64_t ingested =
        home.metrics().counter_value(ingest_counter(p, ctx.sensor));
    std::uint64_t distinct = proc.device_seqs_seen_count(ctx.sensor);
    if (ingested > distinct) {
      out.push_back({name(), home.sim().now(),
                     to_string(p) + " ingested " + std::to_string(ingested) +
                         " events from " + to_string(ctx.sensor) +
                         " but only " + std::to_string(distinct) +
                         " distinct seqs — a repeated seq was accepted"});
    }
  }
}

InvariantChecker::InvariantChecker(workload::HomeDeployment& home, AppId app,
                                   SensorId sensor)
    : home_(&home), app_(app), sensor_(sensor) {}

InvariantChecker::~InvariantChecker() {
  if (alive_) *alive_ = false;
}

void InvariantChecker::add(std::unique_ptr<Invariant> invariant) {
  invariants_.push_back(std::move(invariant));
}

CheckContext InvariantChecker::context(TimePoint cutoff, bool final_check) {
  CheckContext ctx;
  ctx.home = home_;
  ctx.app = app_;
  ctx.sensor = sensor_;
  ctx.cutoff = cutoff;
  ctx.final_check = final_check;
  return ctx;
}

void InvariantChecker::start(Duration interval) {
  interval_ = interval;
  make_tick();
  tick_timer_ = home_->sim().schedule_after(interval_, tick_);
}

void InvariantChecker::make_tick() {
  alive_ = std::make_shared<bool>(true);
  std::shared_ptr<bool> alive = alive_;
  sim::Simulation& sim = home_->sim();
  // The closure lives in tick_, not in a shared_ptr it captures (which
  // would never be reclaimed); queued copies check `alive` before
  // touching `this`, so destruction mid-run is harmless.
  tick_ = [this, alive, &sim] {
    if (!*alive) return;
    check_continuous();
    tick_timer_ = sim.schedule_after(interval_, tick_);
  };
}

void InvariantChecker::clone_state(BinaryWriter& w) const {
  w.u64(checks_run_);
  w.u64(violations_.size());
  for (const Violation& v : violations_) {
    w.str(v.invariant);
    w.time_point(v.at);
    w.str(v.detail);
  }
  w.u64(invariants_.size());
  for (const auto& inv : invariants_) {
    w.str(inv->name());
    inv->clone_state(w);
  }
  w.duration(interval_);
  home_->sim().encode_timer(w, tick_timer_);
}

void InvariantChecker::restore_clone(BinaryReader& r) {
  RIV_ASSERT(!alive_, "clone restore requires a never-started checker");
  checks_run_ = r.u64();
  violations_.clear();
  const std::uint64_t n_violations = r.u64();
  for (std::uint64_t i = 0; i < n_violations; ++i) {
    Violation v;
    v.invariant = r.str();
    v.at = r.time_point();
    v.detail = r.str();
    violations_.push_back(std::move(v));
  }
  RIV_ASSERT(r.u64() == invariants_.size(),
             "clone restore: invariant count mismatch");
  for (const auto& inv : invariants_) {
    RIV_ASSERT(r.str() == inv->name(), "clone restore: invariant mismatch");
    inv->restore_clone(r);
  }
  interval_ = r.duration();
  if (sim::TimerId id = sim::Simulation::decode_timer(r)) {
    make_tick();
    tick_timer_ = home_->sim().schedule_restored(id, tick_);
  }
}

void InvariantChecker::check_continuous() {
  ++checks_run_;
  CheckContext ctx = context({}, false);
  for (const auto& inv : invariants_) {
    if (inv->continuous()) inv->check(ctx, violations_);
  }
}

void InvariantChecker::check_converged(TimePoint cutoff, bool final_check) {
  ++checks_run_;
  CheckContext ctx = context(cutoff, final_check);
  for (const auto& inv : invariants_) inv->check(ctx, violations_);
}

}  // namespace riv::chaos
