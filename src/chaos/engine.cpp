#include "chaos/engine.hpp"

#include <algorithm>
#include <optional>

#include "chaos/injector.hpp"
#include "common/assert.hpp"
#include "workload/apps.hpp"
#include "workload/deployment.hpp"

namespace riv::chaos {

// Declaration order is teardown order in reverse and is load-bearing:
// the deployment (and the checker/injector that reference it) must tear
// down while the flight Scope is still installed, so the shutdown records
// their destructors emit land in the flight trace exactly as they did
// when ChaosEngine::run() was monolithic.
struct ChaosSession::Impl {
  EngineOptions options;
  bool byzantine{false};
  bool defense{false};
  PlanOptions plan_opt;
  TimePoint end{};
  std::shared_ptr<riv::trace::Recorder> flight;
  std::optional<riv::trace::Scope> flight_scope;
  TraceRecorder trace;
  std::optional<workload::HomeDeployment> home;
  std::optional<InvariantChecker> checker;
  std::optional<FaultInjector> injector;
  bool armed{false};
};

ChaosSession::ChaosSession(EngineOptions options,
                           std::vector<std::unique_ptr<Invariant>> extra)
    : ChaosSession(std::move(options), Unstarted{}, std::move(extra)) {
  Impl& im = *impl_;
  if (!im.options.defer_plan) arm_plan(im.options.scenario.seed);
  if (im.options.metrics_period.us > 0)
    im.home->enable_metric_snapshots(im.options.metrics_period);
  im.home->start();
  im.checker->start(im.options.check_interval);
}

ChaosSession::ChaosSession(EngineOptions options, Unstarted,
                           std::vector<std::unique_ptr<Invariant>> extra)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.options = std::move(options);
  const ScenarioOptions& sc = im.options.scenario;
  RIV_ASSERT(sc.n_processes >= 1, "scenario needs at least one process");

  // Install the flight recorder (if requested) before any simulation
  // object exists, so construction-time activity is captured too.
  if (im.options.flight) {
    im.flight =
        std::make_shared<riv::trace::Recorder>(im.options.flight_mask);
    if (im.options.flight_ring_bytes > 0)
      im.flight->set_ring_limit(im.options.flight_ring_bytes);
    if (!im.options.flight_stream_path.empty()) {
      std::string err;
      RIV_ASSERT(im.flight->stream_to(im.options.flight_stream_path, &err),
                 ("flight stream: " + err).c_str());
    }
    im.flight_scope.emplace(*im.flight);
  }

  // --- the standard home -------------------------------------------------
  // Any Byzantine plan category arms the attacker model (signing sensors,
  // ground-truth markers); the defense toggle decides whether receivers
  // actually verify. The deployment key is a pure function of the seed so
  // sealed traffic — like everything else — replays bit-for-bit.
  im.byzantine = im.options.plan.spoof_events ||
                 im.options.plan.replay_events ||
                 im.options.plan.corrupt_process;
  im.defense = im.byzantine && im.options.byzantine_defense;
  const std::uint64_t integrity_key =
      sc.seed * 0x2545f4914f6cdd1dULL ^ 0x452821e638d01377ULL;

  workload::HomeDeployment::Options home_opt;
  home_opt.seed = sc.seed;
  home_opt.n_processes = sc.n_processes;
  if (im.defense) {
    home_opt.config.integrity = true;
    home_opt.config.integrity_key = integrity_key;
  }
  im.home.emplace(home_opt);
  workload::HomeDeployment& home = *im.home;

  devices::SensorSpec spec;
  spec.id = kChaosSensor;
  spec.name = "door";
  spec.kind = devices::SensorKind::kDoor;
  spec.tech = devices::Technology::kIp;
  spec.rate_hz = sc.rate_hz;
  std::vector<ProcessId> linked;
  for (int i = 0; i < sc.receivers && i < sc.n_processes; ++i)
    linked.push_back(home.pid(i));
  devices::LinkParams link;
  link.loss_prob = sc.device_link_loss;
  devices::Sensor& door = home.add_sensor(spec, linked, link);
  if (im.byzantine) door.enable_integrity(integrity_key);

  devices::ActuatorSpec light;
  light.id = kChaosActuator;
  light.name = "light";
  light.tech = devices::Technology::kIp;
  home.add_actuator(light, {home.pid(0)});
  home.deploy(workload::apps::turn_light_on_off(
      kChaosApp, kChaosSensor, kChaosActuator, sc.guarantee));

  // --- the fault plan -----------------------------------------------------
  im.plan_opt = im.options.plan;
  im.plan_opt.n_processes = sc.n_processes;
  im.plan_opt.devices = {kChaosSensor};
  im.plan_opt.device_links.clear();
  for (ProcessId p : linked)
    im.plan_opt.device_links.emplace_back(kChaosSensor, p);
  // A quiescence window must cover ring-wide anti-entropy propagation
  // ((n-1) sync periods) plus failure-detection and a safety margin, or
  // the converged checks would run before convergence is promised.
  Duration min_quiesce = core::Config{}.sync_period * (sc.n_processes - 1) +
                         seconds(6);
  im.plan_opt.quiesce_len = std::max(im.plan_opt.quiesce_len, min_quiesce);

  // --- checker + injector -------------------------------------------------
  im.checker.emplace(home, kChaosApp, kChaosSensor);
  im.checker->add(std::make_unique<SingleActiveLogic>());
  im.checker->add(std::make_unique<NoDuplicateDelivery>());
  if (sc.guarantee == appmodel::Guarantee::kGapless) {
    im.checker->add(std::make_unique<LogSetConvergence>());
    im.checker->add(std::make_unique<GaplessPostIngest>());
  }
  if (im.byzantine) {
    im.checker->add(std::make_unique<NoForgedActuation>());
    if (im.defense) im.checker->add(std::make_unique<NoOriginSeqRegression>());
  }
  for (auto& inv : extra) im.checker->add(std::move(inv));
  extra.clear();

  im.injector.emplace(home, im.trace);
  im.injector->set_integrity_armed(im.defense);
  im.end = home.sim().now() + im.plan_opt.horizon + seconds(1);
}

ChaosSession::~ChaosSession() = default;

workload::HomeDeployment& ChaosSession::home() { return *impl_->home; }

const EngineOptions& ChaosSession::options() const { return impl_->options; }

TimePoint ChaosSession::run_end() const { return impl_->end; }

void ChaosSession::run_to(TimePoint t) {
  if (t > impl_->home->sim().now()) impl_->home->run_until(t);
}

void ChaosSession::arm_plan(std::uint64_t plan_seed, Duration offset) {
  Impl& im = *impl_;
  const ScenarioOptions& sc = im.options.scenario;
  FaultPlan plan = generate_plan(plan_seed, im.plan_opt);
  im.trace.record("chaos seed=" + std::to_string(plan_seed) +
                  " guarantee=" + appmodel::to_string(sc.guarantee) +
                  " procs=" + std::to_string(sc.n_processes) +
                  " receivers=" + std::to_string(sc.receivers) +
                  " horizon=" + std::to_string(im.plan_opt.horizon.us) + "us");
  im.armed = true;
  InvariantChecker* checker = &*im.checker;
  im.injector->arm(
      plan,
      [checker](TimePoint window_start) {
        checker->check_converged(window_start, /*final_check=*/false);
      },
      offset);
  im.end = im.home->sim().now() + im.plan_opt.horizon + seconds(1);
}

void ChaosSession::finish(ChaosResult& result) {
  Impl& im = *impl_;
  workload::HomeDeployment& home = *im.home;

  result.quiesced = home.drain_to_quiescence();
  if (!result.quiesced)
    im.trace.record(home.sim().now(), "drain did NOT quiesce");
  im.checker->check_converged(home.sim().now(), /*final_check=*/true);

  // --- summarize ----------------------------------------------------------
  result.violations = im.checker->violations();
  result.faults_injected = im.injector->injected();
  result.faults_noop = im.injector->noops();
  result.byzantine_attacks = im.injector->attacks();
  if (im.byzantine) {
    // Folded into the determinism hash like the main summary, so a hash
    // match also certifies "same attacks were performed and survived".
    im.trace.record(home.sim().now(),
                    std::string("byzantine attacks=") +
                        std::to_string(im.injector->attacks()) +
                        " defense=" + (im.defense ? "on" : "off"));
  }
  result.delivered = home.metrics().counter_value(
      "app" + std::to_string(kChaosApp.value) + ".delivered");
  result.emitted = home.bus().sensor(kChaosSensor).events_emitted();
  for (ProcessId p : home.processes()) {
    result.ingested = std::max(
        result.ingested,
        home.metrics().counter_value(
            "ingest.p" + std::to_string(p.value) + ".s" +
            std::to_string(kChaosSensor.value)));
  }
  // The summary folds observable end-state into the determinism hash, so
  // a hash match certifies not just "same faults" but "same outcome".
  std::string logs;
  for (ProcessId p : home.processes()) {
    core::EventLog* log = home.process(p).event_log(kChaosApp);
    logs += " " + to_string(p) + "=" +
            std::to_string(log ? log->size(kChaosSensor) : 0);
  }
  im.trace.record(home.sim().now(),
                  "summary emitted=" + std::to_string(result.emitted) +
                      " ingested=" + std::to_string(result.ingested) +
                      " delivered=" + std::to_string(result.delivered) +
                      " logs:" + logs);

  if (im.options.metrics_period.us > 0)
    result.metrics_csv = home.metric_snapshots().to_csv();

  result.sim_events = home.sim().events_fired();

  // Deployment teardown emits nothing into the fault-trace recorder, so
  // reading it here (before ~ChaosSession) matches the monolithic run.
  result.trace = im.trace.lines();
  result.trace_hash = im.trace.hash();
  result.trace_digest = im.trace.digest();
}

std::shared_ptr<riv::trace::Recorder> ChaosSession::flight() const {
  return impl_->flight;
}

const TraceRecorder& ChaosSession::fault_trace() const { return impl_->trace; }

void ChaosSession::clone_state(BinaryWriter& w) const {
  w.u8(impl_->armed ? 1 : 0);
  impl_->injector->clone_state(w);
  impl_->checker->clone_state(w);
}

void ChaosSession::restore_clone(BinaryReader& r) {
  RIV_ASSERT(r.u8() == 0, "a chaos session is never cloned after arm_plan");
  RIV_ASSERT(!impl_->armed, "clone restore target already armed a plan");
  impl_->injector->restore_clone(r);
  impl_->checker->restore_clone(r);
}

ChaosEngine::ChaosEngine(EngineOptions options)
    : options_(std::move(options)) {}

ChaosEngine::~ChaosEngine() = default;

void ChaosEngine::add_invariant(std::unique_ptr<Invariant> invariant) {
  extra_.push_back(std::move(invariant));
}

ChaosResult ChaosEngine::run() {
  ChaosResult result;
  std::shared_ptr<riv::trace::Recorder> flight;
  {
    ChaosSession session(options_, std::move(extra_));
    extra_.clear();
    session.run_to(session.run_end());
    session.finish(result);
    flight = session.flight();
  }  // deployment teardown — shutdown records land in the flight trace
  if (flight != nullptr && flight->streaming()) {
    std::string err;
    RIV_ASSERT(flight->finish(&err), ("flight stream: " + err).c_str());
  }
  result.flight = std::move(flight);
  return result;
}

}  // namespace riv::chaos
