#include "core/runtime.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "core/exec/placement.hpp"
#include "core/wire.hpp"
#include "trace/trace.hpp"

namespace riv::core {
namespace {

// Next process after `self` in the sorted circular order of `view`.
std::optional<ProcessId> ring_successor(ProcessId self,
                                        const std::set<ProcessId>& view) {
  if (view.size() <= 1) return std::nullopt;
  auto it = view.upper_bound(self);
  if (it == view.end()) it = view.begin();
  if (*it == self) return std::nullopt;
  return *it;
}

}  // namespace

RivuletProcess::RivuletProcess(sim::Simulation& sim, net::SimNetwork& net,
                               devices::HomeBus& bus, ProcessId self,
                               std::vector<ProcessId> all, Config config,
                               metrics::Registry& metrics)
    : sim_(&sim),
      net_(&net),
      bus_(&bus),
      self_(self),
      all_(std::move(all)),
      config_(config),
      metrics_(&metrics) {
  std::sort(all_.begin(), all_.end());
}

RivuletProcess::~RivuletProcess() {
  if (up_) crash();
}

void RivuletProcess::deploy(
    std::shared_ptr<const appmodel::AppGraph> graph) {
  RIV_ASSERT(graph != nullptr, "null app graph");
  graph->validate();
  deployed_.push_back(std::move(graph));
  if (up_) {
    // Hot deploy: rebuild app state for the new graph only, counting the
    // load the already-running apps impose.
    const auto& g = deployed_.back();
    std::map<ProcessId, int> load;
    for (const auto& [id, existing] : apps_) {
      if (!existing.chain.empty()) ++load[existing.chain.front()];
    }
    AppState& app = apps_[g->id];
    app.graph = g;
    build_app_state(app, load);
    evaluate_role(g->id, app);
  }
}

void RivuletProcess::start() {
  RIV_ASSERT(!up_, "process already running");
  up_ = true;
  started_ = true;
  net_->set_process_up(self_, true);
  build_state();
}

void RivuletProcess::crash() {
  if (!up_) return;
  up_ = false;
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kCrash);
  }
  net_->set_process_up(self_, false);
  teardown_state();
}

void RivuletProcess::recover() {
  RIV_ASSERT(started_, "recover() before first start()");
  if (up_) return;
  up_ = true;
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kRecover);
  }
  net_->set_process_up(self_, true);
  build_state();
}

void RivuletProcess::teardown_state() {
  bus_->unsubscribe(self_);
  net_->endpoint(self_).set_handler({});
  // Logic instances and streams own no timers beyond timers_ /
  // their LogicInstance-internal ones; destroying them cancels everything.
  apps_.clear();
  kv_.reset();
  fd_.reset();
  timers_.reset();
  periodic_ = nullptr;
}

store::ReplicatedStore& RivuletProcess::kv() {
  RIV_ASSERT(kv_ != nullptr, "kv() on a crashed process");
  return *kv_;
}

void RivuletProcess::build_state() {
  build_volatile_shell();

  fd_->start();
  kv_->start();
  for (auto& [id, app] : apps_) {
    for (auto& [sensor, stream] : app.streams) {
      if (stream.gapless) stream.gapless->start();
      if (stream.gap) stream.gap->start();
    }
    evaluate_role(id, app);
  }

  // Initial sync plus periodic anti-entropy (see Config::sync_period).
  sync_rings(/*force=*/true);
  periodic_timer_ = timers_->schedule_after(config_.sync_period, periodic_);
}

void RivuletProcess::build_volatile_shell() {
  timers_ = std::make_unique<sim::ProcessTimers>(*sim_);

  fd_ = std::make_unique<membership::FailureDetector>(
      *timers_, net_->endpoint(self_), all_, config_.membership);
  fd_->set_on_view_change([this](const std::set<ProcessId>&) {
    on_view_change();
  });
  fd_->set_payload_provider([this] { return keepalive_payload(); });
  fd_->set_payload_handler([this](ProcessId from, BinaryReader& r) {
    on_keepalive_payload(from, r);
  });

  store::ReplicatedStore::Hooks kv_hooks;
  kv_hooks.self = self_;
  kv_hooks.send = [this](ProcessId dst, bool is_sync,
                         std::vector<std::byte> payload) {
    net_->endpoint(self_).send(
        dst, is_sync ? net::MsgType::kStoreSync : net::MsgType::kStorePut,
        std::move(payload));
  };
  kv_hooks.view = [this]() -> const std::set<ProcessId>& {
    return fd_->view();
  };
  kv_hooks.timers = timers_.get();
  kv_hooks.stable = &store_;
  kv_hooks.sync_period = config_.sync_period;
  kv_ = std::make_unique<store::ReplicatedStore>(std::move(kv_hooks));

  apps_.clear();
  // Chains are computed in deploy order with a running load count, so the
  // kLoadBalanced policy spreads apps deterministically and every process
  // derives identical chains.
  std::map<ProcessId, int> load;
  for (const auto& graph : deployed_) {
    AppState& app = apps_[graph->id];
    app.graph = graph;
    build_app_state(app, load);
    if (!app.chain.empty()) ++load[app.chain.front()];
  }

  net_->endpoint(self_).set_handler(
      [this](const net::Message& msg) { on_message(msg); });
  bus_->subscribe(self_, [this](const devices::SensorEvent& e) {
    on_device_event(e);
  });

  // The anti-entropy/retry closure lives in periodic_ (not in a shared_ptr
  // it captures, which would be an unreclaimable cycle); queued copies
  // capture only `this`, and teardown_state() cancels the timers before
  // `this` can die. Scheduling happens in build_state()/restore_clone().
  periodic_ = [this] {
    sync_rings(/*force=*/true);
    retry_pending_commands();
    periodic_timer_ = timers_->schedule_after(config_.sync_period, periodic_);
  };
}

void RivuletProcess::build_app_state(AppState& app,
                                     const std::map<ProcessId, int>& load) {
  const appmodel::AppGraph& graph = *app.graph;
  auto it = config_.placement_override.find(graph.id);
  app.chain = it != config_.placement_override.end()
                  ? it->second
                  : placement_chain(graph, *bus_, all_,
                                    config_.placement_policy, load);

  app.log = std::make_unique<EventLog>(graph.id, &store_,
                                       config_.event_log_cap);
  app.log->recover();
  app.last_successor.reset();
  app.commands_seen.clear();
  app.pending_commands.clear();
  app.delivered = 0;
  app.logic.reset();

  // One delivery stream per distinct sensor; if several edges reference
  // the same sensor the strongest guarantee wins and the first poll-based
  // policy applies.
  app.streams.clear();
  for (const appmodel::SensorEdge& edge : graph.sensor_edges) {
    auto sit = app.streams.find(edge.sensor);
    if (sit == app.streams.end()) {
      app.streams.emplace(edge.sensor, make_stream(app, edge));
    } else if (edge.guarantee == appmodel::Guarantee::kGapless &&
               sit->second.edge.guarantee == appmodel::Guarantee::kGap) {
      app.streams.erase(sit);
      app.streams.emplace(edge.sensor, make_stream(app, edge));
    }
  }
}

RivuletProcess::StreamState RivuletProcess::make_stream(
    AppState& app, const appmodel::SensorEdge& edge) {
  const AppId app_id = app.graph->id;

  StreamContext ctx;
  ctx.self = self_;
  ctx.app = app_id;
  ctx.edge = edge;
  ctx.in_range = bus_->sensor_in_range(self_, edge.sensor);
  ctx.all_processes = all_;
  std::vector<ProcessId> in_range;
  for (ProcessId p : bus_->processes_in_range(edge.sensor)) {
    if (std::find(all_.begin(), all_.end(), p) != all_.end())
      in_range.push_back(p);
  }
  std::sort(in_range.begin(), in_range.end());
  ctx.in_range_processes = std::move(in_range);

  ctx.view = [this]() -> const std::set<ProcessId>& { return fd_->view(); };
  ctx.chain = [&app] { return app.chain; };
  ctx.logic_active_here = [&app] { return app.logic != nullptr; };
  ctx.deliver = [this, app_id, &app](const devices::SensorEvent& e) {
    if (app.logic) deliver_to_logic(app_id, app, e);
  };
  ctx.send = [this](ProcessId dst, net::MsgType type,
                    std::vector<std::byte> payload) {
    net_->endpoint(self_).send(dst, type, std::move(payload));
  };
  SensorId sensor = edge.sensor;
  // Both callbacks fire repeatedly; resolve their counters once.
  ctx.staleness = [this, app_id, &app, sensor,
                   c = static_cast<metrics::Counter*>(nullptr)](
                      std::uint32_t epoch) mutable {
    if (c == nullptr)
      c = &metrics_->counter(metric_prefix(app_id) + ".staleness");
    c->add(1);
    if (app.logic) app.logic->on_staleness_violation(sensor, epoch);
  };
  ctx.poll = [this, sensor, c = static_cast<metrics::Counter*>(nullptr)](
                 std::uint32_t epoch) mutable {
    if (c == nullptr)
      c = &metrics_->counter("polls.issued.s" +
                             std::to_string(sensor.value));
    c->add(1);
    bus_->poll(self_, sensor, epoch);
  };
  if (config_.integrity) {
    ctx.seal = [this](std::vector<std::byte>& buf, std::uint64_t chain) {
      wire::seal(buf, config_.integrity_key, chain);
    };
  }
  ctx.timers = timers_.get();
  ctx.log = app.log.get();

  StreamState state;
  state.edge = edge;
  if (edge.guarantee == appmodel::Guarantee::kGapless) {
    state.gapless = std::make_unique<GaplessStream>(std::move(ctx));
  } else {
    state.gap =
        std::make_unique<GapStream>(std::move(ctx), config_.gap_dedup_window);
  }
  return state;
}

// --- device ingest -------------------------------------------------------

void RivuletProcess::on_device_event(const devices::SensorEvent& e) {
  if (config_.integrity) {
    // Radio-hop authenticity: a forged event fails the keyed MAC (it
    // commits to every field plus the origin's chain digest)...
    if (devices::event_mac(config_.integrity_key, e) != e.mac) {
      if (trace::active(trace::Component::kRuntime)) {
        trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                    trace::Kind::kTamper, provenance_of(e.id),
                    trace::fe(trace::Key::kEvent, e.id),
                    trace::fs(trace::Key::kText, "spoof"));
      }
      return;
    }
    // ...while a replayed genuine event passes it and is caught here:
    // every sensor emission carries a fresh seq (polls included), so a
    // seq this process already ingested can only be a re-injection.
    if (!device_seqs_seen_[e.id.sensor].insert(e.id.seq).second) {
      if (trace::active(trace::Component::kRuntime)) {
        trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                    trace::Kind::kTamper, provenance_of(e.id),
                    trace::fe(trace::Key::kEvent, e.id),
                    trace::fs(trace::Key::kText, "replay"));
      }
      return;
    }
  }
  metrics::Counter*& ingest = ingest_counters_[e.id.sensor];
  if (ingest == nullptr) {
    ingest = &metrics_->counter("ingest.p" + std::to_string(self_.value) +
                                ".s" + std::to_string(e.id.sensor.value));
  }
  ingest->add(1);
  for (auto& [id, app] : apps_) {
    auto it = app.streams.find(e.id.sensor);
    if (it == app.streams.end()) continue;
    if (it->second.gapless)
      it->second.gapless->on_device_event(e);
    else
      it->second.gap->on_device_event(e);
  }
}

// --- message dispatch ----------------------------------------------------

void RivuletProcess::on_message(const net::Message& msg) {
  switch (msg.type) {
    case net::MsgType::kKeepAlive:
      fd_->on_keepalive(msg);
      return;
    case net::MsgType::kRingEvent: {
      // Scratch payload: ring events dominate message traffic, and the
      // handlers below never re-enter this decode (sends only schedule
      // future deliveries), so the S/V buffers can be reused across
      // messages. thread_local for the parallel seed-sweep runner.
      thread_local wire::RingPayload p;
      if (config_.integrity) {
        wire::IntegrityTrailer tr;
        if (!unseal(msg, &tr)) return;
        RIV_ASSERT(wire::decode_ring_into(unseal_scratch_, p),
                   "corrupt ring payload");
        // chain travels only in the trailer (the base encoding is
        // untouched); restore it so onward forwards re-seal correctly.
        p.event.chain = tr.chain;
      } else {
        RIV_ASSERT(wire::decode_ring_into(msg.payload, p),
                   "corrupt ring payload");
      }
      auto ait = apps_.find(p.app);
      if (ait == apps_.end()) return;
      auto sit = ait->second.streams.find(p.sensor);
      if (sit == ait->second.streams.end() || !sit->second.gapless) return;
      sit->second.gapless->on_ring(msg.src, p);
      return;
    }
    case net::MsgType::kRbEvent: {
      wire::EventPayload p;
      if (config_.integrity) {
        wire::IntegrityTrailer tr;
        if (!unseal(msg, &tr)) return;
        p = wire::decode_event_payload(unseal_scratch_);
        p.event.chain = tr.chain;
      } else {
        p = wire::decode_event_payload(msg.payload);
      }
      auto ait = apps_.find(p.app);
      if (ait == apps_.end()) return;
      auto sit = ait->second.streams.find(p.sensor);
      if (sit == ait->second.streams.end() || !sit->second.gapless) return;
      sit->second.gapless->on_rb(msg.src, p);
      return;
    }
    case net::MsgType::kGapForward: {
      wire::EventPayload p;
      if (config_.integrity) {
        wire::IntegrityTrailer tr;
        if (!unseal(msg, &tr)) return;
        p = wire::decode_event_payload(unseal_scratch_);
        p.event.chain = tr.chain;
      } else {
        p = wire::decode_event_payload(msg.payload);
      }
      auto ait = apps_.find(p.app);
      if (ait == apps_.end()) return;
      auto sit = ait->second.streams.find(p.sensor);
      if (sit == ait->second.streams.end() || !sit->second.gap) return;
      sit->second.gap->on_forward(msg.src, p);
      return;
    }
    case net::MsgType::kSyncRequest:
      handle_sync_request(msg);
      return;
    case net::MsgType::kSyncResponse:
      handle_sync_response(msg);
      return;
    case net::MsgType::kCommand:
      handle_command(msg);
      return;
    case net::MsgType::kCommandAck: {
      wire::CommandAck ack = wire::decode_command_ack(msg.payload);
      auto ait = apps_.find(ack.app);
      if (ait != apps_.end()) ait->second.pending_commands.erase(ack.command);
      return;
    }
    case net::MsgType::kStorePut:
      kv_->on_update(msg.payload);
      return;
    case net::MsgType::kStoreSync:
      kv_->on_sync(msg.payload);
      return;
    case net::MsgType::kPromote:
      handle_role_change(msg, /*promote=*/true);
      return;
    case net::MsgType::kDemote:
      handle_role_change(msg, /*promote=*/false);
      return;
  }
}

// --- membership reactions --------------------------------------------------

void RivuletProcess::on_view_change() {
  for (auto& [id, app] : apps_) evaluate_role(id, app);
  sync_rings(/*force=*/false);
}

void RivuletProcess::sync_rings(bool force) {
  const std::set<ProcessId>& view = fd_->view();
  for (auto& [id, app] : apps_) {
    bool any_gapless = false;
    for (const auto& [sensor, stream] : app.streams)
      any_gapless |= stream.gapless != nullptr;
    if (!any_gapless) continue;
    std::optional<ProcessId> succ = ring_successor(self_, view);
    bool changed = succ != app.last_successor;
    app.last_successor = succ;
    if (succ && (changed || force)) {
      net_->endpoint(self_).send(*succ, net::MsgType::kSyncRequest,
                                 wire::encode_sync_request(id));
    }
  }
}

void RivuletProcess::handle_sync_request(const net::Message& msg) {
  AppId id = wire::decode_sync_request(msg.payload);
  auto ait = apps_.find(id);
  if (ait == apps_.end()) return;
  wire::SyncResponse resp;
  resp.app = id;
  for (const auto& [sensor, stream] : ait->second.streams) {
    if (stream.gapless)
      resp.high_waters.emplace_back(
          sensor, ait->second.log->prefix_high_water(sensor));
  }
  net_->endpoint(self_).send(msg.src, net::MsgType::kSyncResponse,
                             wire::encode(resp));
}

void RivuletProcess::handle_sync_response(const net::Message& msg) {
  wire::SyncResponse resp = wire::decode_sync_response(msg.payload);
  auto ait = apps_.find(resp.app);
  if (ait == apps_.end()) return;
  for (const auto& [sensor, hw] : resp.high_waters) {
    auto sit = ait->second.streams.find(sensor);
    if (sit != ait->second.streams.end() && sit->second.gapless)
      sit->second.gapless->sync_successor(msg.src, hw);
  }
}

// --- execution service -----------------------------------------------------

std::size_t RivuletProcess::rank_of(const AppState& app, ProcessId p) const {
  auto it = std::find(app.chain.begin(), app.chain.end(), p);
  return it == app.chain.end()
             ? app.chain.size()
             : static_cast<std::size_t>(it - app.chain.begin());
}

void RivuletProcess::evaluate_role(AppId id, AppState& app) {
  std::optional<ProcessId> cand = first_alive(app.chain, fd_->view());
  if (!cand) return;  // we are not even in the chain
  if (*cand == self_ && app.logic == nullptr) {
    promote(id, app);
  } else if (*cand != self_ && app.logic != nullptr) {
    demote(id, app);
  }
}

void RivuletProcess::make_logic(AppId id, AppState& app) {
  appmodel::LogicInstance::Callbacks cb;
  cb.self = self_;
  cb.next_command_id = [this] {
    return CommandId{self_, next_cmd_seq_++};
  };
  cb.kv_put = [this](const std::string& key, double value) {
    kv_->put(key, value);
  };
  cb.kv_get = [this](const std::string& key) { return kv_->get(key); };
  cb.command_sink = [this, id, &app](const appmodel::ActuatorEdge& edge,
                                     const devices::Command& cmd) {
    route_command(id, app, edge, cmd);
  };
  app.logic = std::make_unique<appmodel::LogicInstance>(*app.graph, *sim_,
                                                        std::move(cb));
}

void RivuletProcess::promote(AppId id, AppState& app) {
  RIV_INFO("exec", to_string(self_) << " promotes logic for app "
                                    << app.graph->name);
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kPromote, trace::fu(trace::Key::kApp, id.value));
  }
  make_logic(id, app);
  app.instance_delivered.clear();  // fresh instance epoch
  app.logic->start();
  metrics_->counter(metric_prefix(id) + ".promotions").add(1);
  replay_backlog(id, app);
  net::Payload rc = wire::encode_role_change(id);  // shared by all peers
  for (ProcessId p : fd_->view()) {
    if (p != self_)
      net_->endpoint(self_).send(p, net::MsgType::kPromote, rc);
  }
}

void RivuletProcess::demote(AppId id, AppState& app) {
  RIV_INFO("exec", to_string(self_) << " demotes logic for app "
                                    << app.graph->name);
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kDemote, trace::fu(trace::Key::kApp, id.value));
  }
  app.logic.reset();
  metrics_->counter(metric_prefix(id) + ".demotions").add(1);
  net::Payload rc = wire::encode_role_change(id);  // shared by all peers
  for (ProcessId p : fd_->view()) {
    if (p != self_)
      net_->endpoint(self_).send(p, net::MsgType::kDemote, rc);
  }
}

void RivuletProcess::replay_backlog(AppId id, AppState& app) {
  // Deliver every Gapless event past the gossiped processed watermark —
  // the "spike" of Fig 7. Gap streams replay nothing by design.
  for (auto& [sensor, stream] : app.streams) {
    if (!stream.gapless) continue;
    TimePoint hw = app.log->processed_watermark(sensor);
    for (const StoredEvent* se : app.log->events_after(sensor, hw))
      deliver_to_logic(id, app, se->event);
  }
}

void RivuletProcess::handle_role_change(const net::Message& msg,
                                        bool promote_msg) {
  AppId id = wire::decode_role_change(msg.payload);
  auto ait = apps_.find(id);
  if (ait == apps_.end()) return;
  AppState& app = ait->second;
  if (promote_msg) {
    if (app.logic != nullptr) {
      if (rank_of(app, msg.src) < rank_of(app, self_)) {
        // A higher-priority process asserted itself: step down (§5).
        demote(id, app);
      } else {
        // We outrank the sender; re-assert so it steps down (bully).
        net_->endpoint(self_).send(msg.src, net::MsgType::kPromote,
                                   wire::encode_role_change(id));
      }
    }
  } else {
    evaluate_role(id, app);
  }
}

// --- delivery to logic -------------------------------------------------------

void RivuletProcess::deliver_to_logic(AppId id, AppState& app,
                                      const devices::SensorEvent& e) {
  RIV_ASSERT(app.logic != nullptr, "delivering to a shadow logic node");
  ++app.delivered;
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kDeliver, provenance_of(e.id),
                trace::fu(trace::Key::kApp, id.value),
                trace::fe(trace::Key::kEvent, e.id));
  }
  if (!app.instance_delivered.insert(e.id).second) {
    if (app.m_dup_instance == nullptr)
      app.m_dup_instance =
          &metrics_->counter(metric_prefix(id) + ".dup_instance_delivery");
    app.m_dup_instance->add(1);
  }
  if (app.m_delivered == nullptr) {
    const std::string prefix = metric_prefix(id);
    app.m_delivered = &metrics_->counter(prefix + ".delivered");
    app.m_delay = &metrics_->latency(prefix + ".delay");
    app.m_delivered_ts = &metrics_->series(prefix + ".delivered_ts");
  }
  app.m_delivered->add(1);
  app.m_delay->record(sim_->now() - e.emitted_at);
  app.m_delivered_ts->append(sim_->now(),
                             static_cast<double>(app.m_delivered->value()));

  auto sit = app.streams.find(e.id.sensor);
  if (sit != app.streams.end() && sit->second.gapless)
    app.log->advance_processed_watermark(e.id.sensor, e.emitted_at);

  app.logic->on_sensor_event(e);
}

// --- actuation ---------------------------------------------------------------

std::vector<ProcessId> RivuletProcess::actuator_targets(
    ActuatorId actuator) const {
  std::vector<ProcessId> targets;
  for (ProcessId p : bus_->processes_in_range(actuator)) {
    if (std::find(all_.begin(), all_.end(), p) != all_.end() &&
        fd_->alive(p))
      targets.push_back(p);
  }
  std::sort(targets.begin(), targets.end());
  return targets;
}

void RivuletProcess::route_command(AppId id, AppState& app,
                                   const appmodel::ActuatorEdge& edge,
                                   const devices::Command& cmd) {
  std::vector<ProcessId> targets = actuator_targets(edge.actuator);
  if (targets.empty()) {
    metrics_->counter(metric_prefix(id) + ".commands_dropped").add(1);
    return;
  }

  const bool local = std::find(targets.begin(), targets.end(), self_) !=
                     targets.end();
  if (local) {
    // We host an active actuator node: actuate directly.
    submit_command_locally(app, cmd);
    return;
  }

  wire::CommandPayload payload;
  payload.app = id;
  payload.guarantee = static_cast<std::uint8_t>(edge.guarantee);
  payload.command = cmd;
  std::vector<std::byte> buf = wire::encode(payload);
  // Commands have no per-origin chain; sealed with chain 0 they still get
  // the keyed MAC, so a corrupted forwarder cannot mutate them unnoticed.
  if (config_.integrity) wire::seal(buf, config_.integrity_key, 0);
  net::Payload bytes = std::move(buf);  // shared across all targets
  if (edge.guarantee == appmodel::Guarantee::kGapless) {
    // Replicate to every active actuator node and keep the command
    // pending until one of them acknowledges; the device's idempotence or
    // Test&Set support absorbs duplicates (§5).
    app.pending_commands[cmd.id] =
        PendingCommand{payload, sim_->now(), sim_->now()};
    for (ProcessId p : targets)
      net_->endpoint(self_).send(p, net::MsgType::kCommand, bytes);
  } else {
    net_->endpoint(self_).send(targets.front(), net::MsgType::kCommand,
                               std::move(bytes));
  }
}

void RivuletProcess::retry_pending_commands() {
  // Commands older than one detection window that nobody acknowledged are
  // re-sent to the currently alive actuator nodes; stale ones expire.
  const Duration retry_after = config_.membership.timeout;
  const Duration expire_after = retry_after * 10;
  for (auto& [id, app] : apps_) {
    for (auto it = app.pending_commands.begin();
         it != app.pending_commands.end();) {
      PendingCommand& pending = it->second;
      if (sim_->now() - pending.first_sent > expire_after) {
        metrics_->counter(metric_prefix(id) + ".commands_expired").add(1);
        it = app.pending_commands.erase(it);
        continue;
      }
      if (sim_->now() - pending.last_sent >= retry_after) {
        pending.last_sent = sim_->now();
        std::vector<ProcessId> targets =
            actuator_targets(pending.payload.command.actuator);
        std::vector<std::byte> buf = wire::encode(pending.payload);
        if (config_.integrity) wire::seal(buf, config_.integrity_key, 0);
        net::Payload bytes = std::move(buf);  // shared buffer
        bool local = false;
        for (ProcessId p : targets) {
          if (p == self_) {
            submit_command_locally(app, pending.payload.command);
            local = true;
          } else {
            net_->endpoint(self_).send(p, net::MsgType::kCommand, bytes);
          }
        }
        metrics_->counter(metric_prefix(id) + ".commands_retried").add(1);
        if (local) {  // local submission is its own acknowledgement
          it = app.pending_commands.erase(it);
          continue;
        }
      }
      ++it;
    }
  }
}

void RivuletProcess::submit_command_locally(AppState& app,
                                            const devices::Command& cmd) {
  if (!app.commands_seen.insert(cmd.id).second) return;
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kCommand, cmd.cause,
                trace::fc(trace::Key::kCmd, cmd.id),
                trace::fa(trace::Key::kActuator, cmd.actuator));
  }
  bus_->actuate(self_, cmd);
}

void RivuletProcess::handle_command(const net::Message& msg) {
  wire::CommandPayload p;
  if (config_.integrity) {
    wire::IntegrityTrailer tr;
    if (!unseal(msg, &tr)) return;
    p = wire::decode_command_payload(unseal_scratch_);
  } else {
    p = wire::decode_command_payload(msg.payload);
  }
  auto ait = apps_.find(p.app);
  if (ait == apps_.end()) return;
  if (!bus_->actuator_in_range(self_, p.command.actuator)) return;
  submit_command_locally(ait->second, p.command);
  if (p.guarantee ==
      static_cast<std::uint8_t>(appmodel::Guarantee::kGapless)) {
    wire::CommandAck ack;
    ack.app = p.app;
    ack.command = p.command.id;
    net_->endpoint(self_).send(msg.src, net::MsgType::kCommandAck,
                               wire::encode(ack));
  }
}

// --- tamper evidence -----------------------------------------------------------

bool RivuletProcess::unseal(const net::Message& msg,
                            wire::IntegrityTrailer* tr) {
  if (wire::verify_and_strip(msg.payload, config_.integrity_key,
                             unseal_scratch_, tr))
    return true;
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(sim_->now(), self_, trace::Component::kRuntime,
                trace::Kind::kTamper,
                trace::fs(trace::Key::kType, net::to_string(msg.type)),
                trace::fp(trace::Key::kSrc, msg.src),
                trace::fs(trace::Key::kText, "bad_mac"));
  }
  return false;
}

bool RivuletProcess::device_seq_seen(SensorId sensor,
                                     std::uint32_t seq) const {
  auto it = device_seqs_seen_.find(sensor);
  return it != device_seqs_seen_.end() && it->second.count(seq) != 0;
}

std::size_t RivuletProcess::device_seqs_seen_count(SensorId sensor) const {
  auto it = device_seqs_seen_.find(sensor);
  return it == device_seqs_seen_.end() ? 0 : it->second.size();
}

// --- watermark gossip ---------------------------------------------------------

std::vector<std::byte> RivuletProcess::keepalive_payload() {
  BinaryWriter w;
  std::uint8_t count = 0;
  for (const auto& [id, app] : apps_) {
    if (app.logic != nullptr) ++count;
  }
  w.u8(count);
  for (const auto& [id, app] : apps_) {
    if (app.logic == nullptr) continue;
    w.app_id(id);
    std::uint8_t streams = 0;
    for (const auto& [sensor, stream] : app.streams)
      if (stream.gapless) ++streams;
    w.u8(streams);
    for (const auto& [sensor, stream] : app.streams) {
      if (!stream.gapless) continue;
      w.sensor_id(sensor);
      w.time_point(app.log->processed_watermark(sensor));
    }
  }
  return w.take();
}

void RivuletProcess::on_keepalive_payload(ProcessId from, BinaryReader& r) {
  (void)from;
  std::uint8_t apps = r.u8();
  for (std::uint8_t i = 0; i < apps; ++i) {
    AppId id = r.app_id();
    std::uint8_t streams = r.u8();
    auto ait = apps_.find(id);
    for (std::uint8_t j = 0; j < streams; ++j) {
      SensorId sensor = r.sensor_id();
      TimePoint hw = r.time_point();
      if (ait != apps_.end())
        ait->second.log->advance_processed_watermark(sensor, hw);
    }
  }
}

// --- introspection --------------------------------------------------------------

bool RivuletProcess::logic_active(AppId app) const {
  auto it = apps_.find(app);
  return it != apps_.end() && it->second.logic != nullptr;
}

const appmodel::LogicInstance* RivuletProcess::logic(AppId app) const {
  auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : it->second.logic.get();
}

appmodel::LogicInstance* RivuletProcess::logic(AppId app) {
  auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : it->second.logic.get();
}

std::uint64_t RivuletProcess::delivered(AppId app) const {
  auto it = apps_.find(app);
  return it == apps_.end() ? 0 : it->second.delivered;
}

const std::set<ProcessId>& RivuletProcess::view() const {
  RIV_ASSERT(fd_ != nullptr, "view() on a crashed process");
  return fd_->view();
}

std::vector<ProcessId> RivuletProcess::chain(AppId app) const {
  auto it = apps_.find(app);
  return it == apps_.end() ? std::vector<ProcessId>{} : it->second.chain;
}

const GaplessStream* RivuletProcess::gapless_stream(AppId app,
                                                    SensorId sensor) const {
  auto ait = apps_.find(app);
  if (ait == apps_.end()) return nullptr;
  auto sit = ait->second.streams.find(sensor);
  return sit == ait->second.streams.end() ? nullptr
                                          : sit->second.gapless.get();
}

const GapStream* RivuletProcess::gap_stream(AppId app,
                                            SensorId sensor) const {
  auto ait = apps_.find(app);
  if (ait == apps_.end()) return nullptr;
  auto sit = ait->second.streams.find(sensor);
  return sit == ait->second.streams.end() ? nullptr : sit->second.gap.get();
}

EventLog* RivuletProcess::event_log(AppId app) {
  auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : it->second.log.get();
}

std::string RivuletProcess::metric_prefix(AppId id) const {
  return "app" + std::to_string(id.value);
}

void RivuletProcess::clone_state(BinaryWriter& w) const {
  w.process_id(self_);
  w.u8(up_ ? 1 : 0);
  w.u8(started_ ? 1 : 0);
  w.u32(next_cmd_seq_);
  store_.clone_state(w);
  w.u64(device_seqs_seen_.size());
  for (const auto& [sensor, seqs] : device_seqs_seen_) {
    w.sensor_id(sensor);
    w.u64(seqs.size());
    for (std::uint32_t s : seqs) w.u32(s);
  }
  // Volatile state exists exactly while the process is up.
  RIV_ASSERT(up_ == (fd_ != nullptr && kv_ != nullptr),
             "volatile runtime state out of step with liveness");
  if (!up_) return;

  fd_->clone_state(w);
  kv_->clone_state(w);
  w.u64(apps_.size());
  for (const auto& [id, app] : apps_) {
    w.app_id(id);
    w.u64(app.chain.size());
    for (ProcessId p : app.chain) w.process_id(p);
    app.log->clone_state(w);
    w.u64(app.streams.size());
    for (const auto& [sensor, stream] : app.streams) {
      w.sensor_id(sensor);
      w.u8(stream.gapless != nullptr ? 1 : 0);
      if (stream.gapless != nullptr)
        stream.gapless->clone_state(w);
      else
        stream.gap->clone_state(w);
    }
    w.u8(app.logic != nullptr ? 1 : 0);
    if (app.logic != nullptr) app.logic->clone_state(w);
    w.u8(app.last_successor.has_value() ? 1 : 0);
    if (app.last_successor.has_value()) w.process_id(*app.last_successor);
    w.u64(app.commands_seen.size());
    for (CommandId c : app.commands_seen) w.command_id(c);
    w.u64(app.pending_commands.size());
    for (const auto& [c, pending] : app.pending_commands) {
      w.command_id(c);
      w.bytes(wire::encode(pending.payload));
      w.time_point(pending.first_sent);
      w.time_point(pending.last_sent);
    }
    w.u64(app.delivered);
    w.u64(app.instance_delivered.size());
    for (EventId e : app.instance_delivered) w.event_id(e);
  }
  sim_->encode_timer(w, periodic_timer_);
}

void RivuletProcess::restore_clone(BinaryReader& r) {
  RIV_ASSERT(!started_ && !up_,
             "clone restore requires a fresh, never-started process");
  ProcessId pid = r.process_id();
  RIV_ASSERT(pid == self_, "clone restore: process identity mismatch");
  up_ = r.u8() != 0;
  started_ = r.u8() != 0;
  next_cmd_seq_ = r.u32();
  store_.restore_clone(r);
  device_seqs_seen_.clear();
  const std::uint64_t n_devs = r.u64();
  for (std::uint64_t i = 0; i < n_devs; ++i) {
    SensorId sensor = r.sensor_id();
    std::set<std::uint32_t>& seqs = device_seqs_seen_[sensor];
    const std::uint64_t n_seqs = r.u64();
    // Sorted on the wire (encoded by set iteration): end-hinted inserts
    // keep restore O(n) as these per-event sets grow with the prefix.
    for (std::uint64_t j = 0; j < n_seqs; ++j) seqs.insert(seqs.end(), r.u32());
  }
  if (!up_) return;

  build_volatile_shell();
  fd_->restore_clone(r);
  kv_->restore_clone(r);
  const std::uint64_t n_apps = r.u64();
  RIV_ASSERT(n_apps == apps_.size(), "clone restore: app count mismatch");
  for (auto& [id, app] : apps_) {
    RIV_ASSERT(r.app_id() == id, "clone restore: app order mismatch");
    const std::uint64_t n_chain = r.u64();
    RIV_ASSERT(n_chain == app.chain.size(),
               "clone restore: placement chain length mismatch");
    for (ProcessId p : app.chain) {
      RIV_ASSERT(r.process_id() == p,
                 "clone restore: placement chain mismatch");
    }
    app.log->restore_clone(r);
    const std::uint64_t n_streams = r.u64();
    RIV_ASSERT(n_streams == app.streams.size(),
               "clone restore: stream count mismatch");
    for (auto& [sensor, stream] : app.streams) {
      RIV_ASSERT(r.sensor_id() == sensor,
                 "clone restore: stream sensor mismatch");
      const bool is_gapless = r.u8() != 0;
      RIV_ASSERT(is_gapless == (stream.gapless != nullptr),
                 "clone restore: stream guarantee mismatch");
      if (stream.gapless != nullptr)
        stream.gapless->restore_clone(r);
      else
        stream.gap->restore_clone(r);
    }
    if (r.u8() != 0) {
      make_logic(id, app);
      app.logic->restore_clone(r);
    }
    if (r.u8() != 0) app.last_successor = r.process_id();
    app.commands_seen.clear();
    const std::uint64_t n_cmds = r.u64();
    for (std::uint64_t i = 0; i < n_cmds; ++i)
      app.commands_seen.insert(app.commands_seen.end(), r.command_id());
    app.pending_commands.clear();
    const std::uint64_t n_pending = r.u64();
    for (std::uint64_t i = 0; i < n_pending; ++i) {
      CommandId c = r.command_id();
      PendingCommand pending;
      pending.payload = wire::decode_command_payload(r.bytes());
      pending.first_sent = r.time_point();
      pending.last_sent = r.time_point();
      app.pending_commands.emplace(c, std::move(pending));
    }
    app.delivered = r.u64();
    app.instance_delivered.clear();
    const std::uint64_t n_inst = r.u64();
    for (std::uint64_t i = 0; i < n_inst; ++i)
      app.instance_delivered.insert(app.instance_delivered.end(), r.event_id());
  }
  if (sim::TimerId id = sim::Simulation::decode_timer(r))
    periodic_timer_ = timers_->restore_at(id, periodic_);
}

}  // namespace riv::core
