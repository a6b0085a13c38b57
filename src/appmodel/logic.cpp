#include "appmodel/logic.hpp"

#include <limits>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "trace/trace.hpp"

namespace riv::appmodel {

LogicInstance::LogicInstance(const AppGraph& graph, sim::Simulation& sim,
                             Callbacks callbacks)
    : graph_(&graph), timers_(sim), callbacks_(std::move(callbacks)) {
  for (const OperatorSpec& spec : graph.operators) {
    OpState state;
    state.spec = &spec;
    state.combiner = spec.combiner->clone();
    ops_.emplace(spec.name, std::move(state));
  }
  for (const SensorEdge& e : graph.sensor_edges) {
    OpState& op = ops_.at(e.to_op);
    op.streams.push_back(
        Stream{sensor_key(e.sensor), e.sensor, Window(e.window), {}});
  }
  for (const OperatorEdge& e : graph.operator_edges) {
    OpState& to = ops_.at(e.to_op);
    to.streams.push_back(
        Stream{op_key(e.from_op), std::nullopt, Window(e.window), {}});
    ops_.at(e.from_op).downstream_ops.push_back(e.to_op);
  }
  for (const ActuatorEdge& e : graph.actuator_edges)
    ops_.at(e.from_op).actuators.push_back(&e);
}

void LogicInstance::start() {
  if (started_) return;
  started_ = true;
  for (auto& [name, op] : ops_) {
    for (Stream& stream : op.streams) {
      if (stream.window.spec().trigger.kind == TriggerPolicy::Kind::kPeriodic)
        arm_periodic(op, stream);
    }
  }
}

void LogicInstance::arm_periodic(OpState& op, Stream& stream) {
  Duration period = stream.window.spec().trigger.period;
  RIV_ASSERT(period.us > 0, "periodic trigger needs a positive period");
  stream.periodic_timer = timers_.schedule_after(
      period, [this, &op, &stream] { periodic_fire(op, stream); });
}

void LogicInstance::periodic_fire(OpState& op, Stream& stream) {
  take_pending(op, stream);
  evaluate(op);
  arm_periodic(op, stream);
}

void LogicInstance::on_sensor_event(const devices::SensorEvent& e) {
  ++events_consumed_;
  last_cause_ = provenance_of(e.id);
  const std::string key = sensor_key(e.id.sensor);
  for (auto& [name, op] : ops_) {
    for (Stream& stream : op.streams) {
      if (stream.key == key) feed(op, stream, e);
    }
  }
}

void LogicInstance::feed(OpState& op, Stream& stream,
                         const devices::SensorEvent& e) {
  stream.window.add(e, timers_.now());
  try_trigger_event_driven(op, stream);
}

void LogicInstance::try_trigger_event_driven(OpState& op, Stream& stream) {
  if (!stream.window.event_trigger_ready()) return;
  take_pending(op, stream);
  evaluate(op);
}

void LogicInstance::take_pending(OpState& op, Stream& stream) {
  (void)op;
  std::vector<devices::SensorEvent> events =
      stream.window.snapshot(timers_.now());
  if (events.empty()) return;  // an empty window never counts as "ready"
  stream.pending = StreamWindow{stream.key, std::move(events)};
  stream.window.after_trigger(timers_.now());
}

void LogicInstance::evaluate(OpState& op) {
  std::vector<StreamWindow> ready;
  for (Stream& stream : op.streams) {
    if (stream.pending) ready.push_back(*stream.pending);
  }
  if (ready.empty()) return;
  if (!op.combiner->should_deliver(ready, op.streams.size())) {
    ++combiner_blocked_;
    return;
  }
  for (Stream& stream : op.streams) stream.pending.reset();
  deliver(op, std::move(ready));
}

void LogicInstance::deliver(OpState& op, std::vector<StreamWindow> ready) {
  ++triggers_fired_;
  // The trigger's causal id: the newest real sensor reading among the
  // windows that fired. Derived (downstream) events carry the synthetic
  // sensor 0xffff and are skipped; a purely-derived or purely-periodic
  // firing falls back to the last reading the instance consumed.
  trigger_cause_ = last_cause_;
  TimePoint newest{std::numeric_limits<std::int64_t>::min()};
  for (const StreamWindow& w : ready) {
    for (const devices::SensorEvent& e : w.events) {
      if (e.id.sensor.value != 0xffff && e.emitted_at >= newest) {
        newest = e.emitted_at;
        trigger_cause_ = provenance_of(e.id);
      }
    }
  }
  if (trace::active(trace::Component::kRuntime)) {
    trace::emit(timers_.now(), callbacks_.self, trace::Component::kRuntime,
                trace::Kind::kLogicFire, trigger_cause_,
                trace::fu(trace::Key::kApp, graph_->id.value),
                trace::fs(trace::Key::kOp, op.spec->name));
  }
  if (!op.spec->handler) return;

  TriggerContext ctx;
  ctx.self_ = callbacks_.self;
  ctx.now_fn = [this] { return timers_.now(); };
  ctx.kv_put_fn = [this](const std::string& key, double value) {
    if (callbacks_.kv_put) {
      callbacks_.kv_put(key, value);
    } else {
      local_kv_[key] = value;
    }
  };
  ctx.kv_get_fn =
      [this](const std::string& key) -> std::optional<double> {
    if (callbacks_.kv_get) return callbacks_.kv_get(key);
    auto it = local_kv_.find(key);
    if (it == local_kv_.end()) return std::nullopt;
    return it->second;
  };
  ctx.emit_fn = [this, &op](double value) { emit_downstream(op, value); };
  ctx.actuate_fn = [this, &op](ActuatorId actuator, bool tas, double expected,
                               double value) {
    const ActuatorEdge* edge = nullptr;
    for (const ActuatorEdge* e : op.actuators) {
      if (e->actuator == actuator) edge = e;
    }
    RIV_ASSERT(edge != nullptr,
               "handler actuated a device not wired to this operator");
    devices::Command cmd;
    cmd.id = callbacks_.next_command_id();
    cmd.actuator = actuator;
    cmd.test_and_set = tas;
    cmd.expected = expected;
    cmd.value = value;
    cmd.issued_at = timers_.now();
    cmd.cause = trigger_cause_;
    ++commands_issued_;
    callbacks_.command_sink(*edge, cmd);
  };
  op.spec->handler(ready, ctx);
}

void LogicInstance::emit_downstream(OpState& from, double value) {
  // Derived events carry no sensor identity; downstream streams are keyed
  // by the emitting operator's name.
  devices::SensorEvent e;
  e.id = EventId{SensorId{0xffff}, emit_seq_++};
  e.emitted_at = timers_.now();
  e.value = value;
  e.payload_size = 8;
  const std::string key = op_key(from.spec->name);
  for (const std::string& down : from.downstream_ops) {
    OpState& op = ops_.at(down);
    for (Stream& stream : op.streams) {
      if (stream.key == key) feed(op, stream, e);
    }
  }
}

void LogicInstance::on_staleness_violation(SensorId sensor,
                                           std::uint32_t epoch) {
  ++staleness_violations_;
  if (staleness_handler_) staleness_handler_(sensor, epoch);
}

void LogicInstance::clone_state(BinaryWriter& w) const {
  w.u64(ops_.size());
  for (const auto& [name, op] : ops_) {
    w.str(name);
    w.u64(op.streams.size());
    for (const Stream& stream : op.streams) {
      const std::deque<devices::SensorEvent>& buf = stream.window.buffer();
      w.u64(buf.size());
      for (const devices::SensorEvent& e : buf) devices::encode_clone(w, e);
      w.u8(stream.pending ? 1 : 0);
      if (stream.pending) {
        w.u64(stream.pending->events.size());
        for (const devices::SensorEvent& e : stream.pending->events)
          devices::encode_clone(w, e);
      }
      timers_.sim().encode_timer(w, stream.periodic_timer);
    }
  }
  w.u64(local_kv_.size());
  for (const auto& [key, value] : local_kv_) {
    w.str(key);
    w.f64(value);
  }
  w.u32(emit_seq_);
  w.u8(started_ ? 1 : 0);
  w.provenance_id(last_cause_);
  w.provenance_id(trigger_cause_);
  w.u64(events_consumed_);
  w.u64(triggers_fired_);
  w.u64(combiner_blocked_);
  w.u64(commands_issued_);
  w.u64(staleness_violations_);
}

void LogicInstance::restore_clone(BinaryReader& r) {
  RIV_ASSERT(!started_, "clone restore requires a not-started instance");
  const std::uint64_t n_ops = r.u64();
  RIV_ASSERT(n_ops == ops_.size(), "clone restore: operator count mismatch");
  for (auto& [name, op] : ops_) {
    RIV_ASSERT(r.str() == name, "clone restore: operator order mismatch");
    const std::uint64_t n_streams = r.u64();
    RIV_ASSERT(n_streams == op.streams.size(),
               "clone restore: stream count mismatch");
    for (Stream& stream : op.streams) {
      std::deque<devices::SensorEvent> buf;
      const std::uint64_t n_buf = r.u64();
      for (std::uint64_t i = 0; i < n_buf; ++i)
        buf.push_back(devices::decode_clone_event(r));
      stream.window.restore_buffer(std::move(buf));
      if (r.u8() != 0) {
        StreamWindow pending;
        pending.stream = stream.key;
        const std::uint64_t n_pending = r.u64();
        pending.events.reserve(n_pending);
        for (std::uint64_t i = 0; i < n_pending; ++i)
          pending.events.push_back(devices::decode_clone_event(r));
        stream.pending = std::move(pending);
      }
      if (sim::TimerId id = sim::Simulation::decode_timer(r)) {
        stream.periodic_timer = timers_.restore_at(
            id, [this, &o = op, &s = stream] { periodic_fire(o, s); });
      }
    }
  }
  local_kv_.clear();
  const std::uint64_t n_kv = r.u64();
  for (std::uint64_t i = 0; i < n_kv; ++i) {
    std::string key = r.str();
    local_kv_[std::move(key)] = r.f64();
  }
  emit_seq_ = r.u32();
  started_ = r.u8() != 0;
  last_cause_ = r.provenance_id();
  trigger_cause_ = r.provenance_id();
  events_consumed_ = r.u64();
  triggers_fired_ = r.u64();
  combiner_blocked_ = r.u64();
  commands_issued_ = r.u64();
  staleness_violations_ = r.u64();
}

}  // namespace riv::appmodel
