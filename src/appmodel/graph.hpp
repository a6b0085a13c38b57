// Application graphs (§3.2, §6, Table 2).
//
// A Rivulet application is a DAG of sensor nodes, logic operators, and
// actuator nodes. The AppGraph below is the declarative description the
// developer builds (via AppBuilder, which mirrors the paper's Table 2 API:
// Operator / addSensor / addUpstreamOperator / addActuator /
// handleTriggeredWindow); the runtime then instantiates active or shadow
// nodes for it on every process (§3.3).
//
// Handlers must treat the app as stateless (§3.2): they may run on any
// process and, after failover, more than one process concurrently.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "appmodel/combiner.hpp"
#include "appmodel/window.hpp"
#include "common/types.hpp"

namespace riv::appmodel {

enum class Guarantee : std::uint8_t { kGap = 0, kGapless = 1 };

inline const char* to_string(Guarantee g) {
  return g == Guarantee::kGap ? "Gap" : "Gapless";
}

// Poll-based sensor configuration: the app requires one event per epoch
// (the epoch doubles as the staleness bound of §6). A zero epoch means the
// sensor is push-based and never polled.
struct PollingPolicy {
  Duration epoch{};
  bool poll_based() const { return epoch.us > 0; }
};

// Execution context passed to trigger handlers. The function hooks are
// provided by the executing LogicInstance.
class TriggerContext {
 public:
  // Issue a command to a downstream actuator (plain set — idempotent path).
  void actuate(ActuatorId actuator, double value) const {
    actuate_fn(actuator, false, 0.0, value);
  }
  // Test&Set command for non-idempotent actuators (§5).
  void actuate_test_and_set(ActuatorId actuator, double expected,
                            double value) const {
    actuate_fn(actuator, true, expected, value);
  }
  // Emit a derived value to downstream operators.
  void emit(double value) const { emit_fn(value); }

  TimePoint now() const { return now_fn(); }
  ProcessId self() const { return self_; }

  // Wired by LogicInstance.
  std::function<void(ActuatorId, bool, double, double)> actuate_fn;
  std::function<void(double)> emit_fn;
  std::function<TimePoint()> now_fn;
  ProcessId self_{};
};

using TriggerHandler =
    std::function<void(const std::vector<StreamWindow>&, TriggerContext&)>;

struct SensorEdge {
  SensorId sensor{};
  Guarantee guarantee{Guarantee::kGap};
  WindowSpec window{};
  PollingPolicy polling{};
  std::string to_op;
};

struct OperatorEdge {
  std::string from_op;
  std::string to_op;
  WindowSpec window{};
};

struct ActuatorEdge {
  ActuatorId actuator{};
  Guarantee guarantee{Guarantee::kGap};
  std::string from_op;
};

struct OperatorSpec {
  std::string name;
  std::shared_ptr<const Combiner> combiner;  // prototype; cloned per instance
  TriggerHandler handler;
};

struct AppGraph {
  AppId id{};
  std::string name;
  std::vector<OperatorSpec> operators;
  std::vector<SensorEdge> sensor_edges;
  std::vector<OperatorEdge> operator_edges;
  std::vector<ActuatorEdge> actuator_edges;

  std::vector<SensorId> sensors() const;
  std::vector<ActuatorId> actuators() const;
  const OperatorSpec* find_operator(const std::string& name) const;
  const SensorEdge* find_sensor_edge(SensorId sensor,
                                     const std::string& op) const;

  // Asserts structural sanity: unique operator names, edges referencing
  // existing operators, acyclic operator edges.
  void validate() const;
};

// ---------------------------------------------------------------------
// Builder API mirroring Table 2.
// ---------------------------------------------------------------------
class AppBuilder;

class OperatorBuilder {
 public:
  OperatorBuilder& add_sensor(SensorId sensor, Guarantee guarantee,
                              WindowSpec window, PollingPolicy polling = {});
  OperatorBuilder& add_upstream_operator(const std::string& op,
                                         WindowSpec window);
  OperatorBuilder& add_actuator(ActuatorId actuator, Guarantee guarantee);
  OperatorBuilder& handle_triggered_window(TriggerHandler handler);

 private:
  friend class AppBuilder;
  OperatorBuilder(AppBuilder& app, std::string name)
      : app_(&app), name_(std::move(name)) {}
  AppBuilder* app_;
  std::string name_;
};

class AppBuilder {
 public:
  AppBuilder(AppId id, std::string name);

  // Operator(Name[, Combiner]) — defaults to the all-streams combiner.
  OperatorBuilder add_operator(const std::string& name);
  OperatorBuilder add_operator(const std::string& name,
                               std::unique_ptr<Combiner> combiner);

  AppGraph build();

 private:
  friend class OperatorBuilder;
  AppGraph graph_;
};

}  // namespace riv::appmodel
