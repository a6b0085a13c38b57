// RivuletProcess: one instance of the Rivulet runtime (§3.3).
//
// Runs on each host (TV, fridge, hub, ...) and wires together:
//   * membership (keep-alive failure detector, local view),
//   * the delivery service (one GaplessStream or GapStream per sensor the
//     deployed apps use),
//   * the execution service (bully-variant promotion/demotion of logic
//     nodes along the placement chain, §5),
//   * actuation-command routing to processes with active actuator nodes,
//   * processed-watermark gossip piggybacked on keep-alives (bounds the
//     backlog a newly promoted logic node replays).
//
// Crash/recovery (§3.1): crash() halts everything — timers, message
// handling, device subscription. recover() rebuilds volatile state from
// the process's StableStore (event logs, watermarks). Deployed app graphs
// are installed software and survive crashes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "appmodel/logic.hpp"
#include "core/config.hpp"
#include "core/delivery/gap_stream.hpp"
#include "core/delivery/gapless_stream.hpp"
#include "devices/home_bus.hpp"
#include "membership/failure_detector.hpp"
#include "metrics/metrics.hpp"
#include "net/sim_network.hpp"
#include "sim/stable_store.hpp"
#include "store/replicated_store.hpp"

namespace riv::core {

class RivuletProcess {
 public:
  RivuletProcess(sim::Simulation& sim, net::SimNetwork& net,
                 devices::HomeBus& bus, ProcessId self,
                 std::vector<ProcessId> all, Config config,
                 metrics::Registry& metrics);
  ~RivuletProcess();

  RivuletProcess(const RivuletProcess&) = delete;
  RivuletProcess& operator=(const RivuletProcess&) = delete;

  // Install an application (before start(), or at runtime).
  void deploy(std::shared_ptr<const appmodel::AppGraph> graph);

  void start();
  void crash();
  void recover();
  bool up() const { return up_; }
  ProcessId id() const { return self_; }

  // --- Introspection (tests and benches) -----------------------------
  bool logic_active(AppId app) const;
  const appmodel::LogicInstance* logic(AppId app) const;
  appmodel::LogicInstance* logic(AppId app);
  std::uint64_t delivered(AppId app) const;  // events fed to local logic
  const std::set<ProcessId>& view() const;
  std::vector<ProcessId> chain(AppId app) const;
  const GaplessStream* gapless_stream(AppId app, SensorId sensor) const;
  const GapStream* gap_stream(AppId app, SensorId sensor) const;
  EventLog* event_log(AppId app);
  // Has this process ingested device event `seq` from `sensor`? Used by
  // the Byzantine injector to pick replays the target has genuinely seen
  // (a replay of a never-received event would be indistinguishable from a
  // fresh delivery and is out of scope for the detector, see DESIGN §12).
  bool device_seq_seen(SensorId sensor, std::uint32_t seq) const;
  std::size_t device_seqs_seen_count(SensorId sensor) const;
  sim::StableStore& store() { return store_; }
  // Replicated application state shared by every app on this process
  // (extension; trigger handlers reach it via TriggerContext::put/get).
  store::ReplicatedStore& kv();

  // --- state capture (DESIGN.md §13) ---------------------------------
  // The complete live runtime — stable store, per-origin sequence
  // history, membership, replicated KV, every app's log/delivery/
  // execution/actuation state, every pending timer and in-flight protocol
  // artifact. restore_clone() rebuilds it directly into a freshly
  // constructed, never-started process: the
  // volatile shell (detector, KV, streams, logic) is re-wired exactly as
  // build_state() would, then each component restores its own data and
  // timers. No messages are sent and no fresh timers are scheduled.
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  struct StreamState {
    appmodel::SensorEdge edge;  // merged edge (strongest guarantee wins)
    std::unique_ptr<GaplessStream> gapless;
    std::unique_ptr<GapStream> gap;
  };
  // A Gapless command sent to remote actuator nodes, retried until some
  // active actuator node acknowledges it (§4's "delivery of actuation
  // commands is analogous"). Device-level idempotence / Test&Set absorbs
  // the duplicates a retry can cause.
  struct PendingCommand {
    wire::CommandPayload payload;
    TimePoint first_sent{};
    TimePoint last_sent{};
  };
  struct AppState {
    std::shared_ptr<const appmodel::AppGraph> graph;
    std::vector<ProcessId> chain;
    std::unique_ptr<EventLog> log;
    std::map<SensorId, StreamState> streams;
    std::unique_ptr<appmodel::LogicInstance> logic;  // non-null iff active
    std::optional<ProcessId> last_successor;
    std::set<CommandId> commands_seen;
    std::map<CommandId, PendingCommand> pending_commands;
    std::uint64_t delivered{0};
    // Per-event metric handles, resolved lazily on first use (Registry
    // references are stable for its lifetime). deliver_to_logic() runs
    // once per delivered event and must not rebuild "appN.xyz" name
    // strings each time.
    metrics::Counter* m_delivered{nullptr};
    metrics::Counter* m_dup_instance{nullptr};
    metrics::LatencyRecorder* m_delay{nullptr};
    metrics::TimeSeries* m_delivered_ts{nullptr};
    // Events fed to the CURRENT logic instance (cleared on promotion).
    // Feeding one instance the same event twice is a delivery-service bug
    // for both guarantees (§4.2 Gap dedup; Gapless log-exact dedup), so
    // duplicates are charged to the "<app>.dup_instance_delivery" metric,
    // which the chaos invariant checker requires to stay zero.
    std::set<EventId> instance_delivered;
  };

  void build_state();
  // Construct the volatile runtime structures (timers, detector, KV,
  // app/stream/closure wiring) without starting anything — shared by
  // build_state() (which then starts them) and restore_clone() (which
  // then overwrites their data and timers from a snapshot).
  void build_volatile_shell();
  // Construct an app's LogicInstance with runtime callbacks wired, not
  // started. promote() adds start/replay/announcement on top.
  void make_logic(AppId id, AppState& app);
  void teardown_state();
  void build_app_state(AppState& app, const std::map<ProcessId, int>& load);
  StreamState make_stream(AppState& app, const appmodel::SensorEdge& edge);

  // Message plumbing.
  void on_message(const net::Message& msg);
  void on_device_event(const devices::SensorEvent& e);
  void on_view_change();
  // Bayou-style anti-entropy: ask the ring successor for its prefix
  // high-waters; on response, re-send what it misses. `force` syncs even
  // when the successor is unchanged (the periodic pass).
  void sync_rings(bool force);
  void handle_sync_request(const net::Message& msg);
  void handle_sync_response(const net::Message& msg);
  void handle_command(const net::Message& msg);
  void handle_role_change(const net::Message& msg, bool promote);
  // Integrity-armed receive gate: verify and strip the trailer into
  // unseal_scratch_; emits a kTamper("bad_mac") record and returns false
  // when the frame fails (the base decoders never see rejected bytes).
  bool unseal(const net::Message& msg, wire::IntegrityTrailer* tr);

  // Execution service.
  std::size_t rank_of(const AppState& app, ProcessId p) const;
  void evaluate_role(AppId id, AppState& app);
  void promote(AppId id, AppState& app);
  void demote(AppId id, AppState& app);
  void replay_backlog(AppId id, AppState& app);

  // Delivery into the local logic node (metrics + watermark).
  void deliver_to_logic(AppId id, AppState& app,
                        const devices::SensorEvent& e);

  // Actuation.
  void route_command(AppId id, AppState& app,
                     const appmodel::ActuatorEdge& edge,
                     const devices::Command& cmd);
  void submit_command_locally(AppState& app, const devices::Command& cmd);
  // Alive processes hosting an active actuator node for `actuator`.
  std::vector<ProcessId> actuator_targets(ActuatorId actuator) const;
  void retry_pending_commands();

  // Watermark gossip.
  std::vector<std::byte> keepalive_payload();
  void on_keepalive_payload(ProcessId from, BinaryReader& r);

  std::string metric_prefix(AppId id) const;

  sim::Simulation* sim_;
  net::SimNetwork* net_;
  devices::HomeBus* bus_;
  ProcessId self_;
  std::vector<ProcessId> all_;
  Config config_;
  metrics::Registry* metrics_;

  sim::StableStore store_;  // survives crashes
  std::vector<std::shared_ptr<const appmodel::AppGraph>> deployed_;
  // Integrity layer (survives crashes, like store_): per-origin device
  // sequence history for replay detection, and the verify scratch buffer.
  std::map<SensorId, std::set<std::uint32_t>> device_seqs_seen_;
  std::vector<std::byte> unseal_scratch_;

  // Volatile state, torn down on crash.
  std::unique_ptr<sim::ProcessTimers> timers_;
  std::unique_ptr<membership::FailureDetector> fd_;
  std::unique_ptr<store::ReplicatedStore> kv_;
  std::map<AppId, AppState> apps_;
  // Lazily resolved "ingest.pX.sY" counters, one per sensor: device ingest
  // is per-event-hot and must not rebuild the counter name each time.
  // Registry references stay valid across crash/recover cycles.
  std::map<SensorId, metrics::Counter*> ingest_counters_;
  // Periodic anti-entropy + command-retry closure; queued timer copies
  // capture `this` only, so no shared_ptr self-cycle (leak) exists.
  std::function<void()> periodic_;
  sim::TimerId periodic_timer_{0};
  bool up_{false};
  bool started_{false};
  std::uint32_t next_cmd_seq_{1};
};

}  // namespace riv::core
