// FaultInjector: applies a FaultPlan to a live HomeDeployment.
//
// Every action is scheduled on the deployment's simulation at its planned
// virtual time and recorded in the trace as it is applied (with an `(noop)`
// marker when home state made the action redundant — e.g. an edge-up
// landing inside a quiescence window that already healed the edge). The
// injector is the ONLY component that mutates fault state during a chaos
// run; together with the plan's seed-determinism this makes the recorded
// trace a complete, reproducible account of everything that went wrong.
//
// Byzantine actions (DESIGN.md §12) go through the same funnel: spoofed
// and replayed device events are injected at the victim's adapter, and a
// corrupt-process window installs the SimNetwork interposer so frames the
// compromised host forwards can be mutated, duplicated, or eaten. Every
// attack the injector actually performs emits a ground-truth kByzantine
// trace marker carrying the fault id, which is what trace_analyze --audit
// matches detector evidence against.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "chaos/fault_plan.hpp"
#include "chaos/trace.hpp"
#include "common/rng.hpp"
#include "workload/deployment.hpp"

namespace riv::chaos {

class FaultInjector {
 public:
  // `on_quiesce_end(window_start)` fires at each kQuiesceEnd mark, after
  // the home has had a full quiescence window to converge — the hook the
  // invariant checker uses for converged-state checks.
  using QuiesceHook = std::function<void(TimePoint window_start)>;

  FaultInjector(workload::HomeDeployment& home, TraceRecorder& trace);

  // Tell the injector whether the deployment's tamper-evidence layer is
  // armed. Mutation attacks are only launched when it is: an unverified
  // receiver would feed corrupt bytes to the strict internal decoders,
  // which is outside the simulated threat model (the attacker wants to
  // stay plausible, not to crash the victim). Replay eligibility also
  // widens when verification is off — see apply().
  void set_integrity_armed(bool armed) { integrity_ = armed; }

  // Schedule every action of `plan`, each shifted by `offset` (zero for a
  // normal run; warm sweeps arm after a shared warm-up). Call
  // once, before or after HomeDeployment::start(), but before running the
  // simulation past the first shifted action.
  void arm(const FaultPlan& plan, QuiesceHook on_quiesce_end = {},
           Duration offset = {});

  // Actions that changed home state when applied.
  std::size_t injected() const { return injected_; }
  // Actions that landed on already-satisfied state (recorded "(noop)").
  std::size_t noops() const { return noops_; }
  // Byzantine attacks actually performed (spoof/replay injections plus
  // interposer mutate/dup/drop events) — each emitted a kByzantine marker.
  std::size_t attacks() const { return attacks_; }

  // --- state capture (DESIGN.md §13) ---------------------------------
  // The plan cursors — action sequence, applied/noop split, attack
  // randomness stream, quiescence window, link-loss baselines,
  // corrupt-window state. The plan's pending actions are kernel timers
  // whose closures are not encoded, so restore_clone targets an injector
  // that was never armed (ChaosSession asserts it).
  void clone_state(BinaryWriter& w) const {
    w.u64(seq_);
    w.u64(injected_);
    w.u64(noops_);
    w.u64(attacks_);
    w.u8(integrity_ ? 1 : 0);
    for (std::uint64_t word : byz_rng_.state()) w.u64(word);
    w.time_point(window_start_);
    w.u8(corrupt_pid_.has_value() ? 1 : 0);
    if (corrupt_pid_.has_value()) w.process_id(*corrupt_pid_);
    w.u64(corrupt_fault_id_);
    w.u64(base_link_loss_.size());
    for (const auto& [link, loss] : base_link_loss_) {
      w.sensor_id(link.first);
      w.process_id(link.second);
      w.f64(loss);
    }
  }
  void restore_clone(BinaryReader& r);

 private:
  void apply(const FaultAction& action);
  // Restore every device link touched by a loss ramp to its baseline.
  void restore_device_links();
  // SimNetwork hook for the corrupt-process window; returns the number of
  // copies to transmit (0 eats the frame).
  int interpose(net::Message& msg);
  void mark_net_attack(const net::Message& msg, const char* what);

  workload::HomeDeployment* home_;
  TraceRecorder* trace_;
  QuiesceHook on_quiesce_end_;
  // Baseline loss of device links, snapshotted before the first override.
  std::map<std::pair<SensorId, ProcessId>, double> base_link_loss_;
  TimePoint window_start_{};
  // seq_ numbers EVERY action in plan order (applied or noop): it is the
  // fault id attacks and audit attribution reference, and must stay
  // stable across accounting changes. injected_/noops_ split the same
  // total into "changed state" vs "(noop)".
  std::size_t seq_{0};
  std::size_t injected_{0};
  std::size_t noops_{0};
  std::size_t attacks_{0};
  bool integrity_{false};
  // Attack-time randomness (mutation byte picks, interposer rolls); forked
  // deterministically from the plan seed in arm().
  Rng byz_rng_{0};
  std::optional<ProcessId> corrupt_pid_;
  std::size_t corrupt_fault_id_{0};
};

}  // namespace riv::chaos
