// Continuous invariant checking over a chaos run.
//
// The paper states its guarantees as run-long invariants; the checker
// turns each into executable form and evaluates it repeatedly at virtual-
// time intervals — not just once at the end — so a transient violation
// (e.g. a Gap stream double-delivering during a view split) is caught at
// the instant it happens, timestamped, and attributable to the fault
// trace around it.
//
// Two check phases:
//   * continuous — safety properties that must hold at EVERY instant, no
//     matter the fault state (Gap's no-over-delivery, §4.2);
//   * converged  — properties the protocols only promise after faults
//     heal and views converge (single active logic node §5, log-set
//     convergence and post-ingest delivery §4.1). These run at the end of
//     each partial-quiescence window, with a cutoff timestamp bounding
//     which events must already have converged, and once more — exactly,
//     with no cutoff — after the final drain.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/trace.hpp"
#include "common/codec.hpp"
#include "workload/deployment.hpp"

namespace riv::chaos {

struct Violation {
  std::string invariant;
  TimePoint at{};
  std::string detail;
};

std::string to_string(const Violation& v);

struct CheckContext {
  workload::HomeDeployment* home{nullptr};
  AppId app{};
  SensorId sensor{};
  // Converged checks: events emitted at or before this instant must have
  // reached converged state. Continuous checks ignore it.
  TimePoint cutoff{};
  // True for the post-drain check: the home is fault-free and fully
  // drained, so convergence must be exact with no cutoff allowance.
  bool final_check{false};
};

class Invariant {
 public:
  virtual ~Invariant() = default;
  virtual const char* name() const = 0;
  // Continuous invariants run at every check interval; the rest only at
  // quiescence-window ends and the final drained check.
  virtual bool continuous() const = 0;
  virtual void check(const CheckContext& ctx,
                     std::vector<Violation>& out) const = 0;
  // Scan cursors, for warm clones (DESIGN.md §13). Stateless invariants
  // encode nothing.
  virtual void clone_state(BinaryWriter& /*w*/) const {}
  virtual void restore_clone(BinaryReader& /*r*/) {}
};

// §4.2 "no duplicates to the app": no single logic-instance epoch is ever
// fed the same event twice. Stated per instance, not per home — under an
// asymmetric partition two logic nodes can be legitimately (transiently)
// active at once, so a home-wide delivered-vs-emitted comparison would
// flag correct behaviour. The runtime charges intra-instance duplicates
// to the "<app>.dup_instance_delivery" counter; this invariant requires
// it to stay zero, continuously, for both guarantees (Gap dedup window,
// Gapless log-exact dedup + replay only into a fresh instance).
class NoDuplicateDelivery : public Invariant {
 public:
  const char* name() const override { return "no-duplicate-delivery"; }
  bool continuous() const override { return true; }
  void check(const CheckContext& ctx,
             std::vector<Violation>& out) const override;
  void clone_state(BinaryWriter& w) const override { w.u64(reported_); }
  void restore_clone(BinaryReader& r) override { reported_ = r.u64(); }

 private:
  // The metric is cumulative; report each duplicate once, not per tick.
  mutable std::uint64_t reported_{0};
};

// Home-wide delivered ≤ emitted. Sound ONLY under fault plans that never
// split views (crash/recover-only): with a single active logic node at all
// times, total deliveries cannot exceed emissions. Kept for the
// crash-only property suites; the default engine set uses
// NoDuplicateDelivery instead.
class NoOverDelivery : public Invariant {
 public:
  const char* name() const override { return "gap-no-over-delivery"; }
  bool continuous() const override { return true; }
  void check(const CheckContext& ctx,
             std::vector<Violation>& out) const override;
};

// §5: after views converge, exactly one logic node is active per app.
class SingleActiveLogic : public Invariant {
 public:
  const char* name() const override { return "single-active-logic"; }
  bool continuous() const override { return false; }
  void check(const CheckContext& ctx,
             std::vector<Violation>& out) const override;
};

// §4.1: all live processes converge to the same event-log set. With a
// cutoff, only events emitted at or before the cutoff are required to
// have fully replicated; the final check requires exact equality.
class LogSetConvergence : public Invariant {
 public:
  const char* name() const override { return "log-set-convergence"; }
  bool continuous() const override { return false; }
  void check(const CheckContext& ctx,
             std::vector<Violation>& out) const override;
};

// §4.1 Gapless post-ingest guarantee: every event that reached at least
// one process is delivered to an active logic node at least once. Only
// decidable after the final drain (delivery counters are cumulative), so
// it checks nothing until ctx.final_check.
class GaplessPostIngest : public Invariant {
 public:
  const char* name() const override { return "gapless-post-ingest"; }
  bool continuous() const override { return false; }
  void check(const CheckContext& ctx,
             std::vector<Violation>& out) const override;
};

// DESIGN §12 "no actuation without genuine provenance": every actuation
// whose cause names a known sensor must reference a sequence number that
// sensor actually emitted. A spoofed event that reaches an app turns into
// an actuation with a fabricated provenance seq, which this catches even
// when every lower layer was fooled. Continuous — a forged actuation is a
// violation the instant it happens.
class NoForgedActuation : public Invariant {
 public:
  const char* name() const override { return "no-forged-actuation"; }
  bool continuous() const override { return true; }
  void check(const CheckContext& ctx,
             std::vector<Violation>& out) const override;
  void clone_state(BinaryWriter& w) const override;
  void restore_clone(BinaryReader& r) override;

 private:
  // Actuator histories are append-only; remember how far we scanned.
  mutable std::map<ActuatorId, std::size_t> scanned_;
};

// DESIGN §12 "no origin seq regression": with the tamper-evidence layer
// armed, every accepted device ingest adds a previously-unseen sequence
// number to the per-origin history, so per process the ingest counter and
// the history size must track exactly. A replayed (or otherwise repeated)
// seq that slips past the gate makes the counter run ahead — defense in
// depth for any future ingest path that forgets the gate. No-op when the
// integrity layer is off.
class NoOriginSeqRegression : public Invariant {
 public:
  const char* name() const override { return "no-origin-seq-regression"; }
  bool continuous() const override { return true; }
  void check(const CheckContext& ctx,
             std::vector<Violation>& out) const override;
};

// Periodically evaluates registered invariants against a deployment and
// accumulates violations (each tagged with its virtual time).
class InvariantChecker {
 public:
  InvariantChecker(workload::HomeDeployment& home, AppId app,
                   SensorId sensor);
  ~InvariantChecker();

  void add(std::unique_ptr<Invariant> invariant);

  // Begin periodic continuous checks every `interval` of virtual time.
  void start(Duration interval);

  // Run all continuous invariants now.
  void check_continuous();
  // Run converged-state invariants (plus the continuous ones) now.
  void check_converged(TimePoint cutoff, bool final_check);

  const std::vector<Violation>& violations() const { return violations_; }
  std::size_t checks_run() const { return checks_run_; }

  // --- state capture (DESIGN.md §13) ---------------------------------
  // Check count, violations so far, every invariant's cursors and the
  // periodic tick timer. Restore targets a checker with the same
  // invariants (asserted by name) that was never started.
  void clone_state(BinaryWriter& w) const;
  void restore_clone(BinaryReader& r);

 private:
  CheckContext context(TimePoint cutoff, bool final_check);
  // Install tick_, the periodic continuous-check closure.
  void make_tick();

  workload::HomeDeployment* home_;
  AppId app_;
  SensorId sensor_;
  std::vector<std::unique_ptr<Invariant>> invariants_;
  std::vector<Violation> violations_;
  std::size_t checks_run_{0};
  // Lets the periodic timer lambda outlive `this` harmlessly.
  std::shared_ptr<bool> alive_;
  std::function<void()> tick_;
  Duration interval_{};
  sim::TimerId tick_timer_{0};
};

}  // namespace riv::chaos
