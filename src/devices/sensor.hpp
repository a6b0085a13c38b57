// Simulated physical sensors.
//
// Models the device behaviours the paper's protocols are built around:
//   * push sensors emit spontaneously (periodic or Poisson processes,
//     optionally bursty) and *multicast* each event over every attached
//     sensor->process link; each link independently loses the event with
//     its configured probability (§2.1's interference/obstruction skew);
//   * poll sensors respond to poll requests after a device-specific
//     latency, and — crucially for §8.5 — support only ONE outstanding
//     poll: concurrent requests are silently dropped;
//   * sensors crash and recover (§3.1): a crashed sensor emits nothing and
//     ignores polls.
// Battery accounting: every poll request that reaches the sensor costs one
// unit (Fig 8 argues uncoordinated polling drains 1.5–2.5x more battery).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "devices/adapters.hpp"
#include "devices/event.hpp"
#include "sim/pending.hpp"
#include "sim/simulation.hpp"

namespace riv::devices {

enum class SensorKind : std::uint8_t {
  kTemperature,
  kHumidity,
  kLuminance,
  kUv,
  kMotion,
  kDoor,
  kMoisture,
  kSmoke,
  kCo2,
  kEnergy,
  kVibration,
  kCamera,
  kMicrophone,
  kWearable,
};

const char* to_string(SensorKind kind);

enum class EmitPattern : std::uint8_t {
  kPeriodic,  // fixed inter-event gap = 1/rate
  kPoisson,   // exponential inter-event gaps with mean 1/rate
  kBurst,     // Poisson bursts of `burst_size` back-to-back events
};

struct SensorSpec {
  SensorId id{};
  std::string name;
  SensorKind kind{SensorKind::kTemperature};
  Technology tech{Technology::kIp};
  bool push{true};
  std::uint32_t payload_size{4};  // Table 3: 4–8 B small, 1–20 KB large

  // Push behaviour.
  double rate_hz{1.0};
  EmitPattern pattern{EmitPattern::kPeriodic};
  int burst_size{3};

  // Poll behaviour (used when push == false). poll_latency is the device
  // response time; §8.5 measured 500–600 ms for Z-Wave sensors. Real
  // Z-Wave stacks occasionally retransmit, producing a long latency tail:
  // with probability poll_tail_prob the response takes poll_tail_factor
  // times longer (this is what makes coordinated polling slightly
  // sub-optimal in Fig 8 — a late response spills into the next slot).
  Duration poll_latency{milliseconds(500)};
  double poll_jitter{0.15};
  double poll_tail_prob{0.0};
  double poll_tail_factor{2.0};

  // Value model: base + amplitude * sin(2*pi*t/period) + uniform noise.
  // Binary kinds (motion/door/...) toggle 0/1 instead.
  double value_base{21.0};
  double value_amplitude{3.0};
  Duration value_period{hours(24)};
  double value_noise{0.2};
};

// One sensor->process radio link.
struct LinkParams {
  double loss_prob{0.0};     // Bernoulli loss per transmission
  Duration latency{};        // defaults to the technology profile if zero
  double jitter_frac{-1.0};  // < 0 means: use the technology profile
};

class Sensor {
 public:
  // Called when an event transmission survives the link to `process`.
  using DeliveryFn = std::function<void(ProcessId, const SensorEvent&)>;

  Sensor(sim::Simulation& sim, SensorSpec spec, Rng rng);

  const SensorSpec& spec() const { return spec_; }
  SensorId id() const { return spec_.id; }

  void add_link(ProcessId process, LinkParams params);
  // Drop a link (wearable moved out of range, §2.1's user mobility).
  // Harmless if absent; transmissions already in the air still land.
  void remove_link(ProcessId process);
  void set_link_loss(ProcessId process, double loss_prob);
  double link_loss(ProcessId process) const;
  std::vector<ProcessId> linked_processes() const;
  bool linked_to(ProcessId process) const;

  void set_delivery(DeliveryFn fn) { deliver_ = std::move(fn); }

  // Begin autonomous emission (push sensors only; no-op for poll sensors).
  void start();
  void stop();

  void crash();
  void recover();
  bool crashed() const { return crashed_; }

  // Issue a poll on behalf of `from`; the response event (tagged with
  // `epoch_tag`) travels back over that process's link only. Silently
  // dropped when the sensor is busy or crashed (§8.5).
  void poll(ProcessId from, std::uint32_t epoch_tag);
  bool busy() const { return busy_; }

  // Test hook: emit one push event immediately.
  void emit_now();

  // --- Tamper evidence (Byzantine chaos) -----------------------------
  // Arm the integrity layer: every emission folds into the per-origin
  // hash chain, carries a keyed MAC for the radio hop, and is retained
  // in a small recent-emissions window (the injection source for replay
  // attacks). Disarmed sensors emit with chain == mac == 0 and keep no
  // window, so the default path is untouched.
  void enable_integrity(std::uint64_t key);
  bool integrity_enabled() const { return integrity_; }
  const std::vector<SensorEvent>& recent_events() const { return recent_; }

  // Statistics.
  std::uint64_t events_emitted() const { return events_emitted_; }
  std::uint64_t polls_received() const { return polls_received_; }
  std::uint64_t polls_dropped() const { return polls_dropped_; }
  std::uint64_t polls_served() const { return polls_served_; }
  std::uint64_t battery_drain() const { return polls_received_; }

  // --- state capture (DESIGN.md §13) ---------------------------------
  // RNG stream, links, emission cursor, integrity key, chain and replay
  // window, counters, plus the emission-loop timer, a pending poll
  // response and every delivery in the air, each with its timer id.
  void clone_state(BinaryWriter& w) const;
  // Restore into a freshly built sensor of the same spec (asserted);
  // timers are re-created via ProcessTimers::restore_at.
  void restore_clone(BinaryReader& r);

  // Divergence lever: replace the RNG stream with a salted child stream.
  // Two clones of a warm deployment perturbed with different salts
  // diverge from here on (loss draws, jitter, emission gaps) while
  // sharing the identical warm-up — the replicate axis of warm sweeps.
  // Deterministic: same salt, same continuation.
  void perturb(std::uint64_t salt) { rng_ = rng_.fork(salt); }

 private:
  struct Link {
    LinkParams params;
  };

  void schedule_next_emission();
  // Timer callbacks, shared by the live path and restore.
  sim::Simulation::Callback emission_tick();
  sim::Simulation::Callback poll_response(ProcessId from,
                                          std::uint32_t epoch_tag);
  sim::Simulation::Callback delivery(std::uint32_t slot);
  void emit(std::uint32_t epoch_tag, bool poll_based,
            ProcessId poll_target = ProcessId{0xffff});
  void transmit(ProcessId process, const Link& link, const SensorEvent& e);
  double sample_value();
  Duration link_latency(const Link& link);

  sim::Simulation* sim_;
  SensorSpec spec_;
  Rng rng_;
  sim::ProcessTimers timers_;
  std::map<ProcessId, Link> links_;
  DeliveryFn deliver_;

  bool running_{false};
  bool crashed_{false};
  bool busy_{false};
  std::uint32_t next_seq_{1};
  int burst_remaining_{0};

  static constexpr std::size_t kRecentWindow = 64;
  bool integrity_{false};
  std::uint64_t integrity_key_{0};
  std::uint64_t chain_{hash::kFnvOffsetBasis};
  std::vector<SensorEvent> recent_;
  std::size_t recent_pos_{0};

  std::uint64_t events_emitted_{0};
  std::uint64_t polls_received_{0};
  std::uint64_t polls_dropped_{0};
  std::uint64_t polls_served_{0};

  // Timers owned here, kept by id for state capture. An event in the air
  // lives in in_flight_ until its delivery timer fires.
  struct InFlight {
    ProcessId process;
    SensorEvent event;
  };
  sim::TimerId emission_timer_{0};
  sim::TimerId poll_timer_{0};
  ProcessId poll_from_{};
  std::uint32_t poll_epoch_{0};
  sim::PendingTable<InFlight> in_flight_;
};

// True for sensor kinds whose value is a 0/1 indicator.
bool is_binary_kind(SensorKind kind);

}  // namespace riv::devices
