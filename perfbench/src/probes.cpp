// Layer probes that cannot be separated from outside a full run: the sim
// kernel's timer-churn hot path and the core wire codecs.
#include <functional>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/wire.hpp"
#include "sim/simulation.hpp"

namespace rivbench {
namespace {

using namespace riv;

constexpr std::uint64_t kChurnFires = 400'000;
constexpr int kCodecIters = 200'000;

// Keeps the codec results observable so neither loop folds away.
volatile std::uint64_t g_sink = 0;

// 64 periodic timers (the keep-alive pattern); each tick cancels and
// re-arms a timer that never fires (the retransmit pattern). Pure
// Simulation: schedule, cancel, step. Returns ns per dispatched event.
double kernel_ns_per_event(std::uint64_t seed) {
  constexpr int kPeriodic = 64;
  sim::Simulation sim(seed);
  Rng rng(derive_seed(seed, 1));
  std::vector<int> period_ms(kPeriodic);
  for (int& p : period_ms) p = 1 + static_cast<int>(rng.uniform_int(17));
  std::uint64_t fires = 0;
  std::vector<sim::TimerId> churn(kPeriodic, 0);
  std::function<void(int)> tick = [&](int i) {
    ++fires;
    const auto k = static_cast<std::size_t>(i);
    sim.cancel(churn[k]);
    churn[k] = sim.schedule_after(milliseconds(40), [] {});
    if (fires < kChurnFires)
      sim.schedule_after(milliseconds(period_ms[k]), [&tick, i] { tick(i); });
  };
  for (int i = 0; i < kPeriodic; ++i)
    sim.schedule_after(microseconds(1 + i), [&tick, i] { tick(i); });
  const double t0 = now_s();
  while (fires < kChurnFires && sim.step()) {
  }
  return ratio((now_s() - t0) * 1e9, static_cast<double>(sim.events_fired()));
}

devices::SensorEvent make_event(Rng& rng) {
  devices::SensorEvent e;
  e.id = {SensorId{static_cast<std::uint16_t>(1 + rng.uniform_int(8))},
          static_cast<std::uint32_t>(rng.uniform_int(1'000'000))};
  e.epoch = static_cast<std::uint32_t>(rng.uniform_int(32));
  e.emitted_at = TimePoint{static_cast<std::int64_t>(rng.uniform_int(1u << 30))};
  e.value = rng.uniform(0.0, 40.0);
  e.payload_size = static_cast<std::uint32_t>(4 + rng.uniform_int(61));
  return e;
}

}  // namespace

void run_probes(std::uint64_t seed, Report& r) {
  r.metric("sim.kernel_ns_per_event", kernel_ns_per_event(seed), "ns");

  // Ring forwards (4-process S/V sets) and reliable-broadcast event
  // payloads, the two codecs on the per-event delivery path.
  Rng rng(derive_seed(seed, 2));
  core::wire::RingPayload ring;
  ring.app = AppId{1};
  ring.sensor = SensorId{1};
  for (std::uint16_t p = 1; p <= 4; ++p) {
    ring.need.insert(ProcessId{p});
    if (rng.bernoulli(0.5)) ring.seen.insert(ProcessId{p});
  }
  ring.event = make_event(rng);
  core::wire::EventPayload ev;
  ev.app = AppId{1};
  ev.sensor = SensorId{1};
  ev.event = make_event(rng);

  std::vector<std::byte> ring_buf, ev_buf;
  std::uint64_t sink = 0;
  double t0 = now_s();
  for (int i = 0; i < kCodecIters; ++i) {
    ring.event.id.seq = static_cast<std::uint32_t>(i);
    ev.event.id.seq = static_cast<std::uint32_t>(i);
    ring_buf = core::wire::encode(ring);
    ev_buf = core::wire::encode_event_payload(ev);
    sink += ring_buf.size() + ev_buf.size();
  }
  const double encode_ns = (now_s() - t0) * 1e9 / (2.0 * kCodecIters);
  core::wire::RingPayload ring_out;
  t0 = now_s();
  for (int i = 0; i < kCodecIters; ++i) {
    if (core::wire::decode_ring_into(ring_buf, ring_out))
      sink += ring_out.event.id.seq;
    sink += core::wire::decode_event_payload(ev_buf).event.id.seq;
  }
  const double decode_ns = (now_s() - t0) * 1e9 / (2.0 * kCodecIters);
  r.metric("wire.encode_ns", encode_ns, "ns");
  r.metric("wire.decode_ns", decode_ns, "ns");
  g_sink = sink;
}

}  // namespace rivbench
