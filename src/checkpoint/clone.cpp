#include "checkpoint/clone.hpp"

#include <utility>

#include "chaos/engine.hpp"
#include "common/assert.hpp"
#include "common/codec.hpp"
#include "metrics/metrics.hpp"
#include "workload/deployment.hpp"

namespace riv::checkpoint {
namespace {

// Registry clone codec. Counters and histograms are the
// registry_fingerprint surface, so they round-trip exactly: histograms as
// sparse (index, count) pairs — a fleet home touches a handful of the
// ~600 buckets — plus the exact count/sum/min/max words. Series
// round-trip point-for-point.
void encode_registry(BinaryWriter& w, const metrics::Registry& reg) {
  const auto& counters = reg.counters();
  w.u64(counters.size());
  for (const auto& [name, c] : counters) {
    w.str(name);
    w.u64(c.value());
  }
  const auto& lats = reg.latencies();
  w.u64(lats.size());
  for (const auto& [name, lat] : lats) {
    w.str(name);
    const metrics::Histogram& h = lat.hist();
    const auto& buckets = h.buckets();
    std::uint32_t nonzero = 0;
    for (std::uint64_t b : buckets) nonzero += (b != 0) ? 1u : 0u;
    w.u32(nonzero);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] != 0) {
        w.u32(static_cast<std::uint32_t>(i));
        w.u64(buckets[i]);
      }
    }
    w.u64(h.overflow());
    w.u64(h.count());
    w.i64(h.sum_us());
    w.i64(h.min_raw());
    w.i64(h.max().us);
  }
  const auto& series = reg.all_series();
  w.u64(series.size());
  for (const auto& [name, s] : series) {
    w.str(name);
    w.u64(s.points().size());
    for (const auto& p : s.points()) {
      w.time_point(p.t);
      w.f64(p.v);
    }
  }
}

void decode_registry(BinaryReader& r, metrics::Registry& reg) {
  reg.reset();
  const std::uint64_t n_counters = r.u64();
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    std::string name = r.str();
    reg.counter(name).add(r.u64());
  }
  const std::uint64_t n_lats = r.u64();
  for (std::uint64_t i = 0; i < n_lats; ++i) {
    std::string name = r.str();
    std::array<std::uint64_t, metrics::Histogram::kBucketCount> buckets{};
    const std::uint32_t nonzero = r.u32();
    for (std::uint32_t j = 0; j < nonzero; ++j) {
      const std::uint32_t idx = r.u32();
      RIV_ASSERT(idx < buckets.size(), "clone restore: histogram bucket oob");
      buckets[idx] = r.u64();
    }
    const std::uint64_t overflow = r.u64();
    const std::uint64_t count = r.u64();
    const std::int64_t sum = r.i64();
    const std::int64_t min = r.i64();
    const std::int64_t max = r.i64();
    reg.latency(name).mutable_hist().restore(buckets, overflow, count, sum,
                                             min, max);
  }
  const std::uint64_t n_series = r.u64();
  for (std::uint64_t i = 0; i < n_series; ++i) {
    metrics::TimeSeries& s = reg.series(r.str());
    const std::uint64_t n_points = r.u64();
    for (std::uint64_t j = 0; j < n_points; ++j) {
      TimePoint t = r.time_point();
      s.append(t, r.f64());
    }
  }
}

// The bus handler set is not encoded: a process is subscribed iff it is
// up, and a restored process re-subscribes in its own restore. Checked on
// every capture and after every apply.
void check_subscriptions(workload::HomeDeployment& home) {
  std::vector<ProcessId> up;
  for (ProcessId p : home.processes())
    if (home.process(p).up()) up.push_back(p);
  RIV_ASSERT(home.bus().subscribers() == up,
             "bus subscriptions differ from the set of up processes");
}

// The identity gate plus every home section, leaving the kernel restore
// window open for the caller's own timers (a session's checker tick).
bool begin_apply(const WarmImage& img, workload::HomeDeployment& target,
                 std::uint64_t seed, std::string* error) {
  // Deployment-level identity gate: rejected cleanly, before any restore
  // call touches the target. (Deeper structural divergence with matching
  // counts is a build/scenario bug and trips component asserts instead.)
  auto reject = [error](std::string msg) {
    if (error) *error = std::move(msg);
    return false;
  };
  if (img.seed != seed)
    return reject("clone identity mismatch: image seed " +
                  std::to_string(img.seed) + ", target seed " +
                  std::to_string(seed));
  if (img.n_processes != target.processes().size())
    return reject("clone identity mismatch: image has " +
                  std::to_string(img.n_processes) + " processes, target " +
                  std::to_string(target.processes().size()));
  if (img.n_sensors != target.bus().sensors().size())
    return reject("clone identity mismatch: image has " +
                  std::to_string(img.n_sensors) + " sensors, target " +
                  std::to_string(target.bus().sensors().size()));
  RIV_ASSERT(img.procs.size() == img.n_processes,
             "clone image: per-process blob count mismatch");

  // A never-started target has an empty network registry (endpoints are
  // created by each process's volatile shell, which runs further down).
  // Pre-register them in pid order — the same first-touch order the
  // source used — so SimNetwork::restore_clone sees matching identity.
  for (ProcessId p : target.processes()) target.net().endpoint(p);

  {
    BinaryReader r(img.kernel);
    target.sim().begin_restore(r);
    RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: kernel blob");
  }
  {
    BinaryReader r(img.metrics);
    decode_registry(r, target.shared_metrics());
    for (ProcessId p : target.processes())
      decode_registry(r, target.process_metrics(p));
    RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: metrics blob");
  }
  {
    BinaryReader r(img.network);
    target.net().restore_clone(r);
    RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: network blob");
  }
  {
    BinaryReader r(img.devices);
    target.bus().restore_clone(r);
    RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: devices blob");
  }
  std::size_t i = 0;
  for (ProcessId p : target.processes()) {
    BinaryReader r(img.procs[i++]);
    target.process(p).restore_clone(r);
    RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: process blob");
  }
  if (error) error->clear();
  return true;
}

void finish_apply(workload::HomeDeployment& target) {
  target.sim().finish_restore();
  check_subscriptions(target);
}

}  // namespace

std::size_t WarmImage::bytes() const {
  std::size_t total = kernel.size() + metrics.size() + network.size() +
                      devices.size() + chaos.size();
  for (const auto& p : procs) total += p.size();
  return total;
}

void WarmImage::clear() {
  seed = 0;
  at = {};
  n_processes = 0;
  n_sensors = 0;
  kernel.clear();
  metrics.clear();
  network.clear();
  devices.clear();
  for (auto& p : procs) p.clear();
  chaos.clear();
}

std::vector<Section> image_sections(const WarmImage& img,
                                    const workload::HomeDeployment& home) {
  std::vector<Section> out;
  out.reserve(img.procs.size() + 5);
  out.push_back({"sim.kernel", img.kernel});
  out.push_back({"metrics", img.metrics});
  out.push_back({"net.wifi", img.network});
  out.push_back({"bus.devices", img.devices});
  for (std::size_t i = 0; i < img.procs.size(); ++i)
    out.push_back({"proc." + std::to_string(home.processes()[i].value),
                   img.procs[i]});
  if (!img.chaos.empty()) out.push_back({"chaos.session", img.chaos});
  return out;
}

void enable_clone_tracking(workload::HomeDeployment& /*home*/) {}

void capture_warm_home(workload::HomeDeployment& home, std::uint64_t seed,
                       WarmImage& out, bool /*with_attest*/) {
  check_subscriptions(home);
  out.seed = seed;
  out.at = home.sim().now();
  out.n_processes = static_cast<std::uint32_t>(home.processes().size());
  out.n_sensors = static_cast<std::uint32_t>(home.bus().sensors().size());
  {
    BinaryWriter w(std::move(out.kernel));
    home.sim().clone_state(w);
    out.kernel = w.take();
  }
  {
    BinaryWriter w(std::move(out.metrics));
    encode_registry(w, home.shared_metrics());
    for (ProcessId p : home.processes())
      encode_registry(w, home.process_metrics(p));
    out.metrics = w.take();
  }
  {
    BinaryWriter w(std::move(out.network));
    home.net().clone_state(w);
    out.network = w.take();
  }
  {
    BinaryWriter w(std::move(out.devices));
    home.bus().clone_state(w);
    out.devices = w.take();
  }
  out.procs.resize(out.n_processes);
  std::size_t i = 0;
  for (ProcessId p : home.processes()) {
    BinaryWriter w(std::move(out.procs[i]));
    home.process(p).clone_state(w);
    out.procs[i++] = w.take();
  }
  out.chaos.clear();
}

bool apply_warm_home(const WarmImage& img, workload::HomeDeployment& target,
                     std::uint64_t seed, std::string* error) {
  if (!begin_apply(img, target, seed, error)) return false;
  finish_apply(target);
  return true;
}

std::string attest_clone(const WarmImage& img,
                         workload::HomeDeployment& clone) {
  WarmImage cur;
  capture_warm_home(clone, img.seed, cur);
  Snapshot ref;
  ref.at = img.at;
  ref.sections = image_sections(img, clone);
  Snapshot now;
  now.at = cur.at;
  now.sections = image_sections(cur, clone);
  return diff_snapshots(ref, now);
}

void capture_warm_session(chaos::ChaosSession& session, WarmImage& out) {
  capture_warm_home(session.home(), session.options().scenario.seed, out);
  BinaryWriter w(std::move(out.chaos));
  session.clone_state(w);
  out.chaos = w.take();
}

std::unique_ptr<chaos::ChaosSession> clone_warm_session(
    const WarmImage& img, chaos::EngineOptions options) {
  auto session = std::make_unique<chaos::ChaosSession>(
      std::move(options), chaos::ChaosSession::Unstarted{});
  workload::HomeDeployment& home = session->home();
  std::string err;
  RIV_ASSERT(begin_apply(img, home, session->options().scenario.seed, &err),
             err.c_str());
  BinaryReader r(img.chaos);
  session->restore_clone(r);
  RIV_ASSERT(r.ok() && r.remaining() == 0, "clone restore: session blob");
  finish_apply(home);
  return session;
}

}  // namespace riv::checkpoint
