// Warm snapshot clones: the one state encoding, applied directly.
//
// Every timer-owning component encodes its own data plus the ids of the
// timers it owns (the kernel encodes every live timer's exact (id, t, seq)
// once), and restore rebuilds the closures itself — each owner knows its
// own callbacks — re-registering them through Simulation::schedule_restored
// (DESIGN.md §13). The target must be a freshly built, never-started
// deployment with the same identity (same HomeSpec / builder calls);
// apply_warm_home() then overwrites its state in one pass and the clone
// continues exactly where the source stood.
//
// The same encoding is what RIVC checkpoints store (one section per
// WarmImage part, checkpoint/scenario.hpp) and what attestation
// byte-compares: attest_clone() re-captures a restored clone and diffs it
// against the image it came from (the fleet runs this on a
// hash-threshold-sampled subset, not on every clone).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/rivc.hpp"
#include "common/time.hpp"

namespace riv::workload {
class HomeDeployment;
}
namespace riv::chaos {
class ChaosSession;
struct EngineOptions;
}  // namespace riv::chaos

namespace riv::checkpoint {

// One captured home, held entirely in memory. Buffers are reused across
// capture calls (clear() keeps capacity) so a shard warming many homes
// allocates its scratch once.
struct WarmImage {
  std::uint64_t seed{0};  // home seed (identity; rejected on mismatch)
  TimePoint at{};         // virtual time of capture
  std::uint32_t n_processes{0};
  std::uint32_t n_sensors{0};
  std::vector<std::byte> kernel;   // clock, RNG, every live timer
  std::vector<std::byte> metrics;  // shared + per-process registries
  std::vector<std::byte> network;
  std::vector<std::byte> devices;
  std::vector<std::vector<std::byte>> procs;  // one per process, pid order
  // ChaosSession cursors (capture_warm_session); empty for a bare home.
  std::vector<std::byte> chaos;

  std::size_t bytes() const;
  void clear();
};

// The image as named RIVC sections: "sim.kernel", "metrics", "net.wifi",
// "bus.devices", one "proc.<pid>" per process, and "chaos.session" when
// the image holds a session.
std::vector<Section> image_sections(const WarmImage& img,
                                    const workload::HomeDeployment& home);

// Kept only because perfbench/ calls it: every deployment is capturable
// from t=0, so there is nothing to enable.
void enable_clone_tracking(workload::HomeDeployment& home);

// Serialize the live deployment into `out` (buffers reused). `seed` is
// the home's identity seed (the caller knows it; HomeDeployment does not
// retain it). The last argument is not read; it remains only because
// perfbench/ passes it (any capture can be attested).
void capture_warm_home(workload::HomeDeployment& home, std::uint64_t seed,
                       WarmImage& out, bool with_attest = false);

// Restore `img` into `target`, a freshly built, never-started deployment
// of the same identity. Returns false (and sets *error, never touching
// the target's state machine mid-way) when the deployment-level identity
// differs: seed, process count, or sensor count. Deeper structural
// mismatches (diverged builder calls with matching counts) fail hard via
// component-level identity asserts.
bool apply_warm_home(const WarmImage& img, workload::HomeDeployment& target,
                     std::uint64_t seed, std::string* error);

// Sampled attestation: byte-compare a fresh capture of the restored clone
// against the image it was restored from. Returns "" when identical, else
// the first difference (rivc.hpp diff semantics, naming the section).
std::string attest_clone(const WarmImage& img,
                         workload::HomeDeployment& clone);

// Warm chaos sessions (chaos_run --warm-sweep, bench_kernel): the home
// plus the session's own cursors. A session is captured before
// arm_plan; clone_warm_session builds an unstarted session from
// `options` (the source's) and applies the image to it.
void capture_warm_session(chaos::ChaosSession& session, WarmImage& out);
std::unique_ptr<chaos::ChaosSession> clone_warm_session(
    const WarmImage& img, chaos::EngineOptions options);

}  // namespace riv::checkpoint
