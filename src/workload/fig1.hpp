// The preliminary home-deployment study of §2.1 (Figure 1).
//
// Six off-the-shelf Z-Wave sensors (four motion, two door) multicast to
// three processes for 15 days. Radio interference and obstructions give
// each sensor->process link its own loss rate, producing the per-process
// skew the paper reports (e.g. a difference of ~2357 events on Door 1).
// This module regenerates that deployment synthetically: the sensors are
// Poisson emitters and each link has a fixed Bernoulli loss probability
// chosen to be representative of walls/siding/interference.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace riv {
class BinaryWriter;
namespace sim {
class Simulation;
}
namespace devices {
class HomeBus;
}
}  // namespace riv

namespace riv::workload {

struct Fig1Options {
  std::uint64_t seed{42};
  Duration duration{days(15)};
  int n_processes{3};
};

struct Fig1Result {
  struct Row {
    std::string sensor;
    std::uint64_t emitted{0};
    std::map<ProcessId, std::uint64_t> received;  // per process
    std::uint64_t skew() const;                   // max - min received
  };
  std::vector<Row> rows;

  // Fraction of emissions lost on *every* link simultaneously — the events
  // Rivulet can do nothing about (§4.1's post-ingest caveat).
  double all_link_loss_fraction{0.0};
};

Fig1Result run_fig1_deployment(const Fig1Options& options);

// Stepwise form of the same deployment, for checkpointed long runs:
// construct, start(), run_to() in chunks (chunking is behaviourally
// invisible — the kernel's run_until is chunk-equivalent), harvest with
// result() at the end. checkpoint_sim()/checkpoint_bus() write the clone
// encoding (DESIGN.md §13) of the two layers a Fig1 run owns
// ("sim.kernel" + "bus.devices"), which is what
// bench_fig1_deployment stores per RIVC boundary and byte-compares on
// resume (restore is re-execution + attestation, as everywhere).
class Fig1Deployment {
 public:
  explicit Fig1Deployment(const Fig1Options& options);
  ~Fig1Deployment();
  Fig1Deployment(const Fig1Deployment&) = delete;
  Fig1Deployment& operator=(const Fig1Deployment&) = delete;

  void start();
  void run_to(TimePoint t);
  TimePoint now() const;
  TimePoint end_time() const;

  sim::Simulation& sim();
  // Encode kernel / device state; the section split is the caller's
  // business.
  void checkpoint_sim(BinaryWriter& w) const;
  void checkpoint_bus(BinaryWriter& w) const;

  Fig1Result result() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace riv::workload
