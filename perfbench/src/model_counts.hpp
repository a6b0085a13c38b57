// Modelled (simulated) counts read from a metrics::Registry. They depend
// only on the simulation, so a change that only speeds the simulator up
// must leave them identical.
#pragma once

#include <cstdint>

namespace riv::metrics {
class Registry;
}

namespace rivbench {

struct Report;

struct ModelCounts {
  std::uint64_t msgs{0};        // every net.msgs.* counter
  std::uint64_t bytes{0};       // every net.bytes.* counter
  std::uint64_t ring_event{0};  // gapless ring forwards
  std::uint64_t rb_event{0};    // reliable-broadcast fallback forwards
  std::uint64_t promotions{0};  // every *.promotions counter
  std::uint64_t retried{0};     // every *.commands_retried counter

  ModelCounts& operator+=(const ModelCounts& o);
};

ModelCounts model_counts(const riv::metrics::Registry& reg);

// net.*, delivery.* and exec.* per-layer metrics over `ops` simulated
// homes (seeds, or (home, campaign) runs).
void report_model_counts(const ModelCounts& c, double ops, double delivered,
                         double emitted, Report& r);

}  // namespace rivbench
