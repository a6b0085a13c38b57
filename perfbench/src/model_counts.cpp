#include "model_counts.hpp"

#include <string>

#include "bench.hpp"
#include "metrics/metrics.hpp"

namespace rivbench {

namespace {
bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

ModelCounts& ModelCounts::operator+=(const ModelCounts& o) {
  msgs += o.msgs;
  bytes += o.bytes;
  ring_event += o.ring_event;
  rb_event += o.rb_event;
  promotions += o.promotions;
  retried += o.retried;
  return *this;
}

ModelCounts model_counts(const riv::metrics::Registry& reg) {
  ModelCounts c;
  c.msgs = reg.counter_sum("net.msgs.");
  c.bytes = reg.counter_sum("net.bytes.");
  c.ring_event = reg.counter_value("net.msgs.ring_event");
  c.rb_event = reg.counter_value("net.msgs.rb_event");
  for (const auto& [name, counter] : reg.counters()) {
    if (ends_with(name, ".promotions")) c.promotions += counter.value();
    if (ends_with(name, ".commands_retried")) c.retried += counter.value();
  }
  return c;
}

void report_model_counts(const ModelCounts& c, double ops, double delivered,
                         double emitted, Report& r) {
  r.metric("net.msgs_per_seed", ratio(static_cast<double>(c.msgs), ops),
           "count");
  r.metric("net.bytes_per_seed", ratio(static_cast<double>(c.bytes), ops),
           "bytes");
  r.metric("delivery.rb_fallback_frac",
           ratio(static_cast<double>(c.rb_event),
                 static_cast<double>(c.ring_event + c.rb_event)),
           "frac");
  r.metric("delivery.delivered_per_emitted", ratio(delivered, emitted),
           "frac");
  r.metric("exec.promotions", ratio(static_cast<double>(c.promotions), ops),
           "count");
  r.metric("exec.commands_retried",
           ratio(static_cast<double>(c.retried), ops), "count");
}

}  // namespace rivbench
