// rivbench: one workload of the simulator benchmark, timed or traced.
//
//   rivbench        --workload W --seed N --seconds S [--setup-only]
//   rivbench_traced --workload W --seed N --seconds S [--spans PATH]
//
// W is chaos_sweep, fleet_sweep or flight_audit. The timed binary has no
// allocation hook and records no spans; it prints the end-to-end metrics.
// The traced binary counts allocations per thread, records a span around
// every public call into a layer, writes the spans to PATH at exit and
// prints the per-layer metrics. --setup-only sets up, reports the cold
// setup_s and exits without a pass. Both print one JSON line last; see
// perfbench/run.py, which drives them.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "alloc_count.hpp"
#include "bench.hpp"

namespace rivbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of its mode, in this order; a layer
// a workload does not exercise reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"sim_events_per_s", "events/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.ns_per_event", "ns"},
    {"sim.allocs_per_event", "count"},
    {"bench.allocs_per_op", "count"},
    {"sim.kernel_ns_per_event", "ns"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"chaos.build_us", "us"},
    {"chaos.run_us", "us"},
    {"chaos.finish_us", "us"},
    {"chaos.teardown_us", "us"},
    {"chaos.arm_us", "us"},
    {"chaos.faults_injected", "count"},
    {"chaos.noop_frac", "frac"},
    {"fleet.sample_us", "us"},
    {"workload.build_us", "us"},
    {"workload.build_allocs", "count"},
    {"workload.teardown_us", "us"},
    {"sim.warmup_us", "us"},
    {"sim.window_us", "us"},
    {"metrics.merge_us", "us"},
    {"observe.score_us", "us"},
    {"fleet.scaling_eff", "frac"},
    {"checkpoint.capture_us", "us"},
    {"checkpoint.image_bytes", "bytes"},
    {"checkpoint.apply_us", "us"},
    {"checkpoint.apply_allocs", "count"},
    {"checkpoint.attest_us", "us"},
    {"checkpoint.attested", "count"},
    {"trace.capture_ns_per_record", "ns"},
    {"trace.bytes_per_record", "bytes"},
    {"trace.allocs_per_record", "count"},
    {"trace.decode_ns_per_record", "ns"},
    {"provenance.analyze_ns_per_record", "ns"},
    {"provenance.audit_ns_per_record", "ns"},
    {"net.msgs_per_seed", "count"},
    {"net.bytes_per_seed", "bytes"},
    {"delivery.rb_fallback_frac", "frac"},
    {"delivery.delivered_per_emitted", "frac"},
    {"exec.promotions", "count"},
    {"exec.commands_retried", "count"},
    {"fleet.survival_frac", "frac"},
    {"audit.detected_frac", "frac"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "rivbench: %s\nusage: rivbench --workload "
               "chaos_sweep|fleet_sweep|flight_audit --seed N --seconds S "
               "[--setup-only] [--spans PATH]\n",
               why);
  return 2;
}

// Reorder `got` into `specs` order; a metric the workload did not report
// reads 0. False if the workload reported a name or unit not in `specs`.
template <std::size_t N>
bool normalize(std::vector<Metric>& got, const MetricSpec (&specs)[N]) {
  std::vector<Metric> out;
  for (const MetricSpec& s : specs) out.push_back({s.name, 0.0, s.unit});
  for (const Metric& m : got) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const Metric& o) { return o.name == m.name; });
    if (it == out.end() || it->unit != m.unit) {
      std::fprintf(stderr, "rivbench: unexpected metric %s [%s]\n",
                   m.name.c_str(), m.unit.c_str());
      return false;
    }
    it->value = m.value;
  }
  got = std::move(out);
  return true;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " +
           json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace
}  // namespace rivbench

int main(int argc, char** argv) {
  using namespace rivbench;
  std::string workload, spans_path;
  RunOptions opt;
  opt.start_s = now_s();
  bool have_seed = false, have_seconds = false;
  // fleet_sweep's worker count: 2, but never more than nproc.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  opt.jobs = std::max(1, std::min(2, nproc));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && opt.seconds > 0;
    } else if (arg == "--spans") {
      spans_path = v;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds) return usage("--seed and --seconds needed");

  const bool traced = alloc_hook_installed();
  if (traced && opt.setup_only)
    return usage("--setup-only is for the timed binary");
  Tracer tr(traced);
  Report r;
  if (workload == "chaos_sweep") {
    r = run_chaos_sweep(opt, tr);
  } else if (workload == "fleet_sweep") {
    r = run_fleet_sweep(opt, tr);
  } else if (workload == "flight_audit") {
    r = run_flight_audit(opt, tr);
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  if (traced) {
    run_probes(opt.seed, r);
    if (!normalize(r.metrics, kPerLayer)) return 3;
    if (!spans_path.empty() && !tr.write(spans_path)) {
      std::fprintf(stderr, "rivbench: cannot write spans to %s\n",
                   spans_path.c_str());
      return 3;
    }
  } else {
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    if (!normalize(r.metrics, kEndToEnd)) return 3;
  }

  std::string notes = "{";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    if (i > 0) notes += ", ";
    notes += json_string(r.notes[i].first) + ": " +
             json_string(r.notes[i].second);
  }
  notes += "}";
  std::printf(
      "{\"workload\": %s, \"mode\": %s, \"sim_digest\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"consistent\": %s, "
      "\"passes\": %llu, \"best_pass_s\": %s, \"jobs\": %d, "
      "\"compiler\": %s, \"build_type\": %s, "
      "\"metrics\": %s, \"info\": %s, \"notes\": %s}\n",
      json_string(workload).c_str(),
      json_string(traced ? "traced" : "timed").c_str(),
      json_string(r.sim_digest).c_str(),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      r.consistent ? "true" : "false",
      static_cast<unsigned long long>(r.passes),
      json_number(r.best_pass_s).c_str(), opt.jobs,
      json_string(RIVBENCH_COMPILER).c_str(),
      json_string(RIVBENCH_BUILD_TYPE).c_str(),
      json_metrics(r.metrics).c_str(), json_metrics(r.info).c_str(),
      notes.c_str());
  return 0;
}
