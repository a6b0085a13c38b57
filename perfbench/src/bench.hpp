// Shared pieces of the simulator benchmark: the workload interface, the
// report every workload fills, span tracing and small statistics helpers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rivbench {

double now_s();  // steady clock, seconds

// ---------------------------------------------------------------- spans ---
// Spans are recorded only in the traced run. Each has a name (the layer
// call it wraps), start/end on the steady clock, the allocations the
// calling thread made inside it, the span that encloses it and the op
// (seed, home) it belongs to. They stay in memory until write().
struct Span {
  const char* name{nullptr};
  std::uint32_t parent{0};  // index + 1 of the enclosing span; 0 = root
  std::uint32_t op{0};
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  std::uint64_t allocs{0};
};

class Tracer {
 public:
  explicit Tracer(bool on);

  bool on() const { return on_; }
  // Every span opened after this belongs to a new op.
  void next_op() { ++op_; }

  // RAII span; does nothing when the tracer is off.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::uint32_t index_{0};
    std::uint64_t allocs0_{0};
  };

  struct Totals {
    std::uint64_t count{0};
    double ns{0};  // summed duration
    double allocs{0};
    double mean_us() const { return count == 0 ? 0 : ns / 1e3 / count; }
    double mean_allocs() const { return count == 0 ? 0 : allocs / count; }
  };
  Totals totals(const std::string& name) const;

  // One CSV row per span: index,parent,op,name,start_ns,end_ns,allocs.
  bool write(const std::string& path) const;

 private:
  bool on_;
  std::uint32_t op_{0};
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span indices + 1
};

// ---------------------------------------------------------------- stats ---
double median(std::vector<double> v);
// Nearest-rank percentile, q in [0, 100].
double percentile(std::vector<double> v, double q);
// The highest whole percentile with at least ten samples beyond it (the
// tail a sample of size n can support); 0 when n < 20.
int tail_percentile(std::size_t n);

double ratio(double num, double den);  // 0 when den == 0

// --------------------------------------------------------------- report ---
struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

// What one run of one workload produces. main() prints it as one JSON
// line; perfbench/run.py turns that into the benchmark's result line.
struct Report {
  std::string sim_digest;       // determinism fingerprint of the outputs
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  bool consistent{true};         // every pass reproduced the same digest
  std::uint64_t passes{0};
  // Best-of-passes pass time: each input unit's fastest time over the
  // passes, summed (see README.md, "Best of passes").
  double best_pass_s{0};
  std::vector<Metric> metrics;   // end-to-end (timed) or per-layer (traced)
  std::vector<Metric> info;      // workload-specific figures, printed only
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_info(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  // "pass_walls_s": every pass's wall time, in run order.
  void note_pass_walls(const std::vector<double>& walls);
};

// ------------------------------------------------------------- workload ---
struct RunOptions {
  std::uint64_t seed{1};
  double seconds{10};
  int jobs{1};  // fleet_sweep worker threads
  // Steady-clock time at which main() began: the cold set-up is timed
  // from here.
  double start_s{0};
  // Set up, report setup_s and return without running a pass.
  bool setup_only{false};
};

Report run_chaos_sweep(const RunOptions& opt, Tracer& tr);
Report run_flight_audit(const RunOptions& opt, Tracer& tr);
Report run_fleet_sweep(const RunOptions& opt, Tracer& tr);

// Kernel timer-churn and wire-codec probes (traced run, every workload).
void run_probes(std::uint64_t seed, Report& r);

}  // namespace rivbench
