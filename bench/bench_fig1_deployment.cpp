// Figure 1: events received at different processes from different sensors
// in a 15-day sample home deployment (§2.1).
//
// Paper expectations: significant per-process skew for some sensors due to
// interference/obstructions — e.g. differences of ~2357 events for Door 1,
// ~58 for Motion 1, ~21 for Motion 3 — while the fraction of events lost
// on *all* links simultaneously stays tiny (~0.01-1%), which is the
// opportunity Gapless delivery exploits.
//
//   bench_fig1_deployment [--days D]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload/fig1.hpp"

namespace {

using namespace riv;

void print_figure(const workload::Fig1Result& result) {
  std::printf("\n==============================================================\n");
  std::printf("Figure 1: per-process event counts, 15-day deployment\n");
  std::printf("Paper expectation: large skew on Door 1 (~2300 events), small\n");
  std::printf("skews on motion sensors; almost no event lost on every link\n");
  std::printf("==============================================================\n\n");
  std::printf("%-10s %-9s %-9s %-9s %-9s %-7s\n", "sensor", "emitted",
              "proc1", "proc2", "proc3", "skew");
  for (const auto& row : result.rows) {
    std::printf("%-10s %-9llu", row.sensor.c_str(),
                static_cast<unsigned long long>(row.emitted));
    for (const auto& [p, n] : row.received)
      std::printf(" %-9llu", static_cast<unsigned long long>(n));
    std::printf(" %-7llu\n", static_cast<unsigned long long>(row.skew()));
  }
  std::printf("\nfraction of events lost on ALL links simultaneously: %.4f%%\n",
              100.0 * result.all_link_loss_fraction);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace riv;
  double days_total = 15.0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--days" && i + 1 < argc) {
      days_total = std::atof(argv[++i]);
    } else if (arg == "--days") {
      std::fprintf(stderr, "usage: %s [--days D]\n", argv[0]);
      return 2;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }

  workload::Fig1Options options;
  options.duration = microseconds(
      static_cast<std::int64_t>(days_total * 86400e6));
  print_figure(workload::run_fig1_deployment(options));
  return 0;
}
