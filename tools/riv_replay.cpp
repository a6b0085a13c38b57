// riv_replay: time-travel to a named record of a flight trace.
//
//   riv_replay --trace failover.rivtrace --record 118 --scenario failover
//   riv_replay --trace seed-7.rivtrace --record 500
//              --from-checkpoint seed-7-t30.rivc
//
// Given a .rivtrace file and a record id, the tool rebuilds the run that
// produced it — from scratch (--scenario, one of the blessed golden
// names) or from a RIVC checkpoint (--from-checkpoint, restored with
// byte-level attestation) — lands the simulation at the record's virtual
// time, then replays to the end and structurally diffs the regenerated
// trace against the file. Determinism makes this exact: the replayed
// trace is byte-for-byte the original, so the printed window around the
// record IS what happened, not an approximation.
//
// Exit status: 0 replay identical; 1 divergence or failed restore
// attestation; 2 usage / unreadable input.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/rivc.hpp"
#include "checkpoint/scenario.hpp"
#include "trace/diff.hpp"
#include "trace/trace.hpp"

namespace {

using namespace riv;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --trace FILE --record N\n"
      "          (--scenario NAME | --from-checkpoint F) [--context K]\n"
      "  --trace FILE          the .rivtrace to land in\n"
      "  --record N            record id (0-based, as printed by\n"
      "                        trace_diff --dump)\n"
      "  --scenario NAME       rebuild from scratch: gapless_ring |\n"
      "                        gap_chain | failover | chaos_flight\n"
      "  --from-checkpoint F   rebuild from a RIVC checkpoint (attested\n"
      "                        restore; chaos_run --checkpoint-every\n"
      "                        writes them)\n"
      "  --context K           records of context around N (default 5)\n",
      argv0);
}

double secs(TimePoint t) {
  return static_cast<double>((t - TimePoint{}).us) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string scenario_name;
  std::string checkpoint_path;
  long long record_id = -1;
  std::size_t context = 5;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--record") {
      record_id = std::atoll(next());
    } else if (arg == "--scenario") {
      scenario_name = next();
    } else if (arg == "--from-checkpoint") {
      checkpoint_path = next();
    } else if (arg == "--context") {
      context = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (trace_path.empty() || record_id < 0 ||
      (scenario_name.empty() == checkpoint_path.empty())) {
    usage(argv[0]);
    return 2;
  }

  // The trace being landed in.
  trace::Recorder file_rec;
  std::string err;
  if (!trace::Recorder::load(trace_path, &file_rec, &err)) {
    std::fprintf(stderr, "%s: %s\n", trace_path.c_str(), err.c_str());
    return 2;
  }
  const std::vector<trace::Record> want = file_rec.records();
  if (static_cast<std::size_t>(record_id) >= want.size()) {
    std::fprintf(stderr, "record %lld out of range (trace has %zu)\n",
                 record_id, want.size());
    return 2;
  }
  const std::size_t n = static_cast<std::size_t>(record_id);
  const TimePoint target = want[n].at;
  std::printf("%s: %zu records, hash %s\n", trace_path.c_str(),
              want.size(), file_rec.digest().c_str());
  std::printf("record %zu is at t=%.6fs\n", n, secs(target));

  // Rebuild the producing run.
  std::unique_ptr<checkpoint::Scenario> sc;
  if (!checkpoint_path.empty()) {
    checkpoint::Snapshot snap;
    if (!checkpoint::load(checkpoint_path, &snap, &err)) {
      std::fprintf(stderr, "%s: %s\n", checkpoint_path.c_str(),
                   err.c_str());
      return 2;
    }
    std::printf("restoring %s (scenario=%s seed=%llu at=%.3fs)\n",
                checkpoint_path.c_str(), snap.scenario.c_str(),
                static_cast<unsigned long long>(snap.seed),
                secs(snap.at));
    checkpoint::RestoreReport rep = checkpoint::restore(snap);
    if (!rep.ok) {
      std::fprintf(stderr, "restore FAILED: %s\n", rep.error.c_str());
      // No scenario means the file named one this build cannot rebuild.
      return rep.scenario != nullptr ? 1 : 2;
    }
    std::printf("restore attested: all sections byte-identical\n");
    if (target < snap.at)
      std::printf("note: record %zu precedes the checkpoint; its window "
                  "comes from the attested re-execution prefix\n",
                  n);
    sc = std::move(rep.scenario);
  } else {
    sc = checkpoint::make_golden_scenario(scenario_name);
    if (sc == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s'\n",
                   scenario_name.c_str());
      return 2;
    }
    sc->start();
  }

  // Land at the record's virtual time, then replay the rest. Chunked
  // run_to is provably equivalent to one big run, so stopping by at the
  // landing point costs nothing. Records past end_time() belong to the
  // drain/teardown phase that only finish() can reproduce — landing is
  // clamped there, never run past it.
  const TimePoint land =
      target < sc->end_time() ? target : sc->end_time();
  if (land < target)
    std::printf("record %zu is in the drain/teardown phase (after the "
                "scenario end at t=%.3fs); landing there instead\n",
                n, secs(land));
  sc->run_to(land);
  std::printf("landed at t=%.6fs (sim now %.6fs)\n", secs(land),
              secs(sc->now()));
  sc->run_to(sc->end_time());
  sc->finish();

  std::shared_ptr<trace::Recorder> replay = sc->recorder();
  if (replay == nullptr) {
    std::fprintf(stderr, "scenario has no flight recorder\n");
    return 2;
  }
  const std::vector<trace::Record> got = replay->records();

  // The window around the landing record, from the replayed run (proved
  // identical below; shown from the replay to make the point that it IS
  // the replay being displayed).
  const std::size_t lo = n >= context ? n - context : 0;
  const std::size_t hi =
      n + context + 1 < got.size() ? n + context + 1 : got.size();
  std::printf("--- records %zu..%zu ---\n", lo, hi == 0 ? 0 : hi - 1);
  for (std::size_t i = lo; i < hi; ++i)
    std::printf("%s[%zu] %s\n", i == n ? ">>> " : "    ", i,
                trace::to_string(got[i]).c_str());

  trace::Divergence d = trace::diff(want, got);
  if (d.identical) {
    std::printf("replay identical: %zu records, hash %s\n", got.size(),
                replay->digest().c_str());
    return 0;
  }
  std::printf("REPLAY DIVERGED:\n%s",
              trace::render(want, got, d, context).c_str());
  return 1;
}
