// trace_diff: structural diff of two flight-recorder traces.
//
//   trace_diff a.rivtrace b.rivtrace     # first divergent record + context
//   trace_diff --dump a.rivtrace         # print every record of one trace
//
// Traces from the same seed are byte-identical, so any difference is a
// real behavioural divergence; this tool pinpoints the first divergent
// record and shows the (identical) records leading up to it, which is
// usually enough to read off the causal story.
//
// Exit status: 0 traces identical (or --dump); 1 traces differ; 2 usage /
// unreadable file.
#include <cstdio>
#include <cstring>
#include <string>

#include "trace/diff.hpp"
#include "trace/trace.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--context N] A.rivtrace B.rivtrace\n"
               "       %s --dump A.rivtrace\n"
               "  --context N   records of context before the divergence "
               "(default 5)\n",
               argv0, argv0);
}

bool load(const char* path, riv::trace::Recorder& out) {
  std::string err;
  if (!riv::trace::Recorder::load(path, &out, &err)) {
    std::fprintf(stderr, "%s: %s\n", path, err.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool dump = false;
  std::size_t context = 5;
  const char* paths[2] = {nullptr, nullptr};
  int n_paths = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--context") == 0) {
      if (i + 1 >= argc) {
        usage(argv[0]);
        return 2;
      }
      context = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      usage(argv[0]);
      return 2;
    } else if (n_paths < 2) {
      paths[n_paths++] = argv[i];
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  if (dump) {
    if (n_paths != 1) {
      usage(argv[0]);
      return 2;
    }
    riv::trace::Recorder rec;
    if (!load(paths[0], rec)) return 2;
    std::printf("%s: %zu records, hash %s\n", paths[0], rec.size(),
                rec.digest().c_str());
    std::size_t i = 0;
    // records() decodes the packed arena on demand; do it once.
    for (const riv::trace::Record& r : rec.records())
      std::printf("[%zu] %s\n", i++, riv::trace::to_string(r).c_str());
    return 0;
  }

  if (n_paths != 2) {
    usage(argv[0]);
    return 2;
  }
  riv::trace::Recorder a, b;
  if (!load(paths[0], a) || !load(paths[1], b)) return 2;

  // Decode each packed trace once (records() copies on every call).
  const std::vector<riv::trace::Record> ra = a.records();
  const std::vector<riv::trace::Record> rb = b.records();
  riv::trace::Divergence d = riv::trace::diff(ra, rb);
  std::printf("a: %s (%zu records, hash %s)\n", paths[0], a.size(),
              a.digest().c_str());
  std::printf("b: %s (%zu records, hash %s)\n", paths[1], b.size(),
              b.digest().c_str());
  std::printf("%s", riv::trace::render(ra, rb, d, context).c_str());
  return d.identical ? 0 : 1;
}
