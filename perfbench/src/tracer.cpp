#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "alloc_count.hpp"
#include "bench.hpp"

namespace rivbench {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

Tracer::Tracer(bool on) : on_(on) {
  if (on_) spans_.reserve(1 << 16);
}

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(&t) {
  if (!t.on_) return;
  Span s;
  s.name = name;
  s.parent = t.open_.empty() ? 0 : t.open_.back();
  s.op = t.op_;
  t.spans_.push_back(s);
  index_ = static_cast<std::uint32_t>(t.spans_.size());
  t.open_.push_back(index_);
  // Read the counters last so the span's own bookkeeping stays outside.
  allocs0_ = thread_allocs();
  t.spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ == 0) return;
  const std::uint64_t end = now_ns();
  const std::uint64_t allocs = thread_allocs() - allocs0_;
  Span& s = t_->spans_[index_ - 1];
  s.end_ns = end;
  s.allocs = allocs;
  t_->open_.pop_back();
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  Totals t;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    ++t.count;
    t.ns += static_cast<double>(s.end_ns - s.start_ns);
    t.allocs += static_cast<double>(s.allocs);
  }
  return t;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,parent,op,name,start_ns,end_ns,allocs\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%u,%u,%s,%llu,%llu,%llu\n", i + 1, s.parent, s.op,
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.allocs));
  }
  return std::fclose(f) == 0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[i];
}

int tail_percentile(std::size_t n) {
  for (int p = 99; p >= 50; --p)
    if (static_cast<double>(n) * (100 - p) / 100.0 >= 10.0) return p;
  return 0;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void Report::note_pass_walls(const std::vector<double>& walls) {
  std::string s;
  for (double w : walls) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%s%.4f", s.empty() ? "" : " ", w);
    s += buf;
  }
  note("pass_walls_s", s);
}

}  // namespace rivbench
