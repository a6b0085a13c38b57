#include "trace/diff.hpp"

#include <algorithm>

namespace riv::trace {
namespace {

// Field-level comparison so reports can say *what* changed, not just that
// something did.
std::string first_differing_field(const Record& a, const Record& b) {
  if (a.at != b.at) return "at";
  if (a.process != b.process) return "process";
  if (a.component != b.component) return "component";
  if (a.kind != b.kind) return "kind";
  if (a.prov != b.prov) return "prov";
  if (a != b) return "detail";  // only the packed fields are left
  return "";
}

}  // namespace

Divergence diff(const std::vector<Record>& a, const std::vector<Record>& b) {
  Divergence d;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::string field = first_differing_field(a[i], b[i]);
    if (!field.empty()) {
      d.identical = false;
      d.index = i;
      d.field = std::move(field);
      return d;
    }
  }
  if (a.size() != b.size()) {
    d.identical = false;
    d.index = n;
    d.field = "length";
  }
  return d;
}

std::string render(const std::vector<Record>& a,
                   const std::vector<Record>& b, const Divergence& d,
                   std::size_t context) {
  if (d.identical) {
    return "traces identical (" + std::to_string(a.size()) + " records)";
  }
  std::string out;
  out += "first divergence at record " + std::to_string(d.index) +
         " (field: " + d.field + ")\n";
  const std::size_t from = d.index > context ? d.index - context : 0;
  for (std::size_t i = from; i < d.index; ++i) {
    out += "    [" + std::to_string(i) + "] " + to_string(a[i]) + "\n";
  }
  auto side = [&](const char* label, const std::vector<Record>& t) {
    if (d.index < t.size()) {
      out += std::string(label) + " [" + std::to_string(d.index) + "] " +
             to_string(t[d.index]) + "\n";
    } else {
      out += std::string(label) + " [" + std::to_string(d.index) +
             "] <end of trace: " + std::to_string(t.size()) + " records>\n";
    }
  };
  side("  a:", a);
  side("  b:", b);
  return out;
}

}  // namespace riv::trace
