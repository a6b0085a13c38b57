#include "trace/provenance.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

namespace riv::trace {

namespace {

Stage stage_of(Kind k) {
  switch (k) {
    case Kind::kEmit: return Stage::kGenerated;
    case Kind::kAdapterRx: return Stage::kAdapterRx;
    case Kind::kIngest: return Stage::kIngested;
    case Kind::kDeliver: return Stage::kDelivered;
    case Kind::kLogicFire: return Stage::kLogicFired;
    case Kind::kCommand: return Stage::kCommandSent;
    case Kind::kActuated: return Stage::kActuated;
    default: return static_cast<Stage>(-1);
  }
}

std::string fmt_ms(std::int64_t us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3fms",
                static_cast<double>(us) / 1e3);
  return buf;
}

std::string fmt_s(std::int64_t us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6fs",
                static_cast<double>(us) / 1e6);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void hist_json(std::string& out, const char* name,
               const metrics::Histogram& h) {
  out += '"';
  out += name;
  out += "\":{\"count\":" + std::to_string(h.count());
  out += ",\"p50_us\":" + std::to_string(h.percentile(0.5).us);
  out += ",\"p99_us\":" + std::to_string(h.percentile(0.99).us);
  out += ",\"max_us\":" + std::to_string(h.max().us);
  out += ",\"mean_us\":" + std::to_string(h.mean().us);
  out += '}';
}

}  // namespace

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kGenerated: return "generated";
    case Stage::kAdapterRx: return "adapter_rx";
    case Stage::kIngested: return "ingested";
    case Stage::kDelivered: return "delivered";
    case Stage::kLogicFired: return "logic_fired";
    case Stage::kCommandSent: return "command_sent";
    case Stage::kActuated: return "actuated";
  }
  return "?";
}

std::int64_t Chain::last_activity_us() const {
  std::int64_t last = -1;
  for (std::int64_t t : first_us) last = std::max(last, t);
  return last;
}

std::size_t Analysis::unexplained_orphans() const {
  std::size_t n = 0;
  for (const Orphan& o : orphans)
    if (!o.explained()) ++n;
  return n;
}

int Analysis::stages_present() const {
  int n = 0;
  for (std::uint64_t c : stage_chains)
    if (c > 0) ++n;
  return n;
}

Analysis analyze(const std::vector<Record>& records,
                 const AnalyzeOptions& opt) {
  Analysis a;
  a.n_records = records.size();

  std::map<ProvenanceId, Chain> chains;
  std::map<ProvenanceId, std::int64_t> last_seen;

  // Promotion epochs: failover legitimately re-delivers an event to the
  // newly promoted logic node, so duplicate detection is scoped to one
  // (process, app) promotion epoch.
  std::map<std::pair<std::uint16_t, std::uint32_t>, std::uint32_t> epoch;
  struct DeliverKey {
    ProvenanceId id;
    std::uint16_t process;
    std::uint32_t app;
    std::uint32_t epoch;
    auto operator<=>(const DeliverKey&) const = default;
  };
  std::map<DeliverKey, std::uint32_t> deliver_counts;

  std::set<std::uint16_t> down;  // processes crashed and not yet recovered

  for (const Record& r : records) {
    a.trace_end_us = std::max(a.trace_end_us, r.at.us);

    switch (r.kind) {
      case Kind::kPromote: {
        ++epoch[{r.process.value,
                 static_cast<std::uint32_t>(r.u64(Key::kApp))}];
        break;
      }
      case Kind::kCrash:
        down.insert(r.process.value);
        break;
      case Kind::kRecover:
        down.erase(r.process.value);
        break;
      case Kind::kFault:
        if (r.has(Key::kFaultId)) {
          FaultSpan f;
          f.fault_id = static_cast<int>(r.u64(Key::kFaultId));
          f.at_us = r.at.us;
          f.what = r.str(Key::kText);
          a.faults.push_back(std::move(f));
        }
        break;
      default:
        break;
    }

    if (!r.prov.valid()) continue;
    Stage s = stage_of(r.kind);
    if (static_cast<int>(s) < 0) continue;

    Chain& c = chains[r.prov];
    c.id = r.prov;
    std::size_t si = static_cast<std::size_t>(s);
    if (c.first_us[si] < 0) c.first_us[si] = r.at.us;
    ++c.count[si];
    last_seen[r.prov] = std::max(last_seen[r.prov], r.at.us);

    if (s == Stage::kIngested) {
      if (std::find(c.ingest_processes.begin(), c.ingest_processes.end(),
                    r.process) == c.ingest_processes.end())
        c.ingest_processes.push_back(r.process);
    }
    if (s == Stage::kDelivered) {
      std::uint32_t app = static_cast<std::uint32_t>(r.u64(Key::kApp));
      DeliverKey key{r.prov, r.process.value, app,
                     epoch[{r.process.value, app}]};
      ++deliver_counts[key];
    }
  }

  a.n_chains = chains.size();

  for (const auto& [key, n] : deliver_counts) {
    if (n <= 1) continue;
    Duplicate d;
    d.id = key.id;
    d.process = ProcessId{key.process};
    d.app = key.app;
    d.deliveries = n;
    a.duplicates.push_back(d);
  }

  // Per-chain derivations: stage coverage, leg latencies, e2e, ordering,
  // orphan classification.
  for (const auto& [id, c] : chains) {
    for (int i = 0; i < kStageCount; ++i)
      if (c.first_us[static_cast<std::size_t>(i)] >= 0)
        ++a.stage_chains[static_cast<std::size_t>(i)];

    for (int i = 1; i < kStageCount; ++i) {
      Stage cur = static_cast<Stage>(i);
      Stage prev = static_cast<Stage>(i - 1);
      if (c.reached(cur) && c.reached(prev))
        a.leg[static_cast<std::size_t>(i)].record_us(c.at(cur) -
                                                     c.at(prev));
    }
    if (c.reached(Stage::kGenerated) && c.reached(Stage::kDelivered))
      a.e2e_delivery.record_us(c.at(Stage::kDelivered) -
                               c.at(Stage::kGenerated));
    if (c.reached(Stage::kGenerated) && c.reached(Stage::kActuated))
      a.e2e_full.record_us(c.at(Stage::kActuated) -
                           c.at(Stage::kGenerated));

    std::int64_t prev_t = -1;
    Stage prev_s = Stage::kGenerated;
    for (int i = 0; i < kStageCount; ++i) {
      Stage s = static_cast<Stage>(i);
      if (!c.reached(s)) continue;
      if (prev_t >= 0 && c.at(s) < prev_t) {
        a.ordering_violations.push_back(
            "event " + riv::to_string(id) + ": " + to_string(s) +
            " at " + fmt_s(c.at(s)) + " before " + to_string(prev_s) +
            " at " + fmt_s(prev_t));
      }
      prev_t = c.at(s);
      prev_s = s;
    }

    if (c.reached(Stage::kIngested) && !c.reached(Stage::kDelivered)) {
      Orphan o;
      o.id = id;
      auto it = last_seen.find(id);
      o.last_activity_us = it == last_seen.end() ? c.last_activity_us()
                                                 : it->second;
      if (o.last_activity_us >= a.trace_end_us - opt.grace.us) {
        o.reason = "in_flight_at_end";
      } else {
        bool all_down = !c.ingest_processes.empty();
        for (ProcessId p : c.ingest_processes)
          if (down.count(p.value) == 0) all_down = false;
        o.reason = all_down ? "crashed_host" : "unexplained";
      }
      a.orphans.push_back(std::move(o));
    }
  }

  // Tail attribution: chains whose delivery e2e reached the tail quantile,
  // joined against faults overlapping [generated - window, last stage].
  std::int64_t threshold =
      a.e2e_delivery.percentile(opt.tail_quantile).us;
  if (!a.e2e_delivery.empty()) {
    for (const auto& [id, c] : chains) {
      if (!c.reached(Stage::kGenerated) || !c.reached(Stage::kDelivered))
        continue;
      std::int64_t e2e = c.at(Stage::kDelivered) - c.at(Stage::kGenerated);
      if (e2e < threshold) continue;
      TailEvent t;
      t.id = id;
      t.e2e_us = e2e;
      std::int64_t lo = c.at(Stage::kGenerated) - opt.fault_window.us;
      std::int64_t hi = c.last_activity_us();
      for (const FaultSpan& f : a.faults)
        if (f.at_us >= lo && f.at_us <= hi) t.fault_ids.push_back(f.fault_id);
      a.tails.push_back(std::move(t));
    }
    std::sort(a.tails.begin(), a.tails.end(),
              [](const TailEvent& x, const TailEvent& y) {
                if (x.e2e_us != y.e2e_us) return x.e2e_us > y.e2e_us;
                return x.id < y.id;
              });
  }

  return a;
}

std::string render(const Analysis& a) {
  std::string out;
  char buf[256];

  std::snprintf(buf, sizeof(buf),
                "trace: %zu records, %zu event chains, ends at %s\n",
                a.n_records, a.n_chains, fmt_s(a.trace_end_us).c_str());
  out += buf;

  out += "stage coverage (chains reaching each stage):\n";
  for (int i = 0; i < kStageCount; ++i) {
    std::snprintf(buf, sizeof(buf), "  %-13s %8llu\n",
                  to_string(static_cast<Stage>(i)),
                  static_cast<unsigned long long>(
                      a.stage_chains[static_cast<std::size_t>(i)]));
    out += buf;
  }

  out += "per-stage latency (p50 / p99 / max):\n";
  std::int64_t sum_medians = 0;
  for (int i = 1; i < kStageCount; ++i) {
    const metrics::Histogram& h = a.leg[static_cast<std::size_t>(i)];
    if (h.empty()) continue;
    std::snprintf(buf, sizeof(buf),
                  "  %-11s -> %-13s %12s / %12s / %12s  (n=%zu)\n",
                  to_string(static_cast<Stage>(i - 1)),
                  to_string(static_cast<Stage>(i)),
                  fmt_ms(h.percentile(0.5).us).c_str(),
                  fmt_ms(h.percentile(0.99).us).c_str(),
                  fmt_ms(h.max().us).c_str(), h.count());
    out += buf;
    if (i <= static_cast<int>(Stage::kDelivered))
      sum_medians += h.percentile(0.5).us;
  }

  if (!a.e2e_delivery.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "e2e generated -> delivered: p50 %s  p99 %s  max %s  "
                  "(n=%zu)\n",
                  fmt_ms(a.e2e_delivery.percentile(0.5).us).c_str(),
                  fmt_ms(a.e2e_delivery.percentile(0.99).us).c_str(),
                  fmt_ms(a.e2e_delivery.max().us).c_str(),
                  a.e2e_delivery.count());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  sum of leg medians on the delivery path: %s\n",
                  fmt_ms(sum_medians).c_str());
    out += buf;
  }
  if (!a.e2e_full.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "e2e generated -> actuated : p50 %s  p99 %s  max %s  "
                  "(n=%zu)\n",
                  fmt_ms(a.e2e_full.percentile(0.5).us).c_str(),
                  fmt_ms(a.e2e_full.percentile(0.99).us).c_str(),
                  fmt_ms(a.e2e_full.max().us).c_str(),
                  a.e2e_full.count());
    out += buf;
  }

  std::size_t in_flight = 0, crashed = 0;
  for (const Orphan& o : a.orphans) {
    if (o.reason == "in_flight_at_end") ++in_flight;
    if (o.reason == "crashed_host") ++crashed;
  }
  std::snprintf(buf, sizeof(buf),
                "orphans: %zu (%zu in_flight_at_end, %zu crashed_host, "
                "%zu unexplained)\n",
                a.orphans.size(), in_flight, crashed,
                a.unexplained_orphans());
  out += buf;
  for (const Orphan& o : a.orphans) {
    if (o.explained()) continue;
    out += "  UNEXPLAINED " + riv::to_string(o.id) + " last activity " +
           fmt_s(o.last_activity_us) + "\n";
  }

  std::snprintf(buf, sizeof(buf), "duplicate deliveries: %zu\n",
                a.duplicates.size());
  out += buf;
  for (const Duplicate& d : a.duplicates) {
    std::snprintf(buf, sizeof(buf),
                  "  DUPLICATE %s delivered %u times to p%u app %u within "
                  "one promotion epoch\n",
                  riv::to_string(d.id).c_str(), d.deliveries,
                  d.process.value, d.app);
    out += buf;
  }

  std::snprintf(buf, sizeof(buf), "faults injected: %zu\n",
                a.faults.size());
  out += buf;

  std::size_t attributed = 0;
  for (const TailEvent& t : a.tails)
    if (!t.fault_ids.empty()) ++attributed;
  std::snprintf(buf, sizeof(buf),
                "tail events (e2e >= p99): %zu, %zu attributed to faults\n",
                a.tails.size(), attributed);
  out += buf;
  std::size_t shown = 0;
  for (const TailEvent& t : a.tails) {
    if (shown++ >= 10) {
      std::snprintf(buf, sizeof(buf), "  ... %zu more\n",
                    a.tails.size() - 10);
      out += buf;
      break;
    }
    out += "  " + riv::to_string(t.id) + " e2e=" + fmt_ms(t.e2e_us) +
           " faults=[";
    for (std::size_t i = 0; i < t.fault_ids.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(t.fault_ids[i]);
    }
    out += "]\n";
  }

  if (!a.ordering_violations.empty()) {
    std::snprintf(buf, sizeof(buf), "stage-ordering violations: %zu\n",
                  a.ordering_violations.size());
    out += buf;
    for (const std::string& v : a.ordering_violations)
      out += "  " + v + "\n";
  }

  return out;
}

std::string render_json(const Analysis& a) {
  std::string out = "{";
  out += "\"records\":" + std::to_string(a.n_records);
  out += ",\"chains\":" + std::to_string(a.n_chains);
  out += ",\"trace_end_us\":" + std::to_string(a.trace_end_us);
  out += ",\"stages\":{";
  for (int i = 0; i < kStageCount; ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += to_string(static_cast<Stage>(i));
    out += "\":" +
           std::to_string(a.stage_chains[static_cast<std::size_t>(i)]);
  }
  out += "},\"legs\":{";
  bool first = true;
  for (int i = 1; i < kStageCount; ++i) {
    const metrics::Histogram& h = a.leg[static_cast<std::size_t>(i)];
    if (h.empty()) continue;
    if (!first) out += ',';
    first = false;
    std::string name = std::string(to_string(static_cast<Stage>(i - 1))) +
                       "->" + to_string(static_cast<Stage>(i));
    hist_json(out, name.c_str(), h);
  }
  out += "},";
  hist_json(out, "e2e_delivery", a.e2e_delivery);
  out += ',';
  hist_json(out, "e2e_full", a.e2e_full);

  out += ",\"orphans\":[";
  for (std::size_t i = 0; i < a.orphans.size(); ++i) {
    const Orphan& o = a.orphans[i];
    if (i > 0) out += ',';
    out += "{\"event\":\"" + json_escape(riv::to_string(o.id)) +
           "\",\"last_activity_us\":" +
           std::to_string(o.last_activity_us) + ",\"reason\":\"" +
           json_escape(o.reason) + "\"}";
  }
  out += "],\"duplicates\":[";
  for (std::size_t i = 0; i < a.duplicates.size(); ++i) {
    const Duplicate& d = a.duplicates[i];
    if (i > 0) out += ',';
    out += "{\"event\":\"" + json_escape(riv::to_string(d.id)) +
           "\",\"process\":" + std::to_string(d.process.value) +
           ",\"app\":" + std::to_string(d.app) +
           ",\"deliveries\":" + std::to_string(d.deliveries) + "}";
  }
  out += "],\"faults\":[";
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    const FaultSpan& f = a.faults[i];
    if (i > 0) out += ',';
    out += "{\"id\":" + std::to_string(f.fault_id) +
           ",\"at_us\":" + std::to_string(f.at_us) + ",\"what\":\"" +
           json_escape(f.what) + "\"}";
  }
  out += "],\"tails\":[";
  for (std::size_t i = 0; i < a.tails.size(); ++i) {
    const TailEvent& t = a.tails[i];
    if (i > 0) out += ',';
    out += "{\"event\":\"" + json_escape(riv::to_string(t.id)) +
           "\",\"e2e_us\":" + std::to_string(t.e2e_us) + ",\"faults\":[";
    for (std::size_t j = 0; j < t.fault_ids.size(); ++j) {
      if (j > 0) out += ',';
      out += std::to_string(t.fault_ids[j]);
    }
    out += "]}";
  }
  out += "],\"ordering_violations\":[";
  for (std::size_t i = 0; i < a.ordering_violations.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + json_escape(a.ordering_violations[i]) + '"';
  }
  out += "]}";
  return out;
}

CheckResult check(const Analysis& a) {
  CheckResult r;
  for (const Orphan& o : a.orphans) {
    if (o.explained()) continue;
    r.problems.push_back("unexplained orphan " + riv::to_string(o.id) +
                         " (ingested, never delivered, hosts alive)");
  }
  for (const Duplicate& d : a.duplicates) {
    r.problems.push_back(
        "duplicate delivery of " + riv::to_string(d.id) + " to p" +
        std::to_string(d.process.value) + " app " + std::to_string(d.app) +
        " (" + std::to_string(d.deliveries) + "x in one epoch)");
  }
  for (const std::string& v : a.ordering_violations)
    r.problems.push_back("stage ordering: " + v);
  r.ok = r.problems.empty();
  return r;
}

// --- Byzantine integrity audit ------------------------------------------

namespace {

// A ground-truth kByzantine marker, fields read once.
struct Marker {
  std::int64_t at{0};
  std::uint64_t fault_id{0};
  std::string what;        // spoof|replay|mutate|dup|drop
  ProvenanceId prov{};     // device attacks (spoof/replay)
  std::string type;        // net attacks (mutate/dup/drop)
  std::uint64_t src{0};
  std::uint64_t dst{0};
};

// A runtime kTamper verdict awaiting attribution.
struct TamperRec {
  std::int64_t at{0};
  std::uint64_t process{0};  // the rejecting process
  std::string what;          // spoof|replay|bad_mac
  ProvenanceId prov{};       // spoof/replay
  std::string type;          // bad_mac
  std::uint64_t src{0};      // bad_mac
  bool used{false};
};

// One network-layer record for a frame: a transmitted copy (kSend or an
// at-send kDrop) or a loss/byzantine drop.
struct NetRec {
  std::int64_t at{0};
  bool is_drop{false};
  std::string_view reason;  // empty for kSend; views the audited record
  bool used{false};
};

std::string fmt_at(std::int64_t us) { return "t=" + fmt_s(us); }

}  // namespace

Audit audit(const std::vector<Record>& records) {
  Audit a;
  a.n_records = records.size();

  std::vector<Marker> markers;
  std::vector<TamperRec> tampers;
  // Byzantine drops and per-frame transmission records, keyed by the
  // frame tuple. Vectors stay time-ordered (records are). The type and
  // reason view the audited records' fields, which outlive this call.
  using FrameKey =
      std::tuple<std::string_view, std::uint64_t, std::uint64_t>;
  std::map<FrameKey, std::vector<NetRec>> frames;

  for (const Record& r : records) {
    if (r.kind == Kind::kByzantine) {
      Marker m;
      m.at = r.at.us;
      m.fault_id = r.u64(Key::kFaultId);
      m.what = r.str(Key::kText);
      m.prov = r.prov;
      m.type = r.str(Key::kType);
      m.src = r.pid(Key::kSrc).value;
      m.dst = r.pid(Key::kDst).value;
      markers.push_back(std::move(m));
    } else if (r.kind == Kind::kTamper) {
      TamperRec t;
      t.at = r.at.us;
      t.process = r.process.value;
      t.what = r.str(Key::kText);
      t.prov = r.prov;
      t.type = r.str(Key::kType);
      t.src = r.pid(Key::kSrc).value;
      tampers.push_back(std::move(t));
    } else if (r.component == Component::kNet &&
               (r.kind == Kind::kSend || r.kind == Kind::kDrop)) {
      std::string_view type = r.str(Key::kType);
      if (type.empty()) continue;
      NetRec n;
      n.at = r.at.us;
      n.is_drop = r.kind == Kind::kDrop;
      if (n.is_drop) n.reason = r.str(Key::kReason);
      frames[{type, r.pid(Key::kSrc).value, r.pid(Key::kDst).value}]
          .push_back(n);
    }
  }

  a.attacks = markers.size();

  // Match each marker greedily in trace order, consuming evidence so N
  // identical attacks demand N independent pieces of evidence. Mutates
  // are only classified here; their evidence is resolved in a second
  // pass below, which needs the full per-key marker set at once.
  std::map<FrameKey, std::vector<std::size_t>> mutate_idx;
  for (const Marker& m : markers) {
    AuditFinding f;
    f.fault_id = m.fault_id;
    f.at_us = m.at;

    auto claim_tamper = [&](const char* verdict,
                            auto&& match) -> TamperRec* {
      for (TamperRec& t : tampers) {
        if (t.used || t.what != verdict || t.at < m.at) continue;
        if (!match(t)) continue;
        t.used = true;
        return &t;
      }
      return nullptr;
    };

    if (m.what == "spoof" || m.what == "replay") {
      f.cls = m.what == "spoof" ? "forged_origin" : "replayed_seq";
      f.attack = m.what + " of " + riv::to_string(m.prov) + " -> p" +
                 std::to_string(m.dst);
      // Device dispatch is synchronous: the verdict lands at the marker
      // instant, at the targeted process, for that exact event.
      if (TamperRec* t = claim_tamper(m.what.c_str(), [&](const TamperRec& t) {
            return t.process == m.dst && t.prov == m.prov;
          })) {
        f.detected = true;
        f.evidence = "rejected by p" + std::to_string(t->process) + " (" +
                     t->what + ", " + fmt_at(t->at) + ")";
      }
    } else if (m.what == "mutate") {
      f.cls = "mutated_payload";
      f.attack = "mutate " + m.type + " p" + std::to_string(m.src) + " -> p" +
                 std::to_string(m.dst);
      mutate_idx[{m.type, m.src, m.dst}].push_back(a.findings.size());
    } else if (m.what == "dup") {
      f.cls = "duplicated_forward";
      f.attack = "duplicate " + m.type + " p" + std::to_string(m.src) +
                 " -> p" + std::to_string(m.dst);
      // Each transmitted copy logs exactly one at-send record (kSend, or
      // kDrop unreachable/edge_loss) at the marker instant; two copies on
      // the wire is the attack's network-visible signature.
      auto it = frames.find({m.type, m.src, m.dst});
      std::size_t copies = 0;
      if (it != frames.end()) {
        for (NetRec& n : it->second) {
          if (n.used || n.at != m.at) continue;
          if (n.is_drop && n.reason != "edge_loss" &&
              n.reason != "unreachable")
            continue;
          n.used = true;
          if (++copies == 2) break;
        }
      }
      if (copies >= 2) {
        f.detected = true;
        f.evidence = "2 copies on the air at " + fmt_at(m.at);
      }
    } else if (m.what == "drop") {
      f.cls = "dropped_by_corrupt_host";
      f.attack = "drop " + m.type + " p" + std::to_string(m.src) + " -> p" +
                 std::to_string(m.dst);
      auto it = frames.find({m.type, m.src, m.dst});
      if (it != frames.end()) {
        for (NetRec& n : it->second) {
          if (n.used || !n.is_drop || n.at != m.at ||
              n.reason != "byzantine")
            continue;
          n.used = true;
          f.detected = true;
          f.evidence = "kDrop reason=byzantine at " + fmt_at(n.at);
          break;
        }
      }
    } else {
      f.cls = "unknown_attack";
      f.attack = m.what;
    }

    a.findings.push_back(std::move(f));
  }

  // Resolve mutate markers per frame key. A bad_mac verdict can ONLY
  // come from a mutated frame (a genuinely sealed frame never fails the
  // MAC), so every verdict belongs to some marker — assign each verdict
  // to the LATEST still-open marker at or before it. Assigning earliest-
  // first instead would let a marker whose frame died in the network
  // swallow a verdict belonging to a later attack, whose own loss drops
  // all lie in the past — misreporting a detected attack as missed.
  for (auto& [key, idxs] : mutate_idx) {
    for (TamperRec& t : tampers) {
      if (t.used || t.what != "bad_mac") continue;
      if (t.process != std::get<2>(key) || t.src != std::get<1>(key) ||
          t.type != std::get<0>(key))
        continue;
      std::size_t* best = nullptr;
      for (std::size_t& i : idxs) {
        if (a.findings[i].detected || a.findings[i].lost) continue;
        if (a.findings[i].at_us > t.at) break;  // idxs are time-ordered
        best = &i;
      }
      if (best == nullptr) continue;  // leave unattributed
      t.used = true;
      AuditFinding& f = a.findings[*best];
      f.detected = true;
      f.evidence = "bad_mac rejected by p" + std::to_string(t.process) +
                   " (" + fmt_at(t.at) + ")";
    }
    // Markers with no verdict: the frame must have died in the simulated
    // network before reaching a receive gate. Claim the matching drop.
    auto fit = frames.find(key);
    for (std::size_t i : idxs) {
      AuditFinding& f = a.findings[i];
      if (f.detected || fit == frames.end()) continue;
      for (NetRec& n : fit->second) {
        if (n.used || !n.is_drop || n.at < f.at_us) continue;
        if (n.reason != "edge_loss" && n.reason != "unreachable" &&
            n.reason != "in_flight")
          continue;
        n.used = true;
        f.lost = true;
        f.evidence = "frame lost in network (" + std::string(n.reason) +
                     ", " + fmt_at(n.at) + ")";
        break;
      }
    }
  }

  for (const AuditFinding& f : a.findings) {
    if (f.detected) {
      ++a.detected;
      ++a.by_class[f.cls];
    } else if (f.lost) {
      ++a.lost;
    } else {
      ++a.missed;
    }
  }

  // Whatever detector evidence is left matched no injected attack.
  for (const TamperRec& t : tampers) {
    if (t.used) continue;
    std::string d = "tamper " + t.what + " at p" + std::to_string(t.process) +
                    " (" + fmt_at(t.at) + ")";
    if (t.prov.valid()) d += " event " + riv::to_string(t.prov);
    if (!t.type.empty())
      d += " frame " + t.type + " from p" + std::to_string(t.src);
    a.unattributed.push_back(std::move(d));
  }
  for (const auto& [key, recs] : frames) {
    for (const NetRec& n : recs) {
      if (n.used || !n.is_drop || n.reason != "byzantine") continue;
      a.unattributed.push_back(
          "kDrop reason=byzantine " + std::string(std::get<0>(key)) +
          " p" + std::to_string(std::get<1>(key)) + " -> p" +
          std::to_string(std::get<2>(key)) + " (" + fmt_at(n.at) + ")");
    }
  }
  return a;
}

std::string render(const Audit& a) {
  std::string out = "== integrity audit ==\n";
  out += "records:  " + std::to_string(a.n_records) + "\n";
  out += "attacks:  " + std::to_string(a.attacks) + " injected; " +
         std::to_string(a.detected) + " detected, " +
         std::to_string(a.lost) + " lost in network, " +
         std::to_string(a.missed) + " missed\n";
  if (!a.by_class.empty()) {
    out += "by class:\n";
    for (const auto& [cls, n] : a.by_class)
      out += "  " + cls + ": " + std::to_string(n) + "\n";
  }
  for (const AuditFinding& f : a.findings) {
    out += "[" + f.cls + "] fault id=" + std::to_string(f.fault_id) + " " +
           fmt_at(f.at_us) + ": " + f.attack + "\n";
    if (f.detected || f.lost)
      out += "    " + f.evidence + "\n";
    else
      out += "    MISSED: no detector evidence in trace\n";
  }
  if (!a.unattributed.empty()) {
    out += "unattributed detector evidence (" +
           std::to_string(a.unattributed.size()) + "):\n";
    for (const std::string& u : a.unattributed) out += "  " + u + "\n";
  }
  out += a.all_accounted()
             ? "verdict:  all attacks accounted for\n"
             : "verdict:  AUDIT FAILED\n";
  return out;
}

std::string render_json(const Audit& a) {
  std::string out = "{";
  out += "\"records\":" + std::to_string(a.n_records);
  out += ",\"attacks\":" + std::to_string(a.attacks);
  out += ",\"detected\":" + std::to_string(a.detected);
  out += ",\"lost\":" + std::to_string(a.lost);
  out += ",\"missed\":" + std::to_string(a.missed);
  out += ",\"by_class\":{";
  bool first = true;
  for (const auto& [cls, n] : a.by_class) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(cls) + "\":" + std::to_string(n);
  }
  out += "},\"findings\":[";
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    const AuditFinding& f = a.findings[i];
    if (i > 0) out += ',';
    out += "{\"class\":\"" + json_escape(f.cls) + "\"";
    out += ",\"fault_id\":" + std::to_string(f.fault_id);
    out += ",\"at_us\":" + std::to_string(f.at_us);
    out += ",\"attack\":\"" + json_escape(f.attack) + "\"";
    out += ",\"detected\":" + std::string(f.detected ? "true" : "false");
    out += ",\"lost\":" + std::string(f.lost ? "true" : "false");
    out += ",\"evidence\":\"" + json_escape(f.evidence) + "\"}";
  }
  out += "],\"unattributed\":[";
  for (std::size_t i = 0; i < a.unattributed.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + json_escape(a.unattributed[i]) + '"';
  }
  out += "],\"ok\":" + std::string(a.all_accounted() ? "true" : "false");
  out += "}";
  return out;
}

CheckResult check(const Audit& a) {
  CheckResult r;
  for (const AuditFinding& f : a.findings) {
    if (f.detected || f.lost) continue;
    r.problems.push_back("undetected attack: [" + f.cls + "] fault id=" +
                         std::to_string(f.fault_id) + " " + f.attack);
  }
  for (const std::string& u : a.unattributed)
    r.problems.push_back("unattributed detector evidence: " + u);
  r.ok = r.problems.empty();
  return r;
}

}  // namespace riv::trace
